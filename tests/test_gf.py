import pytest

from hallforge.errors import CapabilityError
from hallforge.gf import factor_prime_power, field


def test_factor_prime_power():
    assert factor_prime_power(8) == (2, 3)
    assert factor_prime_power(9) == (3, 2)
    assert factor_prime_power(13) == (13, 1)
    assert factor_prime_power(12) is None
    assert factor_prime_power(1) is None


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16])
def test_field_axioms_exhaustive(q):
    K = field(q)
    for a in range(q):
        assert K.add[a * q + 0] == a
        assert K.mul[a * q + 1] == a
        assert K.mul[a * q + 0] == 0
        assert K.add[a * q + K.neg[a]] == 0
        if a:
            assert K.mul[a * q + K.inv[a]] == 1
        for b in range(q):
            assert K.add[a * q + b] == K.add[b * q + a]
            assert K.mul[a * q + b] == K.mul[b * q + a]
            assert K.sub[a * q + b] == K.add[a * q + K.neg[b]]
            for c in range(q):
                ab_c = K.add[K.add[a * q + b] * q + c]
                a_bc = K.add[a * q + K.add[b * q + c]]
                assert ab_c == a_bc
                m1 = K.mul[K.mul[a * q + b] * q + c]
                m2 = K.mul[a * q + K.mul[b * q + c]]
                assert m1 == m2
                lhs = K.mul[a * q + K.add[b * q + c]]
                rhs = K.add[K.mul[a * q + b] * q + K.mul[a * q + c]]
                assert lhs == rhs


def test_char_p_frobenius():
    K = field(9)
    for a in range(9):
        cube = K.mul[K.mul[a * 9 + a] * 9 + a]
        frob2 = K.mul[cube * 9 + cube]
        # x -> x^9 is the identity on F_9
        assert K.mul[frob2 * 9 + cube] == a


def test_non_prime_power_rejected():
    with pytest.raises(CapabilityError):
        field(6)
