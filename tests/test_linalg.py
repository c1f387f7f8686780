from hypothesis import given, settings, strategies as st

from hallforge import linalg
from hallforge.counting import gaussian_binomial
from hallforge.gf import field
from hallforge.hall import HallPolynomial

Ks = st.sampled_from([2, 3, 4, 5])


def rows_strategy(q, max_rows=4, max_cols=5):
    return st.integers(1, max_cols).flatmap(
        lambda d: st.lists(
            st.lists(st.integers(0, q - 1), min_size=d, max_size=d)
            .map(bytes), min_size=0, max_size=max_rows))


@given(Ks.flatmap(lambda q: st.tuples(st.just(q), rows_strategy(q))))
@settings(max_examples=120, deadline=None)
def test_rref_is_idempotent_and_rank_stable(qrows):
    q, rows = qrows
    if not rows:
        return
    K = field(q)
    rr, piv = linalg.row_reduce(rows, K)
    rr2, piv2 = linalg.row_reduce(list(rr), K)
    assert (rr, piv) == (rr2, piv2)
    # row rank is column rank
    transposed = [bytes(col) for col in zip(*rows)]
    assert len(rr) == len(piv) == len(linalg.row_reduce(transposed, K)[0])
    for r, p in zip(rr, piv):
        assert r[p] == 1
        assert all(r[j] == 0 for j in range(p))
        assert all(other[p] == 0 for other in rr if other is not r)


@given(Ks.flatmap(lambda q: st.tuples(st.just(q), rows_strategy(q))))
@settings(max_examples=100, deadline=None)
def test_reduce_vector_lands_outside_pivots(qrows):
    q, rows = qrows
    if not rows or not any(any(r) for r in rows):
        return
    K = field(q)
    rr, piv = linalg.row_reduce(rows, K)
    for v in rows:
        red = linalg.reduce_vector(v, rr, piv, K)
        assert all(red[p] == 0 for p in piv)
        # rows of the original matrix reduce to zero against their own RREF
        assert not any(red)


@given(Ks.flatmap(lambda q: st.tuples(st.just(q), rows_strategy(q))))
@settings(max_examples=100, deadline=None)
def test_null_space_solves_constraints(qrows):
    q, rows = qrows
    if not rows:
        return
    K = field(q)
    d = len(rows[0])
    basis, _ = linalg.null_space(rows, K, d)
    for v in basis:
        for r in rows:
            s = 0
            for a, b in zip(v, r):
                if a and b:
                    s = K.add[s * q + K.mul[a * q + b]]
            assert s == 0
    assert len(basis) == d - len(linalg.row_reduce(rows, K)[0])


def test_subspace_enumeration_counts():
    for q in (2, 3, 4):
        K = field(q)
        for d in range(5):
            for k in range(d + 1):
                got = sum(1 for _ in linalg.subspaces(d, k, K))
                assert got == HallPolynomial(gaussian_binomial(d, k)).evaluate(q)


def test_subspaces_are_distinct_rrefs():
    K = field(3)
    seen = set()
    for rows, piv in linalg.all_subspaces(3, K):
        assert rows not in seen
        seen.add(rows)
        assert linalg.row_reduce(list(rows), K) == (rows, piv) if rows else True


def test_gaussian_binomial_values():
    assert gaussian_binomial(4, 2) == (1, 1, 2, 1, 1)
    assert HallPolynomial(gaussian_binomial(2, 1)).evaluate(3) == 4
    assert HallPolynomial(gaussian_binomial(4, 2)).evaluate(2) == 35
    assert HallPolynomial(gaussian_binomial(5, 2)).evaluate(11) == \
        (11**5 - 1) * (11**4 - 1) // ((11**2 - 1) * (11 - 1))
