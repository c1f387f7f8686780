import pytest

from hallforge import counting, quiver
from hallforge.counting import Bounds, gaussian_binomial
from hallforge.errors import CapabilityError, InternalInvariantError, ResourceLimitError
from hallforge.hall import HallEngine, HallPolynomial
from hallforge.quiver import (Arrow, Backend, builtin_backend, make_class,
                              parse_class)

import oracles
from fq_oracle import enumerate_subreps


def cells(backend, hist):
    return {(quiver.class_name(backend, s), quiver.class_name(backend, t)): n
            for (s, t), n in hist.items()}


def test_interval_module_histogram(a2):
    h = enumerate_subreps(a2, parse_class(a2, "[P12]"), 2)
    assert cells(a2, h) == {("[0]", "[P12]"): 1, ("[S2]", "[S1]"): 1,
                            ("[P12]", "[0]"): 1}


def test_simple_module_histogram(a2):
    for q in (2, 5, 9):
        h = enumerate_subreps(a2, parse_class(a2, "[S1]"), q)
        assert cells(a2, h) == {("[0]", "[S1]"): 1, ("[S1]", "[0]"): 1}


def test_two_lines_histogram(loop):
    h = enumerate_subreps(loop, parse_class(loop, "[J1+J1]"), 3)
    assert h[(parse_class(loop, "[J1]"), parse_class(loop, "[J1]"))] == 4


def test_count_points_examples(a2, loop):
    s1, s2 = parse_class(a2, "[S1]"), parse_class(a2, "[S2]")
    assert enumerate_subreps(a2, parse_class(a2, "[P12]"), 5).get((s2, s1), 0) == 1
    assert enumerate_subreps(a2, parse_class(a2, "[P12]"), 2).get((s1, s2), 0) == 0
    j1 = parse_class(loop, "[J1]")
    assert enumerate_subreps(loop, parse_class(loop, "[J1+J1]"), 4).get((j1, j1), 0) == 5


def test_monotone_consistency(a2, loop):
    for backend, text in ((a2, "[S1+P12]"), (loop, "[J2+J1]")):
        y = parse_class(backend, text)
        for q in (2, 3):
            h = enumerate_subreps(backend, y, q)
            assert h.get((quiver.ZERO_CLASS, y), 0) == 1
            assert h.get((y, quiver.ZERO_CLASS), 0) == 1


def test_dimension_mismatch_is_zero(loop):
    j1 = parse_class(loop, "[J1]")
    assert enumerate_subreps(loop, parse_class(loop, "[J3]"), 3).get((j1, j1), 0) == 0


def test_gaussian_binomial_sanity_all_routes(loop, a2):
    # J1^m on loop and S1^m on a2 have zero arrow matrices: the survey folds
    # in their one unconstrained vertex by counting the subspaces of F_q^m
    # that `linalg.subspaces` yields, here against the Gaussian binomial
    for backend, simple in ((loop, ("j", 1)), (a2, ("i", 0, 0))):
        for m in (2, 3, 4):
            for q in (2, 3, 5):
                hist = enumerate_subreps(backend, (simple,) * m, q)
                assert hist == {((simple,) * k, (simple,) * (m - k)):
                                HallPolynomial(gaussian_binomial(m, k)).evaluate(q)
                                for k in range(m + 1)}


def test_inexact_division_raises_under_every_interpreter_flag():
    # a raise, not an assert that python -O strips: q^2 + 1 = (q + 1)(q - 1) + 2
    assert counting._poly_divexact((-1, 0, 1), (1, 1)) == (-1, 1)
    with pytest.raises(InternalInvariantError, match="inexact division"):
        counting._poly_divexact((1, 0, 1), (1, 1))


def test_histogram_total_and_grading(a3, loop):
    for backend, text, q in ((a3, "[P13+S2]", 3), (loop, "[J2+J2]", 2)):
        target = parse_class(backend, text)
        h = enumerate_subreps(backend, target, q)
        dt = quiver.class_dim(backend, target)
        for (s, t), n in h.items():
            assert n > 0
            assert quiver.dim_add(quiver.class_dim(backend, s),
                                  quiver.class_dim(backend, t)) == dt
        assert h[(quiver.ZERO_CLASS, target)] == 1
        assert h[(target, quiver.ZERO_CLASS)] == 1


def test_against_unpruned_brute_force(a2, a3, loop):
    cases = [(a2, "[P12+S1]", 2), (a2, "[P12+S2]", 3), (a3, "[P13]", 2),
             (a2, "[S1+S1+S2]", 2), (a2, "[S1+S1+S2]", 3),
             (loop, "[J2+J1]", 2), (loop, "[J3]", 3),
             # two or more layers with a complement of dimension >= 2
             (loop, "[J2+J2]", 2), (loop, "[J2+J2]", 3),
             (loop, "[J2+J1+J1]", 2), (loop, "[J3+J2]", 2),
             (loop, "[J4]", 2), (loop, "[J3+J1]", 2),
             (loop, "[J1+J1+J1+J1]", 2)]
    for backend, text, q in cases:
        target = parse_class(backend, text)
        cand = {}
        dt = quiver.class_dim(backend, target)
        vecs = [()]
        for d in dt:
            vecs = [v + (k,) for v in vecs for k in range(d + 1)]
        for vec in vecs:
            cand[vec] = list(quiver.classes_with_dim(backend, vec, sum(vec)))
        classify = oracles.classify_by_iso(backend, cand)
        brute = oracles.brute_subrep_histogram(backend, target, q, classify)
        assert enumerate_subreps(backend, target, q) == brute


def test_loop_polynomials_against_littlewood_richardson():
    # Macdonald ch. II (4.3): G^lam_{mu,nu}(q) is nonzero iff the
    # Littlewood-Richardson coefficient c^lam_{mu,nu} is, and then has
    # degree n(lam) - n(mu) - n(nu) and leading coefficient c^lam_{mu,nu}
    def n(lam):
        return sum(i * x for i, x in enumerate(lam))

    products, nonzero, non_unit = {}, 0, 0
    for d in range(9):
        for k in range(d + 1):
            for mu in quiver.partitions(k, k):
                for nu in quiver.partitions(d - k, d - k):
                    got = counting._loop_product(mu, nu, products)
                    for lam in quiver.partitions(d, d):
                        c = oracles.lr_coefficient(lam, mu, nu)
                        p = got.get(lam)
                        assert (p is None) == (c == 0), (lam, mu, nu)
                        if p is not None:
                            assert len(p) - 1 == n(lam) - n(mu) - n(nu)
                            assert p[-1] == c, (lam, mu, nu)
                            nonzero += 1
                            non_unit += c != 1
    # 1329 cells with 1 <= |lam| <= 8, and ((), ()) -> ()
    assert (nonzero, non_unit) == (1330, 21)


def test_loop_self_duality_of_cells():
    # the loop Hall algebra is commutative: G^lam_{mu,nu} = G^lam_{nu,mu} as
    # polynomials.  The closed form builds u_mu u_nu from nu's columns and
    # u_nu u_mu from mu's, so this checks it at every q, where `verify
    # routes` sees q = 1 only
    products = {}
    for d in range(9):
        for k in range(d + 1):
            for mu in quiver.partitions(k, k):
                for nu in quiver.partitions(d - k, d - k):
                    assert counting._loop_product(mu, nu, products) == \
                        counting._loop_product(nu, mu, products), (mu, nu)


def test_count_points_agrees_with_full_enumeration(loop):
    # one Hall polynomial per cell, at q, against the histogram of every product
    engine = HallEngine(loop)
    for text, q in (("[J2+J1+J1]", 2), ("[J2+J2]", 3)):
        target = parse_class(loop, text)
        full = enumerate_subreps(loop, target, q)
        for (s, t), n in full.items():
            assert engine.hall_polynomial(s, t, target).evaluate(q) == n


def test_opposite_orientation_duality():
    a2 = builtin_backend("a2")
    a2op = Backend("a2op", quiver.KIND_DYNKIN, ("1", "2"),
                   (Arrow("a", 1, 0),))
    # interval labels carry over verbatim; duality swaps sub and quot
    for text in ("[P12]", "[P12+S1]", "[P12+S2]", "[S1+S2]"):
        target = parse_class(a2, text)
        h = enumerate_subreps(a2, target, 3)
        hop = enumerate_subreps(a2op, target, 3)
        assert {(t, s): n for (s, t), n in h.items()} == hop


def test_resource_bounds(loop):
    with pytest.raises(ResourceLimitError):
        enumerate_subreps(loop, make_class(loop, [("j", 1)] * 7), 2)
    with pytest.raises(ResourceLimitError):
        enumerate_subreps(loop, parse_class(loop, "[J1]"), 16)
    b = Bounds(max_dim=9, max_q=13)
    j1 = parse_class(loop, "[J1]")
    assert enumerate_subreps(loop, parse_class(loop, "[J2]"), 13, b).get((j1, j1), 0) == 1


@pytest.mark.parametrize("q", [1, 6])
def test_field_size_that_is_not_a_prime_power_is_refused(loop, a2, q):
    # 1 and 6 are no field sizes: gf.field refuses them on every backend
    # before any count
    for backend, text in ((loop, "[J2+J1]"), (loop, "[J1+J1]"), (a2, "[P12+S1]")):
        target = parse_class(backend, text)
        with pytest.raises(CapabilityError, match=f"{q} is not a prime power"):
            enumerate_subreps(backend, target, q)


def test_f_q_survey_reads_no_z_q_helper(loop, a2, monkeypatch):
    # the oracle counts over F_q on every backend: with the closed form and
    # the Z[q] helpers patched to raise it still answers, and each answer is
    # the exact polynomials at q, taken before the patch
    cases = []
    for backend, text, q in ((loop, "[J2+J1+J1]", 2), (loop, "[J1+J1+J1]", 3),
                             (a2, "[S1+S1+S2]", 3)):
        target = parse_class(backend, text)
        polys = oracles.exact_cells(HallEngine(backend), target)
        cases.append((backend, target, q, {cell: n for cell, p in polys.items()
                                           if (n := p.evaluate(q))}))

    def refuse(*args):
        raise AssertionError("the F_q oracle read a Z[q] helper")

    for name in ("_loop_product", "gaussian_binomial", "poly_mul", "_poly_add",
                 "_poly_divexact"):
        monkeypatch.setattr(counting, name, refuse)
    for backend, target, q, expected in cases:
        assert enumerate_subreps(backend, target, q) == expected


def test_p1_counting_is_capability_error(p1b):
    with pytest.raises(CapabilityError):
        enumerate_subreps(p1b, (("t", "x", 1),), 2)


def test_same_name_backends_do_not_share_surveys(a3):
    # a reversed-arrow a3 under the built-in's name gets its own histogram,
    # even after the built-in's [P13] survey ran in this process
    rev = quiver.backend_from_json({
        "name": "a3", "kind": "dynkin-quiver", "vertices": ["1", "2", "3"],
        "arrows": [{"id": "a", "src": "2", "tgt": "1"},
                   {"id": "b", "src": "3", "tgt": "2"}]})
    enumerate_subreps(a3, parse_class(a3, "[P13]"), 2)
    got = cells(rev, enumerate_subreps(rev, parse_class(rev, "[P13]"), 2))
    assert {c for c in got if "[0]" not in c} == {("[S1]", "[P23]"),
                                                 ("[P12]", "[S3]")}
