from fractions import Fraction
from itertools import product

import pytest

from hallforge import algebra as alg
from hallforge import pbw
from hallforge.quiver import parse_class


def fam(backend, label):
    return alg.IndecFamily.of_labels(backend, [label])


def test_leading_term_examples(a2):
    f = fam(a2, ("i", 0, 0))
    g = fam(a2, ("i", 1, 1))
    coeff, cset = alg.leading_term(alg.make_stratum(a2, [(f, 3)]))
    assert coeff == 6
    assert cset.strata == (alg.make_stratum(a2, [(f, 3)]),)
    coeff, cset = alg.leading_term(alg.make_stratum(a2, [(f, 1), (g, 1)]))
    assert coeff == 1
    coeff, _ = alg.leading_term(alg.make_stratum(a2, [(f, 2), (g, 2)]))
    assert coeff == 4


def test_monomial_rejects_overlapping_families(a2_engine):
    # overlapping and repeated families are refused at every gamma, not
    # only where a monomial of degree >= 2 meets both
    a2 = a2_engine.backend
    f1 = alg.IndecFamily.of_labels(a2, [("i", 0, 0), ("i", 0, 1)])
    f2 = fam(a2, ("i", 0, 1))
    for fams, gamma in product(([f1, f2], [f2, f2]), (1, 2)):
        with pytest.raises(ValueError, match="pairwise disjoint"):
            pbw.certify_truncation(a2_engine, fams, gamma)


def test_image_of_empty_monomial_is_unit(a2_engine):
    a2 = a2_engine.backend
    img, _, _ = alg.monomial_image(a2_engine, alg.make_stratum(a2, []))
    assert alg.equal(a2, img, alg.unit_element(a2))


def test_image_examples(a2_engine):
    a2 = a2_engine.backend
    s1 = fam(a2, ("i", 0, 0))
    img, _, _ = alg.monomial_image(a2_engine, alg.make_stratum(a2, [(s1, 2)]))
    expected = alg.scale(a2, alg.class_char(a2, parse_class(a2, "[S1+S1]")), 2)
    assert alg.equal(a2, img, expected)
    s2 = fam(a2, ("i", 1, 1))
    img, _, _ = alg.monomial_image(a2_engine,
                                   alg.make_stratum(a2, [(s2, 1), (s1, 1)]))
    expected = alg.add(a2, alg.class_char(a2, parse_class(a2, "[S1+S2]")),
                       alg.class_char(a2, parse_class(a2, "[P12]")))
    assert alg.equal(a2, img, expected)


def test_functoriality_concatenation(loop_engine):
    loop = loop_engine.backend
    f1, f2 = fam(loop, ("j", 1)), fam(loop, ("j", 2))
    m1 = alg.make_stratum(loop, [(f1, 1)])
    m2 = alg.make_stratum(loop, [(f2, 1)])
    m12 = alg.make_stratum(loop, [(f1, 1), (f2, 1)])
    lhs = alg.monomial_image(loop_engine, m12)[0]
    rhs = alg.convolve(loop_engine, alg.monomial_image(loop_engine, m1)[0],
                       alg.monomial_image(loop_engine, m2)[0])
    assert alg.equal(loop, lhs, rhs)


def test_triangularity_property(loop_engine):
    loop = loop_engine.backend
    f1, f2 = fam(loop, ("j", 1)), fam(loop, ("j", 2))
    for factors in ([(f1, 2)], [(f1, 1), (f2, 1)], [(f2, 2)]):
        mono = alg.make_stratum(loop, factors)
        img, lead_fn, got = alg.monomial_image(loop_engine, mono)
        coeff, lead = alg.leading_term(mono)
        assert alg.equal(loop, lead_fn, alg.char_fn(loop, lead.strata))
        rest = alg.add(loop, img, alg.scale(loop, lead_fn, coeff), Fraction(-1))
        # the remainder the route returns is the image minus its leading term
        assert alg.equal(loop, got, rest)
        assert rest.summand_count() < alg.stratum_gamma(mono)


def test_solve_in_span_divides_int_entries_exactly():
    # columns (2, 0, 0) and (1, 3, 0): int entries whose solves need a
    # division; the third rhs leaves the span at row 2
    cols = [[2, 0, 0], [1, 3, 0]]
    rhss = [[1, 0, 0], [1, 1, 0], [0, 0, 5]]
    (half, r1), (thirds, r2), (sol, r3) = pbw._solve_in_span(cols, rhss)
    assert half == [Fraction(1, 2), 0] and thirds == [Fraction(1, 3)] * 2
    assert r1 == r2 == [] and sol is None and r3 == [2]
    assert [str(c) for c in half + thirds] == ["1/2", "0", "1/3", "1/3"]
    assert not any(isinstance(c, float) for c in half + thirds)


def test_truncation_a2_m2_diagonal_pattern(a2_engine):
    a2 = a2_engine.backend
    fams = [fam(a2, ("i", 1, 1)), fam(a2, ("i", 0, 0)), fam(a2, ("i", 0, 1))]
    rep = pbw.certify_truncation(a2_engine, fams, 2)
    assert rep.triangular and rep.diagonal_ok and rep.graded_bijective
    assert rep.correction_closed  # S1, S2, P12 absorb every correction
    diags = sorted(int(x) for b in rep.blocks for x in b["diagonal"])
    assert diags == [1, 1, 1, 1, 1, 1, 1, 2, 2, 2]
    assert all(e["expressible"] for e in rep.back_substitution)


def test_truncation_single_family_m1(a2_engine):
    a2 = a2_engine.backend
    rep = pbw.certify_truncation(a2_engine, [fam(a2, ("i", 0, 0))], 1)
    assert rep.passed
    assert [b["diagonal"] for b in rep.blocks] == [["1"], ["1"]]


def test_truncation_loop_m2_back_substitution(loop_engine):
    loop = loop_engine.backend
    fams = [fam(loop, ("j", 1)), fam(loop, ("j", 2))]
    rep = pbw.certify_truncation(loop_engine, fams, 2)
    assert rep.triangular and rep.diagonal_ok and rep.graded_bijective
    # products emit 1_{J3}, 1_{J4}: outside the family span
    assert not rep.correction_closed
    by_stratum = {str(e["stratum"]): e for e in rep.back_substitution}
    # 1_{2.J1} = (phi(J1^2) - phi(J2)) / 2: expressible
    twoJ1 = alg.set_to_json(loop, alg.ConstructibleSet(
        (alg.make_stratum(loop, [(fams[0], 2)]),)))
    assert by_stratum[str(twoJ1)]["expressible"]
    J2 = alg.set_to_json(loop, alg.ConstructibleSet(
        (alg.make_stratum(loop, [(fams[1], 1)]),)))
    assert by_stratum[str(J2)]["expressible"]
    # 1_{J1+J2} needs the correction 1_{J3}: not expressible in the window
    mixed = alg.set_to_json(loop, alg.ConstructibleSet(
        (alg.make_stratum(loop, [(fams[0], 1), (fams[1], 1)]),)))
    assert not by_stratum[str(mixed)]["expressible"]
    assert by_stratum[str(mixed)]["residual_atoms"]


def test_report_serializes(loop_engine):
    loop = loop_engine.backend
    rep = pbw.certify_truncation(loop_engine, [fam(loop, ("j", 1))], 2)
    data = rep.to_json(loop)
    assert data["gamma_max"] == 2
    assert isinstance(data["blocks"], list)
