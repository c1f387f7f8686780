import hashlib
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hallforge import algebra as alg
from hallforge import coalgebra as co
from hallforge import p1, quiver
from hallforge.errors import BackendMismatchError, CapabilityError
from hallforge.hall import HallEngine
from hallforge.p1sets import P1Set
from hallforge.quiver import make_class

import oracles


def fam_all(degree):
    return alg.IndecFamily.of_points(degree, P1Set.cofinite_of([]))


def fam_at(degree, pts):
    return alg.IndecFamily.of_points(degree, P1Set.finite(pts))


def one_family(backend, fam):
    return alg.char_fn(backend, [alg.make_stratum(backend, [(fam, 1)])])


def test_chi_examples():
    assert P1Set.cofinite_of([]).chi() == 2
    assert P1Set.finite(["x", "y"]).chi() == 2
    assert P1Set.cofinite_of(["a", "b", "c"]).chi() == -1


def test_set_ops_examples():
    full = P1Set.cofinite_of([])
    x = P1Set.finite(["x"])
    assert full.intersect(x) == x
    assert P1Set.cofinite_of(["x"]).union(x) == full
    assert P1Set.cofinite_of(["x"]).intersect(
        P1Set.cofinite_of(["y"])) == P1Set.cofinite_of(["x", "y"])
    assert x.minus(x).is_empty


points = st.frozensets(st.sampled_from([f"p{i}" for i in range(8)]),
                       max_size=4)


@given(points, points, st.booleans(), st.booleans())
@settings(max_examples=150, deadline=None)
def test_chi_additive_on_disjoint_pairs(pa, pb, ca, cb):
    a = P1Set(ca, pa)
    b = P1Set(cb, pb)
    b = b.minus(a)
    assert a.union(b).chi() == a.chi() + b.chi()


@given(points, points, st.booleans(), st.booleans())
@settings(max_examples=100, deadline=None)
def test_boolean_algebra_involutions(pa, pb, ca, cb):
    a, b = P1Set(ca, pa), P1Set(cb, pb)
    assert a.complement().complement() == a
    assert a.minus(b) == a.intersect(b.complement())
    assert a.union(b).complement() == a.complement().intersect(b.complement())


def test_family_product_full_line(p1_engine):
    b = p1_engine.backend
    f = one_family(b, fam_all(1))
    prod = alg.convolve(p1_engine, f, f)
    expected = alg.add(
        b, alg.scale(b, alg.char_fn(b, [alg.make_stratum(b, [(fam_all(1), 2)])]), 2),
        one_family(b, fam_all(2)))
    assert alg.equal(b, prod, expected)


def test_family_product_pointwise_values(p1_engine):
    b = p1_engine.backend
    f = one_family(b, fam_all(1))
    prod = alg.convolve(p1_engine, f, f)
    assert alg.evaluate(prod, make_class(b, [("t", "x", 1), ("t", "y", 1)])) == 2
    assert alg.evaluate(prod, make_class(b, [("t", "x", 1), ("t", "x", 1)])) == 2
    assert alg.evaluate(prod, make_class(b, [("t", "x", 2)])) == 1
    assert alg.evaluate(prod, make_class(b, [("t", "x", 3)])) == 0


def test_family_product_disjoint_finite_bases(p1_engine):
    b = p1_engine.backend
    prod = alg.convolve(p1_engine, one_family(b, fam_at(1, ["x"])),
                        one_family(b, fam_at(1, ["y"])))
    expected = alg.char_fn(b, [alg.make_stratum(
        b, [(fam_at(1, ["x"]), 1), (fam_at(1, ["y"]), 1)])])
    assert alg.equal(b, prod, expected)


def test_family_product_mixed_degrees(p1_engine):
    # degree 1 times degree 2 over the full line: split term plus the
    # same-point degree-3 correction
    b = p1_engine.backend
    prod = alg.convolve(p1_engine, one_family(b, fam_all(1)),
                        one_family(b, fam_all(2)))
    expected = alg.add(
        b,
        alg.char_fn(b, [alg.make_stratum(b, [(fam_all(1), 1), (fam_all(2), 1)])]),
        one_family(b, fam_all(3)))
    assert alg.equal(b, prod, expected)


def test_fibration_consistency_with_loop(p1_engine, loop_engine):
    # evaluating the family product at any point reproduces the loop result
    b = p1_engine.backend
    loop = loop_engine
    lb = loop.backend
    f2 = one_family(b, fam_all(2))
    prod = alg.convolve(p1_engine, f2, f2)
    j2 = make_class(lb, [("j", 2)])
    for x in ("u", "v", "w", "zz"):
        for lam in ([4], [3, 1], [2, 2]):
            target = make_class(b, [("t", x, d) for d in lam])
            ltarget = make_class(lb, [("j", d) for d in lam])
            assert alg.evaluate(prod, target) == \
                loop.euler_constant(j2, j2, ltarget)


def test_family_products_are_stratified_ks(p1_engine):
    b = p1_engine.backend
    f = one_family(b, fam_all(1))
    g = one_family(b, fam_at(1, ["x"]))
    prod = alg.convolve(p1_engine, f, g)
    for cset, coeff in prod.terms:
        renorm = alg.normalize(b, cset.strata)
        assert renorm.strata == cset.strata
    # normalize keeps only the points a set singles out, in every degree
    rest = alg.IndecFamily.of_points(1, P1Set.cofinite_of(["x"]))
    one = alg.make_stratum(b, [(fam_at(1, ["x"]), 1), (fam_all(2), 1)])
    assert alg.normalize(b, [one]).strata == (one,)
    split = [alg.make_stratum(b, [(fam_at(1, ["x"]), 1)]),
             alg.make_stratum(b, [(rest, 1)])]
    assert alg.normalize(b, split).strata == (
        alg.make_stratum(b, [(fam_all(1), 1)]),)


def test_common_atoms_passes_keys_already_over_the_refinement(p1b):
    # every family of these keys is an atom of the common refinement (the
    # point x, and the core off x in degrees 1 and 2), so each map comes
    # back equal, its keys the very objects it held; a key over all of P^1
    # still splits over x and the core
    def off_x(d):
        return alg.IndecFamily.of_points(d, P1Set.cofinite_of(["x"]))

    atoms = {alg.make_stratum(p1b, [(fam_at(1, ["x"]), 1), (off_x(2), 1)]): 2,
             alg.make_stratum(p1b, [(off_x(1), 2)]): Fraction(1, 3)}
    pairs = {(k, ()): v for k, v in atoms.items()}
    for maps, is_pairs in (([atoms, atoms], False), ([pairs], True)):
        out = alg._common_atoms(p1b, maps, pairs=is_pairs)
        assert out == maps
        assert all(a is b for m, o in zip(maps, out) for a, b in zip(m, o))
    whole = {alg.make_stratum(p1b, [(fam_all(1), 1)]): 1}
    assert alg._common_atoms(p1b, [atoms, whole])[1] == {
        alg.make_stratum(p1b, [(fam_at(1, ["x"]), 1)]): 1,
        alg.make_stratum(p1b, [(off_x(1), 1)]): 1}


def test_green_and_bialgebra_match_pointwise_on_finite_bases(p1_engine, loop_engine):
    b = p1_engine.backend
    loop = loop_engine
    lb = loop.backend
    fx = fam_at(1, ["x", "y"])
    o1 = alg.ConstructibleSet((alg.make_stratum(b, [(fx, 1)]),))
    o2 = alg.singleton_set(b, make_class(b, [("t", "x", 1), ("t", "y", 1)]))
    alpha = make_class(b, [("t", "x", 2)])
    beta = make_class(b, [("t", "y", 1)])
    rep = co.green_check(p1_engine, o1, o2, alpha, beta)
    assert rep["equal"]
    # only the member S_x of o1 contributes, through the one-point constant
    lhs_direct = loop.euler_constant(
        make_class(lb, [("j", 1)]), make_class(lb, [("j", 1)]),
        make_class(lb, [("j", 2)]))
    assert Fraction(rep["lhs"]) == lhs_direct
    f = one_family(b, fam_at(1, ["x"]))
    g = one_family(b, fam_at(1, ["x", "y"]))
    assert co.bialgebra_check(p1_engine, f, g)["equal"]


def test_comultiply_family_strata(p1b):
    f = alg.char_fn(p1b, [alg.make_stratum(p1b, [(fam_all(1), 2)])])
    d = co.comultiply(p1b, f)
    assert len(d.terms) == 3
    total = sum(v for _, v in d.terms)
    assert total == 3


def test_line_bundles_allowed_in_sets_but_not_products(p1_engine):
    b = p1_engine.backend
    lb_fam = alg.IndecFamily.of_labels(b, [("o", 0), ("o", 1)])
    f = alg.char_fn(b, [alg.make_stratum(b, [(lb_fam, 1)])])
    assert alg.evaluate(f, make_class(b, [("o", 1)])) == 1
    d = co.comultiply(b, f)
    # one pair-atom per line bundle and tensor leg
    assert sum(v for _, v in d.terms) == 4
    assert alg.equal(b, co.counit_contract(b, d, "left"), f)
    with pytest.raises(CapabilityError):
        alg.convolve(p1_engine, f, f)


def test_family_product_splits_by_support_point(p1_engine):
    # 1_A * 1_B at a target Y is the sum of the per-point constants
    # euler_constant(sub, quot, Y) over the members sub of A and quot of B.
    # The product reads each stratum off its member with every block at
    # one point; here it is checked at every Y on {x, y, z}, whose blocks
    # share a point or not.  Over {x, y, z} the atoms are single points;
    # over the whole line one base holds all of them.  Members outside
    # {x, y, z} do not meet a Y supported there, so the sum runs over
    # {x, y, z} alone.
    # The last operand pairs put their degrees on different bases, which
    # still meet at x or y.
    b = p1_engine.backend
    pts = ["x", "y", "z"]
    on_pts, full = P1Set.finite(pts), P1Set.cofinite_of([])
    off_x, at_y = P1Set.cofinite_of(["x"]), P1Set.finite(["y"])

    def stratum(base, degs):
        return alg.make_stratum(b, [(alg.IndecFamily.of_points(d, base),
                                     degs.count(d)) for d in set(degs)])

    def members(base, degs):
        return list(alg.ConstructibleSet(
            (stratum(base.intersect(on_pts), degs),)).members(b))

    cases = [((base, degs_a), (base, degs_b))
             for degs_a, degs_b in (([1], [1]), ([1], [2]), ([2], [1]),
                                    ([1, 1], [1]), ([1], [1, 1]))
             for base in (on_pts, full)]
    for mixed in (((off_x, [1]), (full, [2])), ((at_y, [1]), (full, [2]))):
        cases += [mixed, mixed[::-1]]
    checked = 0
    for (base_a, degs_a), (base_b, degs_b) in cases:
        subs, quots = members(base_a, degs_a), members(base_b, degs_b)
        prod = alg.convolve(
            p1_engine, alg.char_fn(b, [stratum(base_a, degs_a)]),
            alg.char_fn(b, [stratum(base_b, degs_b)]))
        for y in oracles.classes_supported(b, pts, sum(degs_a) + sum(degs_b),
                                           len(degs_a) + len(degs_b)):
            assert alg.evaluate(prod, y) == sum(
                p1_engine.euler_constant(s, t, y)
                for s in subs for t in quots)
            checked += 1
    assert checked > 80


def test_cells_match_the_fq_route_on_two_points(p1_engine):
    # cells merges the splits of each block; the F_q route multiplies the
    # loop Hall polynomials of each support point
    b = p1_engine.backend
    pts = ["x", "y"]
    checked = 0
    for d in range(1, 5):
        for target in oracles.classes_supported(b, pts, d, d):
            cells = p1_engine.cells(target)
            for k in range(d + 1):
                for sub in oracles.classes_supported(b, pts, k, k):
                    for quot in oracles.classes_supported(b, pts, d - k, d - k):
                        want = p1_engine.hall_polynomial(sub, quot, target)
                        assert cells.get((sub, quot), 0) == want.evaluate(1)
                        checked += 1
    assert checked == 2578


def test_classes_supported(p1b):
    out = oracles.classes_supported(p1b, ["x", "y"], 2, 2)
    names = {quiver.class_name(p1b, c) for c in out}
    assert names == {"[T(x,2)]", "[T(y,2)]", "[T(x,1)+T(x,1)]",
                     "[T(y,1)+T(y,1)]", "[T(x,1)+T(y,1)]"}


def test_torsion_labels_need_a_point_and_positive_degree(p1b):
    for label in (("t", "x", 0), ("t", "x", -1), ("t", "", 1)):
        with pytest.raises(BackendMismatchError):
            alg.class_char(p1b, (label,))


def check_every_collision_shape(engine, degs_a, degs_b, npoints):
    # the oracle reads each output stratum off every collision shape that
    # a base of npoints points (None: cofinite) allows; each shape must
    # give one value, and _base_product's one-point member that value
    got = p1._base_product(engine, list(degs_a), list(degs_b))
    by_shape = oracles.p1_values_by_shape(
        engine, list(degs_a), list(degs_b), npoints)
    want = {}
    for degmults, values in by_shape.items():
        assert len(set(values.values())) == 1, (degmults, values)
        if (value := next(iter(values.values()))):
            want[degmults] = value
    assert got == want, (degs_a, degs_b, npoints)


def test_base_product_matches_every_collision_shape(p1b):
    engine = HallEngine(p1b, quiver.Bounds(max_dim=7))
    checked = 0
    for total in range(1, 8):
        for k in range(total + 1):
            for degs_a in quiver.partitions(k, k):
                for degs_b in quiver.partitions(total - k, total - k):
                    for npoints in (1, 2, 3, None):
                        check_every_collision_shape(engine, degs_a, degs_b,
                                                    npoints)
                        checked += 1
    assert checked == 4 * 248


@pytest.mark.parametrize("corrupt", ["raise", "empty"])
def test_family_product_refuses_a_value_that_varies_on_a_stratum(p1b, corrupt):
    # 1_O1 * 1_O1 reads the stratum of two degree-1 blocks off
    # [T(x,1)+T(x,1)]; a changed or vanished value on the other collision
    # shape [T(p0,1)+T(p1,1)] breaks stratification, and the shape check
    # must refuse it
    engine = HallEngine(p1b)
    y = make_class(p1b, [("t", "p0", 1), ("t", "p1", 1)])
    cells = dict(engine.cells(y))
    if corrupt == "raise":
        sq = next(k for k in cells if k[0] and k[1])
        cells[sq] += 1
    else:
        cells.clear()
    engine._cells[y] = cells
    check_every_collision_shape(engine, (1,), (1,), 1)
    with pytest.raises(AssertionError, match=r"\(\(1, 2\),\)"):
        check_every_collision_shape(engine, (1,), (1,), 2)


def test_family_product_caches_only_nonzero_local_constants(p1b):
    engine = HallEngine(p1b)
    f = one_family(p1b, fam_all(1))
    assert alg.convolve(engine, f, f).terms
    # the local constants are read off the cells: nothing is cached
    assert engine.cache.entries == {}


# sha256 (first 16 hex digits) of canonical_json of O_d * O_e, keyed by
# (base, min(d, e), max(d, e)); the product is commutative, so both orders
# read one digest
FAMILY_PRODUCT_DIGESTS = {
    ("cofinite", 1, 1): "fcbe0ae523efe2a7", ("cofinite", 1, 2): "05dcf173d45730ef",
    ("cofinite", 1, 3): "2da9e5775814f059", ("cofinite", 1, 4): "76e2ece1384b8a9e",
    ("cofinite", 1, 5): "a3da194d22cabebe", ("cofinite", 2, 2): "2486859ea47bcd68",
    ("cofinite", 2, 3): "e09c1206321cc7a8", ("cofinite", 2, 4): "6e1c9698df36e8c9",
    ("cofinite", 3, 3): "df3086f395144c04",
    ("finite", 1, 1): "c9274d7406e23a35", ("finite", 1, 2): "938e1be2b504a6d6",
    ("finite", 1, 3): "b2faaabf008f692e", ("finite", 1, 4): "23bda2973113a910",
    ("finite", 1, 5): "e0de6c16c6035323", ("finite", 2, 2): "25d504ccdd5fe44e",
    ("finite", 2, 3): "47aaf2670cff32d4", ("finite", 2, 4): "23bc1485097c60b8",
    ("finite", 3, 3): "9a761351a4e5d530",
}


def test_family_products_are_byte_identical(p1_engine):
    # the 30 products O_d * O_e, d + e <= 6, over the cofinite base P^1
    # and the finite base {x, y}: canonicalization must not change a byte
    b = p1_engine.backend
    bases = {"cofinite": P1Set.cofinite_of([]), "finite": P1Set.finite(["x", "y"])}
    checked = 0
    for name, base in bases.items():
        for d in range(1, 6):
            for e in range(1, 7 - d):
                prod = alg.convolve(
                    p1_engine, one_family(b, alg.IndecFamily.of_points(d, base)),
                    one_family(b, alg.IndecFamily.of_points(e, base)))
                text = alg.canonical_json(b, prod)
                assert hashlib.sha256(text.encode()).hexdigest()[:16] == \
                    FAMILY_PRODUCT_DIGESTS[name, min(d, e), max(d, e)], (name, d, e)
                checked += 1
    assert checked == 30
