import math
from collections import Counter
from fractions import Fraction

import pytest

import oracles
from hallforge import algebra as alg
from hallforge import coalgebra as co
from hallforge import quiver, verify
from hallforge.errors import InternalInvariantError
from hallforge.hall import HallEngine
from hallforge.p1sets import P1Set
from hallforge.quiver import make_class, parse_class


def char_of(backend, text):
    return alg.class_char(backend, parse_class(backend, text))


def tensor_of(backend, pairs):
    out = {}
    for ltext, rtext, v in pairs:
        key = (parse_class(backend, ltext), parse_class(backend, rtext))
        out[key] = out.get(key, Fraction(0)) + Fraction(v)
    return co.tensor_from_values(backend, out)


def test_comultiply_indecomposable(a2):
    d = co.comultiply(a2, char_of(a2, "[P12]"))
    expected = tensor_of(a2, [("[P12]", "[0]", 1), ("[0]", "[P12]", 1)])
    assert co.tensor_equal(a2, d, expected)


def test_comultiply_unit(a2):
    d = co.comultiply(a2, alg.unit_element(a2))
    assert co.tensor_equal(a2, d, tensor_of(a2, [("[0]", "[0]", 1)]))


def test_comultiply_double(loop):
    d = co.comultiply(loop, char_of(loop, "[J1+J1]"))
    expected = tensor_of(loop, [("[0]", "[J1+J1]", 1), ("[J1]", "[J1]", 1),
                                ("[J1+J1]", "[0]", 1)])
    assert co.tensor_equal(loop, d, expected)


def test_comultiply_support(loop):
    # Delta(1_[Y])([X],[Z]) != 0 forces X + Z = Y
    y = parse_class(loop, "[J2+J1]")
    d = co.comultiply(loop, alg.class_char(loop, y))
    for (l, r), v in d.values.items():
        assert v == 1
        assert make_class(loop, list(l) + list(r)) == y


def test_counit_examples(a2):
    assert co.counit(alg.unit_element(a2)) == 1
    assert co.counit(char_of(a2, "[S1]")) == 0
    f = alg.add(a2, alg.scale(a2, alg.unit_element(a2), 3),
                char_of(a2, "[P12]"))
    assert co.counit(f) == 3


def test_counit_laws_and_cocommutativity(loop_engine):
    loop = loop_engine.backend
    for text in ("[J1]", "[J2+J1]", "[J1+J1+J2]"):
        f = char_of(loop, text)
        d = co.comultiply(loop, f)
        assert alg.equal(loop, co.counit_contract(loop, d, "left"), f)
        assert alg.equal(loop, co.counit_contract(loop, d, "right"), f)
        assert co.tensor_equal(loop, d, co.tensor_swap(loop, d))


def test_coassociativity(a2, loop):
    for backend, texts in ((a2, ("[S1+S2]", "[P12+S1]")),
                           (loop, ("[J2+J1]", "[J1+J1]"))):
        for text in texts:
            assert verify._coassociative(backend, parse_class(backend, text))


def test_key_splits_are_keys_as_built(a3, loop, p1_engine):
    # every split of a key: both legs are keys as built and add back to
    # the key, and a key with parts of multiplicities m has prod (m + 1)
    def check(backend, key, build, mults):
        splits = list(co.key_splits(backend, key))
        assert len(set(splits)) == len(splits) == math.prod(m + 1 for m in mults)
        for left, right in splits:
            assert build(backend, left) == left and build(backend, right) == right
            assert build(backend, left + right) == key

    for backend, dim in ((a3, 5), (loop, 6)):
        for cls in verify.classes_up_to(backend, dim):
            check(backend, cls, make_class, Counter(cls).values())
    b = p1_engine.backend
    keys = [alg.class_stratum(b, parse_class(b, "[O(1)+O(1)+O(2)+T(x,1)+T(x,1)+T(y,2)]"))]
    for base in (P1Set.cofinite_of([]), P1Set.finite(["x", "y"])):
        fams = {d: alg.char_fn(b, [alg.make_stratum(
            b, [(alg.IndecFamily.of_points(d, base), 1)])]) for d in (1, 2, 3)}
        for d in (1, 2, 3):
            for e in range(1, 5 - d):
                keys += alg.convolve(p1_engine, fams[d], fams[e]).values
    assert len(keys) > 40
    for key in keys:
        check(b, key, alg.make_stratum, [m for _, m in key])


def test_green_examples(a2_engine, loop_engine):
    a2, loop = a2_engine.backend, loop_engine.backend
    r = co.green_check(a2_engine,
                       alg.singleton_set(a2, parse_class(a2, "[S2]")),
                       alg.singleton_set(a2, parse_class(a2, "[S1]")),
                       parse_class(a2, "[P12]"), quiver.ZERO_CLASS)
    assert r["equal"] and r["lhs"] == "1" and r["rhs"] == "1"
    x = parse_class(a2, "[P12]")
    r = co.green_check(a2_engine, alg.singleton_set(a2, x),
                       alg.singleton_set(a2, quiver.ZERO_CLASS),
                       x, quiver.ZERO_CLASS)
    assert r["equal"] and r["lhs"] == "1"
    r = co.green_check(loop_engine,
                       alg.singleton_set(loop, parse_class(loop, "[J1+J1]")),
                       alg.singleton_set(loop, parse_class(loop, "[J1]")),
                       parse_class(loop, "[J2]"), parse_class(loop, "[J1]"))
    assert r["equal"] and r["lhs"] == r["rhs"] == "1"


def test_bialgebra_expanded_loop_case(loop_engine):
    loop = loop_engine.backend
    f = char_of(loop, "[J1]")
    lhs = co.comultiply(loop, alg.convolve(loop_engine, f, f))
    expected = tensor_of(loop, [
        ("[0]", "[J1+J1]", 2), ("[J1]", "[J1]", 2), ("[J1+J1]", "[0]", 2),
        ("[0]", "[J2]", 1), ("[J2]", "[0]", 1)])
    assert co.tensor_equal(loop, lhs, expected)
    rhs = co.tensor_convolve(loop_engine, co.comultiply(loop, f),
                             co.comultiply(loop, f))
    assert co.tensor_equal(loop, rhs, expected)
    assert co.bialgebra_check(loop_engine, f, f)["equal"]


def test_bialgebra_trivial_and_a2(a2_engine):
    a2 = a2_engine.backend
    one = alg.unit_element(a2)
    assert co.bialgebra_check(a2_engine, one, one)["equal"]
    assert co.bialgebra_check(a2_engine, char_of(a2, "[S1]"),
                              char_of(a2, "[S2]"))["equal"]


def test_tensor_first_difference_reports(a2):
    s = tensor_of(a2, [("[S1]", "[0]", 1)])
    t = tensor_of(a2, [("[S1]", "[0]", 2)])
    w = co.tensor_first_difference(a2, s, t)
    assert w is not None and w["lhs"] == "1" and w["rhs"] == "2"


def test_green_on_label_families_matches_member_sums(a3_engine):
    # the old route, member by member through euler_constant: lhs sums the
    # (m1, m2) cells of alpha + beta, rhs the products over the splits
    # m1 = rho + sigma, m2 = eps + tau
    a3 = a3_engine.backend
    chi = a3_engine.euler_constant

    def family(names, mult):
        fam = alg.IndecFamily.of_labels(
            a3, [quiver.parse_label(a3, n) for n in names])
        return alg.ConstructibleSet((alg.make_stratum(a3, [(fam, mult)]),))

    def old_sides(o1, o2, alpha, beta):
        target = make_class(a3, list(alpha) + list(beta))
        m1s, m2s = list(o1.members(a3)), list(o2.members(a3))
        lhs = sum(chi(m1, m2, target) for m1 in m1s for m2 in m2s)
        rhs = sum(chi(rho, eps, alpha) * chi(sigma, tau, beta)
                  for m1 in m1s for rho, sigma in co.key_splits(a3, m1)
                  for m2 in m2s for eps, tau in co.key_splits(a3, m2))
        return lhs, rhs

    operands = [(family(["S1", "S2"], 1), family(["S3", "P23"], 1)),
                (family(["S1", "S2", "S3"], 1), family(["S1", "P12"], 1)),
                (family(["S1", "S2", "S3"], 2),
                 alg.singleton_set(a3, parse_class(a3, "[S2]")))]
    classes = verify.classes_up_to(a3, 3)
    checked = multi = 0
    for o1, o2 in operands:
        n = (max(quiver.class_total_dim(a3, m) for m in o1.members(a3))
             + max(quiver.class_total_dim(a3, m) for m in o2.members(a3)))
        for alpha in classes:
            for beta in classes:
                if quiver.class_total_dim(a3, alpha + beta) != n:
                    continue
                r = co.green_check(a3_engine, o1, o2, alpha, beta)
                lhs, rhs = old_sides(o1, o2, alpha, beta)
                assert (r["lhs"], r["rhs"]) == (str(lhs), str(rhs))
                assert r["equal"]
                checked += 1
                multi += lhs > 1
    assert checked > 100 and multi > 0


def test_tensor_first_difference_is_the_least_differing_pair(a3_engine):
    # Delta(1_[S1] * 1_[S2]) against 2 Delta(1_[S2] * 1_[S1]) differ in six
    # (left, right) pairs, and against Delta(1_[S2]) * Delta(1_[S1]) in
    # two; the witness is the least of them, left stratum first
    a3 = a3_engine.backend
    s1, s2 = char_of(a3, "[S1]"), char_of(a3, "[S2]")
    s = co.comultiply(a3, alg.convolve(a3_engine, s1, s2))
    t = co.comultiply(a3, alg.scale(a3, alg.convolve(a3_engine, s2, s1), 2))
    u = co.tensor_convolve(a3_engine, co.comultiply(a3, s2),
                           co.comultiply(a3, s1))
    empty = {"strata": [[]]}
    p12 = {"strata": [[[{"labels": ["P12"]}, 1]]]}
    assert co.tensor_first_difference(a3, s, t) == {
        "left_stratum": empty, "right_stratum": p12, "lhs": "0", "rhs": "2"}
    assert co.tensor_first_difference(a3, s, u) == {
        "left_stratum": empty, "right_stratum": p12, "lhs": "0", "rhs": "1"}
    assert co.tensor_first_difference(a3, u, s) == {
        "left_stratum": empty, "right_stratum": p12, "lhs": "1", "rhs": "0"}
    w = co.comultiply(a3, alg.add(a3, char_of(a3, "[S2+P23]"),
                                  char_of(a3, "[S1+S3]")))
    assert co.tensor_first_difference(
        a3, w, co.comultiply(a3, char_of(a3, "[S1+S3]"))) == {
        "left_stratum": empty,
        "right_stratum": {"strata": [[[{"labels": ["S2"]}, 1],
                                      [{"labels": ["P23"]}, 1]]]},
        "lhs": "1", "rhs": "0"}


@pytest.mark.parametrize("name,dim", [("a2", 4), ("loop", 4), ("a3", 3)])
def test_green_and_riedtmann_suites_match_their_oracles(name, dim):
    # the suites check each split target once, through one direct-sum
    # merge; the oracles check one quadruple or one cell at a time.  In a
    # scratch engine's memo one cell (s, q) of a split target y is raised
    # by 1, or dropped from the first split target y0, or a spurious cell
    # (x, 0) is added that no split of y carries
    backend = quiver.builtin_backend(name)
    zero = quiver.ZERO_CLASS
    classes = verify.classes_up_to(backend, dim)
    y0 = next(y for y in classes if quiver.summand_count(y) >= 2)
    y, x = next((y, x) for y in classes if quiver.summand_count(y) >= 2
                for x in classes
                if quiver.class_dim(backend, x) == quiver.class_dim(backend, y)
                and quiver.summand_count(x) > quiver.summand_count(y))

    def scratch(target, edit):
        engine = HallEngine(backend)
        cells = dict(engine.cells(target))
        edit(cells, next(k for k in cells if k[0] and k[1]))
        engine._cells[target] = cells
        return engine

    engines = {
        "clean": HallEngine(backend),
        "value": scratch(y, lambda cells, sq: cells.update({sq: cells[sq] + 1})),
        "dropped": scratch(y0, lambda cells, sq: cells.pop(sq)),
        "spurious": scratch(y, lambda cells, sq: cells.update({(x, zero): 1}))}
    passed = {}
    for case, engine in engines.items():
        for suite, oracle in ((verify.suite_green, oracles.green_suite),
                              (verify.suite_riedtmann, oracles.riedtmann_suite)):
            got, want = suite(engine, dim), oracle(engine, dim)
            assert got.checks == want.checks
            assert (got.passed, got.counts) == (want.passed, want.counts)
            passed[case, got.suite] = got.passed
    assert passed == {("clean", "green"): True, ("clean", "riedtmann"): True,
                      ("value", "green"): False, ("value", "riedtmann"): True,
                      ("dropped", "green"): False,
                      ("dropped", "riedtmann"): False,
                      ("spurious", "green"): False,
                      ("spurious", "riedtmann"): False}


def corrupted_a2(target, sub, quot):
    """A scratch a2 engine whose memoized cell (sub, quot) of target is
    raised by 1."""
    a2 = quiver.builtin_backend("a2")
    engine = HallEngine(a2)
    t, key = parse_class(a2, target), (parse_class(a2, sub), parse_class(a2, quot))
    cells = dict(engine.cells(t))
    cells[key] = cells.get(key, 0) + 1
    engine._cells[t] = cells
    return engine


def test_suites_report_a_corrupted_cell():
    # 1_[S1] * 1_[S2] then carries 2 on [S1+S2], which breaks associativity,
    # the indecomposable support of [S1, S2] and Delta's homomorphism law
    engine = corrupted_a2("[S1+S2]", "[S1]", "[S2]")
    failed = {}
    for name in ("assoc", "lie-closure", "bialgebra"):
        res = verify.run_suite(name, engine, dim=3)
        assert res.passed is False
        failed[name] = [c["name"] for c in res.checks if not c["passed"]]
    assert failed == {
        "assoc": ["assoc [S2]*[S1]*[S2]", "assoc [S1]*[S2]*[S2]",
                  "assoc [S1]*[S2]*[S1]", "assoc [S1]*[S1]*[S2]",
                  "exhaustive singleton triples, total dim <= 3",
                  "50 random element triples"],
        "lie-closure": ["[S2,S1] support", "[S1,S2] support",
                        "indecomposable support of brackets, dim <= 3"],
        "bialgebra": ["Delta([S1]*[S2])", "Delta([S1]*[S2+S2])",
                      "Delta([S1]*[S2+S1])", "Delta([S2+S1]*[S2])",
                      "Delta([S1+S1]*[S2])",
                      "homomorphism property on basis pairs, dim <= 3, gamma <= 2"]}


def test_pbw_reports_a_corrupted_diagonal():
    # 1_[S1] * 1_[S1] = 3.1_[S1+S1] where the certificate expects 2!
    engine = corrupted_a2("[S1+S1]", "[S1]", "[S1]")
    res = verify.run_suite("pbw", engine, gamma=2)
    assert res.passed is False
    assert res.to_json()["report"]["counterexample"] == {
        "monomial": [0, 2, 0], "expected_leading": "2", "got": "3"}
    assert [c["name"] for c in res.checks if not c["passed"]] == [
        "gamma-triangularity", "diagonal entries are products of factorials",
        "graded bijectivity per filtration degree"]
    # power reads the same remainder below the leading term, and refuses it
    s1 = alg.singleton_set(engine.backend, parse_class(engine.backend, "[S1]"))
    with pytest.raises(InternalInvariantError, match="not 2!"):
        alg.convolution_power(engine, s1, 2)
