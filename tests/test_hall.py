import json
import math
import random
from collections import Counter
from itertools import product as iproduct

import pytest

from hallforge import algebra as alg
from hallforge import counting, hall, quiver, verify
from hallforge.counting import Bounds
from hallforge.errors import (BackendMismatchError, CapabilityError,
                              InternalInvariantError, ResourceLimitError)
from hallforge.hall import HallCache, HallEngine, HallPolynomial
from hallforge.quiver import make_class, parse_class

import fq_oracle
import oracles


def test_polynomial_str_and_eval():
    p = HallPolynomial((1, 1))
    assert str(p) == "q + 1"
    assert p.evaluate(1) == 2 and p.evaluate(7) == 8
    assert str(HallPolynomial((1,))) == "1"
    assert HallPolynomial((0, 0, 2)).evaluate(3) == 18
    assert str(HallPolynomial((-1, 1, 2))) == "2*q^2 + q - 1"
    assert str(HallPolynomial((0, -1))) == "-q"


def test_hall_polynomial_examples(a2_engine, loop_engine):
    a2, loop = a2_engine.backend, loop_engine.backend
    p = a2_engine.hall_polynomial(parse_class(a2, "[S2]"),
                                  parse_class(a2, "[S1]"),
                                  parse_class(a2, "[P12]"))
    assert p.coeffs == (1,)
    p = loop_engine.hall_polynomial(parse_class(loop, "[J1]"),
                                    parse_class(loop, "[J1]"),
                                    parse_class(loop, "[J1+J1]"))
    assert p.coeffs == (1, 1)
    p = loop_engine.hall_polynomial(parse_class(loop, "[J1]"),
                                    parse_class(loop, "[J1]"),
                                    parse_class(loop, "[J2]"))
    assert p.coeffs == (1,)


def test_euler_constant_examples(a2_engine, loop_engine):
    a2, loop = a2_engine.backend, loop_engine.backend
    assert loop_engine.euler_constant(parse_class(loop, "[J1]"),
                                      parse_class(loop, "[J1]"),
                                      parse_class(loop, "[J1+J1]")) == 2
    c = parse_class(loop, "[J2+J1]")
    assert loop_engine.euler_constant(c, quiver.ZERO_CLASS, c) == 1
    assert a2_engine.euler_constant(parse_class(a2, "[S2]"),
                                    parse_class(a2, "[S1]"),
                                    parse_class(a2, "[P12]")) == 1


def test_loop_polynomials_are_exact_at_every_q_max(loop):
    # Macdonald's g^(321)_(21),(21), and the two [J1^6] cells of degrees 8
    # and 9, the Gaussian binomials [6 choose 2]_q and [6 choose 3]_q: the
    # closed form samples no field, so no --q-max bounds them
    j1x6 = "[J1+J1+J1+J1+J1+J1]"
    cases = [(("[J1]", "[J1+J1]", "[J2+J1]"), (1,)),
             (("[J2+J1]", "[J2+J1]", "[J3+J2+J1]"), (-1, 1, 2)),
             (("[J1+J1]", "[J1+J1+J1+J1]", j1x6), (1, 1, 2, 2, 3, 2, 2, 1, 1)),
             (("[J1+J1+J1]", "[J1+J1+J1]", j1x6), (1, 1, 2, 3, 3, 3, 3, 2, 1, 1))]
    assert [c for _, c in cases[2:]] == [counting.gaussian_binomial(6, 2),
                                         counting.gaussian_binomial(6, 3)]
    for bounds in (Bounds(), Bounds(max_q=2)):
        engine = HallEngine(loop, bounds)
        for texts, coeffs in cases:
            sub, quot, target = (parse_class(loop, t) for t in texts)
            assert engine.hall_polynomial(sub, quot, target).coeffs == coeffs


def test_interpolation_stability(loop_engine, a2_engine):
    # an exact polynomial counts the cell over every field, not only over
    # the fields a fit would have sampled
    for engine, texts in ((loop_engine, ("[J1]", "[J1+J1]", "[J1+J1+J1]")),
                          (a2_engine, ("[P12+S1]", "[S1]", "[P12+S1+S1]"))):
        sub, quot, target = (parse_class(engine.backend, t) for t in texts)
        p = engine.hall_polynomial(sub, quot, target)
        assert p.degree == 2
        for q in (2, 3, 4, 5, 7, 8, 9, 11, 13):
            assert p.evaluate(q) == fq_oracle.enumerate_subreps(
                engine.backend, target, q).get((sub, quot), 0)


def test_type_a_polynomials_are_exact_at_every_q_max(a2, a3):
    # the Gaussian binomials [6 choose 2]_q and [6 choose 3]_q of the
    # semisimple [S^6] targets, and q + 1, which a fit needs three fields
    # for: the Green recursion samples no field, so no max_q bounds them
    cases = [(a2, ("[S2+S2]", "[S2+S2+S2+S2]", "[S2+S2+S2+S2+S2+S2]"),
              counting.gaussian_binomial(6, 2)),
             (a3, ("[S3+S3+S3]", "[S3+S3+S3]", "[S3+S3+S3+S3+S3+S3]"),
              counting.gaussian_binomial(6, 3)),
             (a2, ("[S1]", "[S1]", "[S1+S1]"), (1, 1)),
             (a3, ("[0]", "[0]", "[0]"), (1,))]
    for bounds in (Bounds(), Bounds(max_q=2), Bounds(max_q=3)):
        for backend, texts, coeffs in cases:
            sub, quot, target = (parse_class(backend, t) for t in texts)
            got = HallEngine(backend, bounds).hall_polynomial(sub, quot, target)
            assert got.coeffs == coeffs


@pytest.mark.parametrize("orientation,qs", [(">>", (2, 3)), ("><", (2, 3)), ("><>", (2,))],
                         ids=["a3", "a3-sink", "zigzag-A4"])
def test_green_recursion_counts_every_cell_over_f_q(orientation, qs):
    # every cell of every target up to dim 5 against the subspace survey:
    # the one check that sees a wrong `_summand_splits`, which both routes
    # of verify routes read
    backend = oracles.type_a_backend(orientation)
    engine = HallEngine(backend, Bounds(max_dim=5))
    for target in verify.classes_up_to(backend, 5)[1:]:
        table = engine._green(target)
        for q in qs:
            got = {k: v for k, c in table.items()
                   if (v := HallPolynomial(c).evaluate(q))}
            assert got == fq_oracle.enumerate_subreps(backend, target, q, engine.bounds)


def test_loop_closed_form_counts_every_cell_over_f_q(loop):
    # every cell of every loop target up to dim 5, Macdonald's closed form
    # against the subspace survey, which shares no helper with it
    assert oracles.exact_against_f_q(loop, range(6), (2, 3)) == 38


def test_interval_hom_is_the_f_q_hom():
    # the combinatorial Hom of the Green recursion against the rank of the
    # intertwining system over F_2, on seeded orientations of A2 .. A7
    rng = random.Random(0)
    pairs = 0
    for n in range(2, 8):
        for orientation in sorted({"".join(rng.choice("<>") for _ in range(n - 1))
                                   for _ in range(12)}):
            backend = oracles.type_a_backend(orientation)
            roots = quiver.positive_roots(backend, (1,) * n)
            reps = {r: fq_oracle.realize(backend, r, 2) for r in roots}
            for i in roots:
                for j in roots:
                    assert hall._hom(backend, i, j) == \
                        fq_oracle.hom_dim(backend, reps[i], reps[j]), (orientation, i, j)
                    pairs += 1
    assert pairs == 16164  # 42 orientations


def test_green_recursion_refuses_a_negative_power_of_q(a2, monkeypatch):
    # a wrong automorphism count leaves q^-k in a cell: raised, never returned
    aut = hall._aut
    monkeypatch.setattr(hall, "_aut", lambda b, c: (aut(b, c)[0] - 1, aut(b, c)[1]))
    with pytest.raises(InternalInvariantError, match="q\\^-"):
        HallEngine(a2)._green(parse_class(a2, "[S1+S2]"))


def test_split_consistency_binomials(loop_engine, a2_engine):
    # the constant on the split middle A+B is a product of binomials
    for engine, dim in ((loop_engine, 4), (a2_engine, 4)):
        backend = engine.backend
        if backend.kind == quiver.KIND_LOOP:
            classes = [c for n in range(3)
                       for c in quiver.classes_with_dim(backend, (n,), n)]
        else:
            classes = [c for da in range(3) for db in range(3 - da)
                       for c in quiver.classes_with_dim(backend, (da, db), 2)]
        for a in classes:
            for b in classes:
                if quiver.class_total_dim(backend, a) \
                        + quiver.class_total_dim(backend, b) > dim:
                    continue
                target = make_class(backend, list(a) + list(b))
                expected = 1
                for label in set(target):
                    ma = sum(1 for l in a if l == label)
                    mb = sum(1 for l in b if l == label)
                    expected *= math.comb(ma + mb, ma)
                assert engine.euler_constant(a, b, target) == expected


def test_cache_round_trip(loop, tmp_path):
    path = tmp_path / "cache.json"
    e1 = HallEngine(loop, cache=HallCache(loop, path))
    p = e1.hall_polynomial(parse_class(loop, "[J1]"),
                           parse_class(loop, "[J1]"),
                           parse_class(loop, "[J1+J1]"))
    e1.cache.dump()
    raw = json.loads(path.read_text())
    assert raw["version"] == hall.CACHE_VERSION
    assert raw["backend"] == loop.to_json()
    e2 = HallEngine(loop, cache=HallCache(loop, path))
    key = e2.cache.key(parse_class(loop, "[J1]"), parse_class(loop, "[J1]"),
                       parse_class(loop, "[J1+J1]"))
    assert e2.cache.get(key).coeffs == p.coeffs
    assert e2.cache.stats()["entries"] == e1.cache.stats()["entries"]


def test_cache_version_and_backend_mismatch(loop, a2, tmp_path):
    path = tmp_path / "cache.json"
    c = HallCache(loop, path)
    c.entries["x"] = [1]
    c.dump()
    data = json.loads(path.read_text())
    data["version"] = 99
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError, match="version"):
        HallCache(loop, path)
    c.dump()  # restore good version
    with pytest.raises(BackendMismatchError):
        HallCache(a2, path)


def test_cache_write_is_idempotent(loop):
    c = HallCache(loop)
    c.put("k", HallPolynomial((1, 1)))
    c.put("k", HallPolynomial((1, 1)))
    with pytest.raises(ValueError):
        c.put("k", HallPolynomial((2,)))


def test_p1_constants_factor_over_points(p1_engine):
    b = p1_engine.backend
    sub = quiver.make_class(b, [("t", "x", 1), ("t", "y", 1)])
    quot = quiver.make_class(b, [("t", "x", 1)])
    target = quiver.make_class(b, [("t", "x", 1), ("t", "x", 1), ("t", "y", 1)])
    # at x: ((1),(1),(1,1)) -> q+1 ; at y: ((1),0,(1)) -> 1
    p = p1_engine.hall_polynomial(sub, quot, target)
    assert p.coeffs == (1, 1)
    assert p1_engine.euler_constant(sub, quot, target) == 2


def test_candidate_targets(loop_engine, a2_engine):
    loop, a2 = loop_engine.backend, a2_engine.backend
    j1 = parse_class(loop, "[J1]")
    got = {quiver.class_name(loop, c)
           for c in loop_engine.candidate_targets(j1, j1)}
    assert got == {"[J2]", "[J1+J1]"}
    s2, s1 = parse_class(a2, "[S2]"), parse_class(a2, "[S1]")
    got = {quiver.class_name(a2, c)
           for c in a2_engine.candidate_targets(s2, s1)}
    assert got == {"[P12]", "[S2+S1]"}


def test_cells_are_fixed_point_counts(loop_engine, a3_engine):
    loop, a3 = loop_engine.backend, a3_engine.backend

    def named(engine, text):
        b = engine.backend
        return {(quiver.class_name(b, s), quiver.class_name(b, t)): c
                for (s, t), c in engine.cells(parse_class(b, text)).items()}

    assert named(loop_engine, "[J1+J1]") == {
        ("[0]", "[J1+J1]"): 1, ("[J1]", "[J1]"): 2, ("[J1+J1]", "[0]"): 1}
    # successor-closed subsets of 1 -> 2 -> 3: {}, {3}, {2,3}, {1,2,3}
    assert named(a3_engine, "[P13]") == {
        ("[0]", "[P13]"): 1, ("[S3]", "[P12]"): 1, ("[P23]", "[S1]"): 1,
        ("[P13]", "[0]"): 1}
    assert a3_engine.cells(quiver.ZERO_CLASS) == {((), ()): 1}


def test_euler_constant_bound_and_chi_entry(loop):
    engine = HallEngine(loop, Bounds(max_dim=3, max_q=13))
    j1 = parse_class(loop, "[J1]")
    with pytest.raises(ResourceLimitError):
        engine.euler_constant(j1, parse_class(loop, "[J3]"),
                              parse_class(loop, "[J4]"))
    assert engine.euler_constant(j1, parse_class(loop, "[J1+J1]"),
                                 parse_class(loop, "[J1+J1+J1]")) == 3
    # constants are read off `cells`: nothing goes to the cache
    assert engine.cache.entries == {}


def test_p1_polynomial_is_cached_under_its_p1_key_only(p1b):
    # the constant is read off `cells` and stores nothing; the polynomial
    # is stored under its p1 key, its loop factors nowhere.  A per-point
    # entry an older version wrote goes unread (its value is wrong on
    # purpose, so a read would show)
    p1_engine = HallEngine(p1b)
    old = {"local:[J1]|[J1]|[J1+J1]": [9]}
    p1_engine.cache.entries = dict(old)
    t1 = make_class(p1b, [("t", "x", 1)])
    target = make_class(p1b, [("t", "x", 1), ("t", "x", 1)])
    assert p1_engine.euler_constant(t1, t1, target) == 2
    assert p1_engine.cache.entries == old
    assert p1_engine.hall_polynomial(t1, t1, target).coeffs == (1, 1)
    assert p1_engine.cache.entries == {
        **old, "[T(x,1)]|[T(x,1)]|[T(x,1)+T(x,1)]": [1, 1]}


def test_p1_target_is_bounded_by_its_total_degree(p1b):
    # degree 4 at x and 3 at y: each point is within the bound, the total is not
    engine = HallEngine(p1b)
    t1 = make_class(p1b, [("t", "x", 1)])
    target = parse_class(p1b, "[T(x,4)+T(y,3)]")
    for call in (engine.cells, lambda y: engine.euler_constant(t1, t1, y),
                 lambda y: engine.hall_polynomial(t1, t1, y)):
        with pytest.raises(ResourceLimitError) as e:
            call(target)
        assert (e.value.limit, e.value.requested) == (6, 7)
    assert engine.cache.entries == {} and engine._cells == {}


def test_zero_p1_polynomial_is_canonical(p1b):
    # the loop factor at y is zero: the product is the zero polynomial (0,)
    engine = HallEngine(p1b)
    sub, quot, target = (parse_class(p1b, t) for t in (
        "[T(x,1)+T(y,1)+T(y,1)]", "[T(x,1)]", "[T(x,1)+T(x,1)+T(y,2)]"))
    p = engine.hall_polynomial(sub, quot, target)
    assert p.coeffs == (0,) and p.degree == 0
    assert list(engine.cache.entries.values()) == [[0]]


@pytest.mark.parametrize("name,dim", [("a2", 4), ("a3", 4), ("a3-sink", 4),
                                      ("loop", 5)])
def test_routes_suite_agrees(name, dim):
    if name == "a3-sink":
        backend = quiver.backend_from_json({
            "name": "a3-sink", "kind": "dynkin-quiver",
            "vertices": ["1", "2", "3"],
            "arrows": [{"id": "a", "src": "1", "tgt": "2"},
                       {"id": "b", "src": "3", "tgt": "2"}]})
    else:
        backend = quiver.builtin_backend(name)
    res = verify.suite_routes(HallEngine(backend), dim)
    assert res.passed, res.checks
    assert res.counts["mismatches"] == 0 and res.counts["cells"] > 0


@pytest.mark.parametrize("name,dim", [("a2", 4), ("a3-sink", 4), ("loop", 5)])
def test_product_is_the_nonzero_constants_in_target_order(name, dim):
    if name == "a3-sink":
        backend = quiver.backend_from_json({
            "name": "a3-sink", "kind": "dynkin-quiver",
            "vertices": ["1", "2", "3"],
            "arrows": [{"id": "a", "src": "1", "tgt": "2"},
                       {"id": "b", "src": "3", "tgt": "2"}]})
    else:
        backend = quiver.builtin_backend(name)
    oracle, engine = HallEngine(backend), HallEngine(backend)
    classes = verify.classes_up_to(backend, dim)
    pairs = 0
    for x in classes:
        for z in classes:
            if quiver.class_total_dim(backend, x + z) > dim:
                continue
            want = []
            for y in oracle.candidate_targets(x, z):
                c = oracle.euler_constant(x, z, y)
                if c:
                    want.append((y, c))
            got = engine.product(x, z)
            assert got == tuple(want)
            assert engine.product(x, z) is got
            pairs += 1
    assert pairs > len(classes)


def test_bound_failure_is_not_memoized(loop):
    engine = HallEngine(loop, Bounds(max_dim=3))
    j2 = alg.class_char(loop, parse_class(loop, "[J2]"))
    for _ in range(2):
        with pytest.raises(ResourceLimitError):
            alg.convolve(engine, j2, j2)


def test_foreign_labels_are_refused_before_any_memo():
    # the label table refuses a label its backend lacks, also on the
    # engine entry points that do not go through algebra
    a2, loop, p1 = (quiver.builtin_backend(n) for n in ("a2", "loop", "p1"))
    s1 = make_class(a2, [("i", 0, 0)])
    calls = [(a2, lambda e: e.cells((("j", 2),))),
             (a2, lambda e: e.hall_polynomial(s1, (), (("i", 0, 5),))),
             (a2, lambda e: make_class(a2, [("j", 1)])),
             (loop, lambda e: e.euler_constant((), (("j", 1),),
                                               (("j", 1), ("i", 0, 0)))),
             (p1, lambda e: e.cells((("t", "", 1),)))]
    for backend, call in calls:
        engine = HallEngine(backend)
        with pytest.raises(BackendMismatchError, match="does not belong"):
            call(engine)
        assert engine._cells == {} and engine._splits == {}


def test_euler_constant_refuses_the_labels_of_an_absent_cell(a2, p1b):
    # an absent cell's sub and quotient are looked up in the label table
    with pytest.raises(BackendMismatchError, match="does not belong"):
        HallEngine(a2).euler_constant((("j", 1),), (), (("i", 0, 0),))
    with pytest.raises(CapabilityError):
        HallEngine(p1b).euler_constant((("o", 1),), (), (("t", "x", 1),))


def test_p1_polynomial_loads_no_backend(p1b, monkeypatch):
    # the per-point factors are partition products in Z[q], with no loop
    # backend behind them; the [T(0,1)^6] cell is [6 choose 2]_q, of
    # degree 8, at the default bounds
    def refuse(name):
        raise AssertionError(f"loaded backend {name}")
    monkeypatch.setattr(quiver, "builtin_backend", refuse)
    engine = HallEngine(p1b)
    t1, t2 = make_class(p1b, [("t", "x", 1)]), make_class(p1b, [("t", "x", 2)])
    assert engine.hall_polynomial(t1, (), t1).coeffs == (1,)
    assert engine.hall_polynomial(t1, t1, t2).coeffs == (1,)
    sub, quot, target = (make_class(p1b, [("t", "0", 1)] * n) for n in (2, 4, 6))
    assert engine.hall_polynomial(sub, quot, target).coeffs == \
        counting.gaussian_binomial(6, 2)


def test_surveys_are_engine_memos(a3):
    # the Green tables belong to the engine: a reversed-arrow a3, also
    # named "a3", builds its own [P13] table after the built-in's engine ran
    rev = quiver.backend_from_json({
        "name": "a3", "kind": "dynkin-quiver", "vertices": ["1", "2", "3"],
        "arrows": [{"id": "a", "src": "2", "tgt": "1"},
                   {"id": "b", "src": "3", "tgt": "2"}]})
    for backend, want in ((a3, 0), (rev, 1)):
        engine = HallEngine(backend)
        assert engine._surveys == {}
        s1, p23, p13 = (parse_class(backend, t)
                        for t in ("[S1]", "[P23]", "[P13]"))
        assert engine.hall_polynomial(s1, p23, p13).evaluate(1) == want
        assert engine._surveys


P1_TARGETS = ("[T(x,1)]", "[T(x,2)+T(x,1)+T(y,3)]", "[T(x,1)+T(y,1)+T(y,1)]",
              "[T(x,3)+T(x,3)]", "[T(x,2)+T(y,2)+T(z,2)]", "[T(y,6)]")


def _targets(backend, dim):
    if backend.kind == quiver.KIND_P1:
        return [parse_class(backend, t) for t in P1_TARGETS]
    return verify.classes_up_to(backend, dim)


@pytest.mark.parametrize("name", ["a3", "loop", "p1"])
def test_each_indecomposable_is_split_once_per_engine(monkeypatch, name):
    backend = quiver.builtin_backend(name)
    calls = Counter()
    real = hall._summand_splits

    def counted(backend, label):
        calls[label] += 1
        return real(backend, label)

    monkeypatch.setattr(hall, "_summand_splits", counted)
    targets = _targets(backend, 5)
    engine = HallEngine(backend)
    for y in targets:
        engine.cells(y)
    assert set(calls) == {l for y in targets for l in y}
    assert set(calls.values()) == {1}
    # the memo belongs to the engine: a new one splits afresh
    HallEngine(backend).cells(targets[-1])
    assert all(calls[l] == 2 for l in targets[-1])


def _cells_from_scratch(backend, target):
    """cells(target) as one product over every summand's splits at once."""
    out = Counter()
    for picks in iproduct(*(hall._summand_splits(backend, l).items()
                            for l in target)):
        sub = make_class(backend, [l for ((s, _), _) in picks for l in s])
        quot = make_class(backend, [l for ((_, q), _) in picks for l in q])
        out[sub, quot] += math.prod(c for _, c in picks)
    return dict(out)


@pytest.mark.parametrize("name", ["a2", "a3", "loop", "p1"])
def test_cells_are_the_merged_splits_of_the_summands(name):
    backend = quiver.builtin_backend(name)
    engine = HallEngine(backend)
    targets = _targets(backend, 6)
    assert len(targets) > 5
    for y in targets:
        assert engine.cells(y) == _cells_from_scratch(backend, y), y
