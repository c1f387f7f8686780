from fractions import Fraction

import pytest

from hallforge import algebra as alg
from hallforge import coalgebra as co
from hallforge import quiver, verify
from hallforge.errors import BackendMismatchError
from hallforge.hall import HallEngine
from hallforge.quiver import parse_class

import oracles


def char_of(backend, text):
    return alg.class_char(backend, parse_class(backend, text))


def test_direct_sum_disjoint_singletons(a2):
    s1 = alg.singleton_set(a2, parse_class(a2, "[S1]"))
    s2 = alg.singleton_set(a2, parse_class(a2, "[S2]"))
    ds = oracles.direct_sum(a2, s1, s2)
    assert len(ds.strata) == 1
    assert ds.contains(parse_class(a2, "[S1+S2]"))
    assert not ds.contains(parse_class(a2, "[P12]"))


def test_direct_sum_same_family_gives_multiplicity(a2):
    fam = alg.IndecFamily.of_labels(a2, [("i", 0, 0)])
    o = alg.ConstructibleSet((alg.make_stratum(a2, [(fam, 1)]),))
    ds = oracles.direct_sum(a2, o, o)
    assert ds.strata == (alg.make_stratum(a2, [(fam, 2)]),)


def test_overlap_identity_four_pieces(a2):
    # finite-label version of the overlap rewrite: families {S1, P12} and
    # {S2, P12} refine into the four expected disjoint strata
    f1 = alg.IndecFamily.of_labels(a2, [("i", 0, 0), ("i", 0, 1)])
    f2 = alg.IndecFamily.of_labels(a2, [("i", 1, 1), ("i", 0, 1)])
    o1 = alg.ConstructibleSet((alg.make_stratum(a2, [(f1, 1)]),))
    o2 = alg.ConstructibleSet((alg.make_stratum(a2, [(f2, 1)]),))
    ds = oracles.direct_sum(a2, o1, o2)
    members = {quiver.class_name(a2, c) for c in ds.members(a2)}
    assert members == {"[S2+S1]", "[S1+P12]", "[S2+P12]", "[P12+P12]"}
    # strata denote pairwise disjoint sets
    seen = {}
    for s in ds.strata:
        for c in alg.ConstructibleSet((s,)).members(a2):
            assert c not in seen
            seen[c] = s


def test_char_fn_idempotent_and_merges_duplicates(a2):
    st = alg.class_stratum(a2, parse_class(a2, "[S1+S1+P12]"))
    n1 = alg.char_fn(a2, [st, st])
    assert n1.terms == ((alg.ConstructibleSet((st,)), 1),)
    assert alg.char_fn(a2, n1.terms[0][0]) == n1


def test_summand_count_of_sets(a2):
    s = alg.singleton_set(a2, quiver.ZERO_CLASS)
    assert s.summand_count() == 0
    fam1 = alg.IndecFamily.of_labels(a2, [("i", 0, 0)])
    fam2 = alg.IndecFamily.of_labels(a2, [("i", 1, 1)])
    big = alg.ConstructibleSet((alg.make_stratum(a2, [(fam1, 2), (fam2, 1)]),
                                alg.make_stratum(a2, [(fam2, 1)])))
    assert big.summand_count() == 3


def test_convolve_golden_values(a2_engine, loop_engine):
    a2, loop = a2_engine.backend, loop_engine.backend
    t = alg.convolve(a2_engine, char_of(a2, "[S2]"), char_of(a2, "[S1]"))
    assert alg.evaluate(t, parse_class(a2, "[S1+S2]")) == 1
    assert alg.evaluate(t, parse_class(a2, "[P12]")) == 1
    t = alg.convolve(a2_engine, char_of(a2, "[S1]"), char_of(a2, "[S2]"))
    assert alg.evaluate(t, parse_class(a2, "[P12]")) == 0
    t = alg.convolve(loop_engine, char_of(loop, "[J1]"), char_of(loop, "[J1]"))
    assert alg.evaluate(t, parse_class(loop, "[J1+J1]")) == 2
    assert alg.evaluate(t, parse_class(loop, "[J2]")) == 1


def test_unit_and_zero(a2_engine):
    a2 = a2_engine.backend
    one = alg.unit_element(a2)
    f = char_of(a2, "[S1+P12]")
    assert alg.equal(a2, alg.convolve(a2_engine, one, f), f)
    assert alg.equal(a2, alg.convolve(a2_engine, f, one), f)
    zero = oracles.zero_element(a2)
    assert alg.convolve(a2_engine, zero, f).is_zero()
    assert alg.char_fn(a2, []).is_zero()  # 1_emptyset = 0


def test_bilinearity(a2_engine):
    a2 = a2_engine.backend
    f = char_of(a2, "[S1]")
    g = char_of(a2, "[S2]")
    h = char_of(a2, "[P12]")
    fg = alg.add(a2, f, alg.scale(a2, g, Fraction(3, 2)))
    lhs = alg.convolve(a2_engine, fg, h)
    rhs = alg.add(a2, alg.convolve(a2_engine, f, h),
                  alg.scale(a2, alg.convolve(a2_engine, g, h), Fraction(3, 2)))
    assert alg.equal(a2, lhs, rhs)


def test_power_examples(a2_engine, loop_engine):
    a2, loop = a2_engine.backend, loop_engine.backend
    o = alg.singleton_set(a2, parse_class(a2, "[S1]"))
    p1_ = alg.convolution_power(a2_engine, o, 1)
    assert alg.equal(a2, p1_, char_of(a2, "[S1]"))
    p3 = alg.convolution_power(a2_engine, o, 3)
    assert alg.evaluate(p3, parse_class(a2, "[S1+S1+S1]")) == 6
    assert len(p3.terms) == 1
    oj = alg.singleton_set(loop, parse_class(loop, "[J1]"))
    p2 = alg.convolution_power(loop_engine, oj, 2)
    assert alg.evaluate(p2, parse_class(loop, "[J1+J1]")) == 2
    assert alg.evaluate(p2, parse_class(loop, "[J2]")) == 1
    with pytest.raises(ValueError):
        alg.convolution_power(a2_engine,
                              alg.singleton_set(a2, parse_class(a2, "[S1+S2]")), 2)


def test_bracket_properties(a2_engine, loop_engine):
    a2, loop = a2_engine.backend, loop_engine.backend
    br = alg.lie_bracket(a2_engine, char_of(a2, "[S1]"), char_of(a2, "[S2]"))
    assert alg.evaluate(br, parse_class(a2, "[P12]")) == -1
    assert alg.evaluate(br, parse_class(a2, "[S1+S2]")) == 0
    f = char_of(a2, "[S1]")
    assert alg.lie_bracket(a2_engine, f, f).is_zero()
    j = char_of(loop, "[J1]")
    assert alg.lie_bracket(loop_engine, j, j).is_zero()


def test_is_indec_supported(a2):
    assert alg.is_indec_supported(char_of(a2, "[S1]"))
    assert not alg.is_indec_supported(char_of(a2, "[S1+S2]"))
    combo = alg.add(a2, char_of(a2, "[P12]"),
                    alg.scale(a2, char_of(a2, "[S1]"), 3))
    assert alg.is_indec_supported(combo)
    assert alg.is_indec_supported(oracles.zero_element(a2))


def test_evaluate_examples(loop):
    one = alg.class_char(loop, quiver.ZERO_CLASS)
    assert alg.evaluate(one, quiver.ZERO_CLASS) == 1
    f = alg.add(loop, alg.scale(loop, char_of(loop, "[J1+J1]"), 2),
                char_of(loop, "[J2]"))
    assert alg.evaluate(f, parse_class(loop, "[J2]")) == 1
    assert alg.evaluate(f, parse_class(loop, "[J1+J1]")) == 2
    assert alg.evaluate(f, parse_class(loop, "[J3]")) == 0


def test_support_lemma_on_products(a2_engine, loop_engine):
    # every nonzero value of a product has a witnessing constant
    for engine, texts in ((a2_engine, ("[S1+S2]", "[P12]")),
                          (loop_engine, ("[J1+J1]", "[J2]"))):
        backend = engine.backend
        f = char_of(backend, texts[0])
        g = char_of(backend, texts[1])
        prod = alg.convolve(engine, f, g)
        for cset, coeff in prod.terms:
            for y in cset.members(backend):
                witnesses = [
                    (x, z)
                    for x in f.values
                    for z in g.values
                    if engine.euler_constant(x, z, y)
                ]
                assert witnesses


def test_indec_correction_form(a2_engine, loop_engine):
    # for disjoint indecomposable families, product minus the split part is
    # supported on indecomposables
    for engine, la, lb in ((a2_engine, ("i", 1, 1), ("i", 0, 0)),
                           (loop_engine, ("j", 1), ("j", 2))):
        backend = engine.backend
        fa = alg.IndecFamily.of_labels(backend, [la])
        fb = alg.IndecFamily.of_labels(backend, [lb])
        f = alg.char_fn(backend, [alg.make_stratum(backend, [(fa, 1)])])
        g = alg.char_fn(backend, [alg.make_stratum(backend, [(fb, 1)])])
        prod = alg.convolve(engine, f, g)
        split = alg.char_fn(backend,
                            [alg.make_stratum(backend, [(fa, 1), (fb, 1)])])
        rest = alg.subtract(backend, prod, split)
        assert alg.is_indec_supported(rest)


def test_gamma_bound_on_outputs(loop_engine):
    loop = loop_engine.backend
    f = char_of(loop, "[J1+J1]")
    g = char_of(loop, "[J1]")
    prod = alg.convolve(loop_engine, f, g)
    assert prod.summand_count() <= 3


def test_canonical_serialization_is_construction_independent(a2, a2_engine):
    fam = alg.IndecFamily.of_labels(a2, [("i", 0, 0), ("i", 1, 1)])
    via_family = alg.char_fn(a2, [alg.make_stratum(a2, [(fam, 1)])])
    via_sum = alg.add(a2, char_of(a2, "[S1]"), char_of(a2, "[S2]"))
    assert via_family == via_sum
    assert alg.canonical_json(a2, via_family) == alg.canonical_json(a2, via_sum)


def test_backend_mismatch_raises(a2, loop, a2_engine):
    f = char_of(a2, "[S1]")
    g = char_of(loop, "[J1]")
    with pytest.raises(BackendMismatchError):
        alg.convolve(a2_engine, f, g)
    with pytest.raises(BackendMismatchError):
        alg.add(a2, f, g)


def test_same_name_backend_definition_mismatch_raises(a3):
    # an a3 with reversed arrows, also named "a3", has the same labels and
    # class tuples, so only its definition tells the two apart
    rev = quiver.backend_from_json({
        "name": "a3", "kind": "dynkin-quiver", "vertices": ["1", "2", "3"],
        "arrows": [{"id": "a", "src": "2", "tgt": "1"},
                   {"id": "b", "src": "3", "tgt": "2"}]})
    f = char_of(a3, "[S1]")
    with pytest.raises(BackendMismatchError, match="another definition"):
        alg.convolve(HallEngine(rev), f, f)
    with pytest.raises(BackendMismatchError):
        co.comultiply(rev, f)


def test_stratum_requires_disjoint_families(a2):
    f1 = alg.IndecFamily.of_labels(a2, [("i", 0, 0), ("i", 0, 1)])
    f2 = alg.IndecFamily.of_labels(a2, [("i", 0, 1)])
    with pytest.raises(ValueError):
        alg.make_stratum(a2, [(f1, 1), (f2, 1)])


def test_membership_with_multiplicities(a2):
    fam = alg.IndecFamily.of_labels(a2, [("i", 0, 0), ("i", 1, 1)])
    st = alg.make_stratum(a2, [(fam, 2)])
    cs = alg.ConstructibleSet((st,))
    assert cs.contains(parse_class(a2, "[S1+S2]"))
    assert cs.contains(parse_class(a2, "[S1+S1]"))
    assert not cs.contains(parse_class(a2, "[S1]"))
    assert not cs.contains(parse_class(a2, "[S1+P12]"))


def test_foreign_labels_rejected(a2, loop):
    with pytest.raises(BackendMismatchError):
        alg.class_char(a2, (("j", 2),))
    with pytest.raises(BackendMismatchError):
        alg.IndecFamily.of_labels(loop, [("i", 0, 0)])
    with pytest.raises(BackendMismatchError):
        alg.class_char(loop, (("t", "x", 1),))


MIDDLE_SINK_A3 = quiver.Backend("a3-sink", quiver.KIND_DYNKIN, ("1", "2", "3"),
                                (quiver.Arrow("a", 0, 1), quiver.Arrow("b", 2, 1)))


@pytest.mark.parametrize("backend", [quiver.builtin_backend("a2"),
                                     quiver.builtin_backend("a3"),
                                     quiver.builtin_backend("loop"),
                                     MIDDLE_SINK_A3], ids=lambda b: b.name)
def test_class_char_matches_the_stratum_route(backend):
    classes = verify.classes_up_to(backend, 4)
    assert classes[0] == quiver.ZERO_CLASS
    for cls in classes:
        want = oracles.class_char_by_stratum(backend, cls).values
        assert alg.class_char(backend, cls).values == want
        # labels in another order name the same class
        assert alg.class_char(backend, tuple(reversed(cls))).values == want


@pytest.mark.parametrize("backend", [
    quiver.builtin_backend("a2"), quiver.builtin_backend("a3"),
    *(oracles.type_a_backend(o) for o in (
        "><", "<>", "><>", "<<>", "><><", "<>><", "><><>", ">><<<"))],
    ids=lambda b: b.name)
def test_type_a_brackets_are_the_chevalley_constants(backend):
    # [1_A, 1_B] for intervals A, B: +1_{A u B} when they touch and the one
    # arrow between them points from B into A (A is then a submodule of
    # A u B), -1_{A u B} when it points from A into B, and 0 otherwise
    n = backend.n_vertices
    engine = HallEngine(backend, quiver.Bounds(max_dim=2 * n))  # A and B both whole
    head = {frozenset((a.src, a.tgt)): a.tgt for a in backend.arrows}
    roots = quiver.positive_roots(backend, (1,) * n)
    for a in roots:
        for b in roots:
            (_, a0, a1), (_, b0, b1) = a, b
            want = {}
            if a1 + 1 == b0 or b1 + 1 == a0:
                into = head[frozenset((a1, b0) if a1 + 1 == b0 else (b1, a0))]
                want = {(("i", min(a0, b0), max(a1, b1)),): 1 if a0 <= into <= a1 else -1}
            br = alg.lie_bracket(engine, alg.class_char(backend, (a,)),
                                 alg.class_char(backend, (b,)))
            assert br.values == want, (quiver.label_name(backend, a),
                                       quiver.label_name(backend, b))


def test_lie_closure_checks_the_bracket_values(monkeypatch, a2, a3, loop):
    # a bracket that is wrongly 0 on a3, or wrongly 1_A on loop, keeps the
    # indecomposable support: only the values catch it, and the summary
    # line counts them
    summary = "indecomposable support of brackets, dim <= 4"
    wrong = ((a3, lambda engine, f, g: oracles.zero_element(a3),
              ["[S1,S2]", "[S2,S1]", "[S2,S3]", "[S3,S2]", "[S1,P23]",
               "[P23,S1]", "[S3,P12]", "[P12,S3]"]),
             (loop, lambda engine, f, g: f,
              ["[J1,J1]", "[J1,J2]", "[J2,J1]", "[J1,J3]", "[J2,J2]",
               "[J3,J1]"]))
    for backend, bracket, pairs in wrong:
        engine = HallEngine(backend)
        assert verify.suite_lie_closure(engine, 4).passed
        with monkeypatch.context() as m:
            m.setattr(alg, "lie_bracket", bracket)
            res = verify.suite_lie_closure(engine, 4)
        assert not res.passed
        assert sorted(c["name"] for c in res.checks if not c["passed"]) == \
            sorted(f"{p} value" for p in pairs) + [summary]
        assert res.checks[-1]["detail"].endswith(f", {len(pairs)} wrong values")
    # so does one corrupted cell: ([S2], [S1]) of [P12] and ([J1], [J2]) of
    # [J3] raised by 1 make those brackets +-2 1_[P12] and +-1_[J3]
    for backend, cell in ((a2, ("[S2]", "[S1]", "[P12]")), (loop, ("[J1]", "[J2]", "[J3]"))):
        engine = HallEngine(backend)
        sub, quot, target = (parse_class(backend, t) for t in cell)
        engine._cells[target] = {**engine.cells(target), (sub, quot): 2}
        res = verify.suite_lie_closure(engine, 4)
        names = [f"[{cell[0][1:-1]},{cell[1][1:-1]}]", f"[{cell[1][1:-1]},{cell[0][1:-1]}]"]
        assert sorted(c["name"] for c in res.checks if not c["passed"]) == \
            sorted(f"{n} value" for n in names) + [summary]
        assert res.checks[-1]["detail"].endswith(", 2 wrong values")
