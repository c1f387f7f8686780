"""Acceptance criteria, one test per criterion.

Each test asserts the exact values and records a PASS line (printed in
the terminal summary) with its wall-clock time.  Stated time budgets are
reported, not asserted: they are machine-dependent, and every criterion
is exact-valued.
"""

import json
import math
import time
from fractions import Fraction
from itertools import product as iproduct

from hallforge import algebra as alg
from hallforge import coalgebra as co
from hallforge import counting, hall, p1, pbw, quiver, verify
from hallforge.p1sets import P1Set
from hallforge.quiver import make_class, parse_class

from conftest import run_cli
from conftest_acceptance import record


def char_of(backend, text):
    return alg.class_char(backend, parse_class(backend, text))


def test_criterion_01_a2_structure_constants(a2_engine):
    t0 = time.monotonic()
    a2 = a2_engine.backend
    prod = alg.convolve(a2_engine, char_of(a2, "[S2]"), char_of(a2, "[S1]"))
    expected = alg.add(a2, char_of(a2, "[S1+S2]"), char_of(a2, "[P12]"))
    assert alg.equal(a2, prod, expected)
    prod2 = alg.convolve(a2_engine, char_of(a2, "[S1]"), char_of(a2, "[S2]"))
    assert alg.equal(a2, prod2, char_of(a2, "[S1+S2]"))
    br = alg.lie_bracket(a2_engine, char_of(a2, "[S1]"), char_of(a2, "[S2]"))
    assert alg.equal(a2, br, alg.scale(a2, char_of(a2, "[P12]"), -1))
    r = run_cli("--backend", "a2", "mul", "[S2]", "[S1]")
    assert r.exit_code == 0
    assert r.stdout.strip() == "(1)*1_{{P12}} + (1)*1_{{S2}+{S1}}"
    record(1, "A2 structure constants", t0)


def test_criterion_02_loop_golden_values(loop_engine):
    t0 = time.monotonic()
    loop = loop_engine.backend
    j1 = parse_class(loop, "[J1]")
    p = loop_engine.hall_polynomial(j1, j1, parse_class(loop, "[J1+J1]"))
    assert p.coeffs == (1, 1) and str(p) == "q + 1"
    assert loop_engine.euler_constant(j1, j1, parse_class(loop, "[J1+J1]")) == 2
    assert loop_engine.hall_polynomial(
        j1, j1, parse_class(loop, "[J2]")).coeffs == (1,)
    sq = alg.convolve(loop_engine, char_of(loop, "[J1]"), char_of(loop, "[J1]"))
    expected = alg.add(loop, alg.scale(loop, char_of(loop, "[J1+J1]"), 2),
                       char_of(loop, "[J2]"))
    assert alg.equal(loop, sq, expected)
    record(2, "loop-nilpotent golden values", t0)


def test_criterion_03_factorial_leading_terms(a2_engine, loop_engine):
    t0 = time.monotonic()
    for engine, label in ((a2_engine, ("i", 0, 0)), (loop_engine, ("j", 1))):
        backend = engine.backend
        fam = alg.IndecFamily.of_labels(backend, [label])
        o = alg.ConstructibleSet((alg.make_stratum(backend, [(fam, 1)]),))
        for k in range(1, 5):
            # convolution_power itself asserts the leading-term shape
            result = alg.convolution_power(engine, o, k)
            lead = make_class(backend, [label] * k)
            assert alg.evaluate(result, lead) == math.factorial(k)
            rest = alg.add(backend, result,
                           alg.scale(backend, alg.class_char(backend, lead),
                                     math.factorial(k)), Fraction(-1))
            assert rest.is_zero() or rest.summand_count() < k
    record(3, "factorial leading terms of powers (k <= 4)", t0)


def _binomial_leading(engine, f1, f2, m, n):
    backend = engine.backend
    left = alg.char_fn(backend, [alg.make_stratum(
        backend, [(f1, m[0]), (f2, m[1])])])
    right = alg.char_fn(backend, [alg.make_stratum(
        backend, [(f1, n[0]), (f2, n[1])])])
    prod = alg.convolve(engine, left, right)
    lead_stratum = alg.make_stratum(backend,
                                    [(f1, m[0] + n[0]), (f2, m[1] + n[1])])
    lead = alg.char_fn(backend, [lead_stratum])
    expect = math.comb(m[0] + n[0], m[0]) * math.comb(m[1] + n[1], m[1])
    member = next(iter(alg.ConstructibleSet((lead_stratum,)).members(backend)))
    assert alg.evaluate(prod, member) == expect
    rest = alg.add(backend, prod, alg.scale(backend, lead, expect),
                   Fraction(-1))
    gsum = sum(m) + sum(n)
    assert rest.is_zero() or rest.summand_count() < gsum


def test_criterion_04_multinomial_leading_terms(a2_engine, a3_engine,
                                                loop_engine):
    t0 = time.monotonic()
    cases = []
    a2 = a2_engine.backend
    cases.append((a2_engine, alg.IndecFamily.of_labels(a2, [("i", 0, 0)]),
                  alg.IndecFamily.of_labels(a2, [("i", 1, 1)]), 1, 1))
    a3 = a3_engine.backend
    cases.append((a3_engine, alg.IndecFamily.of_labels(a3, [("i", 0, 0)]),
                  alg.IndecFamily.of_labels(a3, [("i", 2, 2)]), 1, 1))
    loop = loop_engine.backend
    cases.append((loop_engine, alg.IndecFamily.of_labels(loop, [("j", 1)]),
                  alg.IndecFamily.of_labels(loop, [("j", 2)]), 1, 2))
    checked = 0
    for engine, f1, f2, d1, d2 in cases:
        for m1, m2, n1, n2 in iproduct(range(5), repeat=4):
            if not 0 < m1 + m2 + n1 + n2 <= 4:
                continue
            # stay inside the kernel's default dimension bound (see ledger)
            if (m1 + n1) * d1 + (m2 + n2) * d2 > 6:
                continue
            _binomial_leading(engine, f1, f2, (m1, m2), (n1, n2))
            checked += 1
    assert checked >= 100
    record(4, f"multinomial leading coefficients ({checked} products)", t0)


def test_criterion_05_riedtmann_exhaustive(a2_engine, a3_engine, loop_engine):
    t0 = time.monotonic()
    for engine in (a2_engine, a3_engine, loop_engine):
        res = verify.suite_riedtmann(engine, 5)
        assert res.passed, res.checks
    record(5, "Riedtmann inequality, exhaustive dim <= 5", t0)


def test_criterion_06_associativity(a2_engine, a3_engine, loop_engine):
    t0 = time.monotonic()
    for engine in (a2_engine, a3_engine, loop_engine):
        res = verify.suite_assoc(engine, 4)
        assert res.passed, res.checks
        assert res.counts["random"] == 50
    record(6, "associativity, dim <= 4 plus 50 random triples", t0)


def test_criterion_07_lie_closure_and_serre(a2_engine, a3_engine, loop_engine):
    t0 = time.monotonic()
    for engine in (a2_engine, a3_engine, loop_engine):
        res = verify.suite_lie_closure(engine, 4)
        assert res.passed, res.checks
    a2 = a2_engine.backend
    s1, s2 = char_of(a2, "[S1]"), char_of(a2, "[S2]")
    inner = alg.lie_bracket(a2_engine, s1, s2)
    assert alg.lie_bracket(a2_engine, s1, inner).is_zero()
    record(7, "Lie closure and the A2 Serre-type relation", t0)


def test_criterion_08_pbw_truncations(a2_engine, loop_engine9):
    t0 = time.monotonic()
    a2 = a2_engine.backend
    fams_a2 = [alg.IndecFamily.of_labels(a2, [l])
               for l in (("i", 1, 1), ("i", 0, 0), ("i", 0, 1))]
    rep = pbw.certify_truncation(a2_engine, fams_a2, 3)
    assert rep.triangular and rep.diagonal_ok and rep.graded_bijective
    diag = sorted(int(x) for b in rep.blocks for x in b["diagonal"])
    # 1 (empty) + 3 + 6 + 10 monomials; diagonals are products of factorials
    assert diag.count(1) == 8 and diag.count(2) == 9 and diag.count(6) == 3
    loop = loop_engine9.backend
    fams_loop = [alg.IndecFamily.of_labels(loop, [("j", d)]) for d in (1, 2, 3)]
    rep2 = pbw.certify_truncation(loop_engine9, fams_loop, 3)
    assert rep2.triangular and rep2.diagonal_ok and rep2.graded_bijective
    for block in rep2.blocks:
        g = block["gamma"]
        assert block["diagonal_block"]
        for diag_entry, es in zip(block["diagonal"],
                                  [e for e in sorted_exponents(3, g)]):
            expect = 1
            for e in es:
                expect *= math.factorial(e)
            assert int(diag_entry) == expect
    record(8, "PBW truncation certificates (gamma <= 3)", t0)


def sorted_exponents(nfam, g):
    return list(alg._compositions(g, nfam))


def test_criterion_09_green_exhaustive(a2_engine, loop_engine):
    t0 = time.monotonic()
    for engine in (a2_engine, loop_engine):
        res = verify.suite_green(engine, 4)
        assert res.passed, res.checks
    record(9, "degenerate Green identity, exhaustive dim <= 4", t0)


def test_criterion_10_bialgebra(a2_engine, loop_engine):
    t0 = time.monotonic()
    for engine in (a2_engine, loop_engine):
        res = verify.suite_bialgebra(engine, 4, gamma=2)
        assert res.passed, res.checks
    # the fully expanded f = g = 1_{J1} case
    loop = loop_engine.backend
    f = char_of(loop, "[J1]")
    lhs = co.comultiply(loop, alg.convolve(loop_engine, f, f))
    rhs = co.tensor_convolve(loop_engine, co.comultiply(loop, f),
                             co.comultiply(loop, f))
    assert co.tensor_equal(loop, lhs, rhs)
    record(10, "comultiplication is an algebra homomorphism", t0)


def test_criterion_11_counit_laws(a2_engine, a3_engine, loop_engine):
    t0 = time.monotonic()
    for engine in (a2_engine, a3_engine, loop_engine):
        backend = engine.backend
        classes = [c for c in verify.classes_up_to(backend, 4)
                   if quiver.summand_count(c) <= 3]
        assert classes
        for cls in classes:
            f = alg.class_char(backend, cls)
            d = co.comultiply(backend, f)
            assert alg.equal(backend, co.counit_contract(backend, d, "left"), f)
            assert alg.equal(backend, co.counit_contract(backend, d, "right"), f)
    record(11, "counit laws on basis elements, gamma <= 3", t0)


def test_criterion_12_p1_family_calculus(p1_engine):
    t0 = time.monotonic()
    assert P1Set.cofinite_of([]).chi() == 2
    res = verify.suite_euler_axioms(p1_engine)
    assert res.passed, res.checks
    assert "additivity on 100 random disjoint pairs" in [c["name"] for c in res.checks]
    record(12, "P1 chi calculus and torsion family product", t0)


def test_criterion_13_determinism_and_cache(tmp_path, loop_engine,
                                            a2_engine, loop_engine9):
    t0 = time.monotonic()
    cache = tmp_path / "cache.json"
    argsets = [
        ["--backend", "a2", "--json", "mul", "[S2]", "[S1]"],
        ["--backend", "a2", "--json", "mul", "[S1]", "[S2]"],
        ["--backend", "a2", "--json", "bracket", "[S1]", "[S2]"],
        ["--backend", "loop", "--json", "power", "[J1]", "2"],
        ["--backend", "loop", "--json", "comul", "[J1+J1]"],
        ["--backend", "p1", "--json", "mul", "O1", "O1"],
        # the warm half reads Hall polynomials from the cache
        ["--backend", "loop", "--dim", "3", "--json", "verify", "routes"],
    ]
    for args in argsets:
        cold = run_cli(*args)
        assert cold.exit_code == 0
        again = run_cli(*args)
        cached1 = run_cli(*args[:2], "--cache", str(cache), *args[2:])
        cached2 = run_cli(*args[:2], "--cache", str(cache), *args[2:])
        assert cold.stdout == again.stdout == cached1.stdout == cached2.stdout
        cache.unlink(missing_ok=True)

    # library level: a cold engine, a warm engine, and an engine seeded from
    # a dumped cache must serialize every reference result identically
    loop = loop_engine.backend
    path = tmp_path / "loop.json"
    loop_engine.cache.dump(path)
    seeded = hall.HallEngine(loop, counting.Bounds(max_dim=9, max_q=13),
                             cache=hall.HallCache(loop, path))
    fresh = hall.HallEngine(loop, counting.Bounds(max_dim=9, max_q=13),
                            cache=hall.HallCache(loop))
    probes = [("[J1]", "[J1]"), ("[J2]", "[J1]"), ("[J2]", "[J2]")]
    for a, b in probes:
        ref = alg.canonical_json(loop, alg.convolve(
            loop_engine, char_of(loop, a), char_of(loop, b)))
        assert alg.canonical_json(loop, alg.convolve(
            seeded, char_of(loop, a), char_of(loop, b))) == ref
        assert alg.canonical_json(loop, alg.convolve(
            fresh, char_of(loop, a), char_of(loop, b))) == ref
    # the PBW certificate re-serializes identically from the warm cache
    fams = [alg.IndecFamily.of_labels(loop, [("j", d)]) for d in (1, 2)]
    r1 = json.dumps(pbw.certify_truncation(loop_engine9, fams, 2).to_json(loop),
                    sort_keys=True)
    r2 = json.dumps(pbw.certify_truncation(seeded, fams, 2).to_json(loop),
                    sort_keys=True)
    assert r1 == r2
    record(13, "byte-identical results across runs and cold/warm cache", t0)
