import json
import random
from fractions import Fraction
from itertools import combinations_with_replacement, product

import pytest

from hallforge import quiver
from hallforge.errors import CapabilityError, InternalInvariantError
from hallforge.quiver import (Arrow, Backend, class_name, label_name,
                              make_class, parse_class, positive_roots)

import fq_oracle
import oracles
from fq_oracle import decompose, hom_dim, realize, realize_class


def test_positive_roots_a2_against_brute_force(a2):
    # oracle: enumerate every rep over F_2 with dims <= (2,2), test
    # indecomposability by idempotent search, collect dim vectors
    found = set()
    for da in range(3):
        for db in range(3):
            if (da, db) == (0, 0):
                continue
            for rep in oracles.all_reps(a2, (da, db), 2):
                if oracles.is_indecomposable(a2, rep):
                    found.add(rep.dims)
    roots = positive_roots(a2, (2, 2))
    assert {quiver.label_dim(a2, r) for r in roots} == found == \
        {(1, 0), (0, 1), (1, 1)}


def test_positive_roots_a1():
    a1 = Backend("a1", quiver.KIND_DYNKIN, ("1",), ())
    assert positive_roots(a1, (3,)) == [("i", 0, 0)]


def test_positive_roots_a3_bound_ones(a3):
    roots = positive_roots(a3, (1, 1, 1))
    assert len(roots) == 6
    assert {label_name(a3, r) for r in roots} == \
        {"S1", "S2", "S3", "P12", "P23", "P13"}


def test_root_count_matches_triangular_number():
    for n in (2, 3, 4):
        vertices = tuple(str(i) for i in range(1, n + 1))
        arrows = tuple(Arrow(f"a{i}", i, i + 1) for i in range(n - 1))
        b = Backend(f"a{n}", quiver.KIND_DYNKIN, vertices, arrows)
        assert len(positive_roots(b, (1,) * n)) == n * (n + 1) // 2


def test_interval_names_on_longer_vertex_names(a2):
    # one-character vertex names are run together (P12); longer ones take
    # a dash, and parse_label reads both forms back, either end first
    v3 = Backend("v3", quiver.KIND_DYNKIN, ("v1", "v2", "v3"),
                 (Arrow("a", 0, 1), Arrow("b", 1, 2)))
    assert label_name(v3, ("i", 0, 1)) == "Pv1-v2"
    for label in positive_roots(v3, (1, 1, 1)):
        assert quiver.parse_label(v3, label_name(v3, label)) == label
    assert quiver.parse_label(a2, "P21") == ("i", 0, 1)


def test_realize_examples(a2, loop):
    r = realize(a2, ("i", 0, 1), 2)
    assert r.dims == (1, 1) and r.mats[0] == (bytes([1]),)
    r = realize(a2, ("i", 0, 0), 3)
    assert r.dims == (1, 0) and r.mats[0] == ()
    r = realize(loop, ("j", 2), 2)
    assert r.mats[0] == (bytes([0, 1]), bytes([0, 0]))


def test_realize_class_examples(a2):
    r = realize_class(a2, parse_class(a2, "[S1+S2]"), 2)
    assert r.dims == (1, 1) and r.mats[0] == (bytes([0]),)
    r = realize_class(a2, quiver.ZERO_CLASS, 2)
    assert r.dims == (0, 0)
    r = realize_class(a2, parse_class(a2, "[P12+P12]"), 3)
    assert r.mats[0] == (bytes([1, 0]), bytes([0, 1]))


def test_hom_dim_examples(a2):
    S1 = realize(a2, ("i", 0, 0), 2)
    S2 = realize(a2, ("i", 1, 1), 2)
    P = realize(a2, ("i", 0, 1), 2)
    assert hom_dim(a2, S1, S1) == 1
    assert hom_dim(a2, S1, S2) == 0
    assert hom_dim(a2, S2, S1) == 0
    assert hom_dim(a2, P, S1) == 1
    assert hom_dim(a2, S1, P) == 0
    assert hom_dim(a2, S2, P) == 1


def test_hom_dim_loop_blocks(loop):
    for a in range(1, 4):
        for b in range(1, 4):
            ra, rb = realize(loop, ("j", a), 3), realize(loop, ("j", b), 3)
            assert hom_dim(loop, ra, rb) == min(a, b)


@pytest.mark.parametrize("name", ["a2", "a3", "a3-sink"])
def test_classes_with_dim_matches_the_skip_include_oracle(name):
    # the same tuple, order included, for every dimension vector with
    # entries <= 5 and every summand bound from 0 to the total dimension
    if name == "a3-sink":
        backend = Backend("a3-sink", quiver.KIND_DYNKIN, ("1", "2", "3"),
                          (Arrow("a", 0, 1), Arrow("b", 2, 1)))
    else:
        backend = quiver.builtin_backend(name)
    cases = 0
    for dims in product(range(6), repeat=backend.n_vertices):
        for gmax in range(sum(dims) + 1):
            want = oracles.type_a_classes(backend, dims, gmax)
            assert quiver.classes_with_dim(backend, dims, gmax) == want, (dims, gmax)
            cases += 1
    assert cases == (216 if name == "a2" else 1836)


def test_decompose_zero_and_round_trip_exhaustive(a2, loop):
    assert decompose(a2, realize_class(a2, quiver.ZERO_CLASS, 2)) == ()
    for backend in (a2, loop):
        classes = set()
        if backend is a2:
            for da in range(6):
                for db in range(6 - da):
                    classes |= set(quiver.classes_with_dim(backend, (da, db), 5))
        else:
            for n in range(6):
                classes |= set(quiver.classes_with_dim(backend, (n,), 5))
        for q in (2, 3, 5):
            for cls in classes:
                assert decompose(backend, realize_class(backend, cls, q)) == cls


def test_decompose_round_trip_a3_exhaustive(a3):
    classes = []
    for da in range(6):
        for db in range(6 - da):
            for dc in range(6 - da - db):
                classes.extend(quiver.classes_with_dim(a3, (da, db, dc), 5))
    for cls in classes:
        for q in (2, 3, 5):
            assert decompose(a3, realize_class(a3, cls, q)) == cls


@pytest.mark.parametrize("arrows,max_dim", [
    ((Arrow("a", 0, 1), Arrow("b", 2, 1)), 5),
    ((Arrow("a", 0, 1), Arrow("b", 2, 1), Arrow("c", 2, 3)), 4),
], ids=["a3-sink", "a4-zigzag"])
def test_decompose_round_trip_other_orientations(arrows, max_dim):
    # the middle-sink a3 and the zigzag A4 1 -> 2 <- 3 -> 4, every class of
    # total dimension <= max_dim
    n = len(arrows) + 1
    backend = Backend(f"a{n}", quiver.KIND_DYNKIN,
                      tuple(str(v + 1) for v in range(n)), arrows)
    for dims in product(range(max_dim + 1), repeat=n):
        if sum(dims) > max_dim:
            continue
        for cls in quiver.classes_with_dim(backend, dims, max_dim):
            for q in (2, 3, 5):
                assert decompose(backend, realize_class(backend, cls, q)) == cls


@pytest.mark.parametrize("profile", [(0, 1, 0), (Fraction(1, 2), 0, 0)],
                         ids=["negative", "fractional"])
def test_hom_profile_of_no_class_is_refused(a2, profile):
    # on a2, in the order S2, S1, P12: (0, 1, 0) solves to S2 + S1 - P12
    # and (1/2, 0, 0) to half of S2
    labels = fq_oracle._indec_basis(a2, (1, 1))
    with pytest.raises(InternalInvariantError, match="not a non-negative integer"):
        fq_oracle._solve_multiplicities(a2, labels, profile, 2)


def test_decompose_rank_one_example(a2):
    rep = fq_oracle.MatrixRep(2, (2, 2), ((bytes([1, 0]), bytes([0, 0])),))
    assert decompose(a2, rep) == parse_class(a2, "[S1+S2+P12]")


def test_field_independence_on_permuted_realizations(a2, a3, loop):
    rng = random.Random(11)
    for backend in (a2, a3, loop):
        if backend is loop:
            pool = [make_class(backend, [("j", 2), ("j", 1)]),
                    make_class(backend, [("j", 3), ("j", 1), ("j", 1)])]
        else:
            roots = positive_roots(backend, (2,) * backend.n_vertices)
            pool = [make_class(backend, [rng.choice(roots), rng.choice(roots)])
                    for _ in range(3)]
        for cls in pool:
            rep2 = realize_class(backend, cls, 2)
            perms = [list(range(d)) for d in rep2.dims]
            for p in perms:
                rng.shuffle(p)

            def permuted(q):
                rep = realize_class(backend, cls, q)
                mats = []
                for ai, ar in enumerate(backend.arrows):
                    ps, pt = perms[ar.src], perms[ar.tgt]
                    m = rep.mats[ai]
                    rows = [bytes(m[pt[i]][ps[j]] for j in range(len(ps)))
                            for i in range(len(pt))]
                    mats.append(tuple(rows))
                return fq_oracle.MatrixRep(q, rep.dims, tuple(mats))

            results = {decompose(backend, permuted(q)) for q in (2, 3, 5)}
            assert results == {cls}


def test_partitions_against_brute_force():
    for n in range(9):
        for max_parts in range(n + 2):
            brute = sorted((c[::-1] for k in range(max_parts + 1)
                            for c in combinations_with_replacement(range(1, n + 1), k)
                            if sum(c) == n), reverse=True)
            got = quiver.partitions(n, max_parts)
            assert got == brute
            assert len(set(got)) == len(got)
            assert all(sum(p) == n and len(p) <= max_parts
                       and list(p) == sorted(p, reverse=True) for p in got)
    assert quiver.partitions(0, 3) == [()]


def test_gamma_additivity(a2):
    c1 = parse_class(a2, "[S1+P12]")
    c2 = parse_class(a2, "[S2]")
    union = make_class(a2, list(c1) + list(c2))
    assert quiver.summand_count(union) == \
        quiver.summand_count(c1) + quiver.summand_count(c2)


def test_class_parsing_round_trip(a2, loop, p1b):
    for backend, text in ((a2, "[S1+S1+P12]"), (loop, "[J1+J2]"),
                          (a2, "[0]"), (p1b, "[T(x,2)+T(y,1)]")):
        cls = parse_class(backend, text)
        assert parse_class(backend, class_name(backend, cls)) == cls


def test_backend_json_round_trip(a2, tmp_path):
    data = a2.to_json()
    again = quiver.backend_from_json(data)
    assert again == a2
    p = tmp_path / "b.json"
    p.write_text(json.dumps(data))
    loaded, _ = quiver.load_backend(str(p))
    assert loaded == a2


def test_backend_validation_errors():
    with pytest.raises(ValueError):
        Backend("bad", quiver.KIND_DYNKIN, ("1", "2"),
                (Arrow("a", 0, 0),))  # loop in type A
    with pytest.raises(ValueError):
        Backend("bad", quiver.KIND_LOOP, ("1", "2"), (Arrow("a", 0, 0),))
    with pytest.raises(ValueError):
        Backend("bad", quiver.KIND_DYNKIN, ("1", "2", "3"),
                (Arrow("a", 0, 1),))  # disconnected path
    with pytest.raises(ValueError):
        quiver.load_backend("nonexistent-backend")


def test_positive_roots_needs_dynkin(loop):
    with pytest.raises(CapabilityError):
        positive_roots(loop, (2,))


def test_realize_p1_is_capability_error(p1b):
    with pytest.raises(CapabilityError):
        realize(p1b, ("t", "x", 1), 2)


def test_canonical_order_is_total(a3):
    roots = positive_roots(a3, (3, 3, 3))
    keys = [quiver.label_key(a3, r) for r in roots]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)


def test_interval_order_is_total_dim_then_dim_vector(a3):
    a5 = quiver.backend_from_json({
        "name": "a5", "kind": "dynkin-quiver",
        "vertices": ["1", "2", "3", "4", "5"],
        "arrows": [{"id": "a", "src": "1", "tgt": "2"},
                   {"id": "b", "src": "3", "tgt": "2"},
                   {"id": "c", "src": "3", "tgt": "4"},
                   {"id": "d", "src": "5", "tgt": "4"}]})
    for b in (a3, a5):
        intervals = [("i", a, c) for a in range(b.n_vertices)
                     for c in range(a, b.n_vertices)]
        random.Random(0).shuffle(intervals)
        by_key = sorted(intervals, key=lambda l: quiver.label_key(b, l))
        by_dims = sorted(intervals, key=lambda l: (
            quiver.label_total_dim(b, l), quiver.label_dim(b, l), l))
        assert by_key == by_dims
