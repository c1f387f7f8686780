"""Element arithmetic on the quiver backends against pointwise dict
arithmetic on random zero-free class maps, the value types it keeps
(ints stay ints, nothing turns into a float), and the canonical form of
random p1 elements."""

from fractions import Fraction
from itertools import combinations_with_replacement, product

from hypothesis import given, settings, strategies as st

from hallforge import algebra as alg
from hallforge import coalgebra as co
from hallforge import quiver, verify
from hallforge.hall import HallEngine
from hallforge.quiver import Arrow, Backend
from hallforge.p1sets import P1Set

import oracles

BACKENDS = {name: quiver.builtin_backend(name) for name in ("a2", "a3", "loop")}
POOLS = {name: verify.classes_up_to(b, 3) for name, b in BACKENDS.items()}
ENGINES = {name: HallEngine(b) for name, b in BACKENDS.items()}
INTS = st.integers(-3, 3).filter(bool)
VALUES = st.builds(Fraction, INTS, st.integers(1, 3))
PROPS = settings(derandomize=True, max_examples=60, deadline=None)


@st.composite
def class_maps(draw, n=2, values=VALUES):
    """A backend name and n random zero-free class -> value maps on it."""
    name = draw(st.sampled_from(sorted(BACKENDS)))
    pool = st.sampled_from(POOLS[name])
    return name, [draw(st.dictionaries(pool, values, max_size=4)) for _ in range(n)]


def built_by_sums(backend, values, order):
    """The element sum v * 1_[c], added up one class at a time."""
    f = oracles.zero_element(backend)
    for cls in order:
        f = alg.add(backend, f, alg.scale(backend, alg.class_char(backend, cls),
                                          values[cls]))
    return f


def pointwise(d1, d2, c=Fraction(1)):
    out = {k: d1.get(k, 0) + c * d2.get(k, 0) for k in d1.keys() | d2.keys()}
    return {k: v for k, v in out.items() if v}


def operation_values(name, d1, d2, c):
    """Every value of convolve, add, subtract, scale by c, comultiply,
    tensor_convolve and both counit contractions on two class maps."""
    b, engine = BACKENDS[name], ENGINES[name]
    f, g = alg.from_values(b, d1), alg.from_values(b, d2)
    df, dg = co.comultiply(b, f), co.comultiply(b, g)
    results = [alg.convolve(engine, f, g), alg.add(b, f, g), alg.subtract(b, f, g),
               alg.scale(b, f, c), df, co.tensor_convolve(engine, df, dg),
               co.counit_contract(b, df, "left"), co.counit_contract(b, df, "right")]
    return [v for r in results for v in r.values.values()]


@PROPS
@given(class_maps(), VALUES)
def test_arithmetic_is_pointwise(maps, c):
    name, (d1, d2) = maps
    # Fraction maps: rationals throughout, never a float
    assert all(type(v) in (int, Fraction) for v in operation_values(name, d1, d2, c))
    b = BACKENDS[name]
    f, g = alg.from_values(b, d1), alg.from_values(b, d2)
    assert alg.add(b, f, g, c).values == pointwise(d1, d2, c)
    assert alg.subtract(b, f, g).values == pointwise(d1, d2, Fraction(-1))
    assert alg.scale(b, f, c).values == {k: c * v for k, v in d1.items()}
    assert alg.scale(b, f, 0).is_zero()
    assert alg.equal(b, f, g) == (d1 == d2)
    assert alg.equal(b, alg.add(b, f, g), alg.add(b, g, f))
    for cls in POOLS[name]:
        assert alg.evaluate(f, cls) == d1.get(cls, 0)
        # a class given in another label order reads the same value
        assert alg.evaluate(f, tuple(reversed(cls))) == d1.get(cls, 0)


@PROPS
@given(class_maps(values=INTS), INTS)
def test_int_maps_keep_int_values(maps, c):
    name, (d1, d2) = maps
    assert all(type(v) is int for v in operation_values(name, d1, d2, c))


@PROPS
@given(class_maps(n=1))
def test_counit_contracts_the_comultiplication(maps):
    name, (d,) = maps
    b = BACKENDS[name]
    f = alg.from_values(b, d)
    delta = co.comultiply(b, f)
    assert alg.equal(b, co.counit_contract(b, delta, "left"), f)
    assert alg.equal(b, co.counit_contract(b, delta, "right"), f)
    assert co.tensor_equal(b, delta, co.tensor_swap(b, delta))
    assert co.counit(f) == d.get(quiver.ZERO_CLASS, 0)


@PROPS
@given(st.sampled_from(sorted(BACKENDS)), st.data())
def test_family_char_fn_sums_its_members(name, data):
    # a stratum of one or two disjoint multi-label families, such as a3
    # 2.{S1,P12}, against the sum of its members' class characteristic
    # functions, members listed without the stratum code
    b = BACKENDS[name]
    labels = quiver.indec_labels(b, 2)
    chosen = data.draw(st.lists(st.sampled_from(labels), min_size=1,
                                max_size=4, unique=True))
    cut = data.draw(st.integers(1, len(chosen)))
    parts = [(fam, data.draw(st.integers(1, 2)))
             for fam in (chosen[:cut], chosen[cut:]) if fam]
    stratum = alg.make_stratum(b, [(alg.IndecFamily.of_labels(b, fam), m)
                                   for fam, m in parts])
    members = {quiver.make_class(b, [l for pick in picks for l in pick])
               for picks in product(*(combinations_with_replacement(fam, m)
                                      for fam, m in parts))}
    want = oracles.zero_element(b)
    for cls in members:
        want = alg.add(b, want, alg.class_char(b, cls))
    got = alg.char_fn(b, [stratum])
    assert got == want
    assert got.values == dict.fromkeys(members, Fraction(1))


@PROPS
@given(class_maps(n=1), st.randoms(use_true_random=False))
def test_canonical_json_does_not_depend_on_construction(maps, rng):
    name, (d,) = maps
    b = BACKENDS[name]
    order = sorted(d, key=lambda c: quiver.class_name(b, c))
    rng.shuffle(order)
    direct = alg.from_values(b, d)
    summed = built_by_sums(b, d, order)
    # through a detour that cancels: (f + 1_[0]) - 1_[0]
    unit = alg.unit_element(b)
    detour = alg.subtract(b, alg.add(b, summed, unit), unit)
    text = alg.canonical_json(b, direct)
    assert alg.canonical_json(b, summed) == text
    assert alg.canonical_json(b, detour) == text
    assert alg.element_to_text(b, summed) == alg.element_to_text(b, direct)


P1 = quiver.builtin_backend("p1")
P1_ENGINE = HallEngine(P1)
P1_PROPS = settings(derandomize=True, max_examples=50, deadline=None)


@st.composite
def p1_elements(draw, families=2, max_degree=2):
    """A sum of one or two multiples of 1_S, each S a stratum of one to
    `families` point families of degree 1 to `max_degree` over a subset of
    {x, y, z} or its complement (a family that meets an earlier one of its
    degree is left out)."""
    f = oracles.zero_element(P1)
    for _ in range(draw(st.integers(1, 2))):
        parts = []
        for _ in range(draw(st.integers(1, families))):
            pts = draw(st.frozensets(st.sampled_from("xyz")))
            base = P1Set(draw(st.booleans()) or not pts, pts)
            fam = alg.IndecFamily.of_points(draw(st.integers(1, max_degree)), base)
            if all(fam.is_disjoint(g) for g, _ in parts):
                parts.append((fam, 1))
        s = alg.char_fn(P1, [alg.make_stratum(P1, parts)])
        f = alg.add(P1, f, alg.scale(P1, s, draw(VALUES)))
    return f


@P1_PROPS
@given(p1_elements(), p1_elements(), st.sampled_from("xyzw"))
def test_p1_canonical_form(f, g, point):
    # keys re-refined over one more point come back to the same values
    extra = alg.make_stratum(P1, [(alg.IndecFamily.of_points(
        1, P1Set.finite([point])), 1)])
    refined, _ = alg._common_atoms(P1, [f.values, {extra: Fraction(1)}])
    assert alg.from_values(P1, refined).values == f.values
    assert alg.from_values(P1, f.values).values == f.values
    assert alg.convolve(P1_ENGINE, f, g) == alg.convolve(P1_ENGINE, g, f)
    # canonical values make equality dict equality: it agrees with a zero
    # difference, on the drawn pair and on f against a detour through g
    detour = alg.add(P1, alg.subtract(P1, f, g), g)
    for h in (g, detour):
        assert alg.equal(P1, f, h) == (f.values == h.values) \
            == alg.subtract(P1, f, h).is_zero()
    assert alg.equal(P1, f, detour)


@P1_PROPS
@given(p1_elements(max_degree=3), p1_elements(max_degree=3), st.sampled_from("xyzw"),
       VALUES, st.lists(st.tuples(st.integers(0, 63), INTS | st.just(None)),
                        max_size=3))
def test_p1_minimize_points_matches_the_image_keyed_oracle(f, g, point, c, bumps):
    # an atom value map: f, g and c * 1_{O1 over {u, v}} refined over one
    # more point, then a few atoms bumped by a value or removed (None), so
    # that the points they sit on stay while the others go.  Dropping u,
    # an atom O1{v} is an image of core multiplicity 0
    uv = alg.char_fn(P1, [alg.make_stratum(P1, [(alg.IndecFamily.of_points(
        1, P1Set.finite(["u", "v"])), 1)])])
    extra = alg.make_stratum(P1, [(alg.IndecFamily.of_points(
        3, P1Set.finite([point])), 1)])
    *maps, _ = alg._common_atoms(P1, [f.values, g.values,
                                      alg.scale(P1, uv, c).values, {extra: 1}])
    atoms = {}
    for m in maps:
        for k, v in m.items():
            atoms[k] = atoms.get(k, 0) + v
    keys = list(atoms)
    for i, v in bumps:
        k = keys[i % len(keys)]
        atoms[k] = 0 if v is None else atoms[k] + v
    atoms = {k: v for k, v in atoms.items() if v}
    assert list(alg._minimize_points(P1, atoms).items()) == \
        list(oracles.minimize_points_by_image(P1, atoms).items())


def test_p1_family_products_have_int_values():
    # O_d * O_e over the cofinite base and over {x, y}, d + e <= 4
    bases = (P1Set.cofinite_of([]), P1Set.finite(["x", "y"]))
    for d, e in ((1, 1), (1, 2), (2, 1), (2, 2), (1, 3), (3, 1)):
        for bd, be in product(bases, bases):
            fd, fe = (alg.char_fn(P1, [alg.make_stratum(
                P1, [(alg.IndecFamily.of_points(k, base), 1)])])
                for k, base in ((d, bd), (e, be)))
            prod = alg.convolve(P1_ENGINE, fd, fe)
            assert prod.values and all(type(v) is int for v in prod.values.values())


@settings(derandomize=True, max_examples=20, deadline=None)
@given(p1_elements(), p1_elements(), st.lists(p1_elements(families=1),
                                               min_size=3, max_size=3))
def test_p1_bialgebra_and_associativity(f, g, small):
    # the class-list suites refuse p1, so this is the check of its tensor
    # product; associativity takes one-family strata, whose triple
    # products stay within the dimension bound at every point
    assert co.bialgebra_check(P1_ENGINE, f, g)["equal"]
    a, b, c = small
    assert alg.convolve(P1_ENGINE, alg.convolve(P1_ENGINE, a, b), c) == \
        alg.convolve(P1_ENGINE, a, alg.convolve(P1_ENGINE, b, c))


ZIGZAG_A4 = Backend("a4-zigzag", quiver.KIND_DYNKIN, ("1", "2", "3", "4"),
                    (Arrow("a", 0, 1), Arrow("b", 2, 1), Arrow("c", 2, 3)))
LABEL_BACKENDS = {**BACKENDS, "a4-zigzag": ZIGZAG_A4}


def fresh_dim(backend, label):
    """A label's dimension vector, computed without the label table."""
    if label[0] == "j":
        return (label[1],)
    return tuple(int(label[1] <= v <= label[2]) for v in range(backend.n_vertices))


@PROPS
@given(st.sampled_from(sorted(LABEL_BACKENDS)), st.data())
def test_label_table_keeps_keys_dims_and_backend_identity(name, data):
    b = LABEL_BACKENDS[name]
    # a twin equal by value, whose table starts empty
    twin = Backend(b.name, b.kind, b.vertices, b.arrows)
    labels = data.draw(st.lists(st.sampled_from(quiver.indec_labels(b, 3)),
                                max_size=6))
    cls = quiver.make_class(twin, labels)
    assert cls == tuple(sorted(labels, key=lambda l: quiver.label_key(twin, l)))
    assert cls == tuple(sorted(labels, key=lambda l: (
        sum(fresh_dim(b, l)), fresh_dim(b, l), l)))
    want = tuple(map(sum, zip(*(fresh_dim(b, l) for l in labels)))) \
        if labels else (0,) * b.n_vertices
    assert quiver.class_dim(twin, cls) == want
    assert set(labels) <= twin.label_table.keys()
    assert twin == b and hash(twin) == hash(b)
    assert twin == Backend(b.name, b.kind, b.vertices, b.arrows)
