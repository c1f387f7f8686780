"""The convolution algebra of constructible functions.

A constructible set is a disjoint union of strata in Krull-Schmidt form;
a stratum is a formal direct sum of pairwise-disjoint indecomposable
families with positive multiplicities.

An element is a zero-free map from keys to exact values, and the map
is canonical, so equality is dict equality on every backend.  A value is
an int until a division or a `Fraction` operand brings in a `Fraction`
(products of int maps stay int: their constants are Euler
characteristics); the two print, hash and compare alike.  On the quiver
backends a key is an isomorphism class: there every constructible
function is finitely supported on classes.  On p1 a key is an atom
stratum, because point families range over cofinite sets no class map
can list.

Every operation takes one path: refine the operands' keys to a common
basis (`_common_atoms`), run the loop over keys, and canonicalize the
result (`_minimize_points`).  On classes both ends are the identity.  On
p1 refinement puts atoms of every degree over one point set, so any two
atom bases are equal or disjoint and `HallEngine.product` can multiply
two atom strata base by base; `_minimize_points` then keeps, degree by
degree, only the points the function singles out: it keys the fibres of
a point by each key's other families and merged multiplicity, and builds
strata only for a point that goes.  Output derives the stratified form
(terms grouped by summand count and coefficient, strata in
`_stratum_key` order) with `_canonical`.
"""

import json
from fractions import Fraction
from itertools import product as iproduct

from . import quiver
from .errors import BackendMismatchError, CapabilityError, InternalInvariantError
from .p1sets import P1Set


class IndecFamily(quiver.ReadOnly):
    """A constructible family of indecomposables.

    kind "labels": an explicit finite set of labels (quiver backends, and
    line bundles on P^1).  kind "points": the degree-d torsion sheaves
    over a finite or cofinite base of points (a P1Set).
    """
    __slots__ = ("kind", "labels", "degree", "base")

    def __init__(self, kind, labels=(), degree=0, base=None):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "base", base)

    def __hash__(self):  # by hand, not the base's attrgetter: hashed per stratum lookup
        return hash((self.kind, self.labels, self.degree, self.base))

    @staticmethod
    def of_labels(backend, labels):
        labels = tuple(sorted(set(labels), key=lambda l: quiver.label_key(backend, l)))
        if not labels:
            raise ValueError("empty family")
        return IndecFamily("labels", labels=labels)

    @staticmethod
    def of_points(degree, base):
        if base.is_empty:
            raise ValueError("empty family")
        return IndecFamily("points", degree=degree, base=base)

    def descriptor(self, backend):
        if self.kind == "labels":
            return (0, tuple(quiver.label_key(backend, l) for l in self.labels))
        return (1, self.degree, self.base.descriptor())

    def contains_label(self, label):
        if self.kind == "labels":
            return label in self.labels
        return label[0] == "t" and label[2] == self.degree \
            and self.base.contains(label[1])

    def is_disjoint(self, other):
        if self.kind != other.kind:
            # torsion point families never meet line-bundle label sets;
            # torsion labels sit in point families
            if self.kind == "labels":
                return all(not other.contains_label(l) for l in self.labels)
            return all(not self.contains_label(l) for l in other.labels)
        if self.kind == "labels":
            return not set(self.labels) & set(other.labels)
        if self.degree != other.degree:
            return True
        return self.base.is_disjoint(other.base)


def stratum_gamma(stratum):
    return sum(m for _, m in stratum)


def make_stratum(backend, parts):
    parts = [(f, m) for f, m in parts if m]
    for i, (f, _) in enumerate(parts):
        for g, _ in parts[i + 1:]:
            if f != g and not f.is_disjoint(g):
                raise ValueError("stratum families must be pairwise disjoint")
    merged = {}
    for f, m in parts:
        merged[f] = merged.get(f, 0) + m
    return tuple(sorted(merged.items(), key=lambda fm: fm[0].descriptor(backend)))


class ConstructibleSet(quiver.ReadOnly):
    """Finite disjoint union of Krull-Schmidt strata."""
    __slots__ = ("strata",)

    def __init__(self, strata):
        object.__setattr__(self, "strata", strata)

    def summand_count(self):
        return max((stratum_gamma(s) for s in self.strata), default=0)

    def contains(self, cls):
        return any(_stratum_contains(s, cls) for s in self.strata)

    def members(self, backend):
        for s in self.strata:
            yield from _stratum_members(backend, s)


def _stratum_contains(stratum, cls):
    counts = [0] * len(stratum)
    for label in cls:
        for i, (f, _) in enumerate(stratum):
            if f.contains_label(label):
                counts[i] += 1
                break
        else:
            return False
    return all(c == m for c, (_, m) in zip(counts, stratum))


def _stratum_members(backend, stratum):
    choices = []
    for f, m in stratum:
        if f.kind == "points":
            if f.base.cofinite:
                raise CapabilityError("cannot enumerate a cofinite family")
            labels = [("t", x, f.degree) for x in sorted(f.base.points)]
        else:
            labels = f.labels
        choices.append([[l for l, k in zip(labels, split) for _ in range(k)]
                        for split in _compositions(m, len(labels))])
    for combo in iproduct(*choices):
        yield quiver.make_class(backend, [l for part in combo for l in part])


def singleton_set(backend, cls):
    """The constructible set {[cls]}, whose one stratum is `class_stratum`."""
    return ConstructibleSet((class_stratum(backend, cls),))


def class_stratum(backend, cls):
    """The Krull-Schmidt stratum of one class, its labels checked by
    `quiver.make_class`.  Strata serve sets, output (`key_stratum`) and
    p1, not the quiver operands: there `class_char` builds the one-key
    class map {[x]: 1}."""
    counts = {}
    for l in quiver.make_class(backend, cls):
        counts[l] = counts.get(l, 0) + 1
    parts = []
    for l, m in counts.items():
        if l[0] == "t":
            fam = IndecFamily.of_points(l[2], P1Set.finite([l[1]]))
        else:
            fam = IndecFamily.of_labels(backend, [l])
        parts.append((fam, m))
    return make_stratum(backend, parts)


# ---------------------------------------------------------------------------
# normalization: overlapping families are refined to disjoint atoms and
# multiplicities distributed, so distinct strata denote disjoint sets.

def refine_families(backend, families):
    """Disjoint atoms generating the boolean algebra of the given families,
    as a map family -> list of its atoms.  Elements use it on p1 only;
    `normalize` uses it on every backend.

    Label families atomize to singletons: canonical and always available
    for finite sets.  Point families of every degree refine over one
    point set S, every point any of them mentions: a family's atoms are
    the singletons {x}, x in S, that it contains, and the core P^1 \\ S
    when it is cofinite.  One S for all degrees makes any two atom bases
    equal or disjoint, whatever their degrees, which is what lets
    `p1._stratum_product` multiply base by base."""
    mentioned = sorted({x for f in families if f.kind == "points"
                        for x in f.base.points})
    core = P1Set.cofinite_of(mentioned)
    atom_of = {}
    for f in families:
        if f.kind == "labels":
            atom_of[f] = [IndecFamily.of_labels(backend, [l]) for l in f.labels]
            continue
        atom_of[f] = [IndecFamily.of_points(f.degree, P1Set.finite([x]))
                      for x in mentioned if f.base.contains(x)]
        if f.base.cofinite:
            atom_of[f].append(IndecFamily.of_points(f.degree, core))
    return atom_of


def _distribute(backend, stratum, atom_of):
    """Expand one stratum over the atom refinement: n copies of a family
    split multinomially over its atoms.  Yields atom strata.  Elements use
    it on p1 only; see `refine_families`."""
    per_part = []
    for f, m in stratum:
        atoms = atom_of[f]
        per_part.append([[(a, k) for a, k in zip(atoms, split) if k]
                         for split in _compositions(m, len(atoms))])
    for combo in iproduct(*per_part):
        yield make_stratum(backend, [p for opt in combo for p in opt])


def _compositions(n, k):
    if k == 0:
        if n == 0:
            yield ()
        return
    if k == 1:
        yield (n,)
        return
    for first in range(n + 1):
        for rest in _compositions(n - first, k - 1):
            yield (first,) + rest


def normalize(backend, strata):
    """Canonical stratified Krull-Schmidt form of a union of strata.  On
    p1 the strata are atom strata, refined by `refine_families` and then
    stripped of the points the set does not single out
    (`_minimize_points`), so equal sets give equal strata."""
    strata = [s if isinstance(s, tuple) else tuple(s) for s in strata]
    fams = [f for s in strata for f, _ in s]
    atom_of = refine_families(backend, fams)
    out = set()
    for s in strata:
        for a in _distribute(backend, s, atom_of):
            out.add(a)
    out = _minimize_points(backend, dict.fromkeys(out, 1))
    return ConstructibleSet(tuple(sorted(out, key=lambda s: _stratum_key(backend, s))))


def _stratum_key(backend, stratum):
    return (stratum_gamma(stratum), tuple(
        (f.descriptor(backend), m) for f, m in stratum))


# ---------------------------------------------------------------------------
# elements

class CFElement(quiver.ReadOnly):
    """Exact combination of characteristic functions: a zero-free map
    from keys to values (see the module docstring), read-only."""
    __slots__ = ("backend", "values")  # values: quiver class or p1 atom stratum -> int or Fraction
    __hash__ = None  # values is a dict

    def __init__(self, backend, values):
        object.__setattr__(self, "backend", backend)
        object.__setattr__(self, "values", values)

    def is_zero(self):
        return not self.values

    def summand_count(self):
        return max((_key_gamma(self.backend, k) for k in self.values), default=0)

    @property
    def terms(self):
        """The stratified form ((ConstructibleSet, value), ...)."""
        return _canonical(self.backend, self.values)


def key_stratum(backend, key):
    """The stratum an element key stands for: the key itself on p1, the
    class's one-member stratum on the quiver backends."""
    return key if backend.kind == quiver.KIND_P1 else class_stratum(backend, key)


def key_order(backend, key):
    """Sort key of an element key: the `_stratum_key` of its stratum."""
    return _stratum_key(backend, key_stratum(backend, key))


def _key_gamma(backend, key):
    return stratum_gamma(key) if backend.kind == quiver.KIND_P1 else len(key)


def from_values(backend, values):
    """The element with the given values: a class -> value map on the
    quiver backends (classes as `quiver.make_class` builds them), an atom
    stratum -> value map on p1.  Zeros are dropped; on p1, points the
    function does not single out merge into the cofinite cores."""
    return CFElement(backend, _minimize_points(
        backend, {k: v for k, v in values.items() if v}))


def _strata_of(cset):
    return tuple(cset.strata if isinstance(cset, ConstructibleSet) else cset)


def char_fn(backend, cset):
    """1_O for a constructible set O, or for a list of its strata: sets and
    p1 elements, not the quiver operands 1_[x] (see `class_char`)."""
    strata = _strata_of(cset)
    if backend.kind == quiver.KIND_P1:
        keys = normalize(backend, strata).strata
    else:
        keys = ConstructibleSet(strata).members(backend)
    return CFElement(backend, dict.fromkeys(keys, 1))


def unit_element(backend):
    return char_fn(backend, [()])


def class_char(backend, cls):
    """1_[cls]; on the quiver backends the one-key class map {cls: 1}."""
    if backend.kind == quiver.KIND_P1:
        return char_fn(backend, [class_stratum(backend, cls)])
    return CFElement(backend, {quiver.make_class(backend, cls): 1})


def _common_atoms(backend, maps, pairs=False):
    """Re-express several value maps over one common refinement: element
    maps, or with `pairs` tensor maps keyed by (left, right) key pairs.
    On p1 every key's strata are refined to atoms over one point set; a
    key whose families are all atoms of that refinement already is one,
    and passes through as it is.  On the quiver backends classes are
    already atoms and the maps come back as they are."""
    if backend.kind != quiver.KIND_P1:
        return maps
    legs = (lambda k: k) if pairs else (lambda k: (k,))
    atom_of = refine_families(
        backend, [f for m in maps for k in m for s in legs(k) for f, _ in s])
    outs = []
    for m in maps:
        acc = {}
        for k, v in m.items():
            if all(atom_of[f] == [f] for s in legs(k) for f, _ in s):
                acc[k] = acc.get(k, 0) + v
                continue
            for a in iproduct(*(_distribute(backend, s, atom_of) for s in legs(k))):
                a = a if pairs else a[0]
                acc[a] = acc.get(a, 0) + v
        outs.append({k: v for k, v in acc.items() if v})
    return outs


def _canonical(backend, values):
    """The stratified form of a zero-free value map: terms grouped by
    (stratum summand count, coefficient), strata in `_stratum_key` order."""
    groups = {}
    for k, v in values.items():
        s = key_stratum(backend, k)
        groups.setdefault((stratum_gamma(s), v), []).append(s)
    return tuple(
        (ConstructibleSet(tuple(sorted(strata, key=lambda s: _stratum_key(backend, s)))), v)
        for (_, v), strata in sorted(groups.items(), key=lambda kv: (
            kv[0][0], kv[0][1].numerator, kv[0][1].denominator)))


def _minimize_points(backend, values):
    """Drop the points a p1 function does not single out, degree by degree.

    The keys are atom strata over a point set S_d per degree d: each
    degree-d family is a singleton {x}, x in S_d, or the core P^1 \\ S_d.
    Dropping x from S_d maps a key to its image: the degree-d atom at x
    and the degree-d core become core' = P^1 \\ (S_d - {x}), their
    multiplicities added.  An image I with m_I copies of core' is the
    disjoint union of its m_I + 1 preimage strata, one for each split of
    those copies between x and the core, and none of them is empty.  So
    the function is constant on every I, and x can go, exactly when every
    image has m_I + 1 preimages that all carry one value (a missing
    preimage reads 0).  A fibre is keyed by (the key's other families,
    m_I), not by I: the other families are a subsequence of a canonical
    stratum and never hold core', so the pair and I determine each other,
    and `make_stratum` builds I, once per fibre, only when x goes.

    Whether x can go from S_d does not depend on which other points have
    gone, from degree d or any other: the fibre condition holds before a
    merge exactly when it holds after it.  So each degree has one least
    point set, and one pass over (d, x) reaches it.  Class keys have no
    points: off p1 the values come back as they are."""
    if backend.kind != quiver.KIND_P1:
        return values
    points = {}
    for s in values:
        for f, _ in s:
            if f.kind == "points":
                points.setdefault(f.degree, set()).update(f.base.points)
    for d in sorted(points):
        for x in sorted(points[d]):
            fibres = {}
            for s, v in values.items():
                parts, m = [], 0
                for f, k in s:
                    if f.kind == "points" and f.degree == d \
                            and (f.base.cofinite or x in f.base.points):
                        m += k
                    else:
                        parts.append((f, k))
                fibres.setdefault((tuple(parts), m), []).append(v)
            if all(len(vs) == m + 1 and len(set(vs)) == 1
                   for (_, m), vs in fibres.items()):
                points[d].discard(x)
                core = IndecFamily.of_points(d, P1Set.cofinite_of(points[d]))
                values = {make_stratum(backend, [*parts, (core, m)]): vs[0]
                          for (parts, m), vs in fibres.items()}
    return values


def add(backend, f, g, scale_g=1):
    _check_same(backend, f, g)
    mf, mg = _common_atoms(backend, [f.values, g.values])
    acc = dict(mf)
    for k, v in mg.items():
        acc[k] = acc.get(k, 0) + scale_g * v
    return from_values(backend, acc)


def scale(backend, f, c):
    c = c if isinstance(c, int) else Fraction(c)  # int values stay int
    return from_values(backend, {k: c * v for k, v in f.values.items()})


def subtract(backend, f, g):
    return add(backend, f, g, -1)


def equal(backend, f, g):
    _check_same(backend, f, g)
    return f.values == g.values


def evaluate(f, cls):
    """Value of the constructible function at an isomorphism class."""
    if f.backend.kind != quiver.KIND_P1:
        return f.values.get(quiver.make_class(f.backend, cls), 0)
    return sum(v for s, v in f.values.items() if _stratum_contains(s, cls))


def is_indec_supported(f):
    return all(_key_gamma(f.backend, k) == 1 for k in f.values)


def _check_same(backend, *elements):
    """Elements belong to a backend definition, not just to its name."""
    for e in elements:
        if e.backend is not backend and e.backend != backend:
            other = " (another definition)" if e.backend.name == backend.name else ""
            raise BackendMismatchError(
                f"element over {e.backend.name!r}{other} used with backend "
                f"{backend.name!r}")


# ---------------------------------------------------------------------------
# convolution

def convolve(engine, f, g):
    """Convolution product f * g, key pair by key pair through
    `engine.product` over the operands' common refinement."""
    backend = engine.backend
    _check_same(backend, f, g)
    mf, mg = _common_atoms(backend, [f.values, g.values])
    acc = {}
    for x, vx in mf.items():
        for z, vz in mg.items():
            w = vx * vz
            for y, c in engine.product(x, z):
                acc[y] = acc.get(y, 0) + w * c
    return from_values(backend, acc)


def convolution_power(engine, cset, k):
    """k-th convolution power of 1_O for a single indecomposable family O.
    Asserts the leading-term shape: k! on the k-fold sum of O, all other
    terms of strictly smaller summand count."""
    backend = engine.backend
    strata = _strata_of(cset)
    if len(strata) != 1 or len(strata[0]) != 1 or strata[0][0][1] != 1:
        raise ValueError("power needs a single indecomposable family")
    if k < 1:
        raise ValueError("power exponent must be >= 1")
    fam = strata[0][0][0]
    base = char_fn(backend, strata)
    result = base
    for _ in range(k - 1):
        result = convolve(engine, result, base)
    _assert_power_shape(engine, result, fam, k)
    return result


def _assert_power_shape(engine, result, fam, k):
    import math
    backend = engine.backend
    expected = char_fn(backend, [make_stratum(backend, [(fam, k)])])
    rest = subtract(backend, result, scale(backend, expected, math.factorial(k)))
    if rest.summand_count() >= k:
        raise InternalInvariantError(
            f"power of an indecomposable family is not {k}!·1_(k·O) + lower terms")


def lie_bracket(engine, f, g):
    backend = engine.backend
    return subtract(backend, convolve(engine, f, g), convolve(engine, g, f))


# ---------------------------------------------------------------------------
# serialization

def family_to_json(backend, fam):
    if fam.kind == "labels":
        return {"labels": [quiver.label_name(backend, l) for l in fam.labels]}
    return {"degree": fam.degree,
            "base": {"kind": "cofinite" if fam.base.cofinite else "finite",
                     "points": sorted(fam.base.points)}}


def set_to_json(backend, cset):
    return {"strata": [[[family_to_json(backend, f), m] for f, m in s]
                       for s in cset.strata]}


def element_to_json(backend, f):
    return {"backend": backend.name,
            "terms": [{"coeff": str(c), "set": set_to_json(backend, s)}
                      for s, c in f.terms]}


def element_to_text(backend, f):
    if f.is_zero():
        return "0"
    bits = []
    for cset, c in f.terms:
        strata_txt = " u ".join(_stratum_text(backend, s) for s in cset.strata)
        bits.append(f"({c})*1_{{{strata_txt}}}")
    return " + ".join(bits)


def _stratum_text(backend, s):
    if not s:
        return "[0]"
    parts = []
    for f, m in s:
        if f.kind == "labels":
            body = "{" + ",".join(quiver.label_name(backend, l)
                                  for l in f.labels) + "}"
        else:
            b = f.base
            body = (f"O{f.degree}" +
                    ("\\" + "{" + ",".join(sorted(b.points)) + "}"
                     if b.cofinite and b.points else
                     ("" if b.cofinite else "{" + ",".join(sorted(b.points)) + "}")))
        parts.append(body if m == 1 else f"{m}.{body}")
    return "+".join(parts)


def canonical_json(backend, f):
    return json.dumps(element_to_json(backend, f), sort_keys=True,
                      separators=(",", ":"))
