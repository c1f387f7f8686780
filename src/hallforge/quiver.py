"""Backends, indecomposable labels and isomorphism classes.

A backend is one of:
  * a type-A Dynkin quiver with an arbitrary orientation,
  * the one-loop quiver restricted to nilpotent representations,
  * the P^1 torsion-sheaf category.

Every backend is handled combinatorially: no module of the library
builds a matrix.  The matrix models over F_q (canonical realizations,
Hom dimensions, Krull-Schmidt decomposition) belong to the tests' F_q
oracle, `tests/fq_oracle.py`.

Isomorphism classes are multisets of indecomposable labels in Krull-Schmidt
normal form.  Labels are plain tuples so they hash and sort cheaply:

  ("i", a, b)      interval module over vertices a..b (0-based, a <= b)
  ("j", d)         nilpotent Jordan block of size d >= 1
  ("t", x, d)      torsion sheaf of degree d supported at the point named x
  ("o", n)         line bundle of degree n (sets/comultiplication only)
"""

import json
from functools import cached_property, lru_cache
from operator import attrgetter, sub
from pathlib import Path

from .errors import BackendMismatchError, CapabilityError, ResourceLimitError
from .gf import field  # noqa: F401  perfbench/test_perfbench.py pins quiver.field

KIND_DYNKIN = "dynkin-quiver"
KIND_LOOP = "loop-nilpotent"
KIND_P1 = "p1-torsion"


class ReadOnly:
    """Read-only value class: `__init__` sets each `__slots__` field once, with
    object.__setattr__; it compares, hashes and prints as its fields, within
    its type.  A slot named with a leading underscore is not a field."""
    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = tuple(f for f in cls.__slots__ if not f.startswith("_"))
        cls._key = attrgetter(*cls._fields)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key(self) == other._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is read-only")

    __delattr__ = __setattr__

    def __repr__(self):
        fields = (f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({', '.join(fields)})"


class Bounds(ReadOnly):
    """Resource limits (configuration, not constants): max_dim bounds the
    target of every constant and Hall polynomial, max_q the field size of
    the tests' F_q oracle (no Hall polynomial samples one)."""
    __slots__ = ("max_dim", "max_q")

    def __init__(self, max_dim=6, max_q=13):
        object.__setattr__(self, "max_dim", max_dim)
        object.__setattr__(self, "max_q", max_q)

    def check_dim(self, n):
        """Raise ResourceLimitError when a target of total dimension n
        exceeds max_dim."""
        if n > self.max_dim:
            raise ResourceLimitError(
                f"target dimension {n} exceeds bound {self.max_dim}",
                limit=self.max_dim, requested=n)


DEFAULT_BOUNDS = Bounds()


class Arrow(ReadOnly):
    __slots__ = ("id", "src", "tgt")

    def __init__(self, id, src, tgt):
        object.__setattr__(self, "id", id)
        object.__setattr__(self, "src", src)
        object.__setattr__(self, "tgt", tgt)


class Backend(ReadOnly):
    __slots__ = ("name", "kind", "vertices", "arrows", "__dict__")  # __dict__: label_table

    def __init__(self, name, kind, vertices, arrows):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "arrows", arrows)
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("duplicate vertex names")
        if len({a.id for a in self.arrows}) != len(self.arrows):
            raise ValueError("duplicate arrow ids")
        if self.kind == KIND_LOOP:
            if len(self.vertices) != 1 or len(self.arrows) != 1:
                raise ValueError("loop-nilpotent backend needs one vertex and one loop")
            if self.arrows[0].src != 0 or self.arrows[0].tgt != 0:
                raise ValueError("loop arrow must start and end at the vertex")
        elif self.kind == KIND_DYNKIN:
            _check_type_a(self.vertices, self.arrows)
        elif self.kind == KIND_P1:
            if self.vertices or self.arrows:
                raise ValueError("p1-torsion backend has no quiver data")
        else:
            raise ValueError(f"unknown backend kind {self.kind!r}")

    @property
    def n_vertices(self):
        return len(self.vertices)

    @cached_property
    def label_table(self):
        """This backend's `LabelTable`; not a field, so == and hash ignore it."""
        return LabelTable(self)

    def to_json(self):
        return {
            "name": self.name,
            "kind": self.kind,
            "vertices": list(self.vertices),
            "arrows": [{"id": a.id, "src": self.vertices[a.src],
                        "tgt": self.vertices[a.tgt]} for a in self.arrows],
        }


def _check_type_a(vertices, arrows):
    n = len(vertices)
    if n == 0:
        raise ValueError("empty quiver")
    edges = set()
    for a in arrows:
        if a.src == a.tgt:
            raise ValueError("type A quiver has no loops")
        e = (min(a.src, a.tgt), max(a.src, a.tgt))
        if e in edges:
            raise ValueError("type A quiver has no multiple edges")
        edges.add(e)
    if len(arrows) != n - 1:
        raise ValueError("type A underlying graph must be a path")
    if sorted(edges) != [(i, i + 1) for i in range(n - 1)]:
        raise ValueError("vertices must be listed along the A_n path")


def backend_from_json(data, *, source="<backend>"):
    """The `Backend` of a JSON definition: a string name, a kind, a list of
    vertex names and a list of arrow objects; anything else, and every
    refusal of `check_name` and `Backend`, is a ValueError naming `source`."""
    try:
        name, kind, vnames, arrs = (data[k] for k in ("name", "kind", "vertices", "arrows"))
        if not isinstance(name, str):
            raise TypeError(f"name {name!r} is not a string")
        if not isinstance(vnames, list) or not all(isinstance(v, str) for v in vnames):
            raise TypeError(f"vertices {vnames!r} are not a list of names")
        if not isinstance(arrs, list) or not all(isinstance(a, dict) for a in arrs):
            raise TypeError(f"arrows {arrs!r} are not a list of arrow objects")
        idx = {check_name("vertex", v): i for i, v in enumerate(vnames)}
        arrows = tuple(Arrow(a["id"], idx[a["src"]], idx[a["tgt"]]) for a in arrs)
        return Backend(name, kind, tuple(vnames), arrows)  # TypeError: an unhashable id
    except (KeyError, TypeError) as e:
        raise ValueError(f"{source}: malformed backend definition ({e})") from e
    except ValueError as e:
        raise ValueError(f"{source}: {e}") from e


def check_name(what, name):
    """`name` if a vertex, point or family name (`what`) prints and parses
    unambiguously in labels, classes, operands and cache keys, else a
    ValueError naming it."""
    reserved = {"vertex": "+-|[]", "point": ",+|()[]{}\\",  # separators in names
                "family": "[]"}[what]  # an operand in brackets is a class
    if not name or name != name.strip() or any(c in reserved for c in name):
        raise ValueError(f"{what} name {name!r} is empty, padded or has one of {reserved}")
    return name


def _builtin(name):
    try:
        text = (Path(__file__).with_name("data") / f"{name}.json").read_text()
    except FileNotFoundError:
        return None
    return json.loads(text)


def load_backend(path_or_name):
    """Load a backend JSON file; bare builtin names (a2, a3, loop, p1) work too.

    Returns (backend, raw_json) so callers can read extension sections
    (e.g. p1 family declarations).
    """
    p = Path(path_or_name)
    if p.suffix == ".json" or p.exists():
        try:
            data = json.loads(p.read_text())
        except OSError as e:
            raise ValueError(f"{path_or_name}: {e.strerror}") from e
        except json.JSONDecodeError as e:
            raise ValueError(f"{path_or_name}:{e.lineno}:{e.colno}: {e.msg}") from e
        return backend_from_json(data, source=str(path_or_name)), data
    data = _builtin(path_or_name)
    if data is None:
        raise ValueError(f"no such backend file or builtin: {path_or_name}")
    return backend_from_json(data, source=path_or_name), data


def builtin_backend(name):
    return load_backend(name)[0]


# ---------------------------------------------------------------------------
# labels and classes

class LabelTable(dict):
    """label -> (label_key, dimension vector), each entry made on its first
    lookup; also the vertex-name index `parse_label` reads.  Every class,
    sort key, dimension and name reads the table, so it alone decides
    which labels its backend has: a miss on any other label raises
    BackendMismatchError."""

    def __init__(self, backend):
        super().__init__()
        # not the backend itself, which holds the table
        self.kind, self.name = backend.kind, backend.name
        self.n_vertices = backend.n_vertices
        self.vertex_index = {v: i for i, v in enumerate(backend.vertices)}

    def __missing__(self, label):
        k = label[0]
        if self.kind == KIND_DYNKIN and k == "i" \
                and 0 <= label[1] <= label[2] < self.n_vertices:
            dim = tuple(int(label[1] <= v <= label[2])
                        for v in range(self.n_vertices))
        elif self.kind == KIND_LOOP and k == "j" and label[1] >= 1:
            dim = (label[1],)
        elif self.kind == KIND_P1 and (
                k == "o" or (k == "t" and label[1] and label[2] >= 1)):
            dim = (int(k == "o"), label[-1])      # (rank, degree)
        else:
            raise BackendMismatchError(
                f"label {label!r} does not belong to backend {self.name!r}")
        # line bundles first, then by total dimension and dimension vector
        self[label] = entry = ((0 if k == "o" else sum(dim), dim, label), dim)
        return entry


def label_dim(backend, label):
    """Dimension vector of an indecomposable label (K'-class)."""
    return backend.label_table[label][1]


def label_total_dim(backend, label):
    if label[0] == "o":
        raise CapabilityError("line bundles have no total dimension: counts "
                              "and constants take torsion classes only")
    return backend.label_table[label][0][0]


def label_key(backend, label):
    """Canonical total order: (total dim, dim vector, the label itself);
    line bundles come first."""
    return backend.label_table[label][0]


def make_class(backend, labels):
    """Krull-Schmidt normal form: canonically sorted multiset of labels.
    Table entries start with the key, which ends with the label: they sort
    as the keys do."""
    return tuple(sorted(labels, key=backend.label_table.__getitem__))


ZERO_CLASS = ()


def summand_count(cls):
    """Number of indecomposable direct summands, with multiplicity."""
    return len(cls)


def class_dim(backend, cls):
    if not cls:
        if backend.kind == KIND_P1:
            return (0, 0)
        return (0,) * max(backend.n_vertices, 1)
    return tuple(map(sum, zip(*(backend.label_table[l][1] for l in cls))))


def class_total_dim(backend, cls):
    return sum(label_total_dim(backend, l) for l in cls)


def dim_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


# naming ---------------------------------------------------------------------

def label_name(backend, label):
    backend.label_table[label]  # refuses a label the backend lacks
    k = label[0]
    if k == "i":
        _, a, b = label
        va, vb = backend.vertices[a], backend.vertices[b]
        if a == b:
            return f"S{va}"
        if all(len(v) == 1 for v in backend.vertices):
            return f"P{va}{vb}"
        return f"P{va}-{vb}"
    if k == "j":
        return f"J{label[1]}"
    if k == "t":
        return f"T({label[1]},{label[2]})"
    return f"O({label[1]})"


def parse_label(backend, text):
    t = text.strip()
    if backend.kind == KIND_LOOP:
        if t.startswith("J"):
            t = t[1:]
        if not t.isdigit() or int(t) < 1:
            raise ValueError(f"bad loop label {text!r}")
        return ("j", int(t))
    if backend.kind == KIND_P1:
        try:
            if t.startswith("T(") and t.endswith(")"):
                point, _, deg = t[2:-1].rpartition(",")
                if int(deg) >= 1:
                    return ("t", check_name("point", point.strip()), int(deg))
            elif t.startswith("O(") and t.endswith(")"):
                return ("o", int(t[2:-1]))
        except ValueError as e:  # a degree that is not an integer, or a bad point name
            raise ValueError(f"bad p1 label {text!r}: {e}") from None
        raise ValueError(f"bad p1 label {text!r}")
    vidx = backend.label_table.vertex_index
    if t.startswith("S") and t[1:] in vidx:
        i = vidx[t[1:]]
        return ("i", i, i)
    if t.startswith("P"):
        body = t[1:]
        if "-" in body:
            va, vb = body.split("-", 1)
        elif len(body) == 2:
            va, vb = body[0], body[1]
        else:
            raise ValueError(f"bad interval label {text!r}")
        if va in vidx and vb in vidx:
            a, b = vidx[va], vidx[vb]
            if a > b:
                a, b = b, a
            return ("i", a, b)
    raise ValueError(f"unknown label {text!r} for backend {backend.name}")


def class_name(backend, cls):
    if not cls:
        return "[0]"
    return "[" + "+".join(label_name(backend, l) for l in cls) + "]"


def parse_class(backend, text):
    t = text.strip()
    if not (t.startswith("[") and t.endswith("]")):
        raise ValueError(f"iso class must be bracketed: {text!r}")
    body = t[1:-1].strip()
    if body in ("", "0"):
        return ZERO_CLASS
    return make_class(backend, [parse_label(backend, tok) for tok in body.split("+")])


# ---------------------------------------------------------------------------
# indecomposable enumeration

def positive_roots(backend, dim_bound):
    """All indecomposable labels with dim vector <= dim_bound, canonically
    ordered.  Type-A quivers only: these are the interval modules."""
    if backend.kind != KIND_DYNKIN:
        raise CapabilityError(f"positive_roots needs a Dynkin backend, got {backend.kind}")
    n = backend.n_vertices
    if len(dim_bound) != n:
        raise ValueError("dimension bound has wrong length")
    return [r for r in reversed(_intervals(n)[0]) if min(dim_bound[r[1]:r[2] + 1]) >= 1]


@lru_cache(maxsize=None)
def _intervals(n):
    """The interval labels of A_n in descending `label_key` order (longest,
    then leftmost, first), and their ranks in it."""
    roots = [("i", a, a + k) for k in range(n - 1, -1, -1) for a in range(n - k)]
    return roots, {r: i for i, r in enumerate(roots)}


def indec_labels(backend, total_bound):
    """Indecomposables with total dimension <= total_bound (CLI listing)."""
    if backend.kind == KIND_DYNKIN:
        return [r for r in positive_roots(backend, (total_bound,) * backend.n_vertices)
                if label_total_dim(backend, r) <= total_bound]
    if backend.kind == KIND_LOOP:
        return [("j", d) for d in range(1, total_bound + 1)]
    raise CapabilityError("p1-torsion indecomposables form families; list them "
                          "from the backend file's family declarations")


def classes_with_dim(backend, dimvec, max_summands, memo=None):
    """Iso classes with the given dimension vector and at most max_summands
    indecomposable summands, in ascending lexicographic order of their
    multiplicity vectors over `positive_roots` (on the loop, in `partitions`
    order).  On type A: by smallest summand r, in descending `label_key`
    order, then by the rest, a class of dimvec - r with summands >= r, so
    one of a prefix of the list of dimvec - r.  `memo` maps a dimension
    vector to (b, its classes with at most b summands), b capped at its
    total: a larger budget rebuilds an entry, a smaller one filters it."""
    if backend.kind not in (KIND_DYNKIN, KIND_LOOP):
        raise CapabilityError("class enumeration by dimension is not defined for p1")
    b, out = _listed(backend, {} if memo is None else memo, tuple(dimvec), max_summands)
    return out if b <= max_summands else tuple(c for c in out if len(c) <= max_summands)


def _listed(backend, memo, dims, budget):
    """The memo entry of dims, built or rebuilt for at least `budget`."""
    if not any(dims):
        return 0, ((),)
    budget = min(budget, sum(dims))
    hit = memo.get(dims)
    if hit is None or hit[0] < budget:
        classes = (_type_a_classes(backend, memo, dims, budget) if backend.kind == KIND_DYNKIN
                   else tuple(make_class(backend, [("j", p) for p in part])
                              for part in partitions(dims[0], budget)))
        hit = memo[dims] = (budget, classes)
    return hit


def _type_a_classes(backend, memo, dims, budget):
    """The type-A classes of nonzero dims with at most `budget` summands."""
    roots, rank = _intervals(len(dims))
    # the fewest intervals that finish dims: its rises, which dims - r
    # loses at r's start and gains past its end unless dims falls there
    p = (0,) + dims + (0,)
    rises = sum(map(max, dims, p)) - sum(dims) + dims[-1]
    out = []
    for k, r in enumerate(roots):
        if rises - (p[r[1] + 1] > p[r[1]]) + (p[r[2] + 2] >= p[r[2] + 1]) >= budget:
            continue
        rest = tuple(map(sub, dims, backend.label_table[r][1]))
        if -1 in rest:
            continue
        for c in _listed(backend, memo, rest, budget - 1)[1]:
            if c and rank[c[0]] > k:
                break
            if len(c) < budget:
                out.append((r,) + c)
    return tuple(out)


def partitions(n, max_parts):
    """The partitions of n into at most max_parts parts, each a tuple with
    its parts in descending order, in descending lexicographic order;
    partitions(0, k) == [()]."""
    def rec(remaining, largest, budget):
        if remaining == 0:
            yield ()
        elif budget > 0:
            for p in range(min(remaining, largest), 0, -1):
                for rest in rec(remaining - p, p, budget - 1):
                    yield (p,) + rest
    return list(rec(n, n, max_parts))
