"""Backends, indecomposable labels, isomorphism classes and matrix models.

A backend is one of:
  * a type-A Dynkin quiver with an arbitrary orientation,
  * the one-loop quiver restricted to nilpotent representations,
  * the P^1 torsion-sheaf category (handled symbolically; no matrix model).

Isomorphism classes are multisets of indecomposable labels in Krull-Schmidt
normal form.  Labels are plain tuples so they hash and sort cheaply:

  ("i", a, b)      interval module over vertices a..b (0-based, a <= b)
  ("j", d)         nilpotent Jordan block of size d >= 1
  ("t", x, d)      torsion sheaf of degree d supported at the point named x
  ("o", n)         line bundle of degree n (sets/comultiplication only)
"""

import json
from functools import cached_property
from operator import attrgetter
from pathlib import Path

from . import linalg
from .errors import BackendMismatchError, CapabilityError, InternalInvariantError
from .gf import field

KIND_DYNKIN = "dynkin-quiver"
KIND_LOOP = "loop-nilpotent"
KIND_P1 = "p1-torsion"


class ReadOnly:
    """Read-only value class: `__init__` sets each `__slots__` field once, with
    object.__setattr__; it compares and hashes as its fields, within its type."""
    __slots__ = ()

    def __init_subclass__(cls):
        cls._key = attrgetter(*(f for f in cls.__slots__ if f != "__dict__"))

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
        fields = (f"{f}={getattr(self, f)!r}" for f in self.__slots__ if f != "__dict__")
        return f"{type(self).__name__}({', '.join(fields)})"


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
    deg = [0] * n
    edges = set()
    for a in arrows:
        if a.src == a.tgt:
            raise ValueError("type A quiver has no loops")
        e = (min(a.src, a.tgt), max(a.src, a.tgt))
        if e in edges:
            raise ValueError("type A quiver has no multiple edges")
        edges.add(e)
        deg[a.src] += 1
        deg[a.tgt] += 1
    if len(arrows) != n - 1:
        raise ValueError("type A underlying graph must be a path")
    # a path: connected with max degree 2; vertices must come in path order
    for i in range(n - 1):
        if (i, i + 1) not in edges:
            raise ValueError("vertices must be listed along the A_n path")
    if any(d > 2 for d in deg):
        raise ValueError("type A underlying graph must be a path")


def backend_from_json(data, *, source="<backend>"):
    try:
        name = data["name"]
        kind = data["kind"]
        vnames = tuple(data["vertices"])
        idx = {v: i for i, v in enumerate(vnames)}
        arrows = tuple(Arrow(a["id"], idx[a["src"]], idx[a["tgt"]])
                       for a in data["arrows"])
    except (KeyError, TypeError) as e:
        raise ValueError(f"{source}: malformed backend definition ({e})") from e
    return Backend(name, kind, vnames, arrows)


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
    lookup; also the vertex-name index `parse_label` reads and the Hom
    tables `decompose` solves with, keyed by (labels, q)."""

    def __init__(self, backend):
        super().__init__()
        self.n_vertices = backend.n_vertices
        self.vertex_index = {v: i for i, v in enumerate(backend.vertices)}
        self.homs = {}

    def __missing__(self, label):
        k = label[0]
        if k == "i":
            dim = tuple(int(label[1] <= v <= label[2])
                        for v in range(self.n_vertices))
        elif k == "j":
            dim = (label[1],)
        elif k in ("t", "o"):
            dim = (int(k == "o"), label[-1])      # (rank, degree)
        else:
            raise ValueError(f"bad label {label!r}")
        # line bundles first, then by total dimension and dimension vector
        self[label] = entry = ((0 if k == "o" else sum(dim), dim, label), dim)
        return entry


def label_dim(backend, label):
    """Dimension vector of an indecomposable label (K'-class)."""
    return backend.label_table[label][1]


def label_total_dim(backend, label):
    if label[0] == "o":
        raise CapabilityError("line bundles have no total dimension here")
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
    if k == "o":
        return f"O({label[1]})"
    raise ValueError(f"bad label {label!r}")


def parse_label(backend, text):
    t = text.strip()
    if backend.kind == KIND_LOOP:
        if t.startswith("J"):
            t = t[1:]
        if not t.isdigit() or int(t) < 1:
            raise ValueError(f"bad loop label {text!r}")
        return ("j", int(t))
    if backend.kind == KIND_P1:
        if t.startswith("T(") and t.endswith(")"):
            point, _, deg = t[2:-1].rpartition(",")
            if point.strip() and int(deg) >= 1:
                return ("t", point.strip(), int(deg))
        elif t.startswith("O(") and t.endswith(")"):
            return ("o", int(t[2:-1]))
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
    roots = [("i", a, b)
             for a in range(n) for b in range(a, n)
             if all(dim_bound[v] >= 1 for v in range(a, b + 1))]
    return sorted(roots, key=lambda l: label_key(backend, l))


def indec_labels(backend, total_bound):
    """Indecomposables with total dimension <= total_bound (CLI listing)."""
    if backend.kind == KIND_DYNKIN:
        return [r for r in positive_roots(backend, (total_bound,) * backend.n_vertices)
                if label_total_dim(backend, r) <= total_bound]
    if backend.kind == KIND_LOOP:
        return [("j", d) for d in range(1, total_bound + 1)]
    raise CapabilityError("p1-torsion indecomposables form families; list them "
                          "from the backend file's family declarations")


def classes_with_dim(backend, dimvec, max_summands):
    """Iso classes with the given dimension vector and at most max_summands
    indecomposable summands; `HallEngine.classes_with_dim` memoizes them."""
    dimvec = tuple(dimvec)
    if backend.kind == KIND_DYNKIN:
        roots = [(r, label_dim(backend, r))
                 for r in positive_roots(backend, dimvec)]
        out = []

        def rec(idx, remaining, budget, acc):
            if not any(remaining):
                out.append(tuple(acc))
                return
            if idx == len(roots) or budget == 0:
                return
            rec(idx + 1, remaining, budget, acc)
            r, d = roots[idx]
            if all(x >= y for x, y in zip(remaining, d)):
                acc.append(r)
                rec(idx, tuple(x - y for x, y in zip(remaining, d)), budget - 1, acc)
                acc.pop()

        rec(0, dimvec, max_summands, [])
        return tuple(make_class(backend, c) for c in out)
    if backend.kind == KIND_LOOP:
        (n,) = dimvec
        return tuple(make_class(backend, [("j", p) for p in part])
                     for part in partitions(n, max_summands))
    raise CapabilityError("class enumeration by dimension is not defined for p1")


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


# ---------------------------------------------------------------------------
# matrix models

class MatrixRep(ReadOnly):
    """A representation over F_q: per-vertex dimensions, per-arrow matrices.

    Matrices are tuples of row-bytes, shape (dim tgt) x (dim src), acting on
    coordinate columns: w_i = sum_j M[i][j] v_j.
    """
    __slots__ = ("q", "dims", "mats")

    def __init__(self, q, dims, mats):
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "mats", mats)


def _zero_matrix(rows, cols):
    return tuple(bytes(cols) for _ in range(rows))


def realize(backend, label, q):
    """Canonical matrix model of one indecomposable."""
    if q < 2:
        raise ValueError("q must be a prime power >= 2")
    field(q)
    if backend.kind == KIND_DYNKIN:
        _, a, b = label
        dims = tuple(1 if a <= v <= b else 0 for v in range(backend.n_vertices))
        mats = []
        for ar in backend.arrows:
            if a <= ar.src <= b and a <= ar.tgt <= b:
                mats.append((bytes([1]),))
            else:
                mats.append(_zero_matrix(dims[ar.tgt], dims[ar.src]))
        return MatrixRep(q, dims, tuple(mats))
    if backend.kind == KIND_LOOP:
        d = label[1]
        rows = []
        for i in range(d):
            r = bytearray(d)
            if i + 1 < d:
                r[i + 1] = 1
            rows.append(bytes(r))
        return MatrixRep(q, (d,), (tuple(rows),))
    raise CapabilityError("p1-torsion objects have no matrix model; use the "
                          "family calculus")


def realize_class(backend, cls, q):
    """Block-diagonal direct sum of the canonical models."""
    if backend.kind == KIND_P1:
        raise CapabilityError("p1-torsion objects have no matrix model")
    n = max(backend.n_vertices, 1)
    reps = [realize(backend, l, q) for l in cls]
    dims = tuple(sum(r.dims[v] for r in reps) for v in range(n))
    mats = []
    for ai, ar in enumerate(backend.arrows):
        rows = []
        col_off = 0
        full_cols = dims[ar.src]
        for r in reps:
            h, w = r.dims[ar.tgt], r.dims[ar.src]
            for i in range(h):
                row = bytearray(full_cols)
                row[col_off:col_off + w] = r.mats[ai][i]
                rows.append(bytes(row))
            col_off += w
        mats.append(tuple(rows))
    return MatrixRep(q, dims, tuple(mats))


def hom_dim(backend, m, n):
    """dim_Fq Hom(M, N): nullity of the intertwining system
    phi_tgt . M_rho = N_rho . phi_src over all arrows."""
    if m.q != n.q:
        raise BackendMismatchError("matrix reps over different fields")
    K = field(m.q)
    nv = max(backend.n_vertices, 1)
    offs = []
    total = 0
    for v in range(nv):
        offs.append(total)
        total += m.dims[v] * n.dims[v]
    if total == 0:
        return 0
    constraints = []
    for ai, ar in enumerate(backend.arrows):
        s, t = ar.src, ar.tgt
        Ms, Nt = m.mats[ai], n.mats[ai]
        # rows of (phi_t M_rho - N_rho phi_s) = 0, unknowns phi_v[i][j]
        for i in range(n.dims[t]):
            for j in range(m.dims[s]):
                row = bytearray(total)
                for k in range(m.dims[t]):
                    c = Ms[k][j]
                    if c:
                        row[offs[t] + i * m.dims[t] + k] = \
                            K.add[row[offs[t] + i * m.dims[t] + k] * K.q + c]
                for k in range(n.dims[s]):
                    c = Nt[i][k]
                    if c:
                        idx = offs[s] + k * m.dims[s] + j
                        row[idx] = K.sub[row[idx] * K.q + c]
                if any(row):
                    constraints.append(bytes(row))
    rk = linalg.rank(constraints, K) if constraints else 0
    return total - rk


def _indec_basis(backend, dims):
    if backend.kind == KIND_DYNKIN:
        return positive_roots(backend, dims)
    if backend.kind == KIND_LOOP:
        return [("j", d) for d in range(1, dims[0] + 1)]
    raise CapabilityError("decompose is not defined for p1")


def decompose(backend, rep):
    """Krull-Schmidt decomposition of a matrix representation.

    Solves the multiplicity system  dim Hom(I, rep) = sum_J mult_J * dim
    Hom(I, J)  over all indecomposables I fitting inside dim(rep); the
    system is unitriangular in the canonical label order.
    """
    if backend.kind == KIND_LOOP and rep.dims[0]:
        if not _is_nilpotent(rep.mats[0], rep.dims[0], rep.q):
            raise ValueError("loop matrix must be nilpotent")
    labels = _indec_basis(backend, rep.dims)
    if not labels:
        if any(rep.dims):
            raise InternalInvariantError("nonzero rep with no candidate summands")
        return ZERO_CLASS
    profile = [hom_dim(backend, realize(backend, l, rep.q), rep) for l in labels]
    return _solve_multiplicities(backend, labels, profile, rep.q)


def _solve_multiplicities(backend, labels, profile, q):
    """The class with the given Hom `profile`, solved over `Fraction`s."""
    from fractions import Fraction
    labels = tuple(labels)
    homs = backend.label_table.homs
    if (labels, q) not in homs:
        reps = [realize(backend, l, q) for l in labels]
        homs[labels, q] = tuple(tuple(hom_dim(backend, ri, rj) for rj in reps)
                                for ri in reps)
    table = homs[labels, q]
    n = len(labels)
    aug = [[Fraction(table[i][j]) for j in range(n)] + [Fraction(profile[i])]
           for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col]), None)
        if piv is None:
            raise InternalInvariantError("singular Hom-multiplicity system")
        aug[col], aug[piv] = aug[piv], aug[col]
        pv = aug[col][col]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col] / pv
                for c in range(col, n + 1):
                    aug[r][c] -= f * aug[col][c]
    mults = []
    for i in range(n):
        m = aug[i][n] / aug[i][i]
        if m.denominator != 1 or m < 0:
            raise InternalInvariantError(f"non-integral multiplicity {m} for "
                                         f"{label_name(backend, labels[i])}")
        mults.append(int(m))
    out = []
    for l, m in zip(labels, mults):
        out.extend([l] * m)
    return make_class(backend, out)


def _is_nilpotent(mat, d, q):
    K = field(q)
    vecs = [bytes(1 if j == i else 0 for j in range(d)) for i in range(d)]
    for _ in range(d):
        vecs = [linalg.matrix_apply(mat, v, K) for v in vecs]
    return not any(any(v) for v in vecs)
