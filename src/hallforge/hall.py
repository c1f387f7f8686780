"""Euler-characteristic structure constants and the Hall-polynomial cache.

A structure constant is the Euler characteristic of the stratum of
subrepresentations U of a target Y with U in class X and Y/U in class Z.
A torus acts on each stratum with isolated fixed points, one scalar per
direct summand of the canonical model: the fixed points are the
subrepresentations spanned by the vertex sets of the coefficient quiver
that no arrow leaves (an interval with the quiver's orientation for an
interval module, the chain e_h -> ... -> e_1 for a Jordan block J_h), and
the Euler characteristic of a stratum is the number of fixed points in
it.  The sub and quotient classes of a fixed point are read off the
connected components of the set and of its complement.
`HallEngine.cells` lists them for a whole target at once, and every
constant (`euler_constant`, `product`) is read off it.  A target's cells
are the direct-sum merge (`merge_cells`) of its summands' splits, on
every backend: a p1 block T(x,h) is the Jordan block J_h at the point x,
and splits as the chain does.

A Hall polynomial's value at q = 1 is the same constant, which the
`routes` verify suite checks cell by cell.  `counting` computes each one
exactly in Z[q]; `hall_polynomial`, the one place here that imports it,
keeps them in the versioned JSON cache (a constant is cheaper to read
off `cells` than to look up there), so a process that only reads
`cells` never loads `counting`.

Each `HallEngine` also keeps seven memos, created in `__init__` and freed
with it, all keyed by labels or classes (or p1 block degrees and atom
strata) of its own backend:

  _cells     target -> {(sub, quot): chi}, every nonzero cell of a target;
  _splits    label -> the `_summand_splits` of one indecomposable, made
             once per engine and merged into every target that has it;
  _products  (x, z) -> ((y, chi), ...), the nonzero terms of 1_x * 1_z
             that `product` returns and convolution reads: x, z, y are
             classes, or on p1 atom strata (`p1._stratum_product`);
  _classes   (dims, gmax) -> the classes `classes_with_dim` lists;
  _strata    (dims, g) -> False once `product` read one product of that
             stratum off its candidates' cells, True once a second miss
             filled them all from the cells (s, q), |s| + |q| = g, of its
             classes (such a cell forces |y| <= g);
  _tables    the exact tables `counting` fills and reads: on type A
             target -> {(sub, quot): coefficients} (`counting.green`), on
             loop and p1 (mu, nu) -> {lam: G^lam_{mu,nu}(q) coefficients}
             (on p1 the partitions of the blocks at each support point);
  _p1_base_memo  (block degrees of A, of B) -> {(degree, mult) tuple:
             value}, the p1 backend's one-base family products
             (`p1._base_product`), read off the member with every block
             at one point and so the same on every base.

A bound failure raises before anything is stored.
"""

import json
from collections import Counter
from itertools import groupby, product as iproduct
from pathlib import Path

from . import quiver
from .errors import BackendMismatchError, CacheCollisionError, CacheFormatError

CACHE_VERSION = 1


class HallPolynomial(quiver.ReadOnly):
    """Integer-coefficient polynomial in q, coefficients ascending."""
    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        object.__setattr__(self, "coeffs", coeffs)

    def evaluate(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __str__(self):
        out = ""
        for e in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[e]
            if not c:
                continue
            a = abs(c)
            term = f"{a}" if e == 0 else (
                ("" if a == 1 else f"{a}*") + ("q" if e == 1 else f"q^{e}"))
            if out:
                out += (" - " if c < 0 else " + ") + term
            else:
                out = ("-" if c < 0 else "") + term
        return out or "0"


class HallCache:
    """Versioned polynomial store, one per backend."""

    def __init__(self, backend, path=None):
        self.backend = backend
        self.path = Path(path) if path else None
        self.entries = {}
        self.dirty = self.rebuilt = False
        if self.path and self.path.exists():
            try:
                self.load(self.path)
            except ValueError:  # another version: start over; the next dump overwrites it
                self.dirty = self.rebuilt = True

    def key(self, sub, quot, target):
        b = self.backend
        return (quiver.class_name(b, sub) + "|"
                + quiver.class_name(b, quot) + "|" + quiver.class_name(b, target))

    def get(self, key):
        c = self.entries.get(key)
        return HallPolynomial(tuple(c)) if c is not None else None

    def put(self, key, poly):
        old = self.entries.get(key)
        if old is not None and tuple(old) != poly.coeffs:
            raise ValueError(f"cache collision for {key}")
        self.entries[key] = list(poly.coeffs)
        self.dirty = True

    def to_json(self):
        return {
            "version": CACHE_VERSION,
            "backend": self.backend.to_json(),
            "entries": [{"key": k, "coeffs": self.entries[k]}
                        for k in sorted(self.entries)],
        }

    def dump(self, path=None):
        p = Path(path) if path else self.path
        if p is None:
            return
        if p.is_dir():  # refused before the lock and temporary files exist
            raise CacheFormatError(f"{p}: is a directory, not a cache file")
        payload = json.dumps(self.to_json(), sort_keys=True,
                             separators=(",", ":")) + "\n"
        lock = p.with_suffix(p.suffix + ".lock")
        try:
            with open(lock, "w") as lk:
                try:
                    import fcntl
                    fcntl.flock(lk, fcntl.LOCK_EX)
                except ImportError:
                    pass
                tmp = p.with_suffix(p.suffix + ".tmp")
                tmp.write_text(payload)
                tmp.replace(p)
        except OSError as e:  # a missing directory, a directory at DEST.tmp, ...
            raise CacheFormatError(f"{p}: cannot write the cache file: {e}") from e
        self.dirty = False

    def load(self, path, *, merge=False):
        """Read a cache file.  A file of another version raises ValueError
        (a cache opened on it starts fresh); one that is not JSON or not of
        the cache's shape raises CacheFormatError and is left as it is.
        With merge=True, a key whose value differs from this cache's
        raises CacheCollisionError before any entry is merged."""
        try:
            data = json.loads(Path(path).read_text())
        except (OSError, ValueError) as e:  # ValueError: also bad UTF-8
            raise CacheFormatError(f"{path}: not a JSON cache file: {e}") from e
        if not isinstance(data, dict):
            raise CacheFormatError(f"{path}: a cache file is a JSON object")
        if data.get("version") != CACHE_VERSION:
            raise ValueError(
                f"cache version {data.get('version')} != {CACHE_VERSION}; "
                "clear the cache or rebuild it with this tool version")
        if data.get("backend") != self.backend.to_json():
            raise BackendMismatchError(
                "cache was built for a different backend definition")
        entries = data.get("entries")
        if not isinstance(entries, list) or not all(
                isinstance(e, dict) and isinstance(e.get("key"), str)
                and isinstance(e.get("coeffs"), list)
                and all(type(c) is int for c in e["coeffs"])
                for e in entries):
            raise CacheFormatError(f"{path}: entries are not key/coeffs pairs")
        fresh = {e["key"]: list(e["coeffs"]) for e in entries}
        if merge:
            for k, v in fresh.items():
                if k in self.entries and self.entries[k] != v:
                    raise CacheCollisionError(f"{path}: cache collision for {k}")
            self.entries.update(fresh)
        else:
            self.entries = fresh

    def clear(self):
        self.entries = {}
        self.dirty = True

    def stats(self):
        return {"entries": len(self.entries),
                "max_degree": max((len(c) - 1 for c in self.entries.values()),
                                  default=-1)}


class HallEngine:
    """Structure constants for one backend, with caching and bounds."""

    def __init__(self, backend, bounds=quiver.DEFAULT_BOUNDS, cache=None):
        self.backend = backend
        self.bounds = bounds
        self.cache = cache if cache is not None else HallCache(backend)
        self._cells = {}            # target -> {(sub, quot): chi}
        self._splits = {}           # label -> _summand_splits(backend, label)
        self._products = {}         # (x, z) -> ((y, chi), ...), chi nonzero
        self._classes = {}          # (dims, gmax) -> classes
        self._strata = {}           # (dims, g) -> whether _products holds all of it
        self._tables = {}           # target -> polynomials, or (mu, nu) -> polynomials
        self._p1_base_memo = {}     # (degs_a, degs_b) -> {degmults: chi}, any base

    # -- Euler constants: torus fixed points --------------------------------

    def euler_constant(self, sub, quot, target):
        """Euler characteristic of the (sub, quot) stratum of `target`.
        An absent cell's labels are looked up, so a foreign label or a line
        bundle raises; a present cell's are the target's own splits."""
        c = self.cells(target).get((sub, quot))
        if c is None:
            quiver.class_total_dim(self.backend, sub + quot)
        return c or 0

    def product(self, x, z):
        """The nonzero ((y, chi), ...) of 1_[x] * 1_[z], in the order of
        `candidate_targets(x, z)`, for classes x, z as `make_class` builds
        them.  The first miss of a stratum (dim x + dim z, |x| + |z|) reads
        one cell of each candidate, the second fills every product of the
        stratum (`_strata`).  On p1, x and z are atom strata of one
        refinement and so are the y (`p1._stratum_product`)."""
        hit = self._products.get((x, z))
        if hit is not None:
            return hit
        b, g = self.backend, len(x) + len(z)
        if b.kind == quiver.KIND_P1:
            import hallforge.p1 as p1  # `from . import` runs importlib per miss
            return self._products.setdefault((x, z), tuple(p1._stratum_product(self, x, z).items()))
        stratum = (quiver.dim_add(quiver.class_dim(b, x), quiver.class_dim(b, z)), g)
        if stratum not in self._strata:  # a lone product of its stratum pays for no fill
            self._products[(x, z)] = tuple((y, c) for y in self.classes_with_dim(*stratum)
                                           if (c := self.cells(y).get((x, z))))
            self._strata[stratum] = False
        elif not self._strata[stratum]:
            cols = {}
            for y in self.classes_with_dim(*stratum):
                for sq, c in self.cells(y).items():
                    if len(sq[0]) + len(sq[1]) == g:
                        cols.setdefault(sq, []).append((y, c))
            for sq, col in cols.items():
                self._products.setdefault(sq, tuple(col))
            self._strata[stratum] = True
        return self._products.setdefault((x, z), ())

    def cells(self, target):
        """Every nonzero constant of `target`, as {(sub, quot): chi}.

        `merge_cells` folds in the splits of the target's own summands, one
        at a time from {((), ()): 1}, never the memo of a smaller target.
        A summand's splits are the vertex sets of its coefficient quiver
        that no arrow leaves (`_summand_splits`, once per label: `_splits`);
        a p1 block T(x,h) splits as J_h does, into T(x,k) / T(x,h-k).
        The dimension bound applies to the target's total dimension, on p1
        its total degree."""
        hit = self._cells.get(target)
        if hit is not None:
            return hit
        b = self.backend
        self.bounds.check_dim(quiver.class_total_dim(b, target))
        out = {((), ()): 1}
        for l in target:
            if l not in self._splits:
                self._splits[l] = _summand_splits(b, l)
            out = merge_cells(b, out, self._splits[l])
        self._cells[target] = out
        return out

    # -- Hall polynomials: cached, computed by `counting` ---------------------

    def hall_polynomial(self, sub, quot, target):
        """The (sub, quot) cell's Hall polynomial (`counting`), cached."""
        key = self.cache.key(sub, quot, target)
        hit = self.cache.get(key)
        if hit is not None:
            return hit
        import hallforge.counting as counting  # `from . import` runs importlib per miss
        poly = HallPolynomial(counting.hall_polynomial(self, sub, quot, target))
        self.cache.put(key, poly)
        return poly

    # -- support enumeration -------------------------------------------------

    def candidate_targets(self, x, z):
        """Classes Y that can carry a conflation with sub x and quotient z:
        dim(Y) = dim(x) + dim(z) and at most summand_count(x) +
        summand_count(z) indecomposable summands (quiver backends only)."""
        b = self.backend
        return self.classes_with_dim(
            quiver.dim_add(quiver.class_dim(b, x), quiver.class_dim(b, z)),
            quiver.summand_count(x) + quiver.summand_count(z))

    def classes_with_dim(self, dims, gmax):
        """`quiver.classes_with_dim(backend, dims, gmax)`, memoized."""
        if (dims, gmax) not in self._classes:
            self.bounds.check_dim(sum(dims))  # before listing every class of dims
            self._classes[dims, gmax] = quiver.classes_with_dim(
                self.backend, dims, gmax)
        return self._classes[dims, gmax]


def merge_cells(backend, a, b):
    """The cells {(sub, quot): chi} of a direct sum A + B from those of A
    and B, each a {(sub, quot): chi} map of classes as `quiver.make_class`
    builds them, such as `cells` or `_summand_splits` returns.  A fixed
    point of the sum is a pair of fixed points, so subs and quotients add
    up (sorted as `make_class` sorts, where neither side is empty) and
    constants multiply.  At q = 1 Green's theorem on a split target reads
    cells(a + b) = merge_cells(cells(a), cells(b))."""
    key = backend.label_table.__getitem__
    out = {}
    for (s, q), c in a.items():
        for (ls, lq), lc in b.items():
            sq = (tuple(sorted(s + ls, key=key)) if s and ls else s or ls,
                  tuple(sorted(q + lq, key=key)) if q and lq else q or lq)
            out[sq] = out.get(sq, 0) + c * lc
    return out


def _summand_splits(backend, label):
    """Counter of (sub, quot) over the torus fixed points of one
    indecomposable: the vertex sets of its coefficient quiver that no
    arrow leaves, so an arrow out of a chosen vertex lands on a chosen
    vertex.  The sub is spanned by the chosen vertices and the quotient
    by the others, one interval per run of each; both legs are classes
    as `quiver.make_class` builds them."""
    if label[0] in ("j", "t"):     # J_h, or T(x,h) on p1: a chain of h
        h, block = label[-1], label[:-1]
        return Counter(((block + (k,),) if k else (),
                        (block + (h - k,),) if k < h else ()) for k in range(h + 1))
    _, a, b = label
    inner = [(ar.src - a, ar.tgt - a) for ar in backend.arrows
             if a <= min(ar.src, ar.tgt) and max(ar.src, ar.tgt) <= b]
    out = Counter()
    for chosen in iproduct((False, True), repeat=b - a + 1):
        if any(chosen[s] and not chosen[t] for s, t in inner):
            continue
        runs = ([], [])             # quotient runs, sub runs
        for x, run in groupby(range(len(chosen)), chosen.__getitem__):
            vs = list(run)
            runs[x].append(("i", a + vs[0], a + vs[-1]))
        out[quiver.make_class(backend, runs[True]),
            quiver.make_class(backend, runs[False])] += 1
    return out
