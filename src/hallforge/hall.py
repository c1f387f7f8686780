"""Euler-characteristic structure constants and Hall polynomials.

A structure constant is the Euler characteristic of the stratum of
subrepresentations U of a target Y with U in class X and Y/U in class Z.
A torus acts on each stratum with isolated fixed points, one scalar per
direct summand of the canonical model: the fixed points are the
subrepresentations spanned by successor-closed subsets of the coefficient
quiver (an interval with the quiver's orientation for an interval module,
the chain e_h -> ... -> e_1 for a Jordan block J_h), and the Euler
characteristic of a stratum is the number of fixed points in it.  The sub
and quotient classes of a fixed point are read off the connected components
of the subset and of its complement.  `HallEngine.cells` lists them for a
whole target at once, and every constant (`euler_constant`, `product`) is
read off it.  A target's cells are the direct-sum merge (`merge_cells`)
of its blocks' cells: its summands, or on p1 its parts at each support
point, loop-quiver classes whose cells come from the loop delegate.

Hall polynomials remain the F_q route: point counts of the subobject variety
are sampled at an ascending schedule of prime powers; a candidate polynomial
is fitted through all but the last sample and accepted once it has integer
coefficients and reproduces the held-out sample exactly.  Its value at q = 1
is the same constant, which the `routes` verify suite checks cell by cell.
Only Hall polynomials go to the versioned JSON cache: a constant is cheaper
to read off `cells` than to look up there.

Each `HallEngine` also keeps five memos, created in `__init__` and freed
with it, all keyed by classes (or p1 bases and atom strata) of its own
backend:

  _cells     target -> {(sub, quot): chi}, every nonzero cell of a target;
  _products  (x, z) -> ((y, chi), ...), the nonzero terms of 1_x * 1_z
             that `product` returns and convolution reads: x, z, y are
             classes, or on p1 atom strata (`p1._stratum_product`);
  _classes   (dims, gmax) -> the classes `classes_with_dim` lists;
  _surveys   (target, q) -> (largest sub dim surveyed, {(sub, quot): count}),
             the F_q histograms `counting.count_points` fills for
             `hall_polynomial`;
  _p1_base_memo  the p1 backend's one-base family products
             (`p1._base_product`).

A bound failure raises before anything is stored.
"""

import json
from collections import Counter, defaultdict
from fractions import Fraction
from pathlib import Path

from . import counting, quiver
from .errors import (BackendMismatchError, CacheCollisionError, CacheFormatError,
                     CapabilityError, NonPolynomialCountError)
from .gf import prime_powers

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

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else -1

    def __str__(self):
        if not self.coeffs:
            return "0"
        terms = []
        for e in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[e]
            if not c:
                continue
            if e == 0:
                terms.append(f"{c}")
            elif e == 1:
                terms.append("q" if c == 1 else f"{c}*q")
            else:
                terms.append(f"q^{e}" if c == 1 else f"{c}*q^{e}")
        return " + ".join(terms) if terms else "0"


def fit_polynomial(points):
    """Exact polynomial through (x, y) samples via Newton divided
    differences over `Fraction`s; returns ascending Fraction coefficients."""
    xs = [Fraction(x) for x, _ in points]
    divided = [Fraction(y) for _, y in points]
    n = len(points)
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            divided[i] = (divided[i] - divided[i - 1]) / (xs[i] - xs[i - j])
    coeffs = [Fraction(0)] * n
    for i in range(n - 1, -1, -1):
        # multiply accumulated poly by (x - xs[i]) and add divided[i]
        new = [Fraction(0)] * n
        for e in range(n - 1):
            if coeffs[e]:
                new[e + 1] += coeffs[e]
                new[e] -= coeffs[e] * xs[i]
        new[0] += divided[i]
        coeffs = new
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


class HallCache:
    """Versioned polynomial store, one per backend."""

    def __init__(self, backend, path=None, *, rebuild_stale=False):
        self.backend = backend
        self.path = Path(path) if path else None
        self.entries = {}
        self.dirty = False
        self.rebuilt = False
        if self.path and self.path.exists():
            try:
                self.load(self.path)
            except ValueError:
                if not rebuild_stale:
                    raise
                # stale version: start over; the next dump overwrites it
                self.entries = {}
                self.dirty = True
                self.rebuilt = True

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
        payload = json.dumps(self.to_json(), sort_keys=True,
                             separators=(",", ":")) + "\n"
        lock = p.with_suffix(p.suffix + ".lock")
        with open(lock, "w") as lk:
            try:
                import fcntl
                fcntl.flock(lk, fcntl.LOCK_EX)
            except ImportError:
                pass
            tmp = p.with_suffix(p.suffix + ".tmp")
            tmp.write_text(payload)
            tmp.replace(p)
        self.dirty = False

    def load(self, path, *, merge=False):
        """Read a cache file.  A file of another version raises ValueError
        (a session cache rebuilds on it); one that is not JSON or not of
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

    def __init__(self, backend, bounds=counting.DEFAULT_BOUNDS, cache=None):
        self.backend = backend
        self.bounds = bounds
        self.cache = cache if cache is not None else HallCache(backend)
        self._cells = {}            # target -> {(sub, quot): chi}
        self._products = {}         # (x, z) -> ((y, chi), ...), chi nonzero
        self._classes = {}          # (dims, gmax) -> classes
        self._surveys = {}          # (target, q) -> (max sub dim, cells)
        self._p1_base_memo = {}     # see p1._base_product
        if backend.kind == quiver.KIND_P1:
            self._local = _loop_delegate(self, bounds)
        else:
            self._local = None

    # -- Euler constants: torus fixed points --------------------------------

    def euler_constant(self, sub, quot, target):
        """Euler characteristic of the (sub, quot) stratum of `target`."""
        if self.backend.kind == quiver.KIND_P1:
            _require_torsion(sub, quot, target)
        return self.cells(target).get((sub, quot), 0)

    def product(self, x, z):
        """The nonzero ((y, chi), ...) of 1_[x] * 1_[z], in the order of
        `candidate_targets(x, z)`.  On p1, x and z are atom strata of one
        refinement and so are the y (`p1._stratum_product`)."""
        hit = self._products.get((x, z))
        if hit is None:
            if self.backend.kind == quiver.KIND_P1:
                from . import p1
                hit = tuple(p1._stratum_product(self, x, z).items())
            else:
                hit = tuple((y, c) for y in self.candidate_targets(x, z)
                            if (c := self.cells(y).get((x, z), 0)))
            self._products[(x, z)] = hit
        return hit

    def cells(self, target):
        """Every nonzero constant of `target`, as {(sub, quot): chi}.

        The target is the direct sum of its blocks, and its cells are
        `merge_cells` of theirs.  On a quiver backend a block is one
        summand, whose splits are the successor-closed subsets of its
        coefficient quiver.  On p1 a block is the part of the target at
        one support point: its splits are the loop delegate's cells of that
        part, relabelled to the point, and the dimension bound applies to
        each point in the delegate."""
        hit = self._cells.get(target)
        if hit is not None:
            return hit
        b = self.backend
        if b.kind == quiver.KIND_P1:
            _require_torsion(target)
            loop = self._local

            def at(x, cls):
                return tuple(("t", x, l[1]) for l in cls)
            blocks = [{(at(x, s), at(x, q)): c for (s, q), c in
                       loop.cells(_local_class(loop.backend, target, x)).items()}
                      for x in sorted({l[1] for l in target})]
        else:
            self.bounds.check_dim(quiver.class_total_dim(b, target))
            splits = {l: _summand_splits(b, l) for l in set(target)}
            blocks = [splits[l] for l in target]
        self._cells[target] = out = merge_cells(b, blocks)
        return out

    # -- Hall polynomials: F_q counting ---------------------------------------

    def hall_polynomial(self, sub, quot, target):
        """Counting polynomial of the (sub, quot) cell of `target`."""
        if self.backend.kind == quiver.KIND_P1:
            return self._p1_polynomial(sub, quot, target)
        key = self.cache.key(sub, quot, target)
        hit = self.cache.get(key)
        if hit is not None:
            return hit
        poly = self._interpolate(sub, quot, target)
        self.cache.put(key, poly)
        return poly

    def _interpolate(self, sub, quot, target):
        schedule = prime_powers(self.bounds.max_q)
        samples = []
        for i, q in enumerate(schedule):
            samples.append((q, counting.count_points(
                self.backend, sub, quot, target, q, self.bounds, self._surveys)))
            if i == 0:
                continue
            coeffs = fit_polynomial(samples[:-1])
            if any(c.denominator != 1 for c in coeffs):
                continue
            cand = HallPolynomial(tuple(int(c) for c in coeffs))
            if cand.evaluate(samples[-1][0]) == samples[-1][1]:
                return cand
        raise NonPolynomialCountError(
            f"counts for {quiver.class_name(self.backend, target)} cell "
            f"({quiver.class_name(self.backend, sub)}, "
            f"{quiver.class_name(self.backend, quot)}) did not stabilize "
            f"within q <= {self.bounds.max_q}")

    # -- p1 backend: Hall polynomials factor over support points ------------

    def _p1_local_cells(self, sub, quot, target):
        """The loop-backend (sub, quot, target) at each support point."""
        points = sorted({l[1] for l in target} | {l[1] for l in sub}
                        | {l[1] for l in quot})
        lb = self._local.backend
        return [tuple(_local_class(lb, cls, x) for cls in (sub, quot, target))
                for x in points]

    def _p1_polynomial(self, sub, quot, target):
        _require_torsion(sub, quot, target)
        key = self.cache.key(sub, quot, target)
        hit = self.cache.get(key)
        if hit is not None:
            return hit
        coeffs = (1,)
        for cell in self._p1_local_cells(sub, quot, target):
            p = self._local.hall_polynomial(*cell)
            coeffs = _poly_mul(coeffs, p.coeffs)
            if coeffs == (0,) or not coeffs:
                coeffs = (0,)
                break
        poly = HallPolynomial(tuple(coeffs))
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
            self._classes[dims, gmax] = quiver.classes_with_dim(
                self.backend, dims, gmax)
        return self._classes[dims, gmax]


def merge_cells(backend, blocks):
    """The cells {(sub, quot): chi} of a direct sum from its blocks' cells,
    each a {(sub labels, quot labels): chi} map such as `cells` returns.
    A fixed point of the sum is a tuple of fixed points of its blocks, so
    subs and quotients add up and constants multiply.  Blocks merge one at
    a time, keyed by sorted labels: the work is the product of merged
    option counts, not 2^dim.  At q = 1 Green's theorem on a split target
    reads cells(a + b) = merge_cells([cells(a), cells(b)]).
    """
    merged = {((), ()): 1}
    for block in blocks:
        nxt = defaultdict(int)
        for (s, q), c in merged.items():
            for (ls, lq), lc in block.items():
                nxt[(tuple(sorted(s + ls)), tuple(sorted(q + lq)))] += c * lc
        merged = nxt
    return {(quiver.make_class(backend, s), quiver.make_class(backend, q)): c
            for (s, q), c in merged.items()}


def _poly_mul(a, b):
    if not a or not b:
        return (0,)
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return tuple(out)


def _summand_splits(backend, label):
    """Counter of (sub labels, quot labels) over the successor-closed
    subsets of one indecomposable's coefficient quiver."""
    if label[0] == "j":
        h = label[1]
        return Counter(((("j", k),) if k else (), (("j", h - k),) if k < h else ())
                       for k in range(h + 1))
    _, a, b = label
    # edge (v, v+1) of the path: does its arrow point towards v+1?
    forward = {min(ar.src, ar.tgt): ar.src < ar.tgt for ar in backend.arrows}
    out = Counter()

    def runs(inside, want):
        labels, start = [], None
        for v, x in enumerate(inside + [not want], a):
            if x == want and start is None:
                start = v
            elif x != want and start is not None:
                labels.append(("i", start, v - 1))
                start = None
        return tuple(labels)

    def rec(inside):
        v = a + len(inside)
        if v > b:
            out[(runs(inside, True), runs(inside, False))] += 1
            return
        for x in (False, True):
            # an arrow out of a chosen vertex must land on a chosen vertex
            if inside and (inside[-1] and not x if forward[v - 1]
                           else x and not inside[-1]):
                continue
            rec(inside + [x])

    rec([])
    return out


def _require_torsion(*classes):
    for cls in classes:
        for l in cls:
            if l[0] != "t":
                raise CapabilityError(
                    "products are defined for torsion classes only")


def _local_class(loop_backend, cls, point):
    return quiver.make_class(loop_backend,
                             [("j", l[2]) for l in cls if l[1] == point])


def _loop_delegate(engine, bounds):
    loop = quiver.builtin_backend("loop")
    return HallEngine(loop, bounds, cache=_ScopedCache(engine.cache, loop))


class _ScopedCache:
    """View of a host cache that namespaces keys for the p1 backend's
    internal loop-quiver computations."""

    def __init__(self, host, loop_backend):
        self.host = host
        self.backend = loop_backend

    def key(self, sub, quot, target):
        return "local:" + HallCache.key(self, sub, quot, target)

    def get(self, key):
        return self.host.get(key)

    def put(self, key, poly):
        self.host.put(key, poly)
