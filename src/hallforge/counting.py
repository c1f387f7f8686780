"""Polynomials in Z[q], loop Hall polynomials, and an F_q counting oracle.

`enumerate_subreps` counts subrepresentations over F_q: the oracle that
the tests compare the Hall polynomials with.  On every backend with a
matrix model, type A and loop alike, it enumerates tuples of subspaces,
one per vertex in canonical order, pruning a tuple as soon as an arrow
with both endpoints fixed fails closure.  It shares nothing with the Z[q]
half of this module: no closed form, Gaussian binomial or polynomial
helper is on its path, so it checks them with real point counts.

Loop Hall polynomials are computed in closed form, with no enumeration.  A
loop class is a partition (the sizes of its Jordan blocks), and the loop
Hall algebra is commutative and generated by the u_(1^m) (Macdonald,
*Symmetric Functions and Hall Polynomials*, ch. II sections 2-4).
Multiplying by one of them is explicit (ch. II (4.6)): G^lam_{mu,(1^m)}(q)
is nonzero only when lam - mu is a vertical m-strip, and then it is

    q^(n(lam) - n(mu) - n(1^m))
        * prod_i [lam'_i - lam'_{i+1} choose lam'_i - mu'_i]_(1/q)

where lam' is the conjugate partition and n(lam) = sum_i (i - 1) lam_i.
The product E_nu = prod_i u_(1^nu'_i) of nu's columns is sum_kappa
a_kappa u_kappa over kappa <= nu in dominance order, with a_nu != 0, so
every other product follows by recursion down that order:

    u_mu u_nu = (u_mu E_nu - sum_{kappa != nu} a_kappa u_mu u_kappa) / a_nu.

All of it is exact arithmetic on ascending coefficient tuples in Z[q]:
[n choose k]_(1/q) is q^(-k(n-k)) [n choose k]_q (`gaussian_binomial`),
the power of q left over is the lowest degree of a polynomial count and
so is not negative, and a_nu divides exactly (ch. II (4.3)).

A histogram is a dict {(sub class, quotient class): count}, and
`enumerate_subreps` returns a target's full one.  Memos belong to the
caller, but for the backend-free `gaussian_binomial`: each `HallEngine`
owns a `_surveys` dict, holding loop products {lam: G^lam_{mu,nu}(q)} by
(mu, nu) and the type-A Green tables of `hall`, so the memo is freed with
the engine and never shared between two backend definitions.  Only the
Hall polynomials load this module, and `Bounds` is `quiver.Bounds`.  A p1
target has no matrix model (`realize_class` refuses it): its polynomials
are products of loop ones, point by point.
"""

from collections import defaultdict
from functools import lru_cache
from itertools import combinations, zip_longest

from . import quiver
from .errors import InternalInvariantError, ResourceLimitError
from .gf import field

Bounds, DEFAULT_BOUNDS = quiver.Bounds, quiver.DEFAULT_BOUNDS  # the same objects


def _check_bounds(backend, target, q, bounds):
    bounds.check_dim(quiver.class_total_dim(backend, target))
    if q > bounds.max_q:
        raise ResourceLimitError(
            f"field size {q} exceeds bound {bounds.max_q}",
            limit=bounds.max_q, requested=q)


def enumerate_subreps(backend, target, q, bounds=DEFAULT_BOUNDS):
    """Full histogram {(sub, quot): count} of realize_class(target, q), by
    enumerating its subrepresentations over F_q (`_quiver_survey`)."""
    _check_bounds(backend, target, q, bounds)
    return _quiver_survey(backend, target, q)


# ---------------------------------------------------------------------------
# polynomials in Z[q]: ascending coefficient tuples, trimmed, zero is (0,)

def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def _poly_add(a, b):
    out = [x + y for x, y in zip_longest(a, b, fillvalue=0)]
    while len(out) > 1 and not out[-1]:
        out.pop()
    return tuple(out)


def _poly_divexact(a, b):
    """a / b in Z[q], long division from the top: exact when b divides a."""
    a, n = list(a), len(b) - 1
    out = [0] * (len(a) - n)
    for i in range(len(out) - 1, -1, -1):
        out[i] = a[i + n] // b[-1]
        for j, y in enumerate(b):
            a[i + j] -= out[i] * y
    if any(a):
        raise InternalInvariantError("inexact division in Z[q]")
    return tuple(out)


@lru_cache(maxsize=None)
def gaussian_binomial(n, k):
    """[n choose k]_q for 0 <= k <= n, by the q-Pascal rule."""
    if k in (0, n):
        return (1,)
    return _poly_add(gaussian_binomial(n - 1, k - 1),
                     (0,) * k + gaussian_binomial(n - 1, k))


# ---------------------------------------------------------------------------
# loop backend: Macdonald's closed form

def _partition(cls):
    """The block sizes of a loop class, or of p1 blocks at one point."""
    return tuple(sorted((l[-1] for l in cls), reverse=True))


def _conjugate(lam):
    return tuple(sum(1 for x in lam if x > i)
                 for i in range(lam[0])) if lam else ()


def _n(lam):
    return sum(i * x for i, x in enumerate(lam))


def _times_column(vec, m):
    """(sum_mu c_mu u_mu) u_(1^m), as {lam: polynomial}: ch. II (4.6)."""
    out = {}
    for mu, c in vec.items():
        mu_c = _conjugate(mu) + (0,)
        for rows in combinations(range(len(mu) + m), m):
            lam = list(mu) + [0] * m
            for r in rows:
                lam[r] += 1
            if any(a < b for a, b in zip(lam, lam[1:])):
                continue  # not a partition, so lam - mu is no vertical strip
            lam = tuple(x for x in lam if x)
            lam_c = _conjugate(lam) + (0,)
            e = _n(lam) - _n(mu) - m * (m - 1) // 2
            g = c
            for i in range(len(lam_c) - 1):
                n, k = lam_c[i] - lam_c[i + 1], lam_c[i] - mu_c[i]
                e -= k * (n - k)
                g = poly_mul(g, gaussian_binomial(n, k))
            out[lam] = _poly_add(out.get(lam, (0,)), (0,) * e + g)
    return out


def _loop_product(mu, nu, products):
    """{lam: G^lam_{mu,nu}(q)}, the nonzero coefficients of u_mu u_nu as
    polynomials, memoized in `products` by (mu, nu)."""
    hit = products.get((mu, nu))
    if hit is None:
        cols, acc = {(): (1,)}, {mu: (1,)}  # E_nu and u_mu E_nu
        for m in _conjugate(nu):
            cols = _times_column(cols, m)
            acc = _times_column(acc, m)
        a_nu = cols.pop(nu)
        for kappa, a in cols.items():   # kappa < nu in dominance order
            for lam, c in _loop_product(mu, kappa, products).items():
                acc[lam] = _poly_add(acc.get(lam, (0,)), poly_mul(a, [-x for x in c]))
        hit = products[mu, nu] = {lam: _poly_divexact(c, a_nu)
                                  for lam, c in acc.items() if any(c)}
    return hit


# ---------------------------------------------------------------------------
# the F_q oracle: per-vertex subspace tuples with arrow pruning

def _quiver_survey(backend, target, q):
    from . import linalg  # the F_q oracle only: the Hall polynomials need none
    K = field(q)  # refuses a q that is not a prime power, on every backend
    rep = quiver.realize_class(backend, target, q)
    nv = backend.n_vertices
    dims = rep.dims
    active = set()
    for ai, ar in enumerate(backend.arrows):
        if any(any(r) for r in rep.mats[ai]):
            active.add(ar.src)
            active.add(ar.tgt)
    averts = sorted(active)
    apos = {v: i for i, v in enumerate(averts)}
    inert = [v for v in range(nv) if v not in active and dims[v]]

    arrows_by_last = defaultdict(list)
    for ai, ar in enumerate(backend.arrows):
        if ar.src in active and ar.tgt in active:
            arrows_by_last[max(apos[ar.src], apos[ar.tgt])].append((ai, ar))

    lists = {v: list(linalg.all_subspaces(dims[v], K)) for v in averts}
    cls_memo = {}
    active_cells = defaultdict(int)

    def closed(ai, ar, chosen):
        mat = rep.mats[ai]
        rs, _ = chosen[ar.src]
        rt, pt = chosen[ar.tgt]
        for u in rs:
            w = linalg.matrix_apply(mat, u, K)
            if any(linalg.reduce_vector(w, rt, pt, K)):
                return False
        return True

    def classify(chosen):
        sub_dims = [0] * nv
        quot_dims = [0] * nv
        for v in averts:
            sub_dims[v] = len(chosen[v][0])
            quot_dims[v] = dims[v] - sub_dims[v]
        sub_mats = []
        quot_mats = []
        for ai, ar in enumerate(backend.arrows):
            s, t = ar.src, ar.tgt
            # only active vertices are chosen: an inert one counts as 0 here
            rs, ps = chosen.get(s, ((), ()))
            rt, pt = chosen.get(t, ((), ()))
            mat = rep.mats[ai]
            ks, kt = len(rs), len(rt)
            rmat = [bytearray(ks) for _ in range(kt)]
            for j in range(ks):
                w = linalg.matrix_apply(mat, rs[j], K)
                coords = linalg.coordinates(w, rt, pt, K)
                for i in range(kt):
                    rmat[i][j] = coords[i]
            sub_mats.append(tuple(bytes(r) for r in rmat))
            nps = [c for c in range(dims[s]) if c not in set(ps)] \
                if s in active else []
            npt = [c for c in range(dims[t]) if c not in set(pt)] \
                if t in active else []
            qmat = [bytearray(len(nps)) for _ in range(len(npt))]
            for j, c in enumerate(nps):
                col = bytes(mat[i][c] for i in range(dims[t]))
                red = linalg.reduce_vector(col, rt, pt, K)
                for i, cc in enumerate(npt):
                    qmat[i][j] = red[cc]
            quot_mats.append(tuple(bytes(r) for r in qmat))
        key = (tuple(sub_dims), tuple(sub_mats), tuple(quot_dims), tuple(quot_mats))
        hit = cls_memo.get(key)
        if hit is None:
            sub_rep = quiver.MatrixRep(q, tuple(sub_dims), tuple(sub_mats))
            quot_rep = quiver.MatrixRep(q, tuple(quot_dims), tuple(quot_mats))
            hit = (quiver.decompose(backend, sub_rep),
                   quiver.decompose(backend, quot_rep))
            cls_memo[key] = hit
        return hit

    chosen = {}

    def rec(i):
        if i == len(averts):
            active_cells[classify(chosen)] += 1
            return
        v = averts[i]
        for sp in lists[v]:
            chosen[v] = sp
            if all(closed(ai, ar, chosen) for ai, ar in arrows_by_last[i]):
                rec(i + 1)
        del chosen[v]

    rec(0)

    # fold in the unconstrained vertices (all incident arrow matrices zero):
    # a k-dim subspace at v splits off k copies of the simple at v, and
    # counts[k] is the number of them that `linalg.subspaces` yields
    cells = active_cells
    for v in inert:
        dv = dims[v]
        simple = quiver._indec_basis(backend, tuple(int(u == v) for u in range(nv)))[0]
        counts = [sum(1 for _ in linalg.subspaces(dv, k, K)) for k in range(dv + 1)]
        folded = defaultdict(int)
        for (sub, quo), n in cells.items():
            for k in range(dv + 1):
                s2 = quiver.make_class(backend, list(sub) + [simple] * k)
                q2 = quiver.make_class(backend, list(quo) + [simple] * (dv - k))
                folded[(s2, q2)] += n * counts[k]
        cells = folded
    return dict(cells)
