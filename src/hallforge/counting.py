"""Subrepresentation counting over F_q.

For quiver backends the kernel enumerates tuples of subspaces, one per
vertex in canonical order, pruning a tuple as soon as an arrow with both
endpoints fixed fails closure.

The one-loop backend is counted in closed form, with no enumeration.  A
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

All of it is integer arithmetic at one q: [n choose k]_(1/q) is
q^(-k(n-k)) [n choose k]_q, the power of q left over is the lowest degree
of a polynomial count and so is not negative, and the division by a_nu is
exact because every coefficient is a count.

A histogram is a dict {(sub class, quotient class): count}, and
`enumerate_subreps` returns a target's full one.  This module keeps no
state.  Its memos belong to the caller: each `HallEngine` owns a
`_surveys` dict that it passes to `count_points`, holding quiver
histograms by (target, q) and loop products {lam: G^lam_{mu,nu}(q)} by
(mu, nu, q), so the memo is freed with the engine and never shared
between two backend definitions.  Only the F_q route loads this module
(`HallEngine._fit` imports it), and `Bounds` is `quiver.Bounds`.  A p1
target has no matrix model (`quiver.realize_class` refuses it): p1 counts
are loop counts, one per support point (`HallEngine._interpolate`).
"""

from collections import defaultdict
from itertools import combinations

from . import linalg, quiver
from .errors import ResourceLimitError
from .gf import field

Bounds, DEFAULT_BOUNDS = quiver.Bounds, quiver.DEFAULT_BOUNDS  # the same objects


def _check_bounds(backend, target, q, bounds):
    bounds.check_dim(quiver.class_total_dim(backend, target))
    if q > bounds.max_q:
        raise ResourceLimitError(
            f"field size {q} exceeds bound {bounds.max_q}",
            limit=bounds.max_q, requested=q)
    field(q)  # refuses a q that is not a prime power, on every backend


def enumerate_subreps(backend, target, q, bounds=DEFAULT_BOUNDS):
    """Full histogram {(sub, quot): count} of realize_class(target, q)."""
    _check_bounds(backend, target, q, bounds)
    if backend.kind != quiver.KIND_LOOP:
        return _quiver_survey(backend, target, q)
    lam = _partition(target)
    d = sum(lam)
    products, out = {}, {}
    for k in range(d + 1):
        for mu in quiver.partitions(k, k):
            for nu in quiver.partitions(d - k, d - k):
                n = _loop_product(mu, nu, q, products).get(lam)
                if n:
                    out[_loop_class(backend, mu), _loop_class(backend, nu)] = n
    return out


def count_points(backend, sub, quot, target, q, bounds=DEFAULT_BOUNDS,
                 surveys=None):
    """Number of subrepresentations of `target` over F_q with the given
    sub and quotient isomorphism classes.  `surveys` memoizes histograms
    by (target, q), and on loop products by their partitions and q;
    `HallEngine` passes its own, a call without one counts afresh."""
    _check_bounds(backend, target, q, bounds)
    if quiver.dim_add(quiver.class_dim(backend, sub),
                      quiver.class_dim(backend, quot)) \
            != quiver.class_dim(backend, target):
        return 0
    if surveys is None:
        surveys = {}
    if backend.kind == quiver.KIND_LOOP:
        return _loop_product(_partition(sub), _partition(quot), q,
                             surveys).get(_partition(target), 0)
    return _survey(backend, target, q, surveys).get((sub, quot), 0)


def _survey(backend, target, q, surveys):
    """The quiver histogram of `target`, memoized by (target, q)."""
    key = (target, q)
    hit = surveys.get(key)
    if hit is None:
        hit = surveys[key] = _quiver_survey(backend, target, q)
    return hit


# ---------------------------------------------------------------------------
# loop backend: Macdonald's closed form

def _partition(cls):
    return tuple(sorted((l[1] for l in cls), reverse=True))


def _loop_class(backend, lam):
    return quiver.make_class(backend, [("j", x) for x in lam])


def _conjugate(lam):
    return tuple(sum(1 for x in lam if x > i)
                 for i in range(lam[0])) if lam else ()


def _n(lam):
    return sum(i * x for i, x in enumerate(lam))


def _times_column(vec, m, q):
    """(sum_mu c_mu u_mu) u_(1^m) at q, as {lam: coefficient}: ch. II (4.6)."""
    out = defaultdict(int)
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
                g *= linalg.gaussian_binomial(n, k, q)
            out[lam] += g * q ** e
    return out


def _loop_product(mu, nu, q, products):
    """{lam: G^lam_{mu,nu}(q)}, the nonzero coefficients of u_mu u_nu,
    memoized in `products` by (mu, nu, q)."""
    key = (mu, nu, q)
    hit = products.get(key)
    if hit is None:
        cols, acc = {(): 1}, {mu: 1}    # E_nu and u_mu E_nu
        for m in _conjugate(nu):
            cols = _times_column(cols, m, q)
            acc = _times_column(acc, m, q)
        a_nu = cols.pop(nu)
        for kappa, a in cols.items():   # kappa < nu in dominance order
            for lam, c in _loop_product(mu, kappa, q, products).items():
                acc[lam] -= a * c
        hit = products[key] = {lam: c // a_nu for lam, c in acc.items() if c}
    return hit


# ---------------------------------------------------------------------------
# quiver backends: per-vertex tuples with arrow pruning

def _quiver_survey(backend, target, q):
    K = field(q)
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

    if averts:
        rec(0)
    else:
        active_cells[(quiver.ZERO_CLASS, quiver.ZERO_CLASS)] += 1

    # fold in the unconstrained vertices (all incident arrow matrices zero):
    # a k-dim subspace at v splits off k simples, and F_q^dv has
    # gaussian_binomial(dv, k, q) of them
    cells = active_cells
    for v in inert:
        dv = dims[v]
        simple = ("i", v, v)
        folded = defaultdict(int)
        for (sub, quo), n in cells.items():
            for k in range(dv + 1):
                s2 = quiver.make_class(backend, list(sub) + [simple] * k)
                q2 = quiver.make_class(backend, list(quo) + [simple] * (dv - k))
                folded[(s2, q2)] += n * linalg.gaussian_binomial(dv, k, q)
        cells = folded
    return dict(cells)
