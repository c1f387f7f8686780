"""Exhaustive subrepresentation counting over F_q.

For quiver backends the kernel enumerates tuples of subspaces, one per
vertex in canonical order, pruning a tuple as soon as an arrow with both
endpoints fixed fails closure.  For the one-loop backend it walks the
lattice of nilpotent-invariant subspaces directly: every invariant
subspace of dimension k+1 is U + F_q.v for an invariant U of dimension k
and a v in K = {v : (loop matrix).v in U}, so a breadth-first sweep by
dimension that deduplicates each layer visits each subspace exactly once.
A frontier subspace is the (RREF rows, pivots) pair `linalg.insert_row`
returns, which is also its deduplication key, and v runs over one vector
per line of K/U.

Large-subobject cells on the loop backend are served from the small side
of the lattice: transposition is a self-duality of nilpotent loop modules
exchanging (sub, quot), so #{U : U = A, M/U = B} = #{U : U = B, M/U = A}.
The tests verify this against two-sided enumeration at small dims.

A histogram is a dict {(sub class, quotient class): count}, and
`enumerate_subreps` returns a target's full one.  This module keeps no
state.  Histograms are memoized by the caller: each `HallEngine` owns a
`_surveys` dict, keyed by (target, q), that it passes to `count_points`,
so the memo is freed with the engine and never shared between two
backend definitions.  Only the F_q route loads this module
(`HallEngine._fit` imports it), and `Bounds` is `quiver.Bounds`.  A p1
target has no matrix model (`quiver.realize_class` refuses it): p1 counts
are loop counts, one per support point (`HallEngine._interpolate`).
"""

from collections import defaultdict

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


def enumerate_subreps(backend, target, q, bounds=DEFAULT_BOUNDS):
    """Full histogram {(sub, quot): count} of realize_class(target, q)."""
    _check_bounds(backend, target, q, bounds)
    return _survey(backend, target, q, None, {})


def count_points(backend, sub, quot, target, q, bounds=DEFAULT_BOUNDS,
                 surveys=None):
    """Number of subrepresentations of `target` over F_q with the given
    sub and quotient isomorphism classes.  `surveys` memoizes histograms
    by (target, q); `HallEngine` passes its own, a call without one
    surveys afresh."""
    _check_bounds(backend, target, q, bounds)
    if quiver.dim_add(quiver.class_dim(backend, sub),
                      quiver.class_dim(backend, quot)) \
            != quiver.class_dim(backend, target):
        return 0
    if surveys is None:
        surveys = {}
    if backend.kind == quiver.KIND_LOOP:
        d = quiver.class_total_dim(backend, target)
        ks = quiver.class_total_dim(backend, sub)
        if ks <= d - ks:
            return _survey(backend, target, q, ks, surveys).get((sub, quot), 0)
        return _survey(backend, target, q, d - ks, surveys).get((quot, sub), 0)
    return _survey(backend, target, q, None, surveys).get((sub, quot), 0)


def _survey(backend, target, q, cap, surveys):
    """Cell counts for subs of total dim <= cap (cap=None: everything),
    memoized in `surveys` as (largest dim surveyed, cells)."""
    d = quiver.class_total_dim(backend, target)
    want = d if cap is None else min(cap, d)
    key = (target, q)
    hit = surveys.get(key)
    if hit is not None and hit[0] >= want:
        return hit[1]
    if backend.kind == quiver.KIND_LOOP and any(l[1] >= 2 for l in target):
        cells = _loop_survey(backend, target, q, want)
    else:
        # a loop target of J1 blocks has a zero matrix: the quiver survey's
        # fold over unconstrained vertices counts it by Gaussian binomials
        want = d
        cells = _quiver_survey(backend, target, q)
    surveys[key] = (want, cells)
    return cells


# ---------------------------------------------------------------------------
# loop backend: invariant-subspace BFS by dimension

def _loop_survey(backend, target, q, cap):
    K = field(q)
    rep = quiver.realize_class(backend, target, q)
    d = rep.dims[0]
    mat = rep.mats[0]
    max_h = max((l[1] for l in target), default=0)

    # canonical models are partial permutations: (A^j v)[i] = v[gather_j[i]]
    gather1 = [next((j for j, x in enumerate(row) if x), -1) for row in mat]
    # per power: the sparse (dst, src) pairs, as powers of nilpotents thin
    # out fast, and the coordinates off Im(A^j) = span{e_i : gather_j[i] >= 0}
    pow_moves, comp_coords = [], []
    g = list(range(d))
    for _ in range(max_h):
        g = [gather1[i] if i >= 0 else -1 for i in g]
        pow_moves.append([(i, s) for i, s in enumerate(g) if s >= 0])
        comp_coords.append([i for i, s in enumerate(g) if s < 0])

    cells = defaultdict(int)
    part_memo = {}

    def partition(total, kernel_dim):
        """The class whose dim ker(x^j) is kernel_dim(j), j = 1, 2, ...,
        read until it reaches `total` (x^j = 0 past max_h)."""
        kdims = []
        while not kdims or kdims[-1] != total:
            j = len(kdims) + 1
            kdims.append(total if j > max_h else kernel_dim(j))
        key = tuple(kdims)
        hit = part_memo.get(key)
        if hit is None:
            hit = quiver.make_class(
                backend, [("j", s) for s in _partition_from_kernel_dims(kdims)])
            part_memo[key] = hit
        return hit

    def classify(rows, k):
        def sub_kernel(j):  # k - rank of A^j U
            vecs = []
            for r in rows:
                w = bytearray(d)
                nz = False
                for i, s in pow_moves[j - 1]:
                    x = r[s]
                    if x:
                        w[i] = x
                        nz = True
                if nz:
                    vecs.append(w)
            return k - linalg.rank(vecs, K)

        def quot_kernel(j):  # on V/U: d - dim(Im A^j + U), which is the
            # coordinates off Im A^j less the rank of U's projection onto them
            comp = comp_coords[j - 1]
            return len(comp) - linalg.rank([bytes([r[c] for c in comp])
                                            for r in rows], K)

        return partition(k, sub_kernel), partition(d - k, quot_kernel)

    cells[classify((), 0)] += 1
    layer = [((), ())]
    qn = K.q
    mat_cols = [bytes(row[c] for row in mat) for c in range(d)]
    for _dim in range(cap):
        next_layer = set()
        for rows, pivots in layer:
            # kernel of v -> (A v mod U); constraint row i: coefficients of
            # coordinate i of A e_c reduced mod U, c = 0..d-1
            reduced_cols = [linalg.reduce_vector(col, rows, pivots, K)
                            for col in mat_cols]
            cons = [bytes(col[i] for col in reduced_cols) for i in range(d)]
            kb_rows, _kb_piv = linalg.null_space(cons, K, d)
            # a basis of K/U: the reduced rows vanish on U's pivot columns,
            # so they span a complement of U in K, and its lines are K/U's
            comp, _ = linalg.row_reduce(
                [linalg.reduce_vector(v, rows, pivots, K) for v in kb_rows], K)
            c = len(comp)
            for lead in range(c):
                tail = c - lead - 1
                for mask in range(qn ** tail):
                    v = bytearray(comp[lead])
                    mm = mask
                    for t in range(tail):
                        coef = mm % qn
                        mm //= qn
                        if coef:
                            w = comp[lead + 1 + t]
                            for i in range(d):
                                if w[i]:
                                    v[i] = K.add[v[i] * qn + K.mul[coef * qn + w[i]]]
                    next_layer.add(linalg.insert_row(rows, pivots, bytes(v), K))
        for rows, _pivots in next_layer:
            cells[classify(rows, len(rows))] += 1
        layer = next_layer
    return dict(cells)


def _partition_from_kernel_dims(kdims):
    """Jordan partition from dim ker(x^j), j = 1, 2, ... (last entry = total)."""
    prev = 0
    parts_ge = []
    for kd in kdims:
        parts_ge.append(kd - prev)
        prev = kd
    parts_ge.append(0)
    out = []
    for s in range(len(parts_ge) - 1):
        for _ in range(parts_ge[s] - parts_ge[s + 1]):
            out.append(s + 1)
    return out


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
        simple = ("j", 1) if backend.kind == quiver.KIND_LOOP else ("i", v, v)
        folded = defaultdict(int)
        for (sub, quo), n in cells.items():
            for k in range(dv + 1):
                s2 = quiver.make_class(backend, list(sub) + [simple] * k)
                q2 = quiver.make_class(backend, list(quo) + [simple] * (dv - k))
                folded[(s2, q2)] += n * linalg.gaussian_binomial(dv, k, q)
        cells = folded
    return dict(cells)
