"""Exhaustive subrepresentation counting over F_q.

For quiver backends the kernel enumerates tuples of subspaces, one per
vertex in canonical order, pruning a tuple as soon as an arrow with both
endpoints fixed fails closure.  For the one-loop backend it walks the
lattice of nilpotent-invariant subspaces directly: every invariant
subspace of dimension k+1 is U + F_q.v for an invariant U of dimension k
and a v with (loop matrix).v in U, so a breadth-first sweep by dimension
with canonical-basis deduplication visits each subspace exactly once.

Large-subobject cells on the loop backend are served from the small side
of the lattice: transposition is a self-duality of nilpotent loop modules
exchanging (sub, quot), so #{U : U = A, M/U = B} = #{U : U = B, M/U = A}.
The tests verify this against two-sided enumeration at small dims.

This module keeps no state.  Histograms are memoized by the caller: each
`HallEngine` owns a `_surveys` dict, keyed by (target, q), that it passes
to `count_points`, so the memo is freed with the engine and never shared
between two backend definitions.
"""

from collections import defaultdict

from . import linalg, quiver
from .errors import CapabilityError, ResourceLimitError
from .gf import field


class Bounds(quiver.ReadOnly):
    """Resource limits (configuration, not constants): max_dim bounds the
    target of every constant, max_q the fields the F_q route samples."""
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


class SubrepHistogram:
    """All subrepresentations of one realized class, keyed by
    (sub iso class, quotient iso class)."""
    def __init__(self, target, q, counts):
        self.target = target
        self.q = q
        self.counts = counts


def _check_bounds(backend, target, q, bounds):
    bounds.check_dim(quiver.class_total_dim(backend, target))
    if q > bounds.max_q:
        raise ResourceLimitError(
            f"field size {q} exceeds bound {bounds.max_q}",
            limit=bounds.max_q, requested=q)


def enumerate_subreps(backend, target, q, bounds=DEFAULT_BOUNDS):
    """Full histogram of subrepresentations of realize_class(target, q)."""
    if backend.kind == quiver.KIND_P1:
        raise CapabilityError("p1-torsion classes are counted through the "
                              "loop kernel per support point")
    _check_bounds(backend, target, q, bounds)
    cells = _survey(backend, target, q, None, {})
    return SubrepHistogram(target=target, q=q, counts=dict(cells))


def count_points(backend, sub, quot, target, q, bounds=DEFAULT_BOUNDS,
                 surveys=None):
    """Number of subrepresentations of `target` over F_q with the given
    sub and quotient isomorphism classes.  `surveys` memoizes histograms
    by (target, q); `HallEngine` passes its own, a call without one
    surveys afresh."""
    if backend.kind == quiver.KIND_P1:
        raise CapabilityError("use the p1 family calculus")
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
    gather1 = []
    for i in range(d):
        nz = [j for j, x in enumerate(mat[i]) if x]
        gather1.append(nz[0] if nz else -1)
    pow_gathers = []
    g = list(range(d))
    for _ in range(max_h):
        g = [gather1[i] if i >= 0 else -1 for i in g]
        pow_gathers.append(list(g))
    # sparse (dst, src) pairs per power; powers of nilpotents thin out fast
    pow_moves = [[(i, s) for i, s in enumerate(gj) if s >= 0]
                 for gj in pow_gathers]
    # Im(A^j) = span{e_i : gather_j[i] >= 0}; its complement coordinates
    comp_coords = [[i for i in range(d) if gj[i] < 0] for gj in pow_gathers]
    im_rank = [d - len(c) for c in comp_coords]

    cells = defaultdict(int)
    part_memo = {}

    def class_of_kdims(kdims):
        key = tuple(kdims)
        hit = part_memo.get(key)
        if hit is None:
            hit = quiver.make_class(
                backend, [("j", s) for s in _partition_from_kernel_dims(kdims)])
            part_memo[key] = hit
        return hit

    def unpack(packed):
        k = len(packed) // d if d else 0
        return tuple(packed[i * d:(i + 1) * d] for i in range(k))

    def pivots_of(rows):
        return tuple(next(j for j, x in enumerate(r) if x) for r in rows)

    def classify(rows, k):
        kdims = []
        j = 0
        while True:
            j += 1
            if j > max_h:
                kdims.append(k)
            else:
                moves = pow_moves[j - 1]
                vecs = []
                for r in rows:
                    w = bytearray(d)
                    nz = False
                    for i, s in moves:
                        x = r[s]
                        if x:
                            w[i] = x
                            nz = True
                    if nz:
                        vecs.append(w)
                kdims.append(k - linalg.rank(vecs, K))
            if kdims[-1] == k:
                break
        sub_cls = class_of_kdims(kdims)
        dk = d - k
        kdims = []
        j = 0
        while True:
            j += 1
            if j > max_h:
                kdims.append(dk)
            else:
                comp = comp_coords[j - 1]
                proj = [bytes([r[c] for c in comp]) for r in rows]
                inter = k - linalg.rank(proj, K)
                kdims.append(dk - (im_rank[j - 1] - inter))
            if kdims[-1] == dk:
                break
        return sub_cls, class_of_kdims(kdims)

    cells[classify((), 0)] += 1
    layer = [b""]
    qn = K.q
    for _dim in range(cap):
        next_layer = set()
        for packed in layer:
            rows = unpack(packed)
            pivots = pivots_of(rows)
            # kernel of v -> (A v mod U); constraint row i: coefficients of
            # coordinate i of A e_c reduced mod U, c = 0..d-1
            reduced_cols = []
            for c in range(d):
                col = bytes(mat[i][c] for i in range(d))
                reduced_cols.append(linalg.reduce_vector(col, rows, pivots, K))
            cons = [bytes(reduced_cols[c][i] for c in range(d)) for i in range(d)]
            cons = [r for r in cons if any(r)]
            kb_rows, _kb_piv = linalg.null_space(cons, K, d)
            comp = []
            crows, cpiv = rows, pivots
            for v in kb_rows:
                red = linalg.reduce_vector(v, rows, pivots, K)
                if not any(red):
                    continue
                ins = linalg.insert_row(crows, cpiv, red, K)
                if ins is not None:
                    crows, cpiv = ins
                    comp.append(red)
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
                    ins = linalg.insert_row(rows, pivots, bytes(v), K)
                    next_layer.add(b"".join(ins[0]))
        for packed in next_layer:
            rows = unpack(packed)
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
    active_arrows = []
    for ai, ar in enumerate(backend.arrows):
        if ar.src in active and ar.tgt in active:
            active_arrows.append((ai, ar))
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
