"""The F_q oracle: matrix models over F_q and the subrepresentation survey.

The library computes every constant from torus fixed points and every
Hall polynomial exactly in Z[q]; nothing in it builds a matrix.  This
module counts over finite fields instead, so the tests can check those
routes with real point counts, and the library never compiles it.

`realize` and `realize_class` give the canonical matrix model of a class
over F_q, `hom_dim` the dimension of a Hom space, and `decompose` the
Krull-Schmidt class of any matrix representation, from its Hom profile
against the indecomposables.

`enumerate_subreps` counts subrepresentations over F_q.  On every backend
with a matrix model, type A and loop alike, it enumerates tuples of
subspaces, one per vertex in canonical order, pruning a tuple as soon as
an arrow with both endpoints fixed fails closure.  It shares nothing with
the Z[q] half of `counting`: no closed form, Gaussian binomial or
polynomial helper is on its path.  Its target dimension and field size are
bounded by a `counting.Bounds`; a p1 target has no matrix model
(`realize_class` refuses it).

The kernels are `hallforge.gf` and `hallforge.linalg`, which only this
module and the other oracles load.
"""

from collections import defaultdict
from functools import lru_cache

from hallforge import linalg, quiver
from hallforge.counting import DEFAULT_BOUNDS
from hallforge.errors import (BackendMismatchError, CapabilityError,
                              InternalInvariantError, ResourceLimitError)
from hallforge.gf import field
from hallforge.pbw import _solve_in_span

# ---------------------------------------------------------------------------
# matrix models


class MatrixRep(quiver.ReadOnly):
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
    if backend.kind == quiver.KIND_DYNKIN:
        _, a, b = label
        dims = tuple(1 if a <= v <= b else 0 for v in range(backend.n_vertices))
        mats = []
        for ar in backend.arrows:
            if a <= ar.src <= b and a <= ar.tgt <= b:
                mats.append((bytes([1]),))
            else:
                mats.append(_zero_matrix(dims[ar.tgt], dims[ar.src]))
        return MatrixRep(q, dims, tuple(mats))
    if backend.kind == quiver.KIND_LOOP:
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
    if backend.kind == quiver.KIND_P1:
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
    return total - len(linalg.row_reduce(constraints, K)[0])


def _indec_basis(backend, dims):
    if backend.kind == quiver.KIND_DYNKIN:
        return quiver.positive_roots(backend, dims)
    if backend.kind == quiver.KIND_LOOP:
        return [("j", d) for d in range(1, dims[0] + 1)]
    raise CapabilityError("decompose is not defined for p1")


def decompose(backend, rep):
    """Krull-Schmidt decomposition of a matrix representation.

    Solves the multiplicity system  dim Hom(I, rep) = sum_J mult_J * dim
    Hom(I, J)  over all indecomposables I fitting inside dim(rep).  The
    system is not triangular in the canonical label order: on a2, in the
    order S2, S1, P12, Hom(S2, P12) = 1 lies above the diagonal and
    Hom(P12, S1) = 1 below it, which is why `_hom_inverse` pivots.
    """
    if backend.kind == quiver.KIND_LOOP and rep.dims[0]:
        if not _is_nilpotent(rep.mats[0], rep.dims[0], rep.q):
            raise ValueError("loop matrix must be nilpotent")
    labels = _indec_basis(backend, rep.dims)
    profile = [hom_dim(backend, realize(backend, l, rep.q), rep) for l in labels]
    return _solve_multiplicities(backend, labels, profile, rep.q)


@lru_cache(maxsize=None)
def _hom_inverse(backend, labels, q):
    """The columns of the inverse of the Hom table (dim Hom(I, J)) over
    `labels`, as ints, solved once per backend definition, labels and q.
    The table has determinant 1: ordered so that Hom(I, J) = 0 when J
    comes before I (type A has no cycle of nonzero Homs), it is
    unitriangular; on loop it is (min(a, b)) = L L^T, L the lower
    triangle of ones.  So its inverse is integral."""
    if not labels:
        return []  # the zero representation: nothing to solve for
    reps = [realize(backend, l, q) for l in labels]
    table = [[hom_dim(backend, ri, rj) for rj in reps] for ri in reps]
    unit = [[int(i == j) for i in range(len(labels))] for j in range(len(labels))]
    columns = []
    for sol, residual in _solve_in_span(list(zip(*table)), unit):
        if residual or any(x.denominator != 1 for x in sol):
            raise InternalInvariantError(f"the Hom table over {labels} is not "
                                         f"unimodular")
        columns.append([int(x) for x in sol])
    return columns


def _solve_multiplicities(backend, labels, profile, q):
    """The class with the given Hom `profile`: the inverse Hom table
    applied to it."""
    labels = tuple(labels)
    columns = _hom_inverse(backend, labels, q)
    out = []
    for j, l in enumerate(labels):
        m = sum(p * c[j] for p, c in zip(profile, columns))
        if m.denominator != 1 or m < 0:
            raise InternalInvariantError(f"multiplicity {m} of "
                                         f"{quiver.label_name(backend, l)} is not a "
                                         f"non-negative integer")
        out.extend([l] * int(m))
    return quiver.make_class(backend, out)


def _is_nilpotent(mat, d, q):
    K = field(q)
    vecs = [bytes(1 if j == i else 0 for j in range(d)) for i in range(d)]
    for _ in range(d):
        vecs = [linalg.matrix_apply(mat, v, K) for v in vecs]
    return not any(any(v) for v in vecs)


# ---------------------------------------------------------------------------
# the survey: per-vertex subspace tuples with arrow pruning

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


def _quiver_survey(backend, target, q):
    K = field(q)  # refuses a q that is not a prime power, on every backend
    rep = realize_class(backend, target, q)
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
            sub_rep = MatrixRep(q, tuple(sub_dims), tuple(sub_mats))
            quot_rep = MatrixRep(q, tuple(quot_dims), tuple(quot_mats))
            hit = (decompose(backend, sub_rep), decompose(backend, quot_rep))
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
        simple = _indec_basis(backend, tuple(int(u == v) for u in range(nv)))[0]
        counts = [sum(1 for _ in linalg.subspaces(dv, k, K)) for k in range(dv + 1)]
        folded = defaultdict(int)
        for (sub, quo), n in cells.items():
            for k in range(dv + 1):
                s2 = quiver.make_class(backend, list(sub) + [simple] * k)
                q2 = quiver.make_class(backend, list(quo) + [simple] * (dv - k))
                folded[(s2, q2)] += n * counts[k]
        cells = folded
    return dict(cells)
