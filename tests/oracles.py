"""Independent brute-force oracles for the tests.

These deliberately avoid the library's decompose/counting pipelines:
indecomposability is tested by enumerating idempotent endomorphisms,
isomorphy by enumerating invertible intertwiners, and subrepresentation
histograms by checking every subspace tuple against every arrow with no
pruning.  Only usable at tiny sizes.

The suite oracles run the `green` and `riedtmann` checks one quadruple
or one cell at a time, with no direct-sum merge: Green's identity through
`coalgebra.green_check` on singleton sets, the blockwise condition by
pairing the cells of every split y1 + y2 of the target.

`class_char_by_stratum` builds 1_[x] through the class's Krull-Schmidt
stratum, enumerated back into its one member, where `class_char` builds
the one-key class map directly.

`minimize_points_by_image` is the p1 canonicalization that keys each
fibre by its image stratum, built with `make_stratum` for every key and
every point tried, where `algebra._minimize_points` keys it by the
key's other families and its core multiplicity.

`p1_values_by_shape` evaluates a one-base p1 family product on every
collision shape of every output stratum, one target per shape, where
`p1._base_product` reads each stratum off its member with every block
at one point.

`lr_coefficient` counts Littlewood-Richardson tableaux, with no Hall
algebra in it: the leading coefficients of the loop Hall polynomials.

`type_a_backend` writes a type-A quiver of any orientation, so that the
type-A routes are checked beyond the built-in linear a2 and a3.

`exact_against_f_q` compares the exact Hall polynomials at q with the
F_q survey `fq_oracle.enumerate_subreps` on every cell of every target of
the given total dimensions: tier-1 runs it to dim 5, CI at dim 6.

`classes_supported` lists the p1 torsion classes supported on a finite
set of points.

`direct_sum` and `zero_element` build the constructible set {[X + Y]}
and the zero function, which the algebra's tests use and no command
does.
"""

from itertools import product as iproduct

from hallforge import algebra as alg
from hallforge import coalgebra as co
from hallforge import linalg, quiver, verify
from hallforge.gf import field
from hallforge.hall import HallEngine
from hallforge.p1sets import P1Set

import fq_oracle
from fq_oracle import MatrixRep


def all_matrices(rows, cols, q):
    if rows == 0 or cols == 0:
        yield tuple(bytes(cols) for _ in range(rows))
        return
    for flat in iproduct(range(q), repeat=rows * cols):
        yield tuple(bytes(flat[r * cols:(r + 1) * cols]) for r in range(rows))


def all_reps(backend, dims, q):
    """Every matrix representation with the given dimension vector."""
    shapes = [(dims[a.tgt], dims[a.src]) for a in backend.arrows]
    for mats in iproduct(*[list(all_matrices(r, c, q)) for r, c in shapes]):
        if backend.kind == quiver.KIND_LOOP:
            if not fq_oracle._is_nilpotent(mats[0], dims[0], q):
                continue
        yield MatrixRep(q, tuple(dims), tuple(mats))


def hom_basis(backend, m, n):
    """Basis of the intertwiner space Hom(m, n) as per-vertex matrix tuples."""
    K = field(m.q)
    nv = max(backend.n_vertices, 1)
    offs, total = [], 0
    for v in range(nv):
        offs.append(total)
        total += m.dims[v] * n.dims[v]
    constraints = []
    for ai, ar in enumerate(backend.arrows):
        s, t = ar.src, ar.tgt
        for i in range(n.dims[t]):
            for j in range(m.dims[s]):
                row = bytearray(total)
                for k in range(m.dims[t]):
                    c = m.mats[ai][k][j]
                    if c:
                        idx = offs[t] + i * m.dims[t] + k
                        row[idx] = K.add[row[idx] * K.q + c]
                for k in range(n.dims[s]):
                    c = n.mats[ai][i][k]
                    if c:
                        idx = offs[s] + k * m.dims[s] + j
                        row[idx] = K.sub[row[idx] * K.q + c]
                if any(row):
                    constraints.append(bytes(row))
    basis, _ = linalg.null_space(constraints, K, total) if total else ((), ())

    def unflatten(vec):
        out = []
        for v in range(nv):
            mat = []
            for i in range(n.dims[v]):
                row = bytes(vec[offs[v] + i * m.dims[v] + k]
                            for k in range(m.dims[v]))
                mat.append(row)
            out.append(tuple(mat))
        return tuple(out)

    return [unflatten(b) for b in basis], K


def all_homs(backend, m, n):
    basis, K = hom_basis(backend, m, n)
    q = K.q
    nv = max(backend.n_vertices, 1)
    if not basis:
        yield tuple(tuple(bytes(m.dims[v]) for _ in range(n.dims[v]))
                    for v in range(nv))
        return
    for coeffs in iproduct(range(q), repeat=len(basis)):
        out = [[bytearray(m.dims[v]) for _ in range(n.dims[v])]
               for v in range(nv)]
        for c, b in zip(coeffs, basis):
            if not c:
                continue
            for v in range(nv):
                for i in range(n.dims[v]):
                    for k in range(m.dims[v]):
                        x = b[v][i][k]
                        if x:
                            out[v][i][k] = K.add[out[v][i][k] * q
                                                 + K.mul[c * q + x]]
        yield tuple(tuple(bytes(r) for r in mat) for mat in out)


def _is_invertible(mat, d, K):
    return len(linalg.row_reduce(list(mat), K)[0]) == d if d else True


def are_isomorphic(backend, m, n):
    if m.dims != n.dims:
        return False
    for phi in all_homs(backend, m, n):
        if all(_is_invertible(phi[v], m.dims[v], field(m.q))
               for v in range(max(backend.n_vertices, 1))):
            return True
    return False


def _compose(phi, psi, dims_mid, K):
    # (psi . phi)_v with phi: m->n, psi: n->p; here endomorphisms only
    q = K.q
    out = []
    for pv, fv in zip(psi, phi):
        rows = []
        for i in range(len(pv)):
            row = bytearray(len(fv[0]) if fv else 0)
            for k in range(len(fv)):
                c = pv[i][k]
                if c:
                    for j in range(len(fv[k])):
                        x = fv[k][j]
                        if x:
                            row[j] = K.add[row[j] * q + K.mul[c * q + x]]
            rows.append(bytes(row))
        out.append(tuple(rows))
    return tuple(out)


def is_indecomposable(backend, rep):
    """No endomorphism idempotent other than 0 and the identity."""
    if not any(rep.dims):
        return False
    K = field(rep.q)
    ident = tuple(tuple(bytes(1 if i == j else 0 for j in range(d))
                        for i in range(d)) for d in rep.dims)
    zero = tuple(tuple(bytes(d) for _ in range(d)) for d in rep.dims)
    for phi in all_homs(backend, rep, rep):
        if _compose(phi, phi, rep.dims, K) == phi and phi not in (ident, zero):
            return False
    return True


def brute_subrep_histogram(backend, target, q, classify):
    """Subrep histogram by unpruned tuple enumeration; `classify` maps a
    MatrixRep to an iso class (pass an independent classifier)."""
    K = field(q)
    rep = fq_oracle.realize_class(backend, target, q)
    nv = max(backend.n_vertices, 1)
    per_vertex = [list(linalg.all_subspaces(rep.dims[v], K)) for v in range(nv)]
    counts = {}
    for chosen in iproduct(*per_vertex):
        ok = True
        for ai, ar in enumerate(backend.arrows):
            rs, _ = chosen[ar.src]
            rt, pt = chosen[ar.tgt]
            for u in rs:
                w = linalg.matrix_apply(rep.mats[ai], u, K)
                if any(linalg.reduce_vector(w, rt, pt, K)):
                    ok = False
                    break
            if not ok:
                break
        if not ok:
            continue
        sub = _restrict(backend, rep, chosen, K)
        quo = _quotient(backend, rep, chosen, K)
        key = (classify(sub), classify(quo))
        counts[key] = counts.get(key, 0) + 1
    return counts


def _restrict(backend, rep, chosen, K):
    nv = max(backend.n_vertices, 1)
    dims = tuple(len(chosen[v][0]) for v in range(nv))
    mats = []
    for ai, ar in enumerate(backend.arrows):
        rs, _ = chosen[ar.src]
        rt, pt = chosen[ar.tgt]
        rows = [bytearray(len(rs)) for _ in range(len(rt))]
        for j, u in enumerate(rs):
            w = linalg.matrix_apply(rep.mats[ai], u, K)
            coords = linalg.coordinates(w, rt, pt, K)
            for i in range(len(rt)):
                rows[i][j] = coords[i]
        mats.append(tuple(bytes(r) for r in rows))
    return MatrixRep(rep.q, dims, tuple(mats))


def _quotient(backend, rep, chosen, K):
    nv = max(backend.n_vertices, 1)
    nps = [[c for c in range(rep.dims[v]) if c not in set(chosen[v][1])]
           for v in range(nv)]
    dims = tuple(len(nps[v]) for v in range(nv))
    mats = []
    for ai, ar in enumerate(backend.arrows):
        s, t = ar.src, ar.tgt
        rt, pt = chosen[t]
        rows = [bytearray(len(nps[s])) for _ in range(len(nps[t]))]
        for j, c in enumerate(nps[s]):
            col = bytes(rep.mats[ai][i][c] for i in range(rep.dims[t]))
            red = linalg.reduce_vector(col, rt, pt, K)
            for i, cc in enumerate(nps[t]):
                rows[i][j] = red[cc]
        mats.append(tuple(bytes(r) for r in rows))
    return MatrixRep(rep.q, dims, tuple(mats))


def classify_by_iso(backend, candidates_by_dim):
    """Classifier comparing against canonical realizations by brute
    isomorphism search.  candidates_by_dim: dim vector -> list of classes."""
    def classify(rep):
        dims = rep.dims
        for cls in candidates_by_dim[dims]:
            other = fq_oracle.realize_class(backend, cls, rep.q)
            if are_isomorphic(backend, rep, other):
                return cls
        raise AssertionError(f"no candidate class for dims {dims}")
    return classify


def class_char_by_stratum(backend, cls):
    """1_[cls] as the characteristic function of the class's stratum."""
    return alg.char_fn(backend, [alg.class_stratum(backend, cls)])


def green_suite(engine, dim):
    """`verify.suite_green`'s checks and counts, one quadruple at a time."""
    backend = engine.backend
    res = verify.SuiteResult("green", True)
    sized = [(c, quiver.class_total_dim(backend, c))
             for c in verify.classes_up_to(backend, dim)]
    quads = bad = 0
    for a, da in sized:
        o1 = alg.singleton_set(backend, a)
        for b, db in sized:
            n = da + db
            if n > dim:
                continue
            o2 = alg.singleton_set(backend, b)
            for alpha, dal in sized:
                if dal > n:
                    continue
                for beta, dbe in sized:
                    if dal + dbe != n:
                        continue
                    rep = co.green_check(engine, o1, o2, alpha, beta)
                    quads += 1
                    if not rep["equal"]:
                        bad += 1
                        res.add(f"green ({quiver.class_name(backend, a)},"
                                f"{quiver.class_name(backend, b)};"
                                f"{quiver.class_name(backend, alpha)},"
                                f"{quiver.class_name(backend, beta)})", False,
                                rep)
    res.add(f"Green identity on singleton quadruples, dim <= {dim}", bad == 0,
            f"{quads} quadruples")
    res.counts = {"quadruples": quads}
    return res


def riedtmann_suite(engine, dim):
    """`verify.suite_riedtmann`'s checks and counts, the blockwise
    condition tested cell by cell."""
    backend = engine.backend
    res = verify.SuiteResult("riedtmann", True)
    classes = verify.classes_up_to(backend, dim)
    checked = nonzero = viol = blockviol = 0
    for x in classes:
        dx = quiver.class_total_dim(backend, x)
        for z in classes:
            if dx + quiver.class_total_dim(backend, z) > dim:
                continue
            for y in engine.candidate_targets(x, z):
                c = engine.euler_constant(x, z, y)
                checked += 1
                if not c:
                    continue
                nonzero += 1
                gy = quiver.summand_count(y)
                gxz = quiver.summand_count(x) + quiver.summand_count(z)
                split = quiver.make_class(backend, list(x) + list(z))
                if gy > gxz or ((gy == gxz) != (y == split)):
                    viol += 1
                    res.add(f"gamma bound at ({quiver.class_name(backend, x)},"
                            f"{quiver.class_name(backend, z)},"
                            f"{quiver.class_name(backend, y)})", False)
                if gy >= 2 and not _splits_blockwise(engine, x, z, y):
                    blockviol += 1
                    res.add(f"blockwise split at ({quiver.class_name(backend, x)},"
                            f"{quiver.class_name(backend, z)},"
                            f"{quiver.class_name(backend, y)})", False)
    res.add(f"summand-count bound and equality case, dim <= {dim}", viol == 0,
            f"{nonzero} nonzero of {checked} cells")
    res.add("blockwise decomposition of nonzero cells", blockviol == 0)
    res.counts = {"cells": checked, "nonzero": nonzero}
    return res


def _splits_blockwise(engine, x, z, y):
    """Each split y1 + y2 of y carries cells (x1, z1) of y1 and (x2, z2)
    of y2 with x1 + x2 = x and z1 + z2 = z."""
    backend = engine.backend
    for y1, y2 in co._class_splits(backend, y):
        if not y1 or not y2:
            continue
        cells2 = engine.cells(y2)
        if not any(quiver.make_class(backend, x1 + x2) == x
                   and quiver.make_class(backend, z1 + z2) == z
                   for x1, z1 in engine.cells(y1) for x2, z2 in cells2):
            return False
    return True


def type_a_classes(backend, dimvec, max_summands):
    """The type-A classes of dimension vector `dimvec` with at most
    `max_summands` summands, by a skip/include walk over the positive
    roots in canonical order: each root is first skipped, then taken once
    more.  The classes come in ascending lexicographic order of their
    multiplicity vectors over `quiver.positive_roots`."""
    roots = [(r, quiver.label_dim(backend, r))
             for r in quiver.positive_roots(backend, dimvec)]
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

    rec(0, tuple(dimvec), max_summands, [])
    return tuple(quiver.make_class(backend, c) for c in out)


def minimize_points_by_image(backend, atom_values):
    """`algebra._minimize_points` with every fibre keyed by its image
    stratum: dropping x from the degree-d point set S_d maps a key to
    the stratum whose degree-d atom at x and degree-d core merge into
    P^1 \\ (S_d - {x}), multiplicities added; x goes when each image
    with m copies of that core has m + 1 preimages of one value."""
    if backend.kind != quiver.KIND_P1:
        return atom_values
    values = atom_values
    points = {}
    for s in values:
        for f, _ in s:
            if f.kind == "points":
                points.setdefault(f.degree, set()).update(f.base.points)
    for d in sorted(points):
        for x in sorted(points[d]):
            rest = points[d] - {x}
            core = alg.IndecFamily.of_points(d, P1Set.cofinite_of(rest))
            fibres = {}
            for s, v in values.items():
                parts, m = [], 0
                for f, k in s:
                    if f.kind == "points" and f.degree == d \
                            and (f.base.cofinite or x in f.base.points):
                        m += k
                    else:
                        parts.append((f, k))
                image = alg.make_stratum(backend, parts + [(core, m)])
                fibres.setdefault(image, (m, []))[1].append(v)
            if all(len(vs) == m + 1 and len(set(vs)) == 1
                   for m, vs in fibres.values()):
                values = {image: vs[0] for image, (_, vs) in fibres.items()}
                points[d] = rest
    return values


def p1_values_by_shape(engine, degs_a, degs_b, npoints):
    """{(degree, mult) tuple: {collision shape: value}} of the one-base
    family product with block degrees degs_a, degs_b (lists in descending
    order) on a base of npoints points (None: cofinite).  A collision
    shape is a multiset of local partitions, one per occupied point, of
    total degree sum(degs_a) + sum(degs_b), with at most
    len(degs_a) + len(degs_b) blocks and at most npoints occupied points.
    Each value is read off one target of its shape, points named p0,
    p1, ...: the sum of its cells whose sub blocks have the degrees
    degs_a and whose quotient blocks have the degrees degs_b.  Zeros are
    kept, so every stratum lists all of its shapes."""
    total, gmax = sum(degs_a) + sum(degs_b), len(degs_a) + len(degs_b)
    shapes = set()

    def rec(remaining, budget, largest, acc):
        if remaining == 0:
            shapes.add(tuple(acc))
        elif budget and (npoints is None or len(acc) < npoints):
            for local in range(remaining, 0, -1):
                for part in quiver.partitions(local, budget):
                    if largest is None or part <= largest:
                        rec(remaining - local, budget - len(part), part, acc + [part])

    rec(total, gmax, None, [])
    out = {}
    for shape in shapes:
        y = quiver.make_class(engine.backend, [("t", f"p{i}", d)
                                               for i, part in enumerate(shape)
                                               for d in part])
        value = sum(c for (sub, quot), c in engine.cells(y).items()
                    if sorted((l[2] for l in sub), reverse=True) == degs_a
                    and sorted((l[2] for l in quot), reverse=True) == degs_b)
        degrees = sorted((d for part in shape for d in part), reverse=True)
        degmults = tuple((d, degrees.count(d)) for d in sorted(set(degrees), reverse=True))
        out.setdefault(degmults, {})[shape] = value
    return out


def lr_coefficient(lam, mu, nu):
    """c^lam_{mu,nu}: the number of semistandard fillings of the skew shape
    lam/mu with content nu whose reading word (rows from the top, each
    right to left) is a lattice word."""
    if sum(lam) != sum(mu) + sum(nu) or len(mu) > len(lam) \
            or any(m > l for m, l in zip(mu, lam)):
        return 0
    mu = tuple(mu) + (0,) * (len(lam) - len(mu))
    cells = [(r, c) for r in range(len(lam))
             for c in range(lam[r] - 1, mu[r] - 1, -1)]
    filling, used = {}, [0] * len(nu)

    def rec(i):
        if i == len(cells):
            return 1
        r, c = cells[i]
        total = 0
        for v in range(len(nu)):
            if used[v] == nu[v] or (v and used[v] == used[v - 1]):
                continue  # content, or the lattice condition
            if filling.get((r, c + 1), v) < v or filling.get((r - 1, c), -1) >= v:
                continue  # rows weakly increase, columns strictly
            filling[r, c] = v
            used[v] += 1
            total += rec(i + 1)
            used[v] -= 1
            del filling[r, c]
        return total

    return rec(0)


def type_a_backend(orientation):
    """The type-A quiver on vertices 1 .. n+1 whose edge (v, v+1) points
    right at a '>' of `orientation` and left at a '<': "><>" is the
    zigzag 1 -> 2 <- 3 -> 4, and "><" the middle-sink a3."""
    arrows = [{"id": f"a{v}", "src": str(v + (c == "<")), "tgt": str(v + (c == ">"))}
              for v, c in enumerate(orientation, 1)]
    return quiver.backend_from_json({
        "name": "A" + orientation, "kind": "dynkin-quiver",
        "vertices": [str(v) for v in range(1, len(orientation) + 2)], "arrows": arrows})


def exact_cells(engine, target):
    """{(sub, quot): Hall polynomial} of a target, each sub and quotient
    over `classes_with_dim` of every split of its dimension vector."""
    backend = engine.backend
    dt = quiver.class_dim(backend, target)
    polys = {}
    for vec in iproduct(*(range(d + 1) for d in dt)):
        rest = tuple(d - k for d, k in zip(dt, vec))
        for sub in quiver.classes_with_dim(backend, vec, sum(vec)):
            for quot in quiver.classes_with_dim(backend, rest, sum(rest)):
                polys[sub, quot] = engine.hall_polynomial(sub, quot, target)
    return polys


def exact_against_f_q(backend, dims, qs):
    """Asserts, at each q in `qs` and for every target whose total
    dimension is in `dims`, that the nonzero `exact_cells` at q are the
    F_q survey's histogram.  Returns the number of (target, q) pairs
    checked."""
    engine = HallEngine(backend, quiver.Bounds(max_dim=max(dims)))
    checked = 0
    for target in verify.classes_up_to(backend, max(dims)):
        if quiver.class_total_dim(backend, target) not in dims:
            continue
        polys = exact_cells(engine, target)
        for q in qs:
            exact = {cell: n for cell, p in polys.items() if (n := p.evaluate(q))}
            assert exact == fq_oracle.enumerate_subreps(backend, target, q, engine.bounds), \
                (quiver.class_name(backend, target), q)
            checked += 1
    return checked


def classes_supported(backend, points, total_degree, max_summands):
    """Torsion classes with support inside `points`, the given total
    degree, and at most max_summands blocks."""
    points = sorted(points)
    out = []

    def rec(i, remaining, budget, acc):
        if i == len(points):
            if remaining == 0:
                out.append(quiver.make_class(backend, acc))
            return
        for local in range(remaining, -1, -1):
            for part in quiver.partitions(local, budget):
                rec(i + 1, remaining - local, budget - len(part),
                    acc + [("t", points[i], p) for p in part])

    rec(0, total_degree, max_summands, [])
    return out


def direct_sum(backend, a, b):
    """Pointwise direct sum {[X + Y]} of two constructible sets, in
    stratified Krull-Schmidt form."""
    fams = [f for s in list(a.strata) + list(b.strata) for f, _ in s]
    atom_of = alg.refine_families(backend, fams)
    out = set()
    for sa in a.strata:
        for sb in b.strata:
            for ra in alg._distribute(backend, sa, atom_of):
                for rb in alg._distribute(backend, sb, atom_of):
                    out.add(alg.make_stratum(backend, list(ra) + list(rb)))
    return alg.ConstructibleSet(tuple(sorted(out, key=lambda s: alg._stratum_key(backend, s))))


def zero_element(backend):
    return alg.CFElement(backend, {})
