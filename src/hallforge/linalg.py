"""Row-space linear algebra over tabled finite fields.

Vectors are `bytes` of field elements; a subspace is a tuple of reduced
row-echelon rows together with its pivot columns.  Everything is exact.
`solve_in_span` is the one exact solver over the rationals (`Fraction`).
"""

from fractions import Fraction
from functools import lru_cache

_EMPTY = ((), ())


def row_reduce(rows, K):
    """Full RREF.  Returns (rows, pivots), rows sorted by pivot column."""
    q, mul, sub, inv = K.q, K.mul, K.sub, K.inv
    work = [bytearray(r) for r in rows if any(r)]
    out, pivots = [], []
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        piv = None
        for r in work:
            if r[col]:
                piv = r
                break
        if piv is None:
            continue
        work.remove(piv)
        c = inv[piv[col]]
        if c != 1:
            piv = bytearray(mul[x * q + c] for x in piv)
        for r in work + out:
            f = r[col]
            if f:
                for j in range(col, ncols):
                    r[j] = sub[r[j] * q + mul[piv[j] * q + f]]
        out.append(piv)
        pivots.append(col)
        work = [r for r in work if any(r)]
        if not work:
            break
    order = sorted(range(len(out)), key=lambda i: pivots[i])
    return tuple(bytes(out[i]) for i in order), tuple(pivots[i] for i in order)


def reduce_vector(v, rows, pivots, K):
    """Eliminate the pivot columns of an RREF basis from v.  Returns bytes."""
    q, mul, sub = K.q, K.mul, K.sub
    w = bytearray(v)
    for r, p in zip(rows, pivots):
        f = w[p]
        if f:
            for j in range(p, len(w)):
                w[j] = sub[w[j] * q + mul[r[j] * q + f]]
    return bytes(w)


def coordinates(v, rows, pivots, K):
    """Coordinates of v in an RREF basis, or None if v is outside it."""
    q, mul, sub = K.q, K.mul, K.sub
    w = bytearray(v)
    coords = []
    for r, p in zip(rows, pivots):
        f = w[p]
        coords.append(f)
        if f:
            for j in range(p, len(w)):
                w[j] = sub[w[j] * q + mul[r[j] * q + f]]
    if any(w):
        return None
    return bytes(coords)


def null_space(rows, K, ncols):
    """RREF basis of {v : sum_j v_j * rows[i][j] = 0 for all i}.

    `rows` are linear constraints on row vectors of length ncols.
    """
    rr, pivots = row_reduce(rows, K) if rows else _EMPTY
    pivset = set(pivots)
    free = [j for j in range(ncols) if j not in pivset]
    q, mul, neg = K.q, K.mul, K.neg
    basis = []
    for f in free:
        v = bytearray(ncols)
        v[f] = 1
        # back-substitute: pivot var p satisfies x_p = -sum_{j>p} r_j x_j
        for r, p in zip(reversed(rr), reversed(pivots)):
            s = 0
            for j in range(p + 1, ncols):
                if v[j] and r[j]:
                    s = K.add[s * q + mul[r[j] * q + v[j]]]
            v[p] = neg[s]
        basis.append(bytes(v))
    return row_reduce(basis, K) if basis else _EMPTY


def matrix_apply(mat_rows, v, K):
    """w = M v for a dense matrix given as row tuples; v, w coordinate bytes."""
    q, mul, add = K.q, K.mul, K.add
    out = bytearray(len(mat_rows))
    for i, row in enumerate(mat_rows):
        s = 0
        for j, m in enumerate(row):
            if m and v[j]:
                s = add[s * q + mul[m * q + v[j]]]
        out[i] = s
    return bytes(out)


@lru_cache(maxsize=None)
def _pivot_patterns(d, k):
    from itertools import combinations
    return tuple(combinations(range(d), k))


def subspaces(d, k, K):
    """Iterate all k-dim subspaces of F_q^d as (rows, pivots) in RREF.

    One canonical basis per subspace: for each pivot pattern, the free
    entries (row i, column j) with j > pivot_i and j not a pivot run over
    all field values.
    """
    if k == 0:
        yield _EMPTY
        return
    q = K.q
    for pivots in _pivot_patterns(d, k):
        pivset = set(pivots)
        slots = [(i, j) for i in range(k) for j in range(pivots[i] + 1, d)
                 if j not in pivset]
        base = []
        for i in range(k):
            row = bytearray(d)
            row[pivots[i]] = 1
            base.append(row)
        n = len(slots)
        vals = [0] * n
        while True:
            yield (tuple(bytes(r) for r in base), pivots)
            i = n - 1
            while i >= 0:
                r, c = slots[i]
                v = vals[i] + 1
                if v < q:
                    vals[i] = v
                    base[r][c] = v
                    break
                vals[i] = 0
                base[r][c] = 0
                i -= 1
            else:
                break


def all_subspaces(d, K):
    for k in range(d + 1):
        yield from subspaces(d, k, K)


def solve_in_span(cols, rhss):
    """Exact solves of (columns)·x = rhs, one per right-hand side, from one
    elimination (its pivots depend on the columns alone and divide as
    `Fraction`s, so int entries give no float).  Returns a (coefficients,
    residual row indices the span cannot reach) per rhs."""
    ncols = len(cols)
    nrows = len(rhss[0])
    aug = [[cols[c][r] for c in range(ncols)] + [rhs[r] for rhs in rhss]
           for r in range(nrows)]
    origin = list(range(nrows))
    pivots = []
    row = 0
    for col in range(ncols):
        piv = next((r for r in range(row, nrows) if aug[r][col]), None)
        if piv is None:
            continue
        aug[row], aug[piv] = aug[piv], aug[row]
        origin[row], origin[piv] = origin[piv], origin[row]
        pv = Fraction(aug[row][col])
        aug[row] = [x / pv for x in aug[row]]
        for r in range(nrows):
            if r != row and aug[r][col]:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[row])]
        pivots.append(col)
        row += 1
    out = []
    for j in range(ncols, ncols + len(rhss)):
        residual = sorted(origin[r] for r in range(row, nrows) if aug[r][j])
        sol = [0] * ncols
        for r, col in enumerate(pivots):
            sol[col] = aug[r][j]
        out.append((None if residual else sol, residual))
    return out
