"""Hall polynomials, exact in Z[q] (`hall_polynomial`), on every backend:
Green's theorem on type A (`green`), Macdonald's closed form on loop, and
its product over support points on p1.  Their tables go in the engine's
`_tables`, loop products by (mu, nu) and Green tables by target, so none
outlives its engine or serves another backend definition.

On loop, a class is a partition (its Jordan block sizes), and the loop
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

The tests check these polynomials against real point counts over F_q
with their own oracle (`tests/fq_oracle.py`, `enumerate_subreps`), which
no library process compiles.  `Bounds` is `quiver.Bounds`, whose
`max_q` still bounds that oracle's field size.
"""

from collections import Counter, defaultdict
from functools import lru_cache
from itertools import combinations, zip_longest

from . import quiver
from .errors import InternalInvariantError
from .gf import field  # noqa: F401  perfbench/test_perfbench.py pins counting.field

Bounds, DEFAULT_BOUNDS = quiver.Bounds, quiver.DEFAULT_BOUNDS  # the same objects


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
# one cell's Hall polynomial, on every backend; Green's theorem on type A

def hall_polynomial(engine, sub, quot, target):
    """The counting polynomial of the (sub, quot) cell of `target`, as
    coefficients, exact in Z[q]: on type A read off the target's Green
    table (`green`); on loop and p1 the product over support points (a
    label's `l[1:-1]`, none on loop) of the loop polynomials of the blocks
    there, zero if a factor is."""
    b = engine.backend
    quiver.class_total_dim(b, sub + quot)  # refuses a line bundle or a foreign label
    engine.bounds.check_dim(quiver.class_total_dim(b, target))
    if b.kind == quiver.KIND_DYNKIN:
        return green(engine, target).get((sub, quot), (0,))
    coeffs = (1,)
    for x in {l[1:-1] for cls in (sub, quot, target) for l in cls}:
        mu, nu, lam = (_partition([l for l in cls if l[1:-1] == x])
                       for cls in (sub, quot, target))
        p = _loop_product(mu, nu, engine._tables).get(lam)
        if p is None:
            return (0,)
        coeffs = poly_mul(coeffs, p)
    return coeffs


def green(engine, target):
    """{(sub, quot): coefficients} over the nonzero cells of a type-A
    target, memoized in the engine's `_tables` by target.  An
    indecomposable is thin (and 0 has one cell): each cell counts one
    subobject at every q.  Otherwise Green's theorem (J. A. Green, Invent.
    Math. 120, 1995, in C. M. Ringel's form) splits off the first summand M
    with Ext^1(M, k) = 0 for every summand k, so that E = M + N is the only
    extension of M by the rest N, and

        F^E_{X,Y} = q^hom(M,N) / (a_X a_Y) * sum over A, B, C, D of
            q^-<A,D> F^M_{A,B} F^N_{C,D} F^X_{A,C} F^Y_{B,D} a_A a_B a_C a_D

    where F^E_{X,Y} is cell (Y, X), X and Y range over
    `engine.candidate_targets` and a_X = |Aut X| (`_aut`).  X = 0 or Y = 0
    gives the cell (0, E) or (E, 0), which is 1: every other X and Y is
    smaller than E."""
    tables = engine._tables
    hit = tables.get(target)
    if hit is not None:
        return hit
    b = engine.backend
    if len(target) < 2:  # zero or indecomposable
        return tables.setdefault(target, dict.fromkeys(engine.cells(target), (1,)))
    dim = lambda c: quiver.class_dim(b, c)
    i = next(i for i, l in enumerate(target) if all(
        _hom(b, l, k) == _euler(b, dim((l,)), dim((k,))) for k in target))
    m, n = target[i], target[:i] + target[i + 1:]
    auts = {}
    aut = lambda c: auts.get(c) or auts.setdefault(c, _aut(b, c))
    acc = defaultdict(Counter)  # (Y, X) -> {power of q: coefficient}
    for (bb, aa), fm in green(engine, (m,)).items():
        for (dd, cc), fn in green(engine, n).items():
            if not (aa or cc) or not (bb or dd):
                continue  # X = 0 or Y = 0
            e, base = -_euler(b, dim(aa), dim(dd)), poly_mul(fm, fn)
            for c in (aa, bb, cc, dd):
                e_c, p_c = aut(c)
                e, base = e + e_c, poly_mul(base, p_c)
            xs = [(x, f) for x in engine.candidate_targets(cc, aa)
                  if (f := green(engine, x).get((cc, aa)))]
            ys = [(y, f) for y in engine.candidate_targets(dd, bb)
                  if (f := green(engine, y).get((dd, bb)))]
            for x, fx in xs:
                bx = poly_mul(base, fx)
                for y, fy in ys:
                    cell = acc[y, x]
                    for k, c in enumerate(poly_mul(bx, fy), e):
                        cell[k] += c
    hom_mn = sum(_hom(b, m, k) for k in n)
    out = {((), target): (1,), (target, ()): (1,)}
    for (y, x), cell in acc.items():
        powers = [k for k, c in cell.items() if c]
        lo = min(powers)
        (ex, px), (ey, py) = aut(x), aut(y)
        shift = hom_mn - ex - ey + lo
        if shift < 0:
            raise InternalInvariantError(
                f"q^{shift} in the Green cell ({quiver.class_name(b, y)}, "
                f"{quiver.class_name(b, x)}) of {quiver.class_name(b, target)}")
        num = tuple(cell[k] for k in range(lo, max(powers) + 1))
        out[y, x] = (0,) * shift + _poly_divexact(num, poly_mul(px, py))
    tables[target] = out
    return out


def _hom(backend, i, j):
    """dim Hom(M_i, M_j) of two interval modules: 1 when C = i & j is
    nonempty, no arrow goes from i - C into C (C is a quotient of M_i) and
    none from C into j - C (C is a submodule of M_j), else 0."""
    c = range(max(i[1], j[1]), min(i[2], j[2]) + 1)
    return int(bool(c) and not any(
        (ar.tgt in c and ar.src not in c and i[1] <= ar.src <= i[2])
        or (ar.src in c and ar.tgt not in c and j[1] <= ar.tgt <= j[2])
        for ar in backend.arrows))


def _euler(backend, x, y):
    """The Euler form <x, y> = dim Hom - dim Ext^1 of two dimension vectors."""
    return sum(a * b for a, b in zip(x, y)) \
        - sum(x[ar.src] * y[ar.tgt] for ar in backend.arrows)


def _aut(backend, cls):
    """|Aut X| = q^(dim End X - sum m^2) prod |GL_m(q)| over the summand
    multiplicities m of a type-A class (its indecomposables are bricks),
    as (power of q, polynomial): |GL_m(q)| = q^(m(m-1)/2) prod_{j<=m} (q^j - 1)."""
    power, poly = sum(_hom(backend, k, l) for k in cls for l in cls), (1,)
    for m in Counter(cls).values():
        power -= m * (m + 1) // 2
        for j in range(1, m + 1):
            poly = poly_mul(poly, (-1,) + (0,) * (j - 1) + (1,))
    return power, poly
