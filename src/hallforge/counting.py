"""Polynomials in Z[q] and loop Hall polynomials.

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

Memos belong to the caller, but for the backend-free
`gaussian_binomial`: each `HallEngine` owns a `_surveys` dict, holding
loop products {lam: G^lam_{mu,nu}(q)} by (mu, nu) and the type-A Green
tables of `hall`, so the memo is freed with the engine and never shared
between two backend definitions.  Only the Hall polynomials load this
module.  A p1 target's polynomials are products of loop ones, point by
point.

The tests check these polynomials against real point counts over F_q
with their own oracle (`tests/fq_oracle.py`, `enumerate_subreps`), which
no library process compiles.  `Bounds` is `quiver.Bounds`, whose
`max_q` still bounds that oracle's field size.
"""

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
