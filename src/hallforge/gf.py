"""Exact arithmetic in small finite fields, table based.

Elements of F_q are ints 0..q-1.  For q = p^k the base-p digits of an
element are the coefficients of its residue polynomial (little-endian).
All four operations are flat byte tables indexed a*q+b so the counting
kernels can run Gaussian elimination without object overhead.
"""

from functools import lru_cache

from .errors import CapabilityError

# Fixed residue polynomials (ascending coefficients, monic) for the prime
# powers we table.  Any irreducible choice gives the same field up to
# isomorphism; pinning them keeps the tables reproducible.
_REDUCERS = {
    4: (1, 1, 1),
    8: (1, 1, 0, 1),
    9: (1, 0, 1),
    16: (1, 1, 0, 0, 1),
    25: (2, 0, 1),
    27: (1, 2, 0, 1),
    32: (1, 0, 1, 0, 0, 1),
    49: (1, 0, 1),
}


def factor_prime_power(q):
    """Return (p, k) with q = p^k, or None if q is not a prime power."""
    if q < 2:
        return None
    for p in range(2, q + 1):
        if p * p > q and p != q:
            break
        if q % p:
            continue
        k, m = 0, q
        while m % p == 0:
            m //= p
            k += 1
        return (p, k) if m == 1 else None
    return (q, 1)


def _digits(n, p, k):
    out = []
    for _ in range(k):
        out.append(n % p)
        n //= p
    return out


def _undigits(ds, p):
    n = 0
    for d in reversed(ds):
        n = n * p + d
    return n


def _poly_mul_mod(a, b, reducer, p, k):
    prod = [0] * (2 * k - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    for i in range(len(prod) - 1, k - 1, -1):
        c = prod[i]
        if c:
            prod[i] = 0
            for j, rj in enumerate(reducer[:-1]):
                prod[i - k + j] = (prod[i - k + j] - c * rj) % p
    return prod[:k]


class GF:
    """A tabled finite field F_q."""

    __slots__ = ("q", "p", "deg", "add", "sub", "mul", "neg", "inv")

    def __init__(self, q):
        pk = factor_prime_power(q)
        if pk is None:
            raise CapabilityError(f"{q} is not a prime power")
        p, k = pk
        if k > 1 and q not in _REDUCERS:
            raise CapabilityError(f"no tabled residue polynomial for q={q}")
        self.q, self.p, self.deg = q, p, k
        add = bytearray(q * q)
        sub = bytearray(q * q)
        mul = bytearray(q * q)
        neg = bytearray(q)
        inv = bytearray(q)
        reducer = _REDUCERS.get(q)  # None at k = 1, where nothing is reduced
        digs = [_digits(n, p, k) for n in range(q)]
        for a in range(q):
            da = digs[a]
            neg[a] = _undigits([(-x) % p for x in da], p)
            for b in range(q):
                db = digs[b]
                add[a * q + b] = _undigits(
                    [(x + y) % p for x, y in zip(da, db)], p)
                sub[a * q + b] = _undigits(
                    [(x - y) % p for x, y in zip(da, db)], p)
                mul[a * q + b] = _undigits(
                    _poly_mul_mod(da, db, reducer, p, k), p)
        for a in range(1, q):
            for b in range(1, q):
                if mul[a * q + b] == 1:
                    inv[a] = b
                    break
            else:
                raise AssertionError("non-invertible nonzero element")
        self.add = bytes(add)
        self.sub = bytes(sub)
        self.mul = bytes(mul)
        self.neg = bytes(neg)
        self.inv = bytes(inv)


@lru_cache(maxsize=None)
def field(q):
    return GF(q)
