"""Splitting comultiplication, counit, and the compatibility checks.

A tensor element is a zero-free map from (left key, right key) pairs to
exact values, keys and values as in `algebra`.  On the quiver
backends the map is canonical.  On p1 it is not: no point minimization
runs on pairs, so the tensor product and comparison first refine both
maps' legs to common atoms (`algebra._common_atoms` with `pairs`), which
is the identity on classes.  Delta(1_[Y]) puts coefficient 1 on every
pair ([A], [B]) with A + B = Y (`key_splits`).  Output derives the
stratified form.

Green's identity at q = 1 equates the structure constant of a split
target with the sum over compatible splittings of the operands;
`green_check` reads both sides off `HallEngine.cells` for any operand sets.
"""

from collections import Counter
from itertools import product as iproduct

from . import algebra as alg
from . import quiver


class TensorElement(quiver.ReadOnly):
    """Exact combination of product-set characteristic functions on
    pairs of classes: a zero-free map from key pairs to values, read-only."""
    __slots__ = ("backend", "values")  # values: (left key, right key) -> int or Fraction
    __hash__ = None  # values is a dict

    def __init__(self, backend, values):
        object.__setattr__(self, "backend", backend)
        object.__setattr__(self, "values", values)

    @property
    def terms(self):
        """The stratified form (((left set, right set), value), ...), one
        single-stratum set per leg, ordered by (left summand count, right
        summand count, coefficient), then by the legs' stratum keys."""
        b = self.backend

        def order(item):
            (sl, sr), v = item
            return (alg.stratum_gamma(sl), alg.stratum_gamma(sr), v.numerator,
                    v.denominator, alg._stratum_key(b, sl), alg._stratum_key(b, sr))
        pairs = [((alg.key_stratum(b, kl), alg.key_stratum(b, kr)), v)
                 for (kl, kr), v in self.values.items()]
        return tuple(((alg.ConstructibleSet((sl,)), alg.ConstructibleSet((sr,))), v)
                     for (sl, sr), v in sorted(pairs, key=order))


def tensor_from_values(backend, values):
    """The tensor element with the given (left key, right key) values."""
    return TensorElement(backend, {k: v for k, v in values.items() if v})


def tensor_equal(backend, s, t):
    return tensor_first_difference(backend, s, t) is None


def tensor_first_difference(backend, s, t):
    """None if s == t, else the first differing (left, right) stratum pair
    in canonical order, with both coefficients."""
    ms, mt = alg._common_atoms(backend, [s.values, t.values], pairs=True)
    if ms == mt:
        return None
    k = min((p for p in ms.keys() | mt.keys() if ms.get(p, 0) != mt.get(p, 0)),
            key=lambda p: (alg.key_order(backend, p[0]), alg.key_order(backend, p[1])))
    left, right = (alg.ConstructibleSet((alg.key_stratum(backend, x),)) for x in k)
    return {"left_stratum": alg.set_to_json(backend, left),
            "right_stratum": alg.set_to_json(backend, right),
            "lhs": str(ms.get(k, 0)), "rhs": str(mt.get(k, 0))}


# ---------------------------------------------------------------------------

def comultiply(backend, f):
    """Delta(f): every split of a key over the two tensor legs
    (`key_splits`), coefficient 1 per split."""
    alg._check_same(backend, f)
    pair_values = {}
    for k, v in f.values.items():
        for pair in key_splits(backend, k):
            pair_values[pair] = pair_values.get(pair, 0) + v
    return tensor_from_values(backend, pair_values)


def key_splits(backend, key):
    """All ordered pairs of keys that add up to `key`: each part of the key
    puts k of its m copies on the left and m - k on the right, and the
    legs join the parts in the key's own order, so both are keys as built.
    A class part is a label, repeated k times; a p1 stratum part is a
    family, kept as (family, k) and dropped where k is 0."""
    if backend.kind == quiver.KIND_P1:
        parts, leg = key, lambda f, k: ((f, k),) if k else ()
    else:
        parts, leg = Counter(key).items(), lambda l, k: (l,) * k
    options = [[(leg(p, k), leg(p, m - k)) for k in range(m + 1)] for p, m in parts]
    for combo in iproduct(*options):
        left = right = ()
        for a, b in combo:
            left += a
            right += b
        yield left, right


def counit(f):
    """f([0])."""
    return alg.evaluate(f, quiver.ZERO_CLASS)


def counit_contract(backend, t, side):
    """(eps x id) or (id x eps) applied to a tensor element."""
    values = {}
    for (kl, kr), v in t.values.items():
        probe, keep = (kl, kr) if side == "left" else (kr, kl)
        if not probe:  # the zero class, or on p1 the empty stratum
            values[keep] = values.get(keep, 0) + v
    return alg.from_values(backend, values)


def tensor_swap(backend, t):
    return TensorElement(backend, {(r, l): v for (l, r), v in t.values.items()})


def tensor_convolve(engine, s, t):
    """Componentwise product (f1 x g1)*(f2 x g2) = (f1*f2) x (g1*g2), leg
    by leg through `engine.product` over the operands' common refinement."""
    backend = engine.backend
    ms, mt = alg._common_atoms(backend, [s.values, t.values], pairs=True)
    out = {}
    for (al, ar), u in ms.items():
        for (bl, br), w in mt.items():
            right = engine.product(ar, br)
            for kl, vl in engine.product(al, bl):
                c = u * w * vl
                for kr, vr in right:
                    k = (kl, kr)
                    out[k] = out.get(k, 0) + c * vr
    return tensor_from_values(backend, out)


# ---------------------------------------------------------------------------
# Green's identity at q = 1

def green_check(engine, o1, o2, alpha_p, beta_p):
    """Degenerate Green's identity for the split target alpha' + beta'.

    Both sides are read off `engine.cells`: the lhs sums the cells (s, t)
    of alpha' + beta' with s in o1 and t in o2; the rhs sums c1 * c2 over
    the cells (rho, eps) of alpha' and (sigma, tau) of beta' with
    rho + sigma in o1 and eps + tau in o2.  On singletons the rhs is a
    cell of `hall.merge_cells`, which the `green` suite compares once per
    split target; the independent check of the constants is `routes`.

    Convention: euler_constant(X, Z, Y) is the coefficient of the
    conflation with subobject class X and quotient class Z, i.e. the value
    of 1_{[X]} * 1_{[Z]} at [Y].  In subscripted notation that makes the
    identity read g^{a+b}_{o2 o1} = sum g^a_{eps rho} g^b_{tau sigma} with
    the quotient-side class named first; the report states this.
    """
    backend = engine.backend
    target = quiver.make_class(backend, list(alpha_p) + list(beta_p))
    lhs = sum(c for (s, t), c in engine.cells(target).items()
              if o1.contains(s) and o2.contains(t))
    cells_b = engine.cells(beta_p).items()
    rhs = sum(c1 * c2 for (rho, eps), c1 in engine.cells(alpha_p).items()
              for (sigma, tau), c2 in cells_b
              if o1.contains(rho + sigma) and o2.contains(eps + tau))
    return {
        "lhs": str(lhs),
        "rhs": str(rhs),
        "equal": lhs == rhs,
        "alpha": quiver.class_name(backend, alpha_p),
        "beta": quiver.class_name(backend, beta_p),
        "convention": "first factor of the product is the subobject side; "
                      "g^a_{eps rho} = euler_constant(rho, eps, a)",
    }


def bialgebra_check(engine, f, g):
    """Delta(f*g) == Delta(f)*Delta(g), with a witness on failure."""
    backend = engine.backend
    prod = alg.convolve(engine, f, g)
    lhs = comultiply(backend, prod)
    rhs = tensor_convolve(engine, comultiply(backend, f), comultiply(backend, g))
    witness = tensor_first_difference(backend, lhs, rhs)
    if witness is None:
        return {"equal": True}
    return {"equal": False, "witness": witness}
