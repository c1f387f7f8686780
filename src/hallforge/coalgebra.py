"""Splitting comultiplication, counit, and the compatibility checks.

Delta on a Krull-Schmidt stratum distributes the multiplicity of each
family over the two tensor legs; the coefficient of a split is always 1,
and a pair ([A], [B]) carries a nonzero coefficient only when A + B lies
in the set.  Green's identity at q = 1 equates the structure constant of
a split target with the sum over compatible splittings of the operands;
`green_check` reads both sides off `HallEngine.cells`.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iproduct

from . import algebra as alg
from . import quiver


@dataclass(frozen=True)
class TensorElement:
    """Canonical rational combination of product-set characteristic
    functions on pairs of classes."""
    backend: quiver.Backend
    terms: tuple  # (((ConstructibleSet, ConstructibleSet), Fraction), ...)

    def is_zero(self):
        return not self.terms


def _pair_canonical(backend, pair_values):
    pair_values = {k: v for k, v in pair_values.items() if v}
    groups = {}
    for (sl, sr), v in pair_values.items():
        key = (alg.stratum_gamma(sl), alg.stratum_gamma(sr), v)
        groups.setdefault(key, []).append((sl, sr))
    terms = []
    for (gl, gr, v), pairs in sorted(
            groups.items(),
            key=lambda kv: (kv[0][0], kv[0][1], kv[0][2].numerator,
                            kv[0][2].denominator)):
        pairs = sorted(pairs, key=lambda p: (alg._stratum_key(backend, p[0]),
                                             alg._stratum_key(backend, p[1])))
        # keep one product set per (left stratum, right stratum) pair
        for sl, sr in pairs:
            terms.append(((alg.ConstructibleSet((sl,)),
                           alg.ConstructibleSet((sr,))), v))
    return TensorElement(backend, tuple(terms))


def _pair_atom_map(backend, t):
    out = {}
    for (cl, cr), v in t.terms:
        for sl in cl.strata:
            for sr in cr.strata:
                k = (sl, sr)
                out[k] = out.get(k, Fraction(0)) + v
    return out


def _pair_common(backend, maps):
    fams = [f for m in maps for (sl, sr) in m for s in (sl, sr) for f, _ in s]
    _, atom_of = alg.refine_families(backend, fams)
    outs = []
    for m in maps:
        acc = {}
        for (sl, sr), v in m.items():
            for a in alg._distribute(backend, sl, atom_of):
                for b in alg._distribute(backend, sr, atom_of):
                    acc[(a, b)] = acc.get((a, b), Fraction(0)) + v
        outs.append({k: v for k, v in acc.items() if v})
    return outs


def tensor_equal(backend, s, t):
    return tensor_first_difference(backend, s, t) is None


def tensor_first_difference(backend, s, t):
    """None if s == t, else the first differing (left, right) stratum pair
    in canonical order, with both coefficients."""
    ms, mt = _pair_common(backend, [_pair_atom_map(backend, s),
                                    _pair_atom_map(backend, t)])
    diff = [k for k in set(ms) | set(mt)
            if ms.get(k, Fraction(0)) != mt.get(k, Fraction(0))]
    if not diff:
        return None
    k = min(diff, key=lambda k: (alg._stratum_key(backend, k[0]),
                                 alg._stratum_key(backend, k[1])))
    return {"left_stratum": alg.set_to_json(backend, alg.ConstructibleSet((k[0],))),
            "right_stratum": alg.set_to_json(backend, alg.ConstructibleSet((k[1],))),
            "lhs": str(ms.get(k, Fraction(0))), "rhs": str(mt.get(k, Fraction(0)))}


# ---------------------------------------------------------------------------

def comultiply(backend, f):
    """Delta(f): distribute each stratum's family multiplicities over the
    two tensor legs, coefficient 1 per split."""
    alg._check_same(backend, f)
    pair_values = {}
    for s, v in alg._atom_map(backend, f).items():
        fams = list(s)
        ranges = [range(m + 1) for _, m in fams]
        for ks in iproduct(*ranges):
            left = alg.make_stratum(backend, [(fam, k)
                                              for (fam, _), k in zip(fams, ks)])
            right = alg.make_stratum(backend, [(fam, m - k)
                                               for (fam, m), k in zip(fams, ks)])
            key = (left, right)
            pair_values[key] = pair_values.get(key, Fraction(0)) + v
    return _pair_canonical(backend, pair_values)


def counit(f):
    """f([0])."""
    return alg.evaluate(f, quiver.ZERO_CLASS)


def counit_contract(backend, t, side):
    """(eps x id) or (id x eps) applied to a tensor element."""
    values = {}
    for (sl, sr), v in _pair_atom_map(backend, t).items():
        probe, keep = (sl, sr) if side == "left" else (sr, sl)
        if not probe:  # only the empty stratum contains the zero class
            values[keep] = values.get(keep, Fraction(0)) + v
    return alg._canonical(backend, values)


def tensor_swap(backend, t):
    out = {}
    for (sl, sr), v in _pair_atom_map(backend, t).items():
        out[(sr, sl)] = out.get((sr, sl), Fraction(0)) + v
    return _pair_canonical(backend, out)


def tensor_convolve(engine, s, t):
    """Componentwise product (f1 x g1)*(f2 x g2) = (f1*f2) x (g1*g2)."""
    backend = engine.backend
    products = {}  # (leg of s, leg of t) -> atom map of their product

    def leg_product(a, b):
        hit = products.get((a, b))
        if hit is None:
            hit = products[(a, b)] = alg._atom_map(backend, alg.convolve(
                engine, alg.char_fn(backend, a.strata),
                alg.char_fn(backend, b.strata)))
        return hit

    out = {}
    for (al, ar), u in s.terms:
        for (bl, br), w in t.terms:
            left = leg_product(al, bl)
            right = leg_product(ar, br)
            c = u * w
            for sl, vl in left.items():
                for sr, vr in right.items():
                    k = (sl, sr)
                    out[k] = out.get(k, Fraction(0)) + c * vl * vr
    return _pair_canonical(backend, out)


# ---------------------------------------------------------------------------
# Green's identity at q = 1

def _class_splits(backend, cls):
    """All ordered pairs (a, b) of classes with a + b = cls."""
    counts = {}
    for l in cls:
        counts[l] = counts.get(l, 0) + 1
    labels = sorted(counts, key=lambda l: quiver.label_key(backend, l))
    ranges = [range(counts[l] + 1) for l in labels]
    for ks in iproduct(*ranges):
        a = []
        b = []
        for l, k in zip(labels, ks):
            a.extend([l] * k)
            b.extend([l] * (counts[l] - k))
        yield quiver.make_class(backend, a), quiver.make_class(backend, b)


def green_check(engine, o1, o2, alpha_p, beta_p):
    """Degenerate Green's identity for the split target alpha' + beta'.

    Both sides are read off `engine.cells`: the lhs sums the cells (s, t)
    of alpha' + beta' with s in o1 and t in o2; the rhs sums c1 * c2 over
    the cells (rho, eps) of alpha' and (sigma, tau) of beta' with
    rho + sigma in o1 and eps + tau in o2.  At q = 1 this checks the
    direct-sum merge in `cells` against the splittings of the operands;
    the independent cross-check of the constants is the `routes` suite.

    Convention: euler_constant(X, Z, Y) is the coefficient of the
    conflation with subobject class X and quotient class Z, i.e. the value
    of 1_{[X]} * 1_{[Z]} at [Y].  In subscripted notation that makes the
    identity read g^{a+b}_{o2 o1} = sum g^a_{eps rho} g^b_{tau sigma} with
    the quotient-side class named first; the report states this.
    """
    backend = engine.backend
    target = quiver.make_class(backend, list(alpha_p) + list(beta_p))
    lhs = Fraction(0)
    for (s, t), c in engine.cells(target).items():
        if o1.contains(s) and o2.contains(t):
            lhs += c
    rhs = Fraction(0)
    cells_b = engine.cells(beta_p).items()
    for (rho, eps), c1 in engine.cells(alpha_p).items():
        for (sigma, tau), c2 in cells_b:
            if o1.contains(rho + sigma) and o2.contains(eps + tau):
                rhs += c1 * c2
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
