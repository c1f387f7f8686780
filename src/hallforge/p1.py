"""Torsion families on the projective line: the tame backend.

An indecomposable torsion sheaf is a pair (support point, degree); the
subcategory supported at one point is equivalent to nilpotent loop-quiver
representations, so every structure constant factors over support points
into loop-backend constants.  Families are degree-d sheaves over a finite
or cofinite base of points.  An element is keyed by atom strata, and the
element loops are `algebra`'s, the same as on the quiver backends: this
module supplies the one product they need, 1_a * 1_b for two atom
strata of one refinement (`_stratum_product`, answered and memoized by
`HallEngine.product`).  It decomposes base by base: cross-base parts
split, same-base parts pick up the one-point loop constants.

Why one member per stratum suffices: the cells of a target are the
direct-sum merge of its blocks' splits (`HallEngine.cells`), and a block
T(x,h) splits as the chain J_h does, into T(x,k) / T(x,h-k).  Neither
step looks at which blocks share a point, so a cell's value depends on
the degrees of the blocks alone, not on their points: this is the q = 1
fact that 1_[J_lambda] goes to the monomial m_lambda (Macdonald,
Symmetric Functions and Hall Polynomials, ch. III, sections 2-3).  Every
member of an output stratum therefore gives the value of its member
with all blocks at one point, which every nonempty base has, and the
name of that point is arbitrary.
"""

import math
from itertools import groupby, product as iproduct

from . import algebra as alg
from . import quiver
from .errors import CapabilityError
from .p1sets import P1Set


def families_from_json(entries):
    """{name: family} of the `families` list of a backend file."""
    if not isinstance(entries, list):
        raise ValueError(f"'families' is not a list of family objects: {entries!r}")
    out = {}
    for name, fam in map(_family_from_json, entries):
        if name in out:
            raise ValueError(f"family {name!r} is declared twice")
        out[name] = fam
    return out


def _family_from_json(data):
    """(name, family) of one `families` entry of a backend file; a missing
    key, a name that is not a string, a non-integer degree or a base whose
    points are not a list of names, or are empty on a finite base, is a
    ValueError naming family and key (`quiver.check_name` names a point
    or a family name that no operand could reach)."""
    if not isinstance(data, dict):
        raise ValueError(f"family entry {data!r} is not an object")
    name = data.get("name")
    for key in ("name", "base", "degree"):
        if key not in data:
            raise ValueError(f"family {name!r} lacks {key!r}")
    base, degree = data["base"], data["degree"]
    if not isinstance(name, str):
        raise ValueError(f"family name {name!r} is not a string")
    quiver.check_name("family", name)
    if not isinstance(base, dict) or "kind" not in base:
        raise ValueError(f"family {name!r} lacks 'base.kind'")
    if type(degree) is not int:
        raise ValueError(f"family {name!r} has non-integer degree {degree!r}")
    pts = base.get("points", [])
    if not isinstance(pts, list) or not all(isinstance(x, str) for x in pts):
        raise ValueError(f"family {name!r} has 'base.points' {pts!r}, not a list of names")
    pts = [quiver.check_name("point", x) for x in pts]
    if base["kind"] == "cofinite":
        b = P1Set.cofinite_of(pts)
    elif base["kind"] == "finite":
        if not pts:
            raise ValueError(f"family {name!r} has 'base.points' [], an empty finite base")
        b = P1Set.finite(pts)
    else:
        raise ValueError(f"family {name!r} has 'base.kind' {base['kind']!r}, "
                         f"not 'finite' or 'cofinite'")
    if degree < 1:
        raise ValueError(f"family {name!r} has degree below 1")
    return name, alg.IndecFamily.of_points(degree, b)


# ---------------------------------------------------------------------------
# stratum products

def _stratum_product(engine, sa, sb):
    """1_{sa} * 1_{sb} for two atom strata of one refinement (their bases
    equal or disjoint), as {output stratum: nonzero value}; products with
    a line-bundle family raise CapabilityError.  `HallEngine.product`
    memoizes it, and convolution reads it there.

    The families are grouped by base set, multiplied base by base, and the
    per-base outputs recombined.  Each output stratum's value is that of
    its member with every block at one point (see the module docstring),
    so it is constant on the stratum, as a stratified form requires."""
    backend = engine.backend
    if any(fam.kind != "points" for fam, _ in sa + sb):
        raise CapabilityError("products involving line bundles are out of scope")
    degs = {}  # base -> (block degrees of sa, of sb), bases in first-seen order
    for side, stratum in enumerate((sa, sb)):
        for fam, m in stratum:
            degs.setdefault(fam.base, ([], []))[side].extend([fam.degree] * m)
    per_base = []  # per base: [((family, mult) parts, value)], each family built once
    for base, (a, b) in degs.items():
        local = _base_product(engine, sorted(a, reverse=True), sorted(b, reverse=True))
        fam = {d: alg.IndecFamily.of_points(d, base) for d in {d for dm in local for d, _ in dm}}
        per_base.append([([(fam[d], m) for d, m in dm], v) for dm, v in local.items()])
    out = {}
    for combo in iproduct(*per_base):
        # the parts are disjoint and distinct: bases differ, or degrees do
        stratum = tuple(sorted((p for parts, _ in combo for p in parts),
                               key=lambda fm: fm[0].descriptor(backend)))
        out[stratum] = out.get(stratum, 0) + math.prod(v for _, v in combo)
    return out


def _base_product(engine, degs_a, degs_b):
    """Local product over one base: the block degrees on each side, as
    lists sorted in descending order.

    Returns {(sorted (degree, mult) tuple): value}; values are the Euler
    characteristics of the corresponding conflation cells.  Each output
    stratum is read off its member with every block at one point, as
    `HallEngine.product` reads a quiver product (see the module
    docstring); the value does not depend on the base.
    """
    memo = engine._p1_base_memo
    key = (tuple(degs_a), tuple(degs_b))
    hit = memo.get(key)
    if hit is not None:
        return hit
    engine.bounds.check_dim(total := sum(degs_a) + sum(degs_b))  # before partitions

    def at_one_point(degs):
        return quiver.make_class(engine.backend, [("t", "p", d) for d in degs])

    cell = (at_one_point(degs_a), at_one_point(degs_b))
    out = {}
    for lam in quiver.partitions(total, len(degs_a) + len(degs_b)):
        if (value := engine.cells(at_one_point(lam)).get(cell)):
            out[tuple((d, len(list(g))) for d, g in groupby(lam))] = value
    memo[key] = out
    return out
