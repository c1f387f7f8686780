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

Why a value is constant along a base: the torsion category is the direct
sum of its point-supported subcategories, and each one is the same loop
category whatever the point.  A target Y is therefore, up to the name of
its points, just its collision shape (one partition per occupied point),
and every constant of Y is a product of loop constants of those
partitions.  The value on a shape is computed once, read off
`HallEngine.cells` of one representative target of that shape; the
point names it uses are arbitrary, since the value depends on the shape
alone.
"""

import math
from itertools import product as iproduct

from . import algebra as alg
from . import quiver
from .errors import CapabilityError, InternalInvariantError
from .p1sets import P1Set


def families_from_json(entries):
    """{name: family} of the `families` list of a backend file."""
    if not isinstance(entries, list):
        raise ValueError(f"'families' is not a list of family objects: {entries!r}")
    return dict(_family_from_json(data) for data in entries)


def _family_from_json(data):
    """(name, family) of one `families` entry of a backend file; a missing
    key, a name that is not a string, a non-integer degree or a base whose
    points are not a list of names is a ValueError naming family and key."""
    if not isinstance(data, dict):
        raise ValueError(f"family entry {data!r} is not an object")
    name = data.get("name")
    for key in ("name", "base", "degree"):
        if key not in data:
            raise ValueError(f"family {name!r} lacks {key!r}")
    base, degree = data["base"], data["degree"]
    if not isinstance(name, str):
        raise ValueError(f"family name {name!r} is not a string")
    if not isinstance(base, dict) or "kind" not in base:
        raise ValueError(f"family {name!r} lacks 'base.kind'")
    if type(degree) is not int:
        raise ValueError(f"family {name!r} has non-integer degree {degree!r}")
    pts = base.get("points", [])
    if not isinstance(pts, list) or not all(isinstance(x, str) for x in pts):
        raise ValueError(f"family {name!r} has 'base.points' {pts!r}, not a list of names")
    if base["kind"] == "cofinite":
        b = P1Set.cofinite_of(pts)
    elif base["kind"] == "finite":
        b = P1Set.finite(pts)
    else:
        raise ValueError(f"bad base kind {base['kind']!r}")
    if degree < 1:
        raise ValueError(f"family {name!r} has degree below 1")
    return name, alg.IndecFamily.of_points(degree, b)


# ---------------------------------------------------------------------------
# class enumeration helpers

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


# ---------------------------------------------------------------------------
# stratum products

def _stratum_product(engine, sa, sb):
    """1_{sa} * 1_{sb} for two atom strata of one refinement (their bases
    equal or disjoint), as {output stratum: nonzero value}; products with
    a line-bundle family raise CapabilityError.  `HallEngine.product`
    memoizes it, and convolution reads it there.

    The families are grouped by base set, multiplied base by base, and the
    per-base outputs recombined.  A value depends on a member only through
    its collision shape (see the module docstring), and each output
    stratum's value is checked to be the same on all of its collision
    shapes, which is what a stratified form requires."""
    backend = engine.backend
    if any(fam.kind != "points" for fam, _ in sa + sb):
        raise CapabilityError("products involving line bundles are out of scope")
    degs = {}  # base -> (block degrees of sa, of sb), bases in first-seen order
    for side, stratum in enumerate((sa, sb)):
        for fam, m in stratum:
            degs.setdefault(fam.base, ([], []))[side].extend([fam.degree] * m)
    per_base = [_base_product(engine, base, sorted(a, reverse=True),
                              sorted(b, reverse=True)).items()
                for base, (a, b) in degs.items()]
    out = {}
    for combo in iproduct(*per_base):
        stratum = alg.make_stratum(backend, [
            (alg.IndecFamily.of_points(deg, base), mult)
            for base, (degmults, _) in zip(degs, combo) for deg, mult in degmults])
        out[stratum] = out.get(stratum, 0) + math.prod(v for _, v in combo)
    return out


def _base_product(engine, base, degs_a, degs_b):
    """Local product over one base: the block degrees on each side, as
    lists sorted in descending order.

    Returns {(sorted (degree, mult) tuple): value}; values are the Euler
    characteristics of the corresponding conflation cells.  The torsion
    category splits by support point into copies of one loop category, so
    a member is seen only through its collision shape and one evaluation
    per shape covers the whole base.
    """
    memo = engine._p1_base_memo
    key = (base.descriptor(), tuple(degs_a), tuple(degs_b))
    hit = memo.get(key)
    if hit is not None:
        return hit
    engine.bounds.check_dim(total := sum(degs_a) + sum(degs_b))  # before any shape
    gmax = len(degs_a) + len(degs_b)
    npoints = None if base.cofinite else len(base.points)
    # Krull-Schmidt stratification: members of one output stratum that
    # differ only in their point-collision pattern must share the value,
    # zero included (shapes with more points than a finite base has are
    # never generated)
    by_degmults = {}
    for shape in _output_shapes(total, gmax, npoints):
        by_degmults.setdefault(_shape_to_degmults(shape), set()).add(
            _shape_value(engine, degs_a, degs_b, shape))
    out = {}
    for degmults, values in by_degmults.items():
        if len(values) > 1:
            raise InternalInvariantError(
                f"family product is not constant on the stratum "
                f"{degmults}: values {sorted(map(str, values))}")
        if (value := values.pop()):
            out[degmults] = value
    memo[key] = out
    return out


def _output_shapes(total, gmax, npoints):
    """Collision shapes: multisets of local partitions, one per occupied
    point, total degree `total`, at most gmax blocks overall, and at most
    npoints occupied points when the base is finite."""
    shapes = set()

    def rec(remaining, budget, max_partition, acc):
        if remaining == 0:
            shapes.add(tuple(sorted(acc, reverse=True)))
            return
        if budget == 0 or (npoints is not None and len(acc) >= npoints):
            return
        for local in range(remaining, 0, -1):
            for part in quiver.partitions(local, budget):
                if max_partition is None or part <= max_partition:
                    acc.append(part)
                    rec(remaining - local, budget - len(part), part, acc)
                    acc.pop()

    rec(total, gmax, None, [])
    return sorted(shapes, reverse=True)


def _shape_to_degmults(shape):
    """Forget the collision pattern: count blocks by degree."""
    counts = {}
    for part in shape:
        for d in part:
            counts[d] = counts.get(d, 0) + 1
    return tuple(sorted(counts.items(), reverse=True))


def _shape_value(engine, degs_a, degs_b, shape):
    """(1_A * 1_B)([Y]) for Y of the given collision shape (one partition
    per occupied point); A, B are the one-base strata with block degrees
    degs_a, degs_b (sorted in descending order).

    Read off `engine.cells` of one representative Y, its occupied points
    named apart: the sum of the cells whose sub blocks have the degrees
    of A and whose quotient blocks have those of B."""
    y = quiver.make_class(engine.backend, [("t", f"p{i}", d)
                                           for i, part in enumerate(shape)
                                           for d in part])
    return sum(c for (sub, quot), c in engine.cells(y).items()
               if sorted((l[2] for l in sub), reverse=True) == degs_a
               and sorted((l[2] for l in quot), reverse=True) == degs_b)
