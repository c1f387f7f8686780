"""PBW monomials and the filtered comparison between the enveloping
algebra and the Krull-Schmidt span.

A monomial is an exponent vector over an ordered list of pairwise
disjoint indecomposable families; its image under iterated convolution
has leading term (product of exponent factorials) times the
characteristic function of the corresponding Krull-Schmidt stratum, and
everything else of strictly smaller summand count.  The truncation
certificate checks exactly that, degree by degree, and back-substitutes
to express the stratum functions in monomial images, reporting any
residual correction functions that fall outside the family-generated
span.

Certificates run on the quiver backends, where an element is a class
map: values and coordinates are read off classes.
"""

import math
from fractions import Fraction

from . import algebra as alg
from . import quiver
from .errors import CapabilityError


class PBWMonomial(quiver.ReadOnly):
    """Ordered factors (family, exponent >= 1), families pairwise disjoint."""
    __slots__ = ("factors",)

    def __init__(self, factors):
        object.__setattr__(self, "factors", factors)

    def gamma(self):
        return sum(e for _, e in self.factors)


def make_monomial(backend, factors):
    factors = tuple((f, e) for f, e in factors if e)
    fams = [f for f, _ in factors]
    for i, f in enumerate(fams):
        for g in fams[i + 1:]:
            if not f.is_disjoint(g):
                raise ValueError("monomial families must be pairwise disjoint")
    order = sorted(range(len(factors)),
                   key=lambda i: factors[i][0].descriptor(backend))
    return PBWMonomial(tuple(factors[i] for i in order))


def leading_term(backend, mono):
    """(product of exponent factorials, the stratum sum of the families)."""
    coeff = 1
    for _, e in mono.factors:
        coeff *= math.factorial(e)
    stratum = alg.make_stratum(backend, list(mono.factors))
    return coeff, alg.ConstructibleSet((stratum,))


def monomial_image(engine, mono):
    """Iterated convolution of the factor characteristic functions."""
    backend = engine.backend
    result = alg.unit_element(backend)
    for fam, e in mono.factors:
        f = alg.char_fn(backend, [alg.make_stratum(backend, [(fam, 1)])])
        for _ in range(e):
            result = alg.convolve(engine, result, f)
    return result


def value_on_set(backend, f, cset):
    """Value of f on a constructible set if constant there, else None."""
    _require_quiver(backend)
    values = {f.values.get(cls, 0) for cls in cset.members(backend)}
    return values.pop() if len(values) == 1 else None


def _require_quiver(backend):
    if backend.kind == quiver.KIND_P1:
        raise CapabilityError("PBW certificates run on quiver backends")


class TruncationReport:
    def __init__(self, families, gamma_max, triangular, diagonal_ok,
                 graded_bijective, correction_closed):
        self.families = families
        self.gamma_max = gamma_max
        self.triangular = triangular
        self.diagonal_ok = diagonal_ok
        self.graded_bijective = graded_bijective
        self.correction_closed = correction_closed
        self.blocks = []
        self.back_substitution = []
        self.counterexample = None

    @property
    def passed(self):
        return self.triangular and self.diagonal_ok and self.graded_bijective

    def to_json(self, backend):
        return {
            "families": [alg.family_to_json(backend, f) for f in self.families],
            "gamma_max": self.gamma_max,
            "triangular": self.triangular,
            "diagonal_ok": self.diagonal_ok,
            "graded_bijective": self.graded_bijective,
            "correction_closed": self.correction_closed,
            "blocks": self.blocks,
            "back_substitution": self.back_substitution,
            "counterexample": self.counterexample,
        }


def _exponent_vectors(nfam, total):
    if nfam == 0:
        yield ()
        return
    for first in range(total + 1):
        for rest in _exponent_vectors(nfam - 1, total - first):
            yield (first,) + rest


def certify_truncation(engine, families, gamma_max):
    """Certify the filtered isomorphism on the window spanned by the given
    pairwise-disjoint families up to the given summand-count bound."""
    backend = engine.backend
    _require_quiver(backend)
    families = sorted(families, key=lambda f: f.descriptor(backend))
    monos = {}
    for g in range(gamma_max + 1):
        for e in _exponent_vectors(len(families), g):
            if sum(e) == g:
                monos[e] = make_monomial(
                    backend, [(f, k) for f, k in zip(families, e) if k])

    images = {}
    leadings = {}
    report = TruncationReport(families=families, gamma_max=gamma_max,
                              triangular=True, diagonal_ok=True,
                              graded_bijective=True, correction_closed=True)
    for e, mono in monos.items():
        img = monomial_image(engine, mono)
        coeff, lead_set = leading_term(backend, mono)
        images[e] = img
        leadings[e] = (coeff, lead_set)
        got = value_on_set(backend, img, lead_set)
        if got != coeff:
            report.diagonal_ok = False
            report.counterexample = {
                "monomial": list(e),
                "expected_leading": str(coeff),
                "got": str(got),
            }
        rest = alg.subtract(backend, img, alg.scale(
            backend, alg.char_fn(backend, lead_set.strata), coeff))
        if rest.summand_count() >= mono.gamma() and not rest.is_zero() \
                and mono.gamma() > 0:
            report.triangular = False
            if report.counterexample is None:
                report.counterexample = {
                    "monomial": list(e),
                    "offending_summand_count": rest.summand_count(),
                }

    # graded blocks: matrix of top-degree parts in the stratum basis
    for g in range(gamma_max + 1):
        degree_es = [e for e in monos if sum(e) == g]
        entries = []
        diag = []
        ok = True
        for er in degree_es:
            for ec in degree_es:
                v = value_on_set(backend, images[ec], leadings[er][1]) or 0
                if er == ec:
                    diag.append(str(v))
                    if v != leadings[ec][0]:
                        ok = False
                elif v:
                    ok = False
                if v:
                    entries.append([list(er), list(ec), str(v)])
        if not ok:
            report.graded_bijective = False
        report.blocks.append({"gamma": g, "diagonal": diag,
                              "entries": entries, "diagonal_block": ok})
    if not (report.triangular and report.diagonal_ok):
        report.graded_bijective = False

    # back-substitution: solve 1_{stratum(e)} in the span of the images,
    # one coordinate per class
    emons = list(monos)
    img_maps = [images[e].values for e in emons]
    tgt_maps = [alg.char_fn(backend, leadings[e][1]).values for e in emons]
    classes = sorted({c for m in img_maps + tgt_maps for c in m},
                     key=lambda c: alg.key_order(backend, c))
    cols = [[m.get(c, 0) for c in classes] for m in img_maps]
    rhss = [[m.get(c, 0) for c in classes] for m in tgt_maps]
    for e, (sol, residual) in zip(emons, _solve_in_span(cols, rhss)):
        entry = {
            "stratum": alg.set_to_json(backend, leadings[e][1]),
            "expressible": not residual,
        }
        if sol is not None:
            entry["coefficients"] = {str(list(emons[ci2])): str(c)
                                     for ci2, c in enumerate(sol) if c}
        if residual:
            report.correction_closed = False
            entry["residual_atoms"] = [
                alg.set_to_json(backend, alg.singleton_set(backend, classes[i]))
                for i in residual]
        report.back_substitution.append(entry)
    return report


def _solve_in_span(cols, rhss):
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
