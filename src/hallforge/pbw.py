"""PBW monomials and the filtered comparison between the enveloping
algebra and the Krull-Schmidt span.

A monomial is a stratum (`alg.make_stratum`): the (family, exponent)
pairs of an exponent vector over pairwise disjoint indecomposable
families.  Its image under iterated convolution has leading term
(product of exponent factorials) times the characteristic function of
that stratum, and everything else of strictly smaller summand count.
The truncation certificate checks exactly that, degree by degree, and
back-substitutes (`_solve_in_span`, an exact elimination over the
rationals) to express the stratum functions in monomial images,
reporting any residual correction functions that fall outside the
family-generated span.

Certificates run on the quiver backends, where an element is a class
map: values and coordinates are read off classes.
"""

import math
from fractions import Fraction

from . import algebra as alg
from . import quiver
from .errors import CapabilityError


def leading_term(mono):
    """(product of exponent factorials, the set whose one stratum is the
    monomial)."""
    coeff = 1
    for _, e in mono:
        coeff *= math.factorial(e)
    return coeff, alg.ConstructibleSet((mono,))


def monomial_image(engine, mono):
    """Iterated convolution of the factor characteristic functions."""
    backend = engine.backend
    result = alg.unit_element(backend)
    for fam, e in mono:
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


def certify_truncation(engine, families, gamma_max):
    """Certify the filtered isomorphism on the window spanned by the given
    pairwise-disjoint families up to the given summand-count bound."""
    backend = engine.backend
    _require_quiver(backend)
    families = sorted(families, key=lambda f: f.descriptor(backend))
    for i, f in enumerate(families):
        if not all(f.is_disjoint(g) for g in families[i + 1:]):
            raise ValueError("monomial families must be pairwise disjoint")

    images = {}
    leads = {}
    report = TruncationReport(families=families, gamma_max=gamma_max,
                              triangular=True, diagonal_ok=True,
                              graded_bijective=True, correction_closed=True)
    for g in range(gamma_max + 1):
        degree_es = list(alg._compositions(g, len(families)))
        for e in degree_es:
            mono = alg.make_stratum(backend, list(zip(families, e)))
            img = monomial_image(engine, mono)
            coeff, lead_set = leading_term(mono)
            lead_fn = alg.char_fn(backend, lead_set)
            images[e] = img
            leads[e] = (coeff, lead_set, lead_fn)
            rest = alg.subtract(backend, img, alg.scale(backend, lead_fn, coeff))
            if rest.summand_count() >= alg.stratum_gamma(mono) > 0:
                report.triangular = False
                if report.counterexample is None:
                    report.counterexample = {
                        "monomial": list(e),
                        "offending_summand_count": rest.summand_count(),
                    }

        # graded block: matrix of top-degree parts in the stratum basis,
        # its diagonal the leading coefficients
        entries = []
        diag = []
        ok = True
        for er in degree_es:
            coeff, lead_set, _ = leads[er]
            for ec in degree_es:
                got = value_on_set(backend, images[ec], lead_set)
                v = got or 0
                if er == ec:
                    diag.append(str(v))
                    if got != coeff:
                        ok = report.diagonal_ok = False
                        report.counterexample = {
                            "monomial": list(er),
                            "expected_leading": str(coeff),
                            "got": str(got),
                        }
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
    emons = list(images)
    img_maps = [images[e].values for e in emons]
    tgt_maps = [leads[e][2].values for e in emons]
    classes = sorted({c for m in img_maps + tgt_maps for c in m},
                     key=lambda c: alg.key_order(backend, c))
    cols = [[m.get(c, 0) for c in classes] for m in img_maps]
    rhss = [[m.get(c, 0) for c in classes] for m in tgt_maps]
    for e, (sol, residual) in zip(emons, _solve_in_span(cols, rhss)):
        entry = {
            "stratum": alg.set_to_json(backend, leads[e][1]),
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
