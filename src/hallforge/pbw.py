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
"""

import math
from dataclasses import dataclass, field as dfield
from fractions import Fraction

from . import algebra as alg


@dataclass(frozen=True)
class PBWMonomial:
    """Ordered factors (family, exponent >= 1), families pairwise disjoint."""
    factors: tuple

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
    fmap = alg._atom_map(backend, f)
    fams = [fam for s in list(fmap) + list(cset.strata) for fam, _ in s]
    _, atom_of = alg.refine_families(backend, fams)
    fat = {}
    for s, v in fmap.items():
        for a in alg._distribute(backend, s, atom_of):
            fat[a] = fat.get(a, Fraction(0)) + v
    values = set()
    for s in cset.strata:
        for a in alg._distribute(backend, s, atom_of):
            values.add(fat.get(a, Fraction(0)))
    if len(values) != 1:
        return None
    return values.pop()


@dataclass
class TruncationReport:
    families: list
    gamma_max: int
    triangular: bool
    diagonal_ok: bool
    graded_bijective: bool
    correction_closed: bool
    blocks: list = dfield(default_factory=list)
    back_substitution: list = dfield(default_factory=list)
    counterexample: dict = None

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
        if got != Fraction(coeff):
            report.diagonal_ok = False
            report.counterexample = {
                "monomial": list(e),
                "expected_leading": str(coeff),
                "got": str(got),
            }
        rest = alg.add(backend, img,
                       alg.scale(backend, alg.char_fn(backend, lead_set.strata),
                                 coeff), Fraction(-1))
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
                v = value_on_set(backend, images[ec], leadings[er][1])
                if v is None:
                    v = Fraction(0)
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
    # coordinates taken over a common atom refinement
    maps = [alg._atom_map(backend, images[e]) for e in monos]
    targets = [alg._atom_map(backend, alg.char_fn(backend, leadings[e][1].strata))
               for e in monos]
    all_maps = alg._common_atoms(backend, maps + targets)
    img_maps = all_maps[:len(maps)]
    tgt_maps = all_maps[len(maps):]
    atoms = sorted({a for m in all_maps for a in m},
                   key=lambda s: alg._stratum_key(backend, s))
    aidx = {a: i for i, a in enumerate(atoms)}
    emons = list(monos)
    cols = [[Fraction(0)] * len(atoms) for _ in emons]
    for ci, m in enumerate(img_maps):
        for a, v in m.items():
            cols[ci][aidx[a]] = v
    for ti, e in enumerate(emons):
        rhs = [Fraction(0)] * len(atoms)
        for a, v in tgt_maps[ti].items():
            rhs[aidx[a]] = v
        sol, residual = _solve_in_span(cols, rhs)
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
                alg.set_to_json(backend, alg.ConstructibleSet((atoms[i],)))
                for i in residual]
        report.back_substitution.append(entry)
    return report


def _solve_in_span(cols, rhs):
    """Exact solve of (columns)·x = rhs; returns (coefficients, residual
    atom-row indices the span cannot reach)."""
    ncols = len(cols)
    nrows = len(rhs)
    aug = [[cols[c][r] for c in range(ncols)] + [rhs[r]] for r in range(nrows)]
    origin = list(range(nrows))
    pivots = []
    row = 0
    for col in range(ncols):
        piv = next((r for r in range(row, nrows) if aug[r][col]), None)
        if piv is None:
            continue
        aug[row], aug[piv] = aug[piv], aug[row]
        origin[row], origin[piv] = origin[piv], origin[row]
        pv = aug[row][col]
        aug[row] = [x / pv for x in aug[row]]
        for r in range(nrows):
            if r != row and aug[r][col]:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[row])]
        pivots.append(col)
        row += 1
    residual = sorted(origin[r] for r in range(row, nrows) if aug[r][ncols])
    if residual:
        return None, residual
    sol = [Fraction(0)] * ncols
    for r, col in enumerate(pivots):
        sol[col] = aug[r][ncols]
    return sol, []
