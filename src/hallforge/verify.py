"""Named invariant suites, shared by the CLI and the acceptance tests.

Each suite runs a family of exact checks at caller-chosen bounds and
returns a result object with one entry per check; nothing is sampled
approximately, randomness is seeded.  `green` and `riedtmann` check the
direct-sum merge of `cells` (`hall.merge_cells`) on every split target;
`routes` checks the constants themselves against the Hall polynomials.
"""

import random
import time
from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import product as iproduct

from . import algebra as alg
from . import coalgebra as co
from . import quiver
from .errors import CapabilityError
from .hall import HallEngine, merge_cells
from .p1sets import P1Set


class SuiteResult:
    def __init__(self, suite, passed):
        self.suite = suite
        self.passed = passed
        self.checks = []
        self.counts = {}
        self.elapsed = 0.0
        self.report = self.backend = None

    def add(self, name, ok, detail=None):
        self.checks.append({"name": name, "passed": bool(ok),
                            **({"detail": detail} if detail is not None else {})})
        if not ok:
            self.passed = False

    def to_json(self):
        out = {"suite": self.suite, "passed": self.passed,
               "counts": self.counts, "checks": self.checks}
        if self.report is not None and self.backend is not None:
            out["report"] = self.report.to_json(self.backend)
        return out


def classes_up_to(backend, total_dim):
    """All iso classes with total dimension <= total_dim.  On p1 the
    classes range over point families no finite list covers, so the
    suites built on this list refuse it; its suite is euler-axioms."""
    if backend.kind == quiver.KIND_P1:
        raise CapabilityError("p1-torsion classes range over point families; "
                              "its suite is euler-axioms")
    out = [quiver.ZERO_CLASS]
    for vec in iproduct(range(total_dim + 1), repeat=backend.n_vertices):
        s = sum(vec)
        if 0 < s <= total_dim:
            out.extend(quiver.classes_with_dim(backend, vec, s))
    return out


def _random_element(backend, classes, rng):
    terms = {}
    for _ in range(rng.randint(1, 2)):
        cls = classes[rng.randrange(len(classes))]
        coeff = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]),
                         rng.choice([1, 1, 2]))
        terms[cls] = terms.get(cls, 0) + coeff
    return alg.from_values(backend, terms)


def suite_assoc(engine, dim):
    """(f*g)*h == f*(g*h) on singleton triples and random small elements."""
    backend = engine.backend
    res = SuiteResult("assoc", True)
    sized = [(c, quiver.class_total_dim(backend, c), alg.class_char(backend, c))
             for c in classes_up_to(backend, dim)]
    triples = bad = 0
    for a, da, fa in sized:
        for b, db, fb in sized:
            if da + db > dim:
                continue
            for c, dc, fc in sized:
                if da + db + dc > dim:
                    continue
                lhs = alg.convolve(engine, alg.convolve(engine, fa, fb), fc)
                rhs = alg.convolve(engine, fa, alg.convolve(engine, fb, fc))
                triples += 1
                if not alg.equal(backend, lhs, rhs):
                    bad += 1
                    res.add(f"assoc {quiver.class_name(backend, a)}"
                            f"*{quiver.class_name(backend, b)}"
                            f"*{quiver.class_name(backend, c)}", False)
    res.add(f"exhaustive singleton triples, total dim <= {dim}", bad == 0,
            f"{triples} triples")
    small = [c for c, dc, _ in sized if dc <= max(1, dim // 2)]
    rng, nrandom = random.Random(0x4A11), 50
    rbad = 0

    def element_dim(f):
        return max((quiver.class_total_dim(backend, m) for m in f.values),
                   default=0)

    done = 0
    while done < nrandom:
        f = _random_element(backend, small, rng)
        g = _random_element(backend, small, rng)
        h = _random_element(backend, small, rng)
        if element_dim(f) + element_dim(g) + element_dim(h) > dim:
            continue
        done += 1
        lhs = alg.convolve(engine, alg.convolve(engine, f, g), h)
        rhs = alg.convolve(engine, f, alg.convolve(engine, g, h))
        if not alg.equal(backend, lhs, rhs):
            rbad += 1
    res.add(f"{nrandom} random element triples", rbad == 0)
    one = alg.unit_element(backend)
    ubad = 0
    for _, _, f in sized:
        if not (alg.equal(backend, alg.convolve(engine, one, f), f)
                and alg.equal(backend, alg.convolve(engine, f, one), f)):
            ubad += 1
    res.add("identity element 1_[0]", ubad == 0)
    res.counts = {"triples": triples, "random": nrandom}
    return res


def suite_lie_closure(engine, dim):
    """Brackets of indecomposably supported functions stay indecomposably
    supported, and brackets of indecomposables have the known values
    (`_indec_bracket`)."""
    backend = engine.backend
    res = SuiteResult("lie-closure", True)
    labels = quiver.indec_labels(backend, dim)
    pairs = bad = 0
    for la in labels:
        for lb in labels:
            if (quiver.label_total_dim(backend, la)
                    + quiver.label_total_dim(backend, lb)) > dim:
                continue
            fa = alg.class_char(backend, quiver.make_class(backend, [la]))
            fb = alg.class_char(backend, quiver.make_class(backend, [lb]))
            br = alg.lie_bracket(engine, fa, fb)
            pairs += 1
            name = f"[{quiver.label_name(backend, la)},{quiver.label_name(backend, lb)}]"
            if not alg.is_indec_supported(br):
                bad += 1
                res.add(f"{name} support", False)
            elif br.values != _indec_bracket(backend, la, lb):
                res.add(f"{name} value", False)
    res.add(f"indecomposable support of brackets, dim <= {dim}", bad == 0,
            f"{pairs} pairs")
    res.counts = {"pairs": pairs}
    return res


def _indec_bracket(backend, la, lb):
    """{class: value} of [1_A, 1_B]: 0 on loop; for intervals A, B of a
    type-A quiver +-1_{A u B} when they touch, + when the arrow between
    them points from B into A (A is then a submodule of A u B), else 0."""
    if backend.kind != quiver.KIND_DYNKIN or (la[2] + 1 != lb[1] and lb[2] + 1 != la[1]):
        return {}
    e = min(la[2], lb[2])  # they touch across the edge e, e + 1
    into = next(ar.tgt for ar in backend.arrows if {ar.src, ar.tgt} == {e, e + 1})
    return {(("i", min(la[1], lb[1]), max(la[2], lb[2])),): 1 if la[1] <= into <= la[2] else -1}


def suite_riedtmann(engine, dim):
    """Nonzero structure constants respect the summand-count inequality,
    with equality exactly for split middles; nonzero constants on
    decomposable middles split blockwise."""
    backend = engine.backend
    res = SuiteResult("riedtmann", True)
    classes = classes_up_to(backend, dim)
    checked = nonzero = viol = blockviol = 0

    @cache
    def blockwise(y):
        """The (x, z) in the merged cells of every split y1 + y2 of y."""
        return set.intersection(*(
            set(merge_cells(backend, engine.cells(y1), engine.cells(y2)))
            for y1, y2 in co.key_splits(backend, y) if y1 and y2))

    for x in classes:
        dx = quiver.class_total_dim(backend, x)
        for z in classes:
            if dx + quiver.class_total_dim(backend, z) > dim:
                continue
            for y in engine.candidate_targets(x, z):
                c = engine.cells(y).get((x, z), 0)
                checked += 1
                if not c:
                    continue
                nonzero += 1
                gy = quiver.summand_count(y)
                gxz = quiver.summand_count(x) + quiver.summand_count(z)
                split = quiver.make_class(backend, list(x) + list(z))
                if gy > gxz or ((gy == gxz) != (y == split)):
                    viol += 1
                    res.add(f"gamma bound at ({quiver.class_name(backend, x)},"
                            f"{quiver.class_name(backend, z)},"
                            f"{quiver.class_name(backend, y)})", False)
                if gy >= 2 and (x, z) not in blockwise(y):
                    blockviol += 1
                    res.add(f"blockwise split at ({quiver.class_name(backend, x)},"
                            f"{quiver.class_name(backend, z)},"
                            f"{quiver.class_name(backend, y)})", False)
    res.add(f"summand-count bound and equality case, dim <= {dim}", viol == 0,
            f"{nonzero} nonzero of {checked} cells")
    res.add("blockwise decomposition of nonzero cells", blockviol == 0)
    res.counts = {"cells": checked, "nonzero": nonzero}
    return res


def suite_pbw(engine, gamma):
    """Filtered-isomorphism certificate on the default family window."""
    from . import pbw
    backend = engine.backend
    res = SuiteResult("pbw", True)
    report = pbw.certify_truncation(engine, default_pbw_families(backend), gamma)
    res.add("gamma-triangularity", report.triangular)
    res.add("diagonal entries are products of factorials", report.diagonal_ok)
    res.add("graded bijectivity per filtration degree", report.graded_bijective)
    res.counts = {"monomials": sum(len(b["diagonal"]) for b in report.blocks),
                  "gamma": gamma}
    res.report = report
    res.backend = backend
    return res


def default_pbw_families(backend):
    if backend.kind == quiver.KIND_LOOP:
        labels = [("j", 1), ("j", 2), ("j", 3)]
    elif backend.kind == quiver.KIND_DYNKIN:
        labels = quiver.indec_labels(backend, 2)
    else:
        raise CapabilityError("pbw suite runs on quiver backends")
    return [alg.IndecFamily.of_labels(backend, [l]) for l in labels]


def suite_green(engine, dim):
    """Degenerate Green's identity on all singleton quadruples
    (a, b; alpha', beta'): for each (alpha', beta') pair, cells(alpha' +
    beta') against `merge_cells` of cells(alpha') and cells(beta'), every
    (a, b) at once, a missing cell reading 0.  A failure's detail is
    `green_check` on the singletons {a} and {b}."""
    backend = engine.backend
    res = SuiteResult("green", True)
    classes = classes_up_to(backend, dim)
    index = {c: i for i, c in enumerate(classes)}
    dims = [quiver.class_total_dim(backend, c) for c in classes]
    by_dim = Counter(dims)
    quads, failed = 0, []
    for (ial, alpha), (ibe, beta) in iproduct(enumerate(classes), repeat=2):
        n = dims[ial] + dims[ibe]
        if n > dim:
            continue
        quads += sum(by_dim[d] * by_dim[n - d] for d in range(n + 1))
        lhs = engine.cells(quiver.make_class(backend, alpha + beta))
        rhs = merge_cells(backend, engine.cells(alpha), engine.cells(beta))
        failed.extend((index[a], index[b], ial, ibe)
                      for a, b in lhs.keys() | rhs.keys()
                      if lhs.get((a, b), 0) != rhs.get((a, b), 0))
    for ia, ib, ial, ibe in sorted(failed):
        a, b, alpha, beta = (classes[i] for i in (ia, ib, ial, ibe))
        res.add(f"green ({quiver.class_name(backend, a)},"
                f"{quiver.class_name(backend, b)};"
                f"{quiver.class_name(backend, alpha)},"
                f"{quiver.class_name(backend, beta)})", False,
                co.green_check(engine, alg.singleton_set(backend, a),
                               alg.singleton_set(backend, b), alpha, beta))
    res.add(f"Green identity on singleton quadruples, dim <= {dim}",
            not failed, f"{quads} quadruples")
    res.counts = {"quadruples": quads}
    return res


def suite_bialgebra(engine, dim, gamma=2):
    """Delta is an algebra homomorphism on basis pairs, plus counit laws,
    cocommutativity and coassociativity."""
    backend = engine.backend
    res = SuiteResult("bialgebra", True)
    classes = [c for c in classes_up_to(backend, dim)
               if quiver.summand_count(c) <= gamma]
    pairs = bad = 0
    for a in classes:
        da = quiver.class_total_dim(backend, a)
        for b in classes:
            if da + quiver.class_total_dim(backend, b) > dim:
                continue
            fa = alg.class_char(backend, a)
            fb = alg.class_char(backend, b)
            rep = co.bialgebra_check(engine, fa, fb)
            pairs += 1
            if not rep["equal"]:
                bad += 1
                res.add(f"Delta({quiver.class_name(backend, a)}"
                        f"*{quiver.class_name(backend, b)})", False,
                        rep.get("witness"))
    res.add(f"homomorphism property on basis pairs, dim <= {dim}, "
            f"gamma <= {gamma}", bad == 0, f"{pairs} pairs")
    cbad = 0
    for a in classes:
        f = alg.class_char(backend, a)
        d = co.comultiply(backend, f)
        if not alg.equal(backend, co.counit_contract(backend, d, "left"), f):
            cbad += 1
        if not alg.equal(backend, co.counit_contract(backend, d, "right"), f):
            cbad += 1
        if not co.tensor_equal(backend, d, co.tensor_swap(backend, d)):
            cbad += 1
    res.add("counit laws and cocommutativity", cbad == 0)
    abad = 0
    for a in classes:
        if not _coassociative(backend, a):
            abad += 1
    res.add("coassociativity on basis classes", abad == 0)
    res.counts = {"pairs": pairs, "classes": len(classes)}
    return res


def _coassociative(backend, cls):
    """(Delta x id) Delta and (id x Delta) Delta agree on the class's key."""
    splits = list(co.key_splits(backend, cls))
    left = Counter((a, b, r) for l, r in splits for a, b in co.key_splits(backend, l))
    right = Counter((l, b, c) for l, r in splits for b, c in co.key_splits(backend, r))
    return left == right


def suite_euler_axioms(engine):
    """The chi calculus on P^1 and the family product's per-point
    consistency with the loop backend."""
    res = SuiteResult("euler-axioms", True)
    res.add("chi(P^1) = 2", P1Set.cofinite_of([]).chi() == 2)
    rng, npairs = random.Random(0xE01), 100
    pool = [f"pt{i}" for i in range(12)]
    bad = 0
    for _ in range(npairs):  # each branch draws b disjoint from a
        k = rng.randint(0, 4)
        a_pts = frozenset(rng.sample(pool, k))
        rest = [p for p in pool if p not in a_pts]
        if rng.random() < 0.5:
            a = P1Set.finite(a_pts)
            if rng.random() < 0.5:
                b = P1Set.finite(rng.sample(rest, rng.randint(0, 4)))
            else:
                b = P1Set.cofinite_of(frozenset(rng.sample(rest, rng.randint(0, 3)))
                                      | a_pts)
        else:
            a = P1Set.cofinite_of(a_pts)
            b = P1Set.finite(rng.sample(sorted(a_pts), rng.randint(0, len(a_pts))))
        if a.union(b).chi() != a.chi() + b.chi():
            bad += 1
    res.add(f"additivity on {npairs} random disjoint pairs", bad == 0)
    if engine.backend.kind == quiver.KIND_P1:
        O1 = alg.IndecFamily.of_points(1, P1Set.cofinite_of([]))
        f = alg.char_fn(engine.backend,
                        [alg.make_stratum(engine.backend, [(O1, 1)])])
        prod = alg.convolve(engine, f, f)
        O2 = alg.IndecFamily.of_points(2, P1Set.cofinite_of([]))
        expected = alg.add(
            engine.backend,
            alg.scale(engine.backend, alg.char_fn(
                engine.backend, [alg.make_stratum(engine.backend, [(O1, 2)])]), 2),
            alg.char_fn(engine.backend,
                        [alg.make_stratum(engine.backend, [(O2, 1)])]))
        res.add("1_O1 * 1_O1 = 2.1_(O1+O1) + 1_O2",
                alg.equal(engine.backend, prod, expected))
        loop_engine = HallEngine(quiver.builtin_backend("loop"))
        lb = loop_engine.backend
        j1 = quiver.make_class(lb, [("j", 1)])
        lv2 = loop_engine.euler_constant(j1, j1, quiver.make_class(
            lb, [("j", 1), ("j", 1)]))
        lv1 = loop_engine.euler_constant(j1, j1, quiver.make_class(
            lb, [("j", 2)]))
        okpts = True
        for x in ("w1", "w2", "w3", "w4"):
            two = quiver.make_class(engine.backend, [("t", x, 1), ("t", x, 1)])
            blk = quiver.make_class(engine.backend, [("t", x, 2)])
            if alg.evaluate(prod, two) != lv2 or alg.evaluate(prod, blk) != lv1:
                okpts = False
        res.add("pointwise agreement with the loop backend at 4 points", okpts)
    return res


def suite_routes(engine, dim):
    """The fixed-point route (`engine.cells`) against the Hall polynomials
    at q = 1, exact in Z[q], on every cell of every class up to `dim`.  On
    type A both read the splits of the indecomposables (`_summand_splits`)."""
    backend = engine.backend
    res = SuiteResult("routes", True)
    cells = bad = 0
    for target in classes_up_to(backend, dim)[1:]:
        fixed = engine.cells(target)
        dims = quiver.class_dim(backend, target)
        for sdims in iproduct(*(range(d + 1) for d in dims)):
            qdims = tuple(d - e for d, e in zip(dims, sdims))
            for sub in engine.classes_with_dim(sdims, sum(sdims)):
                for quot in engine.classes_with_dim(qdims, sum(qdims)):
                    got = fixed.get((sub, quot), 0)
                    want = engine.hall_polynomial(sub, quot, target).evaluate(1)
                    cells += 1
                    if got != want:
                        bad += 1
                        res.add(f"cell ({quiver.class_name(backend, sub)},"
                                f"{quiver.class_name(backend, quot)}) of "
                                f"{quiver.class_name(backend, target)}", False,
                                {"fixed_points": got, "hall_polynomial": want})
    res.add(f"fixed-point constants equal Hall polynomials at q = 1, "
            f"dim <= {dim}", bad == 0, f"{cells} cells")
    res.counts = {"cells": cells, "mismatches": bad}
    return res


SUITES = {
    "assoc": lambda engine, dim, gamma: suite_assoc(engine, dim),
    "lie-closure": lambda engine, dim, gamma: suite_lie_closure(engine, dim),
    "riedtmann": lambda engine, dim, gamma: suite_riedtmann(engine, dim),
    "pbw": lambda engine, dim, gamma: suite_pbw(engine, gamma),
    "green": lambda engine, dim, gamma: suite_green(engine, dim),
    "bialgebra": lambda engine, dim, gamma: suite_bialgebra(engine, dim, gamma),
    "euler-axioms": lambda engine, dim, gamma: suite_euler_axioms(engine),
    "routes": lambda engine, dim, gamma: suite_routes(engine, dim),
}


def run_suite(name, engine, *, dim=4, gamma=2):
    """Run the suite `name` from SUITES at the given bounds, timed."""
    t0 = time.monotonic()
    res = SUITES[name](engine, dim, gamma)
    res.elapsed = time.monotonic() - t0
    return res
