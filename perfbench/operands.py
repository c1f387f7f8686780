"""Seeded operation lists for the four workloads.

Operands are generated here, without importing hallforge, as the
bracketed class names the CLI also accepts ("[S1+P12]", "[J2+J1]"), so
the program under test only ever receives generated inputs.

The seed shuffles the operations inside strata, and on warm-identities
draws the checks from fixed strata: every seed does the same number of
operations in each stratum.  The cold workloads take every operation in
their range, because which cells a product asks for decides which F_q
surveys get built.
"""

import random
from itertools import combinations_with_replacement

TYPE_A_VERTICES = ("1", "2", "3")

LOOP_COLD_MAX_DIM = 6
TYPE_A_FULL_DIM = 4
TYPE_A_MAX_DIM = 5


def _vsum(*vecs):
    return tuple(map(sum, zip(*vecs)))


def rng_for(seed, salt):
    return random.Random(f"{seed}:{salt}")


# ---------------------------------------------------------------------------
# classes as plain data

def type_a_labels(n):
    """Interval modules of A_n as (name, dimension vector)."""
    out = []
    for a in range(n):
        for b in range(a, n):
            va, vb = TYPE_A_VERTICES[a], TYPE_A_VERTICES[b]
            name = f"S{va}" if a == b else f"P{va}{vb}"
            out.append((name, tuple(1 if a <= v <= b else 0 for v in range(n))))
    return out


def type_a_classes(n, max_dim):
    """Nonzero classes of A_n with total dimension <= max_dim, as
    (name, dimension vector, summand count)."""
    labels = type_a_labels(n)
    out = []
    for g in range(1, max_dim + 1):
        for combo in combinations_with_replacement(labels, g):
            dv = _vsum(*(d for _, d in combo))
            if sum(dv) <= max_dim:
                out.append(("[" + "+".join(nm for nm, _ in combo) + "]", dv, g))
    return out


def partitions(n, max_part=None):
    max_part = n if max_part is None else max_part
    if n == 0:
        yield ()
        return
    for p in range(min(n, max_part), 0, -1):
        for rest in partitions(n - p, p):
            yield (p,) + rest


def loop_name(parts):
    return "[" + "+".join(f"J{p}" for p in parts) + "]"


def loop_classes(max_dim):
    """Nonzero loop classes up to max_dim as (partition, name)."""
    return [(lam, loop_name(lam)) for n in range(1, max_dim + 1)
            for lam in partitions(n)]


# ---------------------------------------------------------------------------
# workloads

def _shuffle_within(ops, key, rng):
    """Strata in ascending key order.  The first operation of a stratum
    builds the F_q surveys its targets share and stays first, so every
    seed times the same builds in the same operations; the seed shuffles
    the rest of each stratum."""
    strata = {}
    for op in ops:
        strata.setdefault(key(op), []).append(op)
    out = []
    for k in sorted(strata):
        first, *rest = strata[k]
        rng.shuffle(rest)
        out += [first, *rest]
    return out


def loop_cold_ops(seed):
    """Every product 1_x * 1_z of nonzero loop classes with
    2 <= dim x + dim z <= 6 and at most 3 summands in total.

    A stratum is (dim x + dim z, smaller of the two dims, summands): its
    products share their candidate targets, whose loop surveys are built
    up to the smaller dim and rebuilt when a later product needs them
    deeper.  Strata run in ascending order, so every seed builds the same
    surveys."""
    classes = loop_classes(LOOP_COLD_MAX_DIM)
    ops = [("mul", "loop", xn, zn)
           for x, xn in classes for z, zn in classes
           if sum(x) + sum(z) <= LOOP_COLD_MAX_DIM and len(x) + len(z) <= 3]

    def stratum(op):
        x, z = (_loop_parts(t) for t in op[2:4])
        return sum(x) + sum(z), min(sum(x), sum(z)), len(x) + len(z)
    return _shuffle_within(ops, stratum, rng_for(seed, "loop-cold"))


def _loop_parts(name):
    return tuple(int(t[1:]) for t in name[1:-1].split("+"))


def type_a_cold_ops(seed):
    """Every product of nonzero classes with total dim <= 4, and those
    with total dim 5 and at most 3 summands in total, on the linear a3
    and then on the middle-sink a3.

    The set is fixed, because which cells are asked decides which F_q
    surveys get built.  A stratum is (dimension vector of x + z,
    summands): its products share their candidate targets."""
    classes = type_a_classes(3, TYPE_A_MAX_DIM)
    products = {}
    for xn, xd, xg in classes:
        for zn, zd, zg in classes:
            dv, g = _vsum(xd, zd), xg + zg
            if sum(dv) <= TYPE_A_FULL_DIM or (sum(dv) == TYPE_A_MAX_DIM and g <= 3):
                products[(xn, zn)] = (sum(dv), dv, g)
    out = []
    for backend in ("a3", "a3-sink"):
        ops = [("mul", backend, xn, zn) for xn, zn in products]
        out += _shuffle_within(ops, lambda op: products[op[2:4]],
                               rng_for(seed, f"typeA:{backend}"))
    return out


# warm-identities: draws per stratum
ASSOC_PER_STRATUM = 10       # (backend, total dim 3..5) triples
GREEN_PER_STRATUM = 16       # (backend, total dim 1..4) quadruples
BIALGEBRA_PER_STRATUM = 16   # (backend, total dim 2..4) pairs, gamma <= 2 each
WARM_BACKENDS = ("a2", "a3", "loop")
PBW_OPS = (("pbw", "a2", ("S1", "S2", "P12"), 3),
           ("pbw", "loop", ("J1", "J2"), 3))
P1_MAX_DEGREE = 6


def warm_classes(backend, max_dim):
    """[0] and the nonzero classes as (name, dimension vector, summands)."""
    if backend == "loop":
        nonzero = [(name, (sum(lam),), len(lam)) for lam, name in loop_classes(max_dim)]
        zero = ("[0]", (0,), 0)
    else:
        nv = 2 if backend == "a2" else 3
        nonzero = type_a_classes(nv, max_dim)
        zero = ("[0]", (0,) * nv, 0)
    return [zero] + nonzero


def _draw(rng, strata, k):
    out = []
    for key in sorted(strata):
        items = strata[key]
        out.extend(rng.sample(items, min(k, len(items))))
    return out


def warm_identity_ops(seed, rnd):
    """The same draw for every round of a seed, so one cold pass fills
    the caches for all of them; each round shuffles it."""
    rng = rng_for(seed, "warm")
    ops = []
    for backend in WARM_BACKENDS:
        classes = warm_classes(backend, 5)
        nonzero = classes[1:]
        triples = {}
        for a in nonzero:
            for b in nonzero:
                if sum(a[1]) + sum(b[1]) >= 5:
                    continue
                for c in nonzero:
                    n = sum(a[1]) + sum(b[1]) + sum(c[1])
                    if n <= 5:
                        triples.setdefault((backend, n), []).append(
                            ("assoc", backend, a[0], b[0], c[0]))
        ops += _draw(rng, triples, ASSOC_PER_STRATUM)

        small = [c for c in classes if sum(c[1]) <= 4]
        by_dim = {}
        for c in small:
            by_dim.setdefault(c[1], []).append(c)
        quads = {}
        for a in small[1:]:
            for b in small[1:]:
                target = _vsum(a[1], b[1])
                n = sum(target)
                if n > 4:
                    continue
                for alpha in small:
                    rest = tuple(t - x for t, x in zip(target, alpha[1]))
                    for beta in by_dim.get(rest, ()):
                        quads.setdefault((backend, n), []).append(
                            ("green", backend, a[0], b[0], alpha[0], beta[0]))
        ops += _draw(rng, quads, GREEN_PER_STRATUM)

        pairs = {}
        for a in small[1:]:
            for b in small[1:]:
                n = sum(a[1]) + sum(b[1])
                if a[2] <= 2 and b[2] <= 2 and n <= 4:
                    pairs.setdefault((backend, n), []).append(
                        ("bialgebra", backend, a[0], b[0]))
        ops += _draw(rng, pairs, BIALGEBRA_PER_STRATUM)

    ops += list(PBW_OPS)
    ops += [("p1mul", "p1", d, e, base)
            for base in ("cofinite", "finite")
            for d in range(1, P1_MAX_DEGREE)
            for e in range(1, P1_MAX_DEGREE + 1 - d)]
    rng_for(seed, f"warm-order:{rnd}").shuffle(ops)
    return ops


# cli: the argument sets of acceptance criterion 13 plus two more
CLI_COMMANDS = (
    ("--backend", "a2", "--json", "mul", "[S2]", "[S1]"),
    ("--backend", "a2", "--json", "mul", "[S1]", "[S2]"),
    ("--backend", "a2", "--json", "bracket", "[S1]", "[S2]"),
    ("--backend", "loop", "--json", "power", "[J1]", "2"),
    ("--backend", "loop", "--json", "comul", "[J1+J1]"),
    ("--backend", "p1", "--json", "mul", "O1", "O1"),
    ("--backend", "loop", "mul", "[J1+J2]", "[J2]"),
    ("--backend", "a3", "--dim", "4", "verify", "bialgebra"),
)
CLI_FLOOR_BACKENDS = ("a2", "a3", "loop", "p1")


def cli_ops(seed, rnd):
    ops = [("cli", i) for i in range(len(CLI_COMMANDS))]
    rng_for(seed, f"cli:{rnd}").shuffle(ops)
    return ops


def ops_for(workload, seed, rnd):
    if workload == "loop-cold":
        return loop_cold_ops(f"{seed}:{rnd}")
    if workload == "typeA-cold":
        return type_a_cold_ops(f"{seed}:{rnd}")
    if workload == "warm-identities":
        return warm_identity_ops(seed, rnd)
    if workload == "cli":
        return cli_ops(seed, rnd)
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("loop-cold", "typeA-cold", "warm-identities", "cli")


def cells_of_p13():
    """(sub, quotient) name pairs whose dimension vectors add up to that
    of [P13] on a3, [0] included."""
    classes = [("[0]", (0, 0, 0), 0)] + type_a_classes(3, 3)
    return [(x, z) for x, xd, _ in classes for z, zd, _ in classes
            if _vsum(xd, zd) == (1, 1, 1)]
