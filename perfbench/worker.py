"""One round of a workload, in a fresh Python process.

    python3 perfbench/worker.py --workload W --seed S --round R \
        [--phase run|cold|warm] [--trace] [--work DIR] [--spans FILE]

prints one JSON record as the last line of its standard output.  The
round's operations run closed loop: one client, each operation starts
when the previous one returns.  Every result is checked against an
independent reference after the timed loop.

warm-identities runs in two phases: ``cold`` computes the operation
list with empty caches and writes one cache file per backend into the
work directory; ``warm`` loads those files into fresh engines and runs
the same operations again.

``--cli-child`` runs a single hallforge command with tracing installed
(the cli workload's traced rounds) and writes its counters to
``--trace-out``.
"""

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path
from types import SimpleNamespace

import calibration
import operands
import references
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DATA = Path(__file__).resolve().parent / "data"
BACKEND_FILES = {"a3-sink": DATA / "a3_sink.json",
                 "a3-reversed": DATA / "a3_reversed.json"}
CHILD_TIMEOUT_S = 60
SLICE_EVERY_S = 0.25     # calibration slices between operations, see calibration.py

# (backends, bounds (max_dim, max_q)) per library workload
LIBRARY = {
    "loop-cold": (("loop",), (8, 13)),
    "typeA-cold": (("a3", "a3-sink"), (6, 13)),
    "warm-identities": (("a2", "a3", "loop", "p1"), (6, 13)),
}


def import_hallforge():
    """Import the program from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    import hallforge
    if Path(hallforge.__file__).resolve().parent != SRC / "hallforge":
        raise SystemExit(f"hallforge imported from {hallforge.__file__}, "
                         f"not from {SRC}")
    from hallforge import algebra, coalgebra, counting, hall, pbw, quiver
    from hallforge.p1sets import P1Set
    return SimpleNamespace(alg=algebra, co=coalgebra, counting=counting,
                           hall=hall, pbw=pbw, quiver=quiver, P1Set=P1Set)


def load_backend(hf, name):
    return hf.quiver.load_backend(str(BACKEND_FILES.get(name, name)))[0]


def digest(text):
    return hashlib.sha1(text.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# operations: execute() is timed, check() is not

def execute(hf, engines, op):
    kind, name = op[0], op[1]
    eng = engines[name]
    b = eng.backend
    alg = hf.alg

    def char(text):
        return alg.class_char(b, hf.quiver.parse_class(b, text))

    if kind == "mul":
        return alg.convolve(eng, char(op[2]), char(op[3]))
    if kind == "assoc":
        fa, fb, fc = char(op[2]), char(op[3]), char(op[4])
        lhs = alg.convolve(eng, alg.convolve(eng, fa, fb), fc)
        rhs = alg.convolve(eng, fa, alg.convolve(eng, fb, fc))
        return lhs, alg.equal(b, lhs, rhs)
    if kind == "green":
        a, bb, alpha, beta = (hf.quiver.parse_class(b, t) for t in op[2:6])
        return hf.co.green_check(eng, alg.singleton_set(b, a),
                                 alg.singleton_set(b, bb), alpha, beta)
    if kind == "bialgebra":
        return hf.co.bialgebra_check(eng, char(op[2]), char(op[3]))
    if kind == "pbw":
        fams = [alg.IndecFamily.of_labels(b, [hf.quiver.parse_label(b, l)])
                for l in op[2]]
        return hf.pbw.certify_truncation(eng, fams, op[3])
    if kind == "p1mul":
        base = (hf.P1Set.cofinite_of([]) if op[4] == "cofinite"
                else hf.P1Set.finite(["x", "y"]))

        def family(d):
            fam = alg.IndecFamily.of_points(d, base)
            return alg.char_fn(b, [alg.make_stratum(b, [(fam, 1)])])
        fd, fe = family(op[2]), family(op[3])
        de = alg.convolve(eng, fd, fe)
        return de, alg.equal(b, de, alg.convolve(eng, fe, fd))
    raise ValueError(f"unknown operation {kind!r}")


def check(hf, engines, op, result, table):
    """(correct, digest of the result for cross-phase comparison)."""
    kind, name = op[0], op[1]
    b = engines[name].backend
    canon = hf.alg.canonical_json
    if kind == "mul":
        got = references.element_values(canon(b, result))
        if name == "loop":
            want = references.loop_product(*(_partition(t) for t in op[2:4]))
        else:
            want = table[name][f"{op[2]}*{op[3]}"]
        return got == want, None
    if kind in ("assoc", "p1mul"):
        element, equal = result
        return equal, digest(canon(b, element))
    if kind == "green":
        return result["equal"], digest(result["lhs"] + "|" + result["rhs"])
    if kind == "bialgebra":
        return result["equal"], None
    if kind == "pbw":
        return result.passed, digest(json.dumps(result.to_json(b), sort_keys=True))
    raise ValueError(f"unknown operation {kind!r}")


def _partition(text):
    return tuple(int(t[1:]) for t in text[1:-1].split("+"))


# ---------------------------------------------------------------------------
# known-defect probes: one cheap operation each, run after the timed loop

def probe_loop_q_max(hf, engines, table):
    """The [J1^6] cell ([J1+J1], [J1^4]) at q <= 13: its Hall polynomial
    has degree 8, which needs 10 samples; 9 prime powers are <= 13."""
    eng = engines["loop"]
    b = eng.backend
    parse = hf.quiver.parse_class
    got = eng.euler_constant(parse(b, "[J1+J1]"), parse(b, "[J1+J1+J1+J1]"),
                             parse(b, "[J1+J1+J1+J1+J1+J1]"))
    want = references.monomial_coefficient((1, 1), (1, 1, 1, 1), (1,) * 6)
    return got == want, f"got {got}, want {want}"


def probe_reversed_a3(hf, engines, table):
    """A reversed-arrow a3 that is also named "a3", after the built-in a3
    ran in the same process: its [P13] cells must be its own."""
    b = load_backend(hf, "a3-reversed")
    eng = hf.hall.HallEngine(b, engines["a3"].bounds)
    got = {}
    for x, z in operands.cells_of_p13():
        c = eng.euler_constant(hf.quiver.parse_class(b, x),
                               hf.quiver.parse_class(b, z),
                               hf.quiver.parse_class(b, "[P13]"))
        if c:
            got[f"{x}|{z}"] = c
    want = table["reversed-a3-P13"]["[P13]"]
    return got == want, f"got {sorted(got)}, want {sorted(want)}"


PROBES = {"loop-cold": (("loop-q-max", probe_loop_q_max),),
          "typeA-cold": (("reversed-a3-same-name", probe_reversed_a3),)}


def run_probe(fn, hf, engines, table):
    try:
        ok, detail = fn(hf, engines, table)
    except Exception as e:  # a probe's failure is its result
        return {"ok": False, "error": f"{type(e).__name__}: {e}"}
    return {"ok": ok, "error": None if ok else f"ReferenceMismatch: {detail}"}


# ---------------------------------------------------------------------------
# library workloads

def library_round(args, ops):
    t0 = time.perf_counter()
    hf = import_hallforge()
    tracer = tracing.Tracer().install() if args.trace else None
    names, (max_dim, max_q) = LIBRARY[args.workload]
    bounds = hf.counting.Bounds(max_dim=max_dim, max_q=max_q)
    work = Path(args.work)
    engines = {}
    for name in names:
        b = load_backend(hf, name)
        cache = hf.hall.HallCache(b, work / f"{name}.json" if args.phase == "warm" else None)
        engines[name] = hf.hall.HallEngine(b, bounds, cache)
    setup_s = time.perf_counter() - t0

    slices = [calibration.time_slice(), calibration.time_slice()]
    last_slice = time.perf_counter()
    lat, results = [], []
    for i, op in enumerate(ops):
        if time.perf_counter() - last_slice > SLICE_EVERY_S:
            slices.append(calibration.time_slice())
            last_slice = time.perf_counter()
        if tracer is not None:
            tracer.trace_id = i
        t = time.perf_counter()
        try:
            with tracer.span("bench.op") if tracer else nullcontext():
                res = execute(hf, engines, op)
            err = None
        except Exception as e:  # an operation that raises counts as failed
            res, err = None, f"{type(e).__name__}: {e}"
        lat.append(time.perf_counter() - t)
        results.append((res, err))
    wall_s = sum(lat)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    slices += [calibration.time_slice(), calibration.time_slice()]

    dump_s = 0.0
    if args.phase == "cold":
        t = time.perf_counter()
        for name, eng in engines.items():
            eng.cache.dump(work / f"{name}.json")
        dump_s = time.perf_counter() - t

    table = references.load_type_a_table() if args.workload == "typeA-cold" else None
    outcomes = []
    for op, (res, err) in zip(ops, results):
        raised = err is not None
        ok, dig = (False, None) if raised else check(hf, engines, op, res, table)
        if not raised and not ok:
            err = f"wrong value for {op}"
        outcomes.append({"op": repr(op), "ok": ok, "raised": raised,
                         "error": err, "digest": dig})

    probes = {}
    if args.phase == "run":
        for name, fn in PROBES.get(args.workload, ()):
            if tracer is not None:
                tracer.trace_id = f"probe:{name}"
            probes[name] = run_probe(fn, hf, engines, table)

    record = {"setup_s": setup_s, "wall_s": wall_s, "lat_s": lat,
              "outcomes": outcomes, "rss_kb": rss_kb, "probes": probes,
              "total_s": setup_s + wall_s + dump_s, "calibration_s": slices}
    if tracer is not None:
        tracer.uninstall()
        record["raw"] = tracer.raw()
        record["absent"] = tracer.absent
        if args.spans:
            tracer.write_spans(args.spans)
    return record


# ---------------------------------------------------------------------------
# cli workload

def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


def run_cli(argv, env, trace_out=None, spans=None, trace_id=0):
    if trace_out is None:
        cmd = [sys.executable, "-m", "hallforge.cli", *argv]
    else:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--cli-child",
               "--trace-out", str(trace_out), "--trace-id", str(trace_id)]
        if spans:
            cmd += ["--spans", str(spans)]
        cmd += ["--", *argv]
    t = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)
    return time.perf_counter() - t, proc


def with_cache(argv, path):
    return [*argv[:2], "--cache", str(path), *argv[2:]]


def cli_round(args, ops):
    env = child_env()
    work = Path(args.work)
    slices = [calibration.time_slice()]
    floors = []
    for backend in operands.CLI_FLOOR_BACKENDS:
        dt, proc = run_cli(["--backend", backend, "cache", "stats"], env)
        if proc.returncode != 0:
            raise SystemExit(f"hallforge cache stats failed: {proc.stderr}")
        floors.append(dt)

    lat, outcomes, kinds = [], [], []
    raws, cache_bytes = [], 0
    for n, (_, i) in enumerate(ops):
        path = work / f"cli-{i}.json"
        for stale in (path, path.with_suffix(".json.lock")):
            stale.unlink(missing_ok=True)
        argv = with_cache(operands.CLI_COMMANDS[i], path)
        cold_out = None
        for kind in ("cold", "warm"):
            trace_out = work / f"trace-{i}-{kind}.json" if args.trace else None
            slices.append(calibration.time_slice())
            dt, proc = run_cli(argv, env, trace_out, args.spans, trace_id=n)
            lat.append(dt)
            kinds.append(kind)
            ok = proc.returncode == 0 and bool(proc.stdout)
            if kind == "cold":
                cold_out = proc.stdout
                if path.exists():
                    cache_bytes += path.stat().st_size
            else:
                ok = ok and proc.stdout == cold_out
            outcomes.append({"ok": ok, "raised": proc.returncode != 0,
                             "error": None if ok else
                             f"{kind} {' '.join(argv)}: exit {proc.returncode} "
                             f"{proc.stderr.strip()[-200:]}",
                             "digest": None})
            if trace_out is not None and trace_out.exists():
                raws.append(json.loads(trace_out.read_text()))
    wall_s = sum(lat)
    rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    slices.append(calibration.time_slice())

    # each call is scaled by the slices on either side of it
    around = slices[1:]
    record = {"setup_s": statistics.median(floors), "wall_s": wall_s,
              "lat_s": lat, "kinds": kinds, "outcomes": outcomes,
              "rss_kb": rss_kb, "probes": {}, "calibration_s": slices,
              "op_calibration_s": [(a + b) / 2 for a, b in zip(around, around[1:])]}
    if args.trace:
        raw = tracing.merge(raws)
        raw["cli.cache_file_bytes"] = cache_bytes
        raw["cli.process_floor_ms"] = 1000 * statistics.median(floors)
        for kind in ("cold", "warm"):
            raw[f"cli.{kind}_p50_ms"] = 1000 * statistics.median(
                t for t, k in zip(lat, kinds) if k == kind)
        record["raw"] = raw
        record["absent"] = []
    return record


def cli_child(args):
    """Run one hallforge command in this process with tracing installed."""
    sys.path.insert(0, str(SRC))
    tracer = tracing.Tracer().install()
    tracer.trace_id = args.trace_id
    from hallforge import cli
    code = 0
    try:
        with tracer.span("bench.op"):
            cli.main(args.argv, prog_name="hallforge", standalone_mode=True)
    except SystemExit as e:
        code = e.code if isinstance(e.code, int) else (0 if e.code is None else 1)
    finally:
        tracer.uninstall()
        Path(args.trace_out).write_text(json.dumps(tracer.raw()))
        if args.spans:
            tracer.write_spans(args.spans)
    return code


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=operands.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--round", type=int, default=0)
    ap.add_argument("--phase", choices=("run", "cold", "warm"), default="run")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--work", default=".")
    ap.add_argument("--spans", default=None)
    ap.add_argument("--cli-child", action="store_true")
    ap.add_argument("--trace-out", default=None)
    ap.add_argument("--trace-id", type=int, default=0)
    ap.add_argument("argv", nargs="*")
    args = ap.parse_args(argv)
    if args.cli_child:
        return cli_child(args)
    ops = operands.ops_for(args.workload, args.seed, args.round)
    if args.workload == "cli":
        record = cli_round(args, ops)
    else:
        record = library_round(args, ops)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
