"""hallforge benchmark: one command, four seeded workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its src/.
Each round of a workload runs in a fresh Python process (perfbench/
worker.py), one round at a time, until --seconds have passed and at
least MIN_ROUNDS rounds are done.  Every round shuffles its operations
afresh from the seed, and metrics are medians over rounds or over all
operations of the run.

With --trace 0 the last line of standard output is a JSON object holding
the end-to-end metrics; with --trace 1 each round runs once untraced and
once traced, and the object holds the per-layer metrics.  Human-readable
lines come first.  Exit status is 0 when the run completed, whether or
not operations failed; failures are counted in the JSON object.
"""

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibration
import operands
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-work"

MIN_ROUNDS = 3
MIN_TRACED_ROUNDS = 1
RUN_BUDGET_S = 165       # no new round starts that would end past this
WORKER_TIMEOUT_S = 150
TAIL_LADDER = (50, 75, 90, 95, 99, 99.9)
TAIL_BEYOND = 10

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("op_p50_ms", "ms"),
              ("op_tail_ms", "ms"), ("peak_rss_mb", "MB"))


class BenchError(Exception):
    pass


# ---------------------------------------------------------------------------
# statistics

def tail_percentile(n, ladder=TAIL_LADDER, beyond=TAIL_BEYOND):
    """Highest percentile of the ladder with at least `beyond` of n
    samples above its nearest rank; None when even the median has fewer."""
    best = None
    for p in ladder:
        if n - math.ceil(p / 100 * n) >= beyond:
            best = p
    return best


def percentile(values, p):
    """Nearest-rank percentile of a list of numbers."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def scaled(record):
    """The record's times at the reference speed (see calibration.py).
    Where the worker timed slices around every operation, each latency
    is scaled by its own slices, and the wall time is their sum."""
    ref = calibration.REFERENCE_S
    speed = ref / statistics.median(record["calibration_s"])
    around = record.get("op_calibration_s")
    if around is None:
        lat = [t * speed for t in record["lat_s"]]
        wall = record["wall_s"] * speed
    else:
        lat = [t * ref / c for t, c in zip(record["lat_s"], around)]
        wall = sum(lat)
    return dict(record, speed=speed, setup_s=record["setup_s"] * speed,
                wall_s=wall, lat_s=lat)


def failure_counts(outcomes):
    """(attempted, failed, wrong): failed counts raised and wrong results."""
    failed = sum(not o["ok"] for o in outcomes)
    wrong = sum(not o["ok"] and not o["raised"] for o in outcomes)
    return len(outcomes), failed, wrong


# ---------------------------------------------------------------------------
# rounds

def run_worker(args, timeout):
    cmd = [sys.executable, str(HERE / "worker.py"), *map(str, args)]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker timed out after {timeout:.0f} s: {' '.join(cmd)}")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {' '.join(cmd)}\n"
                         f"{err.strip()[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


def join_warm(cold, warm):
    """A warm result must be correct and byte-identical to the cold
    pass's result for the same operation."""
    cold_by_op = {c["op"]: c for c in cold["outcomes"]}
    for w in warm["outcomes"]:
        c = cold_by_op[w["op"]]
        if not c["ok"]:
            w.update(ok=False, error=f"cold pass: {c['error']}")
        elif w["ok"] and c["digest"] != w["digest"]:
            w.update(ok=False, error=f"{w['op']}: warm result differs from cold")
    return warm


def run_round(workload, seed, rnd, trace, work, spans, timeout, cold=None):
    """Untraced record and, with trace, the traced record of one round.
    warm-identities reads the cache files its cold pass left in `work`."""
    rdir = work if cold is not None else work / f"round{rnd}"
    rdir.mkdir(parents=True, exist_ok=True)
    base = ["--workload", workload, "--seed", seed, "--round", rnd, "--work", rdir]
    if cold is not None:
        base += ["--phase", "warm"]
    records = [run_worker(base, timeout)]
    if trace:
        records.append(run_worker(base + ["--trace", "--spans", spans], timeout))
    if cold is not None:
        records = [join_warm(cold, r) for r in records]
    else:
        shutil.rmtree(rdir, ignore_errors=True)
    return records[0], (records[1] if trace else None)


# ---------------------------------------------------------------------------
# metrics

def end_to_end(workload, plains):
    rounds = [scaled(r) for r in plains]
    lat_ms = [1000 * t for r in rounds for t in r["lat_s"]]
    p = tail_percentile(len(plains[0]["lat_s"]) * MIN_ROUNDS)
    metrics = {
        "setup_s": statistics.median(r["setup_s"] for r in rounds),
        "wall_s": statistics.median(r["wall_s"] for r in rounds),
        "op_p50_ms": statistics.median(lat_ms),
        "op_tail_ms": percentile(lat_ms, p),
        "peak_rss_mb": statistics.median(r["rss_kb"] for r in rounds) / 1024,
    }
    notes = {
        "op_tail_ms": f"p{p}, {len(lat_ms) - math.ceil(p / 100 * len(lat_ms))} "
                      f"of {len(lat_ms)} samples beyond",
        "op_p50_ms": f"{len(lat_ms)} samples",
        "wall_s": f"measured {statistics.median(r['wall_s'] for r in plains):.4g} s "
                  f"at speed {statistics.median(r['speed'] for r in rounds):.3f}",
    }
    extra = {}
    if workload == "cli":
        for kind in ("cold", "warm"):
            extra[f"cli_{kind}_p50_ms"] = statistics.median(
                1000 * t for r in rounds for t, k in zip(r["lat_s"], r["kinds"])
                if k == kind)
    return metrics, notes, extra


def per_layer(plains, traceds):
    rows = []
    for r in traceds:
        raw = dict(r["raw"])
        raw["bench.known_defects_failed"] = sum(not p["ok"] for p in r["probes"].values())
        rows.append(tracing.layer_metrics(raw))
    metrics = {name: statistics.median(row[name] for row in rows)
               for name in rows[0]}
    metrics["trace.overhead_ratio"] = (
        statistics.median(scaled(r)["wall_s"] for r in traceds)
        / statistics.median(scaled(r)["wall_s"] for r in plains))
    return metrics


LAYER_UNITS = dict(tracing.LAYER_UNITS, **{"trace.overhead_ratio": "ratio"})


def report_failures(plains):
    ops = [o for r in plains for o in r["outcomes"]]
    probes = [(name, p) for r in plains for name, p in r["probes"].items()]
    attempted, failed, wrong = failure_counts(ops)
    pfailed = sum(not p["ok"] for _, p in probes)
    total = attempted + len(probes)
    print(f"  failed_ratio   {(failed + pfailed) / total:.6f}  "
          f"({failed + pfailed} of {total}: {failed} of {attempted} operations, "
          f"{pfailed} of {len(probes)} known-defect probes)")
    shown = set()
    for name, p in probes:
        if name not in shown:
            shown.add(name)
            state = "passes" if p["ok"] else f"fails: {p['error'][:300]}"
            print(f"  known-defect probe {name}: {state}")
    for o in [o for o in ops if not o["ok"]][:5]:
        print(f"  FAILED {o['error'][:300]}")
    return attempted, failed, wrong


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=operands.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # a terminated run still stops its worker, in run_worker's finally
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "hallforge" / "__init__.py").is_file():
        print(f"error: no hallforge sources at {ROOT / 'src'}; run from the "
              "root of a hallforge checkout", file=sys.stderr)
        return 2

    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    spans = WORK / "spans" / f"{args.workload}-seed{args.seed}.jsonl"
    spans.parent.mkdir(parents=True, exist_ok=True)
    spans.unlink(missing_ok=True)
    plains, traceds = [], []
    start = time.monotonic()
    min_rounds = MIN_TRACED_ROUNDS if args.trace else MIN_ROUNDS
    cold = None
    try:
        if args.workload == "warm-identities":
            # set-up of the whole run: compute the operation list once and
            # write the cache files every warm round loads
            work.mkdir(parents=True, exist_ok=True)
            cold = run_worker(["--workload", args.workload, "--seed", args.seed,
                               "--phase", "cold", "--work", work], WORKER_TIMEOUT_S)
        while True:
            t = time.monotonic()
            elapsed = t - start
            if len(plains) >= min_rounds and elapsed >= args.seconds:
                break
            timeout = min(WORKER_TIMEOUT_S, RUN_BUDGET_S - elapsed)
            if timeout <= 0:
                break
            plain, traced = run_round(args.workload, args.seed, len(plains),
                                      bool(args.trace), work, spans, timeout, cold)
            plains.append(plain)
            if traced is not None:
                traceds.append(traced)
            last = time.monotonic() - t
            if time.monotonic() - start + last > RUN_BUDGET_S:
                break
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if len(plains) < min_rounds:
        print(f"error: only {len(plains)} of {min_rounds} rounds fit in "
              f"{RUN_BUDGET_S} s", file=sys.stderr)
        return 1

    print(f"workload {args.workload}  seed {args.seed}  rounds {len(plains)}  "
          f"operations per round {len(plains[0]['lat_s'])}  "
          f"(closed loop, one client)")
    if cold is not None:
        print(f"  cold pass that wrote the caches: {cold['total_s']:.4f} s")
    everything = plains + traceds
    attempted, failed, wrong = report_failures(everything)
    if args.trace:
        metrics = per_layer(plains, traceds)
        units = LAYER_UNITS
        absent = sorted({a for r in traceds for a in r.get("absent", [])})
        if absent:
            print(f"  absent layers (0 calls): {', '.join(absent)}")
        print(f"  spans written to {spans.relative_to(ROOT)}")
    else:
        metrics, notes, extra = end_to_end(args.workload, plains)
        units = dict(END_TO_END)
        for name, value in extra.items():
            print(f"  {name:<14} {value:.4f} ms")
    for name, value in metrics.items():
        note = "" if args.trace else notes.get(name, "")
        print(f"  {name:<14} {value:.6g} {units[name]}" + (f"  ({note})" if note else ""))
    result = {"correct": wrong == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
