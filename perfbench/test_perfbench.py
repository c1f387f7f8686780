"""Self-tests of the benchmark's own logic.

    python3 -m pytest -q perfbench
"""

import json
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import calibration  # noqa: E402
import operands  # noqa: E402
import references  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402


# -- tail percentile -----------------------------------------------------------

def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(195) == 90      # p95 leaves 9 beyond
    assert run.tail_percentile(200) == 95      # p95 leaves exactly 10
    assert run.tail_percentile(48) == 75
    assert run.tail_percentile(1620) == 99
    assert run.tail_percentile(19) is None     # the median leaves 9


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert run.percentile(values, 50) == 50
    assert run.percentile(values, 90) == 90
    assert run.percentile(list(reversed(values)), 99.9) == 100


def test_times_are_scaled_to_the_reference_speed():
    slow = calibration.REFERENCE_S * 2
    record = {"setup_s": 1.0, "wall_s": 4.0, "lat_s": [2.0, 2.0],
              "calibration_s": [slow, slow, slow * 9]}
    got = run.scaled(record)
    assert (got["setup_s"], got["wall_s"], got["lat_s"]) == (0.5, 2.0, [1.0, 1.0])
    assert record["wall_s"] == 4.0
    per_op = run.scaled(dict(record, op_calibration_s=[slow, slow / 4]))
    assert (per_op["wall_s"], per_op["lat_s"]) == (5.0, [1.0, 4.0])


# -- m_mu * m_nu reference -----------------------------------------------------

def test_monomial_products_by_hand():
    # m1 * m1 = m2 + 2 m11
    assert references.loop_product((1,), (1,)) == {"J2": 1, "J1+J1": 2}
    # m1 * m2 = m3 + m21
    assert references.loop_product((1,), (2,)) == {"J3": 1, "J1+J2": 1}
    # m11 * m1 = m21 + 3 m111
    assert references.loop_product((1, 1), (1,)) == {"J1+J2": 1, "J1+J1+J1": 3}
    # the defect probe's reference: m11 * m1111 at m111111
    assert references.monomial_coefficient((1, 1), (1,) * 4, (1,) * 6) == 15


def test_element_values_reads_canonical_json():
    from hallforge import algebra as alg, hall, quiver
    b = quiver.builtin_backend("loop")
    j1 = alg.class_char(b, quiver.parse_class(b, "[J1]"))
    prod = alg.convolve(hall.HallEngine(b), j1, j1)
    got = references.element_values(alg.canonical_json(b, prod))
    assert got == {"J2": Fraction(1), "J1+J1": Fraction(2)}


def test_operation_counts_do_not_depend_on_the_seed():
    for w in operands.WORKLOADS:
        sizes = {len(operands.ops_for(w, seed, rnd)) for seed in (1, 2) for rnd in (0, 1)}
        assert len(sizes) == 1, w
    assert operands.ops_for("warm-identities", 5, 0) == operands.ops_for("warm-identities", 5, 0)
    assert operands.ops_for("typeA-cold", 5, 0) != operands.ops_for("typeA-cold", 6, 0)


# -- failure accounting --------------------------------------------------------

def outcome(ok, raised=False, digest=None):
    return {"ok": ok, "raised": raised, "error": None if ok else "x", "digest": digest}


def test_raised_and_wrong_results_both_count_as_failed():
    attempted, failed, wrong = run.failure_counts(
        [outcome(True), outcome(False, raised=True), outcome(False)])
    assert (attempted, failed, wrong) == (3, 2, 1)


def test_probe_reports_exception_class():
    def raises(*_):
        raise ZeroDivisionError("boom")

    def wrong(*_):
        return False, "got 1, want 2"
    assert worker.run_probe(raises, None, None, None) == {
        "ok": False, "error": "ZeroDivisionError: boom"}
    assert worker.run_probe(wrong, None, None, None)["error"].startswith("ReferenceMismatch")


def test_warm_result_differing_from_cold_fails():
    def keyed(op, o):
        return dict(o, op=op)
    cold = {"outcomes": [keyed("a", outcome(True, digest="1")),
                         keyed("b", outcome(True, digest="2")),
                         keyed("c", outcome(False))]}
    warm = {"outcomes": [keyed("c", outcome(True)),
                         keyed("a", outcome(True, digest="1")),
                         keyed("b", outcome(True, digest="3"))]}
    joined = run.join_warm(cold, warm)
    assert [o["ok"] for o in joined["outcomes"]] == [False, True, False]


# -- tracing -------------------------------------------------------------------

def test_missing_attribute_is_reported_absent_with_zero_calls():
    hooks = (("gf", "no_such_function", "gf.none", tracing.KERNEL),
             ("hall", "HallEngine.no_such_method", "hall.none", tracing.SPAN))
    tr = tracing.Tracer(hooks=hooks, modules=("gf", "hall")).install()
    tr.uninstall()
    assert tr.absent == ["gf.none", "hall.none"]
    assert tracing.layer_metrics(tr.raw())["gf.field.calls"] == 0


def test_every_layer_metric_is_a_number_when_its_layer_never_ran():
    values = tracing.layer_metrics({})
    assert all(isinstance(v, (int, float)) for v in values.values()), values


def test_name_imported_by_from_import_is_patched_everywhere():
    from hallforge import counting, gf, quiver
    original = gf.field
    tr = tracing.Tracer(hooks=(("gf", "field", "gf.field", tracing.KERNEL),)).install()
    try:
        assert counting.field is gf.field is quiver.field is not original
        counting.field(5)
        quiver.field(7)
    finally:
        tr.uninstall()
    assert counting.field is gf.field is quiver.field is original
    assert tr.raw()["gf.field.calls"] == 2


def test_span_self_time_excludes_child_spans():
    tr = tracing.Tracer(hooks=())
    tr.trace_id = 7
    with tr.span("outer"):
        with tr.span("inner"):
            sum(range(10000))
    raw = tr.raw()
    assert raw["outer.self_s"] <= raw["outer.s"] - raw["inner.s"] + 1e-9
    (_, inner_id, inner_parent, *_), (_, outer_id, outer_parent, *_) = tr.spans
    assert inner_parent == outer_id and outer_parent is None
    assert {s[0] for s in tr.spans} == {7}


# -- BENCHMARK.json ------------------------------------------------------------

def test_benchmark_json_lists_what_the_runner_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(operands.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.LAYER_UNITS.items())
