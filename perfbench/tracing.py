"""Per-layer tracing installed from outside the program.

Each hook replaces one public entry point of a hallforge module by a
wrapper that counts calls and time.  Hot kernels are aggregated (calls
and seconds of the outermost activation); coarse boundaries are spans
with a parent link and the operation they belong to, kept in memory and
written out when the run ends.  A span's self time is its duration minus
the time covered by its child spans.

A function that other modules imported by name (``from .gf import
field``) is patched in every module that holds it.  A hook whose
attribute does not exist, because a later version removed the function,
is reported as absent and its layer reads 0 calls.
"""

import importlib
import json
from collections import Counter
from time import perf_counter

MODULES = ("gf", "linalg", "quiver", "counting", "hall", "algebra", "pbw",
           "coalgebra", "p1", "cli")

KERNEL, SPAN, COUNT = "kernel", "span", "count"

# (module, attribute, layer, kind)
HOOKS = (
    ("gf", "field", "gf.field", KERNEL),
    ("linalg", "insert_row", "linalg.insert_row", KERNEL),
    ("linalg", "reduce_vector", "linalg.reduce_vector", KERNEL),
    ("linalg", "null_space", "linalg.null_space", KERNEL),
    ("linalg", "row_reduce", "linalg.row_reduce", KERNEL),
    ("linalg", "matrix_apply", "linalg.matrix_apply", KERNEL),
    ("counting", "_small_rank", "counting.small_rank", KERNEL),
    ("counting", "count_points", "counting.count_points", KERNEL),
    ("counting", "_survey", "counting.survey", SPAN),
    ("counting", "_loop_survey", "counting.loop_survey", KERNEL),
    ("counting", "_quiver_survey", "counting.quiver_survey", KERNEL),
    ("counting", "_flat_cells", "counting.flat_cells", KERNEL),
    ("quiver", "decompose", "quiver.decompose", KERNEL),
    ("quiver", "realize_class", "quiver.realize_class", KERNEL),
    ("quiver", "classes_with_dim", "quiver.classes_with_dim", KERNEL),
    ("quiver", "class_dim", "quiver.class_dim", KERNEL),
    ("quiver", "make_class", "quiver.make_class", KERNEL),
    ("hall", "HallEngine.hall_polynomial", "hall.hall_polynomial", KERNEL),
    ("hall", "HallEngine._interpolate", "hall.interpolate", SPAN),
    ("hall", "fit_polynomial", "hall.fit_polynomial", KERNEL),
    ("hall", "HallEngine.candidate_targets", "hall.candidate_targets", KERNEL),
    ("hall", "HallCache.get", "hall.cache.get", KERNEL),
    ("hall", "HallCache.load", "hall.cache.load", SPAN),
    ("hall", "HallCache.dump", "hall.cache.dump", SPAN),
    ("algebra", "convolve", "algebra.convolve", SPAN),
    ("algebra", "_canonical", "algebra.canonical", KERNEL),
    ("algebra", "_common_atoms", "algebra.common_atoms", KERNEL),
    ("algebra", "_minimize_points", "algebra.minimize_points", KERNEL),
    ("algebra", "refine_families", "algebra.refine_families", KERNEL),
    ("algebra", "equal", "algebra.equal", KERNEL),
    ("coalgebra", "_class_splits", "coalgebra.class_splits", COUNT),
    ("coalgebra", "green_check", "coalgebra.green_check", SPAN),
    ("coalgebra", "comultiply", "coalgebra.comultiply", KERNEL),
    ("coalgebra", "tensor_convolve", "coalgebra.tensor_convolve", SPAN),
    ("pbw", "certify_truncation", "pbw.certify_truncation", SPAN),
    ("pbw", "value_on_set", "pbw.value_on_set", KERNEL),
    ("pbw", "_solve_in_span", "pbw.solve_in_span", KERNEL),
    ("p1", "convolve_family", "p1.convolve_family", SPAN),
    ("p1", "_base_product", "p1.base_product", KERNEL),
    ("p1", "_shape_value_sampled", "p1.shape_value_sampled", KERNEL),
    ("cli", "_session", "cli.session", KERNEL),
)


def _observe_subreps(tracer, layer):
    def observe(args, result):
        tracer.counters[layer + ".subreps"] += sum(result.values())
    return observe


def _observe_cache_get(tracer):
    def observe(args, result):
        tracer.counters["hall.cache.lookups"] += 1
        tracer.counters["hall.cache.hits"] += result is not None
    return observe


def _observe_cache_entries(tracer):
    def observe(args, result):
        tracer.counters["hall.cache.entries"] += len(args[0].entries)
    return observe


class Tracer:
    """Installs the hooks, accumulates counters and spans, restores the
    original attributes on uninstall."""

    def __init__(self, package="hallforge", hooks=HOOKS, modules=MODULES):
        self.package = package
        self.hooks = hooks
        self.modules = modules
        self.layers = {}            # layer -> [calls, s, self_s, depth]
        self.counters = Counter()
        self.spans = []             # (trace id, span id, parent id, name, start, end)
        self.absent = []
        self.trace_id = None
        self._stack = []            # open spans: [span id, child seconds]
        self._next_span = 0
        self._restore = []
        self._observers = {
            "counting.loop_survey": _observe_subreps(self, "counting.loop_survey"),
            "counting.quiver_survey": _observe_subreps(self, "counting.quiver_survey"),
            "hall.cache.get": _observe_cache_get(self),
            "hall.cache.load": _observe_cache_entries(self),
            "hall.cache.dump": _observe_cache_entries(self),
        }

    # -- installation ------------------------------------------------------

    def install(self):
        mods = {m: importlib.import_module(f"{self.package}.{m}")
                for m in self.modules}
        for mod_name, attr, layer, kind in self.hooks:
            owner = mods[mod_name]
            *path, name = attr.split(".")
            try:
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, name)
            except AttributeError:
                self.absent.append(layer)
                continue
            wrapper = self._wrap(original, layer, kind)
            if path:
                self._patch(owner, name, original, wrapper)
            else:
                for mod in mods.values():
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, original, wrapper)
        return self

    def _patch(self, owner, name, original, wrapper):
        self._restore.append((owner, name, original))
        setattr(owner, name, wrapper)

    def uninstall(self):
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, fn, layer, kind):
        st = self.layers.setdefault(layer, [0, 0.0, 0.0, 0])
        observe = self._observers.get(layer)
        if kind == COUNT:
            def counted(*args, **kwargs):
                st[0] += 1
                return fn(*args, **kwargs)
            return counted
        if kind == KERNEL:
            def kernel(*args, **kwargs):
                st[0] += 1
                if st[3]:
                    result = fn(*args, **kwargs)
                else:
                    st[3] = 1
                    t = perf_counter()
                    try:
                        result = fn(*args, **kwargs)
                    finally:
                        st[1] += perf_counter() - t
                        st[3] = 0
                if observe is not None:
                    observe(args, result)
                return result
            return kernel

        def span(*args, **kwargs):
            with self.span(layer):
                result = fn(*args, **kwargs)
            if observe is not None:
                observe(args, result)
            return result
        return span

    def span(self, layer):
        """Context manager recording one span of `layer`."""
        return _Span(self, layer, self.layers.setdefault(layer, [0, 0.0, 0.0, 0]))

    # -- results -----------------------------------------------------------

    def raw(self):
        """Counters as plain data; raw() of several processes add up."""
        out = {f"{layer}.{field}": value
               for layer, st in self.layers.items()
               for field, value in zip(("calls", "s", "self_s"), st)}
        out.update(self.counters)
        return out

    def write_spans(self, path):
        """Append the spans as JSON lines."""
        with open(path, "a") as fh:
            for tid, sid, parent, name, start, end in self.spans:
                fh.write(json.dumps({"trace": tid, "span": sid, "parent": parent,
                                     "name": name, "start": start, "end": end}) + "\n")


class _Span:
    __slots__ = ("tracer", "layer", "st", "frame", "start", "outer")

    def __init__(self, tracer, layer, st):
        self.tracer, self.layer, self.st = tracer, layer, st

    def __enter__(self):
        tr = self.tracer
        tr._next_span += 1
        self.frame = [tr._next_span, 0.0]
        tr._stack.append(self.frame)
        self.st[0] += 1
        self.outer = not self.st[3]
        self.st[3] += 1
        self.start = perf_counter()

    def __exit__(self, *exc):
        end = perf_counter()
        tr = self.tracer
        d = end - self.start
        tr._stack.pop()
        parent = tr._stack[-1] if tr._stack else None
        if parent is not None:
            parent[1] += d
        st = self.st
        st[3] -= 1
        if self.outer:
            st[1] += d
        st[2] += d - self.frame[1]
        if exc[0] is not None:
            tr.counters[self.layer + ".raised"] += 1
        tr.spans.append((tr.trace_id, self.frame[0],
                         parent[0] if parent is not None else None,
                         self.layer, self.start, end))
        return False


def merge(raws):
    total = Counter()
    for r in raws:
        total.update(r)
    return dict(total)


def _ratio(num, den):
    return num / den if den else 0.0


# Per-layer metrics: (name, unit, value from merged raw counters).
# Which end-to-end metric each should move, on which workload: README.md.
def _calls(layer):
    return lambda r: r.get(layer + ".calls", 0)


def _secs(layer, field="s"):
    return lambda r: r.get(f"{layer}.{field}", 0.0)


PER_LAYER = [
    ("gf.field.calls", "count", _calls("gf.field")),
    ("gf.field.s", "s", _secs("gf.field")),
]
for _k in ("insert_row", "reduce_vector", "null_space", "row_reduce", "matrix_apply"):
    PER_LAYER += [(f"linalg.{_k}.calls", "count", _calls(f"linalg.{_k}")),
                  (f"linalg.{_k}.s", "s", _secs(f"linalg.{_k}"))]
PER_LAYER += [
    ("counting.small_rank.calls", "count", _calls("counting.small_rank")),
    ("counting.small_rank.s", "s", _secs("counting.small_rank")),
    ("counting.count_points.calls", "count", _calls("counting.count_points")),
    ("counting.count_points.s", "s", _secs("counting.count_points")),
    ("counting.survey.calls", "count", _calls("counting.survey")),
    ("counting.survey.builds", "count", lambda r: _builds(r)),
    # with no survey asked for, nothing was rebuilt: the ratio reads 1
    ("counting.survey.hit_ratio", "ratio",
     lambda r: 1.0 - _ratio(_builds(r), r.get("counting.survey.calls", 0))),
    ("counting.loop_survey.s", "s", _secs("counting.loop_survey")),
    ("counting.loop_survey.subreps", "count",
     lambda r: r.get("counting.loop_survey.subreps", 0)),
    ("counting.flat_cells.s", "s", _secs("counting.flat_cells")),
    ("counting.quiver_survey.s", "s", _secs("counting.quiver_survey")),
    ("counting.quiver_survey.subreps", "count",
     lambda r: r.get("counting.quiver_survey.subreps", 0)),
    ("quiver.decompose.calls", "count", _calls("quiver.decompose")),
    ("quiver.decompose.s", "s", _secs("quiver.decompose")),
    ("quiver.realize_class.calls", "count", _calls("quiver.realize_class")),
    ("quiver.realize_class.s", "s", _secs("quiver.realize_class")),
    ("hall.hall_polynomial.calls", "count", _calls("hall.hall_polynomial")),
    ("hall.hall_polynomial.s", "s", _secs("hall.hall_polynomial")),
    ("hall.cache.hit_ratio", "ratio",
     lambda r: _ratio(r.get("hall.cache.hits", 0), r.get("hall.cache.lookups", 0))),
    ("hall.interpolate.calls", "count", _calls("hall.interpolate")),
    ("hall.interpolate.self_s", "s", _secs("hall.interpolate", "self_s")),
    # every F_q sample is one count_points call made by the interpolator
    ("hall.interpolate.samples_per_poly", "count",
     lambda r: _ratio(r.get("counting.count_points.calls", 0),
                      r.get("hall.interpolate.calls", 0))),
    ("hall.interpolate.failed", "count", lambda r: r.get("hall.interpolate.raised", 0)),
    ("hall.fit_polynomial.s", "s", _secs("hall.fit_polynomial")),
    ("hall.candidate_targets.calls", "count", _calls("hall.candidate_targets")),
    ("hall.candidate_targets.s", "s", _secs("hall.candidate_targets")),
    ("quiver.classes_with_dim.calls", "count", _calls("quiver.classes_with_dim")),
    ("quiver.classes_with_dim.s", "s", _secs("quiver.classes_with_dim")),
    ("hall.cache.load.s", "s", _secs("hall.cache.load")),
    ("hall.cache.dump.s", "s", _secs("hall.cache.dump")),
    ("hall.cache.entries", "count", lambda r: r.get("hall.cache.entries", 0)),
    ("cli.session.s", "s", _secs("cli.session")),
    ("cli.cache_file_bytes", "bytes", lambda r: r.get("cli.cache_file_bytes", 0)),
    ("cli.process_floor_ms", "ms", lambda r: r.get("cli.process_floor_ms", 0.0)),
    ("cli.cold_p50_ms", "ms", lambda r: r.get("cli.cold_p50_ms", 0.0)),
    ("cli.warm_p50_ms", "ms", lambda r: r.get("cli.warm_p50_ms", 0.0)),
    ("algebra.convolve.calls", "count", _calls("algebra.convolve")),
    ("algebra.convolve.self_s", "s", _secs("algebra.convolve", "self_s")),
]
for _k in ("canonical", "common_atoms", "minimize_points", "refine_families", "equal"):
    PER_LAYER += [(f"algebra.{_k}.calls", "count", _calls(f"algebra.{_k}")),
                  (f"algebra.{_k}.s", "s", _secs(f"algebra.{_k}"))]
for _k in ("class_dim", "make_class"):
    PER_LAYER += [(f"quiver.{_k}.calls", "count", _calls(f"quiver.{_k}")),
                  (f"quiver.{_k}.s", "s", _secs(f"quiver.{_k}"))]
PER_LAYER.append(("coalgebra.class_splits.calls", "count", _calls("coalgebra.class_splits")))
for _k in ("green_check", "comultiply", "tensor_convolve"):
    PER_LAYER += [(f"coalgebra.{_k}.calls", "count", _calls(f"coalgebra.{_k}")),
                  (f"coalgebra.{_k}.s", "s", _secs(f"coalgebra.{_k}"))]
PER_LAYER += [
    ("pbw.certify_truncation.calls", "count", _calls("pbw.certify_truncation")),
    ("pbw.certify_truncation.s", "s", _secs("pbw.certify_truncation")),
    ("pbw.value_on_set.s", "s", _secs("pbw.value_on_set")),
    ("pbw.solve_in_span.s", "s", _secs("pbw.solve_in_span")),
]
for _k in ("convolve_family", "base_product", "shape_value_sampled"):
    PER_LAYER += [(f"p1.{_k}.calls", "count", _calls(f"p1.{_k}")),
                  (f"p1.{_k}.s", "s", _secs(f"p1.{_k}"))]
PER_LAYER.append(("bench.known_defects_failed", "count",
                  lambda r: r.get("bench.known_defects_failed", 0)))


def _builds(r):
    # a survey is built only on a memo miss, by exactly one of these
    return sum(r.get(f"counting.{k}.calls", 0)
               for k in ("flat_cells", "loop_survey", "quiver_survey"))


def layer_metrics(raw):
    """{metric name: value} for every per-layer metric."""
    return {name: fn(raw) for name, _unit, fn in PER_LAYER}


LAYER_UNITS = {name: unit for name, unit, _ in PER_LAYER}
