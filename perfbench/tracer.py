"""Outside-in tracing of qrns: spans around calls into its public functions.

Only a traced run installs the wrappers, and it restores the originals
afterwards, so the package itself is never edited.  Each wrapped function
is replaced at every import site: in its home module and in every other
qrns module (or the package) that imported it by name, so calls between
modules are timed as well as the benchmark's own calls.

A span is (id, parent, run id, name, start ns, end ns, attrs).  The parent
is the innermost open span of the same thread.  Pool threads of
``distributed.execute_jobs`` start with an empty stack, so their spans take
the enclosing ``execute_jobs`` span as parent.  Spans are kept in memory
and written out by the caller at the end of the run.
"""
from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from collections import defaultdict
from typing import Any, Callable

LAYERS = ("adders", "circuit", "resources", "select", "rns", "noise",
          "distributed", "reports")
# Span around one operation of the workload, opened by the benchmark.
OP_SPAN = "bench.op"
POOL_SPAN = "distributed.execute_jobs"


def _arg(args: tuple, kwargs: dict, index: int, name: str) -> Any:
    return args[index] if len(args) > index else kwargs[name]


def _prob_attrs(args, kwargs, result):
    pairs = len(result.per_pair)
    gates = len(_arg(args, kwargs, 0, "instance").circuit.gates)
    return {"pairs": pairs, "gate_shots": pairs * result.shots * gates}


def _shots_attrs(args, kwargs, result):
    gates = len(_arg(args, kwargs, 0, "circuit").gates)
    return {"gate_shots": _arg(args, kwargs, 2, "shots") * gates}


def _permute_attrs(args, kwargs, result):
    gates = len(_arg(args, kwargs, 0, "circuit").gates)
    return {"gate_rows": gates * _arg(args, kwargs, 1, "states").shape[0]}


def _rows_attrs(args, kwargs, result):
    return {"rows": len(_arg(args, kwargs, 1, "pairs"))}


def _selection_attrs(args, kwargs, result):
    return {"candidates": len(result.candidates)}


def _execute_attrs(args, kwargs, result):
    jobs = _arg(args, kwargs, 0, "jobs")
    expected = {job.job_id: job.expected_bits for job in jobs}
    return {
        "jobs": len(jobs),
        "workers": _arg(args, kwargs, 1, "workers"),
        "failures": sum(r.failed for r in result),
        "correct": sum(not r.failed and r.top_bits == expected[r.job_id]
                       for r in result),
    }


# (module, attribute, attrs from (args, kwargs, result) or None).  The span
# is named "<module>.<attribute>".  `distributed._run_job` is the one
# private function: it is the boundary of a residue job on a pool thread.
FUNCTIONS: tuple[tuple[str, str, Callable | None], ...] = (
    ("adders", "build_adder", None),
    ("adders", "adder_instance", None),
    ("circuit", "to_text", None),
    ("circuit", "from_text", None),
    ("circuit", "apply_permutation_batch", _permute_attrs),
    ("resources", "resource_report", None),
    ("select", "select_rns", None),
    ("select", "explain_selection", _selection_attrs),
    ("rns", "crt_reconstruct", None),
    ("noise", "output_probability", _prob_attrs),
    ("noise", "run_shots", _shots_attrs),
    ("distributed", "distributed_add", None),
    ("distributed", "plan_jobs", None),
    ("distributed", "execute_jobs", _execute_attrs),
    ("distributed", "_run_job", None),
    ("distributed", "aggregate", None),
    ("distributed", "gain_report", None),
    ("reports", "build_table1", None),
    ("reports", "build_table2", None),
)
# (module, class, method, attrs); methods are patched on the class.
METHODS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("adders", "AdderInstance", "input_states", _rows_attrs),
    ("adders", "AdderInstance", "run_pairs", _rows_attrs),
    ("reports", "ReportDocument", "to_text", None),
    ("reports", "ReportDocument", "to_json", None),
    ("reports", "ReportDocument", "to_csv", None),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.run_id = 0
        self._lock = threading.Lock()
        self._next_id = 0
        self._local = threading.local()
        self._pool_parent: int | None = None
        self._patches: list[tuple[Any, str, Any]] = []

    # --- recording ---------------------------------------------------------

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict,
             attrs_fn: Callable | None = None) -> Any:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        if stack:
            parent = stack[-1]
        elif threading.current_thread() is not threading.main_thread():
            parent = self._pool_parent
        else:
            parent = None
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        stack.append(span_id)
        if name == POOL_SPAN:
            self._pool_parent = span_id
        result = None
        start = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            if name == POOL_SPAN:
                self._pool_parent = None
            attrs = attrs_fn(args, kwargs, result) if attrs_fn and result is not None else None
            with self._lock:
                self.spans.append((span_id, parent, self.run_id, name, start, end, attrs))

    def _wrapper(self, name: str, fn: Callable, attrs_fn: Callable | None) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, attrs_fn)
        return wrapper

    # --- installing --------------------------------------------------------

    def install(self) -> None:
        modules = {name: importlib.import_module(f"qrns.{name}") for name in LAYERS}
        sites = [importlib.import_module("qrns")] + list(modules.values())
        for module_name, attr, attrs_fn in FUNCTIONS:
            original = getattr(modules[module_name], attr)
            wrapper = self._wrapper(f"{module_name}.{attr}", original, attrs_fn)
            for site in sites:
                for key, value in list(vars(site).items()):
                    if value is original:
                        self._patches.append((site, key, value))
                        setattr(site, key, wrapper)
        for module_name, cls_name, attr, attrs_fn in METHODS:
            cls = getattr(modules[module_name], cls_name)
            original = cls.__dict__[attr]
            self._patches.append((cls, attr, original))
            setattr(cls, attr, self._wrapper(f"{module_name}.{attr}", original, attrs_fn))

    def restore(self) -> None:
        for owner, key, value in reversed(self._patches):
            setattr(owner, key, value)
        self._patches.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


# --- metrics from spans ----------------------------------------------------


def _covered(intervals: list[tuple[int, int]]) -> int:
    """Length of the union of [start, end) intervals."""
    total = 0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans: list[tuple]) -> dict[int, int]:
    """Span id -> its duration minus the part its children cover (ns)."""
    bounds = {s[0]: (s[4], s[5]) for s in spans}
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for span_id, parent, _, _, start, end, _ in spans:
        if parent is not None and parent in bounds:
            lo, hi = bounds[parent]
            children[parent].append((max(start, lo), min(end, hi)))
    return {span_id: (end - start) - _covered(children.get(span_id, []))
            for span_id, _, _, _, start, end, _ in spans}


def layer_metrics(spans: list[tuple], passes: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics for one pass: totals over the traced passes / passes.

    A metric whose base count is zero on a workload (for instance the noise
    kernel on `synth-select`) reads 0.
    """
    self_ns = self_times(spans)
    total: dict[str, int] = defaultdict(int)      # inclusive ns per span name
    calls: dict[str, int] = defaultdict(int)
    self_by_name: dict[str, int] = defaultdict(int)
    layer_self: dict[str, int] = defaultdict(int)
    counts: dict[str, int] = defaultdict(int)     # "<span name>.<attr>" sums
    job_ns: dict[int, list[int]] = defaultdict(list)  # execute span -> job ns
    for span_id, parent, _, name, start, end, attrs in spans:
        total[name] += end - start
        calls[name] += 1
        self_by_name[name] += self_ns[span_id]
        layer_self[name.split(".")[0]] += self_ns[span_id]
        for key, value in (attrs or {}).items():
            counts[f"{name}.{key}"] += value
        if name == "distributed._run_job" and parent is not None:
            job_ns[parent].append(end - start)

    def per_pass(value: float) -> float:
        return value / passes

    def seconds(ns: float) -> float:
        return per_pass(ns) / 1e9

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    slowest = sorted(max(durations) for durations in job_ns.values())
    job_total = sum(sum(durations) for durations in job_ns.values())
    execute_ns = total[POOL_SPAN]
    workers = ratio(counts[f"{POOL_SPAN}.workers"], calls[POOL_SPAN])
    metrics: dict[str, tuple[float, str]] = {
        "noise.ns_per_gate_shot": (ratio(self_by_name["noise.output_probability"],
                                         counts["noise.output_probability.gate_shots"]), "ns"),
        "noise.output_probability_s": (seconds(total["noise.output_probability"]), "s"),
        "noise.output_probability_calls": (per_pass(calls["noise.output_probability"]), "count"),
        "noise.pairs": (per_pass(counts["noise.output_probability.pairs"]), "count"),
        "noise.gate_shots": (per_pass(counts["noise.output_probability.gate_shots"]), "count"),
        "noise.run_shots_ns_per_gate_shot": (ratio(self_by_name["noise.run_shots"],
                                                   counts["noise.run_shots.gate_shots"]), "ns"),
        "noise.run_shots_s": (seconds(total["noise.run_shots"]), "s"),
        "noise.run_shots_calls": (per_pass(calls["noise.run_shots"]), "count"),
        "distributed.job_s_max": ((slowest[len(slowest) // 2] / 1e9) if slowest else 0.0, "s"),
        "distributed.parallel_efficiency": (ratio(job_total, workers * execute_ns), "ratio"),
        "distributed.plan_s": (seconds(total["distributed.plan_jobs"]), "s"),
        "distributed.execute_s": (seconds(execute_ns), "s"),
        "distributed.aggregate_s": (seconds(total["distributed.aggregate"]), "s"),
        "distributed.jobs": (per_pass(counts[f"{POOL_SPAN}.jobs"]), "count"),
        "distributed.job_failures": (per_pass(counts[f"{POOL_SPAN}.failures"]), "count"),
        "distributed.correct_ratio": (ratio(counts[f"{POOL_SPAN}.correct"],
                                            counts[f"{POOL_SPAN}.jobs"]), "ratio"),
        "distributed.gain_report_s": (seconds(total["distributed.gain_report"]), "s"),
        "reports.render_s": (seconds(total["reports.to_text"] + total["reports.to_json"]
                                     + total["reports.to_csv"]), "s"),
        "adders.input_states_s": (seconds(total["adders.input_states"]), "s"),
        "adders.input_rows": (per_pass(counts["adders.input_states.rows"]), "count"),
        "adders.build_s": (seconds(total["adders.build_adder"]), "s"),
        "adders.build_calls": (per_pass(calls["adders.build_adder"]), "count"),
        "select.select_s": (seconds(total["select.select_rns"]), "s"),
        "select.select_calls": (per_pass(calls["select.select_rns"]), "count"),
        "select.candidates_ranked": (per_pass(counts["select.explain_selection.candidates"]), "count"),
        "resources.report_s": (seconds(total["resources.resource_report"]), "s"),
        "resources.report_calls": (per_pass(calls["resources.resource_report"]), "count"),
        "circuit.text_roundtrip_s": (seconds(total["circuit.to_text"] + total["circuit.from_text"]), "s"),
        "circuit.permute_ns_per_gate_row": (ratio(total["circuit.apply_permutation_batch"],
                                                  counts["circuit.apply_permutation_batch.gate_rows"]), "ns"),
        "rns.crt_s": (seconds(total["rns.crt_reconstruct"]), "s"),
        "rns.crt_calls": (per_pass(calls["rns.crt_reconstruct"]), "count"),
        "trace.spans": (per_pass(len(spans)), "count"),
    }
    for layer in LAYERS + ("bench",):
        metrics[f"{layer}.self_s"] = (seconds(layer_self[layer]), "s")
    return metrics
