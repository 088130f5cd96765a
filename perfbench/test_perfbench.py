"""Self-test of the benchmark harness on tiny inputs.

Runs every workload once untraced and once traced through ``run.py``'s own
code path (worker processes included) and checks that each metric named in
BENCHMARK.json is emitted with its unit, that every output check passes,
and that tracing leaves the program's outputs unchanged.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

import run
import tracer
import worker
import workloads

SPEC = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def records(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench")
    return {(name, trace): run.run_workload(name, seed=3, seconds=0.1, trace=trace,
                                            tiny=True, out_dir=out)
            for name in run.WORKLOAD_NAMES for trace in (False, True)}


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("trace,key", [(False, "end_to_end"), (True, "per_layer")])
def test_every_metric_emitted_with_its_unit(records, trace, key):
    expected = {m["name"]: m["unit"] for m in SPEC[key]}
    for name in run.WORKLOAD_NAMES:
        record = records[(name, trace)]
        assert record["correct"], record["failures"]
        emitted = {n: m["unit"] for n, m in record["metrics"].items()}
        assert emitted == expected, name
        assert all(isinstance(m["value"], float) for m in record["metrics"].values())


def test_tracing_leaves_outputs_unchanged(records):
    for name in run.WORKLOAD_NAMES:
        untraced, traced = records[(name, False)], records[(name, True)]
        assert len(untraced["output_digest"]) == 1, name
        assert traced["output_digest"] == untraced["output_digest"], name
        assert traced["samples"]["traced_passes"] >= 1


def test_noise_has_no_spans_in_synth_select(records):
    metrics = records[("synth-select", True)]["metrics"]
    assert metrics["noise.self_s"]["value"] == 0.0
    assert metrics["select.select_calls"]["value"] > 0


def test_tracer_restores_every_wrapped_function():
    import qrns
    from qrns import adders, noise, distributed

    before = (noise.output_probability, distributed.run_shots, qrns.output_probability,
              adders.AdderInstance.__dict__["input_states"])
    trace = tracer.Tracer()
    trace.install()
    try:
        assert distributed.output_probability is not before[0]
        assert distributed.run_shots is not before[1]
    finally:
        trace.restore()
    after = (noise.output_probability, distributed.run_shots, qrns.output_probability,
             adders.AdderInstance.__dict__["input_states"])
    assert after == before


def test_self_time_subtracts_the_union_of_children():
    spans = [
        (0, None, 0, "a.f", 0, 100, None),
        (1, 0, 0, "b.g", 10, 40, None),   # overlapping children, as on pool threads
        (2, 0, 0, "b.g", 30, 60, None),
        (3, 1, 0, "c.h", 15, 20, None),
    ]
    assert tracer.self_times(spans) == {0: 50, 1: 25, 2: 30, 3: 5}


def test_tail_latency_keeps_ten_samples_above():
    value, percentile, beyond = run.tail_latency([float(i) for i in range(100)])
    assert (value, beyond) == (89.0, 10)
    assert percentile == 90.0
    assert run.tail_latency([1.0, 3.0, 2.0]) == (3.0, None, 0)


def test_op_latency_is_the_median_pass_of_each_operation():
    # Three passes over two operations, in pass order.
    assert run.op_latencies([1.0, 5.0, 0.5, 6.0, 3.0, 9.0], 2) == [1.0, 6.0]


def test_latencies_scale_to_reference_speed():
    # An operation on a machine running at half speed takes twice as long.
    assert worker.normalized([0.2, 0.4], [1.0, 2.0]) == pytest.approx([0.2, 0.2])
    assert worker.slowdown("small") > 0 and worker.slowdown("large") > 0


def test_dqc_latency_is_over_every_sample(records):
    samples = records[("dqc-stream", False)]["samples"]
    assert len(samples["latency_s"]) == samples["passes"] * samples["ops_per_pass"]
    assert samples["op_tail"]["of"] == len(samples["latency_s"])
    assert records[("synth-select", False)]["samples"]["op_tail"]["of"] == \
        records[("synth-select", False)]["samples"]["ops_per_pass"]


def test_probability_tolerance_adds_pair_sampling_variance():
    exhaustive = workloads.probability_tolerance([[256, 0.0]], 200, 100)
    shot_only = 5 * math.sqrt(0.25 / (256 * 200) + 0.25 / (256 * 100)) + 0.001
    assert exhaustive == pytest.approx(shot_only)
    assert workloads.probability_tolerance([[256, 0.001]], 200, 100) > exhaustive
    # A set probability is a minimum: its tolerance is its widest estimate's.
    assert (workloads.probability_tolerance([[256, 0.0], [16, 0.0]], 200, 100)
            == workloads.probability_tolerance([[16, 0.0]], 200, 100))
