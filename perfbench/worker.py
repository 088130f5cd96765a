"""One workload in its own process: set up, report ready, then measure.

Started by run.py with ``src`` on PYTHONPATH.  After set-up it prints
``ready`` and waits for one line on stdin: ``exit`` ends the process (a
set-up-only sample), ``run`` measures and prints one JSON result line.

An untraced run repeats passes over the workload's fixed input list for
``--seconds``.  A traced run spends the first half on untraced passes and
the second half on traced ones, so the tracing overhead is measured in the
same process on the same inputs.

Each operation is bracketed by a fixed reference loop (`slowdown`), which
measures how much slower than usual the machine runs at that moment;
run.py divides each latency by it (see `normalized`).  Set-up is scaled
the same way: the process runs the loop right after set-up and reports
that slowdown with its answer to the first command.
"""
from __future__ import annotations

import argparse
import functools
import hashlib
import json
import resource
import statistics
import sys
import threading
import time
import traceback
from pathlib import Path

import numpy as np

# Two reference loops, one per regime of the program's work, each with its
# time in a quiet stretch of the machine the benchmark was written on (an
# Intel Xeon with 2 CPUs, Python 3.11, numpy 2.4).  A reference measurement
# is the loop's time over that: the machine's slowdown at that moment.
_SMALL_ARRAY = np.random.Generator(np.random.PCG64(0)).integers(
    0, 2, size=(200, 64), dtype=np.uint8)
_LARGE_ARRAY = np.random.Generator(np.random.PCG64(1)).integers(
    0, 2, size=(20000, 24), dtype=np.uint8)
LARGE_ARRAY_THREADS = 2
# Each thread's buffers, allocated once, so that the loop adds the same
# memory to every run's peak_rss_mb and no page faults to its time.
_LARGE_BUFFERS = [(np.empty(_LARGE_ARRAY.shape, np.float32),
                   np.empty(_LARGE_ARRAY.shape, bool),
                   np.empty_like(_LARGE_ARRAY)) for _ in range(LARGE_ARRAY_THREADS)]


def small_array_loop() -> None:
    """Per-call overhead: small numpy operations and interpreted Python."""
    for _ in range(60):
        flipped = _SMALL_ARRAY[:, ::-1].copy()
        flipped ^= _SMALL_ARRAY
        sum(range(2000))


def _large_array_share(index: int) -> None:
    rng = np.random.Generator(np.random.PCG64(index))
    draws, flips, state = _LARGE_BUFFERS[index]
    np.copyto(state, _LARGE_ARRAY)
    for _ in range(3):
        rng.random(dtype=np.float32, out=draws)
        np.less(draws, 0.01, out=flips)
        np.bitwise_xor(state, flips, out=state)


def large_array_loop() -> None:
    """Random draws into 20000-row arrays on LARGE_ARRAY_THREADS threads at
    once, which numpy runs in parallel; slowed by interference on any CPU
    they use."""
    threads = [threading.Thread(target=_large_array_share, args=(index,))
               for index in range(LARGE_ARRAY_THREADS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


REFERENCE_LOOPS = {"small": (small_array_loop, 0.003), "large": (large_array_loop, 0.008)}


def slowdown(kind: str) -> float:
    """Run reference loop `kind` once; its time over its quiet-stretch time."""
    loop, quiet_s = REFERENCE_LOOPS[kind]
    start = time.perf_counter()
    loop()
    return (time.perf_counter() - start) / quiet_s


def run_pass(ops, reference, tracer=None) -> dict:
    """Run every operation once; time `run`, then check outside the timing.
    `reference` measures the machine's slowdown before and after each
    operation."""
    latencies, slowdowns, failures = [], [], []
    digest = hashlib.sha256()
    reference_before = reference()
    for index, op in enumerate(ops):
        start, raised = time.perf_counter(), False
        try:
            if tracer is None:
                output = op.run()
            else:
                tracer.run_id = index
                output = tracer.call("bench.op", op.run, (), {})
        except Exception:  # noqa: BLE001 - a raising operation is a failure
            raised = True
            failures.append(f"{op.label}: {traceback.format_exc(limit=3)}")
        latencies.append(time.perf_counter() - start)
        reference_after = reference()
        slowdowns.append((reference_before + reference_after) / 2)
        reference_before = reference_after
        if raised:
            continue
        try:
            op.check(output)
        except Exception as exc:  # noqa: BLE001 - CheckFailed or a crash in the check
            failures.append(f"{op.label}: {type(exc).__name__}: {exc}")
            continue
        digest.update(f"{op.label}={op.digest(output)}\n".encode())
    return {"wall": sum(latencies), "latencies": latencies, "slowdowns": slowdowns,
            "failures": failures, "digest": digest.hexdigest()}


def run_passes(ops, seconds: float, reference, tracer=None) -> list[dict]:
    """Whole passes while another one of median length still fits in
    `seconds`; at least one."""
    passes, lengths = [], []
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        passes.append(run_pass(ops, reference, tracer))
        lengths.append(time.perf_counter() - pass_start)
        if time.perf_counter() - start + statistics.median(lengths) > seconds:
            return passes


def normalized(latencies: list[float], slowdowns: list[float]) -> list[float]:
    """Each latency at reference speed: divided by the mean slowdown the
    reference loop measured just before and just after it.

    On a shared machine other tenants slow everything down by up to 1.6x,
    for seconds to minutes at a time, so that even an operation's fastest
    repeat in a 35 s run depends on when the run happened.  The reference
    loop slows down with it, and the ratio stays.
    """
    return [latency / factor for latency, factor in zip(latencies, slowdowns)]


def op_latencies(latencies: list[float], ops_per_pass: int) -> list[float]:
    """Each operation's latency: the median over the run's passes."""
    return [statistics.median(latencies[i::ops_per_pass]) for i in range(ops_per_pass)]


def _normalized(passes: list[dict]) -> list[float]:
    return normalized([x for p in passes for x in p["latencies"]],
                      [x for p in passes for x in p["slowdowns"]])


def measure(ops, seconds: float, trace: bool, spans_path: Path | None,
            reference) -> dict:
    if not trace:
        passes = run_passes(ops, seconds, reference)
        traced, layers = [], {}
    else:
        from tracer import Tracer, layer_metrics

        passes = run_passes(ops, seconds / 2, reference)
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_passes(ops, seconds / 2, reference, tracer)
        finally:
            tracer.restore()
        layers = layer_metrics(tracer.spans, len(traced))
        overhead = (sum(op_latencies(_normalized(traced), len(ops)))
                    - sum(op_latencies(_normalized(passes), len(ops))))
        layers["trace.overhead_s"] = (overhead, "s")
        if spans_path is not None:
            tracer.write(spans_path)
    everything = passes + traced
    failures = [f for p in everything for f in p["failures"]]
    digests = {p["digest"] for p in everything if not p["failures"]}
    if len(digests) > 1:
        failures.append("outputs differ between passes"
                        + (" (traced vs untraced)" if traced else ""))
    return {
        "passes": len(passes),
        "traced_passes": len(traced),
        "ops_per_pass": len(ops),
        "walls": [p["wall"] for p in passes],
        "latencies": [x for p in passes for x in p["latencies"]],
        "slowdowns": [x for p in passes for x in p["slowdowns"]],
        "attempted": len(ops) * len(everything),
        "failures": failures,
        "digest": sorted(digests),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "layers": layers,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()

    from workloads import LARGE_ARRAY_WORKLOADS, WORKLOADS

    ops = WORKLOADS[args.workload](args.seed, args.tiny)
    print("ready", flush=True)
    command = sys.stdin.readline().split()
    reference = functools.partial(
        slowdown, "large" if args.workload in LARGE_ARRAY_WORKLOADS else "small")
    # Set-up is single-threaded interpreted work on every workload.  The
    # first loops of a fresh process run cold; the median skips them.
    setup_slowdown = statistics.median(slowdown("small") for _ in range(5))
    if not command or command[0] != "run":
        print(json.dumps({"setup_slowdown": setup_slowdown}), flush=True)
        return 0
    seconds, trace = float(command[1]), command[2] == "1"
    spans_path = Path(command[3]) if len(command) > 3 else None
    result = measure(ops, seconds, trace, spans_path, reference)
    result["setup_slowdown"] = setup_slowdown
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
