"""qrns benchmark: run workloads, check their outputs, print their metrics.

    python3 perfbench/run.py                          # every workload, untraced
    python3 perfbench/run.py --workload reports --seed 0 --trace 0
    python3 perfbench/run.py --workload dqc-stream --trace 1   # per-layer metrics

Run from the repository root; the package is imported from ``src``.  Each
workload runs in its own process (worker.py), as a closed loop from one
caller.  Set-up time is measured from the start of a fresh interpreter to
its ``ready`` line, several times; the middle one of those processes goes
on to measure.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  A full record
with provenance goes to ``perfbench/out/``.  The exit code is 1 when an
output check failed and 2 when the benchmark could not run.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from worker import normalized, op_latencies

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SPEC = ROOT / "BENCHMARK.json"

WORKLOAD_NAMES = ("reports", "dqc-stream", "synth-select")
# Workloads whose op_p50_s and op_tail_s are taken over every latency
# sample of the run: the per-addition latency a `dqc-add` user sees.  The
# others take them over each operation's median (see op_latencies).
EVERY_SAMPLE = {"dqc-stream"}
# The seed used while the benchmark was written, and one kept back so that
# a later performance claim can be re-checked on inputs not used to make it.
SEEDS = {"default": 0, "held-out": 90017}
# Set-up samples per run: half of the set-up-only processes start before
# the measuring one and half after it, so that the median spans the run.
SETUP_SAMPLES = 9
# A worker still running this long after the measured seconds is killed;
# set-up takes well under a second, and the last pass may overrun a little.
WORKER_MARGIN_S = 30


class BenchError(Exception):
    """The benchmark could not run (not an output-check failure)."""


def tail_latency(samples: list[float]) -> tuple[float, float | None, int]:
    """Highest percentile with at least ten samples above it.

    Returns (value, percentile, samples above).  With ten samples or fewer
    no percentile qualifies, and the maximum is returned, percentile None.
    """
    ordered = sorted(samples)
    count = len(ordered)
    if count <= 10:
        return ordered[-1], None, 0
    rank = count - 11
    return ordered[rank], 100.0 * (rank + 1) / count, count - 1 - rank


@contextlib.contextmanager
def _worker(workload: str, seed: int, tiny: bool, seconds: float = 0.0):
    """A worker process, killed `seconds` + WORKER_MARGIN_S after its start
    and always reaped."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    command = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
               "--seed", str(seed)] + (["--tiny"] if tiny else [])
    proc = subprocess.Popen(command, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            text=True, env=env, cwd=ROOT)
    timer = threading.Timer(seconds + WORKER_MARGIN_S, proc.kill)
    timer.start()
    try:
        yield proc
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()


def _ready(proc: subprocess.Popen) -> None:
    if proc.stdout.readline().strip() != "ready":
        raise BenchError("worker failed or timed out during set-up")


def _setup_only(workload: str, seed: int, tiny: bool) -> tuple[float, float]:
    """(set-up time, slowdown measured right after it)"""
    start = time.perf_counter()
    with _worker(workload, seed, tiny) as proc:
        _ready(proc)
        elapsed = time.perf_counter() - start
        stdout, _ = proc.communicate("exit\n")
    if proc.returncode != 0 or not stdout.strip():
        raise BenchError(f"set-up worker exited {proc.returncode} without a result")
    return elapsed, json.loads(stdout)["setup_slowdown"]


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 tiny: bool = False, out_dir: Path = OUT) -> dict:
    """Set up SETUP_SAMPLES times, measure in the middle process, return the record."""
    others = 0 if tiny else SETUP_SAMPLES - 1
    setup_times = [_setup_only(workload, seed, tiny) for _ in range(others // 2)]
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    spans_path = out_dir / f"{stem}.spans.jsonl"
    load_start = os.getloadavg()
    start = time.perf_counter()
    with _worker(workload, seed, tiny, seconds) as proc:
        _ready(proc)
        setup_ready = time.perf_counter() - start
        stdout, _ = proc.communicate(f"run {seconds} {int(trace)} {spans_path}\n")
    if proc.returncode != 0 or not stdout.strip():
        raise BenchError(f"worker exited {proc.returncode} without a result")
    raw = json.loads(stdout.strip().splitlines()[-1])
    setup_times.append((setup_ready, raw["setup_slowdown"]))
    setup_times += [_setup_only(workload, seed, tiny) for _ in range(others - others // 2)]
    setup_s, setup_slowdowns = zip(*setup_times)
    failed = len(raw["failures"])
    attempted = raw["attempted"]
    if trace:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in sorted(raw["layers"].items())}
    else:
        samples = normalized(raw["latencies"], raw["slowdowns"])
        per_op = op_latencies(samples, raw["ops_per_pass"])
        latencies = samples if workload in EVERY_SAMPLE else per_op
        tail, percentile, beyond = tail_latency(latencies)
        metrics = {
            "setup_s": {"value": statistics.median(normalized(setup_s, setup_slowdowns)),
                        "unit": "s"},
            "wall_s": {"value": sum(per_op), "unit": "s"},
            "op_p50_s": {"value": statistics.median(latencies), "unit": "s"},
            "op_tail_s": {"value": tail, "unit": "s"},
            "peak_rss_mb": {"value": raw["peak_rss_mb"], "unit": "MB"},
            "success_ratio": {"value": (attempted - failed) / attempted, "unit": "ratio"},
        }
    record = {
        "workload": workload,
        "seed": seed,
        "traced": trace,
        "tiny": tiny,
        "seconds": seconds,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "failures": raw["failures"][:20],
        "output_digest": raw["digest"],
        "metrics": metrics,
        "samples": {
            "setup_s": list(setup_s),
            "setup_slowdown": list(setup_slowdowns),
            "passes": raw["passes"],
            "traced_passes": raw["traced_passes"],
            "ops_per_pass": raw["ops_per_pass"],
            "pass_s": raw["walls"],
        },
        "provenance": provenance(load_start),
    }
    if not trace:
        record["samples"]["op_tail"] = {
            "percentile": percentile, "beyond": beyond, "of": len(latencies),
            "basis": "every sample" if workload in EVERY_SAMPLE else "median per operation"}
        record["samples"]["op_s"] = per_op
        record["samples"]["latency_s"] = raw["latencies"]
        record["samples"]["slowdown"] = raw["slowdowns"]
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n",
                                          encoding="utf-8")
    return record


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _source_digest() -> str:
    # Identifies the measured code where the checkout is not a git repository.
    digest = hashlib.sha256()
    for path in sorted((SRC / "qrns").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(load_start: tuple[float, float, float]) -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "loadavg_start": list(load_start),
        "loadavg_end": list(os.getloadavg()),
    }


def _print_record(record: dict) -> None:
    head = (f"{record['workload']} seed={record['seed']} "
            f"{'traced' if record['traced'] else 'untraced'}: "
            f"{record['attempted'] - record['failed']}/{record['attempted']} ok, "
            f"fail_ratio {record['failed'] / record['attempted']:.4f} "
            f"({record['failed']} of {record['attempted']})")
    print(head)
    for failure in record["failures"]:
        print(f"  FAILED {failure.strip()}")
    for name, metric in record["metrics"].items():
        print(f"  {name:36s} {metric['value']:.6g} {metric['unit']}")
    samples = record["samples"]
    if "op_tail" in samples:
        tail = samples["op_tail"]
        where = (f"p{tail['percentile']:.1f}" if tail["percentile"] is not None
                 else "the maximum (too few for a tail)")
        basis = ("latency samples" if tail["basis"] == "every sample"
                 else "operation medians")
        print(f"  (op_tail_s is {where} of {tail['of']} {basis} over "
              f"{samples['passes']} passes, {tail['beyond']} above it; wall_s sums "
              f"the operation medians)")
        print(f"  (times are at reference speed: median slowdown "
              f"{statistics.median(samples['slowdown']):.3f}x in this run; median real "
              f"pass {statistics.median(samples['pass_s']):.4g} s)")
    prov = record["provenance"]
    print(f"  provenance: {prov['nproc']} CPUs ({prov['cpu_model']}), Python "
          f"{prov['python']}, numpy {prov['numpy']}, commit {prov['git_commit']}, "
          f"load {prov['loadavg_start'][0]:.2f} -> {prov['loadavg_end'][0]:.2f}")


def _seed(text: str) -> int:
    return SEEDS[text] if text in SEEDS else int(text)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=("all",) + WORKLOAD_NAMES)
    parser.add_argument("--seed", type=_seed, default=SEEDS["default"],
                        help="an integer, 'default' (0) or 'held-out'")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time per workload (default: run_seconds "
                        "of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qrns" / "__init__.py").is_file():
        print(f"run.py: no qrns package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    seconds = args.seconds
    if seconds is None:
        seconds = json.loads(SPEC.read_text(encoding="utf-8"))["run_seconds"]
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    records = []
    try:
        for name in names:
            record = run_workload(name, args.seed, seconds, bool(args.trace))
            _print_record(record)
            records.append(record)
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{name}": metric
                   for r in records for name, metric in r["metrics"].items()}
    summary = {
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
