"""Steadiness check: run one or more workloads on several seeds, untraced.

    python3 perfbench/steadiness.py --workload reports --runs 10

For every end-to-end metric of BENCHMARK.json it prints the median of the
runs and the spread: the distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median.  A spread
at or above a third of the metric's bound is marked.  Seeds are
``--first-seed``, ``--first-seed + 1``, and so on.  Exit code 1 when a run
failed or a spread reached its bound.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=names,
                        help="repeatable; default: every workload")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    status = 0
    for workload in args.workload or names:
        values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            result = json.loads(done.stdout.strip().splitlines()[-1]) if done.stdout.strip() else None
            if done.returncode != 0 or result is None or not result["correct"]:
                print(f"{workload} seed {seed}: run failed (exit {done.returncode})\n"
                      f"{done.stdout[-2000:]}{done.stderr[-2000:]}")
                status = 1
                continue
            for name in values:
                values[name].append(result["metrics"][name]["value"])
        print(f"{workload}: {args.runs} seeds from {args.first_seed}")
        for metric in spec["end_to_end"]:
            series = values[metric["name"]]
            if len(series) < 2:
                continue
            q1, median, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / median
            bound = metric["bound"]
            mark = ""
            if spread >= bound:
                mark, status = "  ABOVE BOUND", 1
            elif spread >= bound / 3:
                mark = "  above a third of the bound"
            print(f"  {metric['name']:14s} median {median:.6g} {metric['unit']:5s} "
                  f"spread {spread:.4f} (bound {bound}){mark}")
    return status


if __name__ == "__main__":
    sys.exit(main())
