"""Command-line front end.

Exit codes: 0 success, 1 bad input, 2 infeasible selection,
3 simulation error: a distributed addition ran but cannot yield a sum.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import fields
from pathlib import Path
from typing import Iterator, Sequence

from .adders import (
    AdderFamily,
    adder_instance,
    family_for_modulus,
    make_adder,
)
from .circuit import check_readable, from_text, to_text
from .distributed import DEVICE_BUDGET, MIN_SIZE, MOD_SHOTS, SimulationError, distributed_add
from .noise import (
    CALIBRATION_ROUNDS,
    CALIBRATION_SEED,
    CALIBRATION_SHOTS,
    DEFAULT_NOISE,
    NoiseModel,
    calibrate_noise,
    check_sampling,
    output_probability,
    run_shots,
)
from .reference import MODULI_ROWS, deviation_flag, moduli_row
from .reports import ReportDocument, build_table1, build_table2, fmt_prob
from .rns import RnsSet, rns_range
from .select import SelectionError, SelectorConfig, explain_selection, select_rns

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_SIMULATION = 3

FAMILY_NAMES = {family.value: family for family in AdderFamily}
FAMILY_NAMES["qdma"] = FAMILY_NAMES["mod-pow2-plus1"]


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # exit 1 on usage errors, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _sampling(text: str) -> int | str:
    return text if text in ("auto", "exhaustive") else _positive_int(text)


# Error messages echo at most this many characters of a spec.
_SPEC_ECHO = 60


@contextmanager
def _spec_errors(option: str, spec: str) -> Iterator[None]:
    """Turn a bad ``spec`` of ``option`` into a UsageError naming both."""
    shown = spec if len(spec) <= _SPEC_ECHO else spec[:_SPEC_ECHO - 1] + "…"
    try:
        yield
    except (UsageError, ValueError) as exc:
        raise UsageError(f"{option} {shown}: {exc}") from exc
    except OSError as exc:  # its str() repeats the whole path
        raise UsageError(f"{option} {shown}: {exc.strerror}") from exc


def _noise_from_arg(spec: str) -> NoiseModel:
    if spec == "default":
        return DEFAULT_NOISE
    if spec == "zero":
        return NoiseModel.zero()
    with _spec_errors("--noise", spec):
        if not Path(spec).exists():
            raise UsageError("neither default, zero, nor an existing file")
        return NoiseModel.from_file(spec)


# (label, ResourceReport field, reference ModuliRow field or None)
_RESOURCE_LINES = (
    ("qubits", "qubit_count", "qubits"),
    ("toffoli count", "toffoli_count", "toffoli_count"),
    ("cnot count", "cnot_count", "cnot_count"),
    ("not count", "not_count", None),
    ("toffoli depth", "toffoli_depth", "toffoli_depth"),
    ("cnot depth", "cnot_depth", "cnot_depth"),
    ("total depth", "total_depth", None),
)


def _print_resource_report(instance) -> None:
    report = instance.resources
    ref = moduli_row(instance.modulus, instance.family) if instance.modulus else None
    for label, field, ref_field in _RESOURCE_LINES:
        value = getattr(report, field)
        flag = deviation_flag(value, getattr(ref, ref_field)) if ref and ref_field else ""
        print(f"{label:<15}{value}{flag}")


def cmd_synth(args) -> int:
    instance = make_adder(FAMILY_NAMES[args.family], args.n)
    text = to_text(instance.circuit)
    if args.out:
        with _spec_errors("--out", args.out):
            Path(args.out).write_text(text, encoding="utf-8")
        print(f"wrote {args.out}")
    else:
        print(text, end="")
    _print_resource_report(instance)
    return EXIT_OK


def cmd_select(args) -> int:
    cfg = SelectorConfig(
        k=args.k,
        count=args.count,
        efficiency=args.efficiency,
        max_n=args.max_n,
    )
    trace = explain_selection(cfg)
    rns = RnsSet.from_moduli(trace.final_moduli)
    if args.json:
        payload = {
            "k": args.k,
            "efficiency": args.efficiency,
            "moduli": list(rns.moduli),
            "range": rns_range(rns),
            "trace": trace.events,
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"selected {rns} (range {rns_range(rns)})")
        if args.trace:
            for event in trace.events:
                print(f"  {event}")
    return EXIT_OK


def _resolve_run_target(spec: str):
    with _spec_errors("--circuit", spec):
        instance = _build_run_target(spec)
        check_readable(instance.output_wires)
    return instance


def _build_run_target(spec: str):
    path = Path(spec)
    if path.exists():
        return adder_instance(from_text(path.read_text(encoding="utf-8")))
    if spec.startswith("mod:"):
        return make_adder(*family_for_modulus(int(spec.split(":", 1)[1])))
    if ":" in spec:
        name, _, n_text = spec.partition(":")
        if name in FAMILY_NAMES:
            return make_adder(FAMILY_NAMES[name], int(n_text))
    raise UsageError(
        "neither a circuit file, 'mod:<modulus>', nor "
        f"'<family>:<n>' with family in {sorted(set(FAMILY_NAMES))}"
    )


def cmd_run(args) -> int:
    instance = _resolve_run_target(args.circuit)
    noise = _noise_from_arg(args.noise)
    if (args.a is None) != (args.b is None):
        raise UsageError("--a and --b must be given together")
    if args.a is not None and args.sample != "auto":
        raise UsageError("--sample applies only without --a and --b")
    if args.a is not None:
        histogram = run_shots(instance.circuit,
                              instance.input_states([(args.a, args.b)]),
                              args.shots, noise, args.seed, instance.output_wires)
        expected = instance.expected_output_bits(args.a, args.b)
        rows = [(f"{bits:0{len(instance.output_wires)}b}", count,
                 "expected" if bits == expected else "")
                for bits, count in sorted(histogram.items())]
        if args.json:
            print(json.dumps({
                "a": args.a, "b": args.b, "shots": args.shots, "seed": args.seed,
                "histogram": {row[0]: row[1] for row in rows},
                "expected": f"{expected:0{len(instance.output_wires)}b}",
            }, indent=2, sort_keys=True))
        else:
            for bits, count, note in rows:
                print(f"{bits}  {count:6d}  {note}".rstrip())
        return EXIT_OK
    with _spec_errors("--sample", str(args.sample)):
        check_sampling(instance, args.sample)
    estimate = output_probability(instance, noise, shots=args.shots,
                                  seed=args.seed, sampling=args.sample)
    if args.json:
        print(json.dumps({
            "circuit": args.circuit,
            "mean_probability": fmt_prob(estimate.mean),
            "pairs": len(estimate.per_pair),
            "shots": estimate.shots,
            "seed": estimate.seed,
            "stderr_bound": round(estimate.stderr_bound, 6),
        }, indent=2, sort_keys=True))
    else:
        print(f"mean output probability {estimate.mean:.3f} "
              f"({len(estimate.per_pair)} input pairs x {estimate.shots} shots, "
              f"per-pair stderr <= {estimate.stderr_bound:.4f})")
    return EXIT_OK


def cmd_dqc_add(args) -> int:
    rns = select_rns(SelectorConfig(k=args.k, efficiency=args.efficiency))
    noise = _noise_from_arg(args.noise)
    result = distributed_add(args.a, args.b, rns, noise, shots=args.shots,
                             base_seed=args.seed, workers=args.workers)
    correct = result.reconstructed == args.a + args.b
    if args.json:
        payload = {
            "a": args.a, "b": args.b, "k": args.k,
            "moduli": list(rns.moduli),
            "jobs": [{
                "modulus": r.modulus,
                "top_value": r.top_value,
                "top_probability": fmt_prob(r.top_probability),
                "correct_probability": fmt_prob(r.correct_probability),
                "tie": r.tie,
            } for r in result.results],
            "reconstructed": result.reconstructed,
            "correct": correct,
            "set_output_probability": fmt_prob(result.set_output_probability),
            "end_to_end_probability": fmt_prob(result.end_to_end_probability),
            "seed": args.seed,
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"moduli {rns}")
        for r in result.results:
            tie = "  (tie, took smaller value)" if r.tie else ""
            print(f"  mod {r.modulus}: top outcome {r.top_value} "
                  f"p={r.top_probability:.3f}{tie}")
            print(f"    correct outcome p={r.correct_probability:.3f}")
        print(f"reconstructed sum {result.reconstructed}")
        print(f"correct {'yes' if correct else 'no'}")
        print(f"set output probability {result.set_output_probability:.3f}")
        print(f"end-to-end probability {result.end_to_end_probability:.3f}")
    return EXIT_OK


def _sizes(text: str) -> Sequence[int]:
    """A size list like 6,8, or a range like 6..11, which stays a range
    object: its upper end may be any integer, and the selector refuses a
    size too large for it before anything runs."""
    try:
        if ".." in text:
            lo, hi = (int(end) for end in text.split(".."))
            sizes: Sequence[int] = range(lo, hi + 1)
        else:
            sizes = [int(part) for part in text.split(",")]
            lo = min(sizes)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"not a size list like 6..11 or 6,8: {text!r}") from None
    if not sizes:
        raise argparse.ArgumentTypeError(f"empty size range {text!r}")
    if lo < MIN_SIZE:
        raise argparse.ArgumentTypeError(f"sizes must be >= {MIN_SIZE}, got {text!r}")
    return sizes


def cmd_compare(args) -> int:
    noise = _noise_from_arg(args.noise)
    document = build_table2(
        sizes=args.sizes,
        efficiency=args.efficiency,
        noise=noise,
        seed=args.seed,
        budget=args.budget,
    )
    _emit(document, args)
    return EXIT_OK


def cmd_table1(args) -> int:
    noise = _noise_from_arg(args.noise)
    document = build_table1(noise, shots=args.shots, seed=args.seed)
    _emit(document, args)
    return EXIT_OK


def _emit(document: ReportDocument, args) -> None:
    if getattr(args, "csv", None):
        with _spec_errors("--csv", args.csv):
            Path(args.csv).write_text(document.to_csv(), encoding="utf-8")
        print(f"wrote {args.csv}", file=sys.stderr)
    if getattr(args, "json", False):
        print(document.to_json())
    elif not getattr(args, "csv", None):
        print(document.to_text())


def cmd_calibrate(args) -> int:
    targets = []
    wanted = None if args.rows is None else set(args.rows.split(","))
    if wanted is not None and "" in wanted:
        raise UsageError(f"--rows {args.rows!r} has an empty label ''")
    known: set[str] = set()
    for ref in MODULI_ROWS:
        labels = {f"{ref.modulus}:{ref.family.value}"}
        # A bare modulus names the row of the family it maps to by default.
        if family_for_modulus(ref.modulus) == (ref.family, ref.n):
            labels.add(str(ref.modulus))
        known |= labels
        if wanted is None or labels & wanted:
            targets.append((make_adder(ref.family, ref.n), ref.output_probability))
    if wanted is not None and wanted - known:
        raise UsageError(f"unknown --rows labels {', '.join(sorted(wanted - known))}; "
                         f"known: {', '.join(sorted(known))}")
    result = calibrate_noise(targets, shots=args.shots, seed=args.seed,
                             max_rounds=args.rounds)
    model = result.model
    if args.out:  # before printing, so a bad path leaves stdout empty
        with _spec_errors("--out", args.out):
            model.to_file(args.out)
    for rate in fields(model):
        print(f"{rate.name:<10}{getattr(model, rate.name):.6f}")
    print(f"residual  {result.residual:.6f} "
          f"({result.evaluations} evaluations, "
          f"{'converged' if result.converged else 'iteration cap reached'})")
    if args.out:
        print(f"wrote {args.out}")
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="qrns", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="build an adder circuit and report resources")
    p.add_argument("family", choices=sorted(FAMILY_NAMES))
    p.add_argument("n", type=int)
    p.add_argument("--out", help="write the circuit text format here")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("select", help="choose a residue moduli set")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--efficiency", type=float, default=SelectorConfig.efficiency)
    p.add_argument("--count", type=int, default=SelectorConfig.count)
    p.add_argument("--max-n", type=int, default=SelectorConfig.max_n, dest="max_n")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("run", help="simulate a circuit under noise")
    p.add_argument("--circuit", required=True,
                   help="circuit file, '<family>:<n>', or 'mod:<modulus>'")
    p.add_argument("--shots", type=_positive_int, default=100)
    p.add_argument("--noise", default="default")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sample", type=_sampling, default="auto",
                   help="'auto', 'exhaustive', or a random pair count")
    p.add_argument("--a", type=int)
    p.add_argument("--b", type=int)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("dqc-add", help="distributed addition via residue jobs")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--efficiency", type=float, default=SelectorConfig.efficiency)
    p.add_argument("--noise", default="default")
    p.add_argument("--workers", type=_positive_int, default=1,
                   help="checked (>= 1) but unused: the residue jobs run one "
                        "after another")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--shots", type=_positive_int, default=MOD_SHOTS)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_dqc_add)

    p = sub.add_parser("compare", help="monolithic vs distributed comparison")
    p.add_argument("--sizes", type=_sizes, default="6..11", help="e.g. 6..11 or 6,8,10")
    p.add_argument("--efficiency", type=float, default=SelectorConfig.efficiency)
    p.add_argument("--budget", type=_positive_int, default=DEVICE_BUDGET)
    p.add_argument("--noise", default="default")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--csv", help="write rows to this CSV file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("table1", help="reference moduli-adder report")
    p.add_argument("--shots", type=_positive_int, default=MOD_SHOTS)
    p.add_argument("--noise", default="default")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--csv", help="write rows to this CSV file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser("calibrate", help="fit a noise model to reported values")
    p.add_argument("--rows", help="comma list like '2,8,9' or '3:mod-pow2-plus1'")
    p.add_argument("--shots", type=_positive_int, default=CALIBRATION_SHOTS)
    p.add_argument("--seed", type=int, default=CALIBRATION_SEED)
    p.add_argument("--rounds", type=_positive_int, default=CALIBRATION_ROUNDS)
    p.add_argument("--out", help="write the fitted model to this file")
    p.set_defaults(func=cmd_calibrate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, inside the boundary
        return code
    except BrokenPipeError:
        # The reader went away (qrns table1 | head -1): say nothing, and
        # send what is still buffered to devnull, so that the flush at exit
        # does not report the closed pipe either.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_USAGE
    except SelectionError as exc:
        print(f"qrns: infeasible selection: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except SimulationError as exc:
        print(f"qrns: simulation error: {exc}", file=sys.stderr)
        return EXIT_SIMULATION
    except (UsageError, ValueError, KeyError, OSError) as exc:
        print(f"qrns: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
