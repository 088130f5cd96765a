"""The three benchmark workloads: fixed input lists built from a seed.

A workload is a list of operations, made by the workload's function in
``WORKLOADS`` from the workload seed; qrns only ever receives the inputs
generated here.  Each operation has a ``run`` part, which calls into qrns
and is timed, and a ``check`` part, which verifies the output outside the
timed region and raises ``CheckFailed`` on a wrong result.

Every call into qrns goes through a module attribute (``noise.run_shots``
rather than a name imported into this file), so the wrappers that a traced
run installs on the qrns modules see the benchmark's own calls too.

``tiny=True`` shrinks every workload to a few operations for the harness
self-test; the shapes and checks stay the same.
"""
from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from qrns import adders, circuit, distributed, noise, reports, resources, select

EXPECTED_REPORTS = Path(__file__).with_name("expected_reports.json")


class CheckFailed(Exception):
    """An operation returned a wrong output."""


@dataclass
class Op:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], None]
    # Output identity for the determinism check: equal inputs and seeds
    # must give an equal digest on every pass, traced or not.
    digest: Callable[[Any], str]


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _input_seed(rng: random.Random) -> int:
    return rng.getrandbits(32)


# --- reports -------------------------------------------------------------
#
# `qrns table1` and `qrns compare s..s` for each size s: thousands of
# output_probability pair evaluations on 100-200 row arrays, so the
# per-gate, per-call overhead of the noise kernel dominates.  Each command
# is its own operation, so that the reference loops around it (worker.py)
# run close to it in time.  Size 7 is left out: its monolithic column is
# one indivisible 5 s call (4096 exhaustive pairs of full:6), and a shared
# machine's speed changes within seconds, so loops 5 s apart do not tell
# how fast it ran.  Size 6 keeps the exhaustive regime (1024 pairs of
# full:5).

REPORT_SIZES = [6, 8, 9, 10, 11]
TABLE1_SHOTS = 100
TABLE2_SHOTS = (distributed.MOD_SHOTS, distributed.FULL_SHOTS)
RESOURCE_COLUMNS = {
    "table1": ("modulus", "type", "qubits", "toffoli_depth", "cnot_depth",
               "toffoli_count", "cnot_count", "reported_probability", "flags"),
    "table2": ("size", "mono_qubits", "mono_toffoli_depth", "mono_cnot_depth",
               "rns_set", "efficiency_percent", "max_qubits",
               "max_toffoli_depth", "max_cnot_depth"),
}
# Each probability column with the index of the shots it was measured with.
# The expected file holds, under "<column>_sampling", one [pairs, pair
# variance] entry per estimate behind the column: one for a probability,
# one per modulus for a set probability (the minimum over its moduli).
PROBABILITY_COLUMNS = {
    "table1": {"probability": 0},
    "table2": {"mono_probability": 1, "set_probability": 0},
}
# Two independent Monte-Carlo estimates differ by at most this many standard
# errors, plus the 0.001 rounding of each printed value.
TOLERANCE_SIGMAS = 5.0


def probability_tolerance(sampling: list[list[float]], shots: int,
                          ref_shots: int) -> float:
    """Tolerance for an estimate against this commit's, both averaged over
    `pairs` input pairs.

    Shot noise is taken at its binomial worst case, 0.25 / (pairs x shots)
    for each estimate.  Where the pairs were sampled (pair variance > 0),
    the run and the reference draw different pairs, so each mean also
    carries pair variance / pairs.  A minimum over several estimates moves
    by at most the largest of their differences.
    """
    def one(pairs: int, pair_variance: float) -> float:
        variance = (0.25 / (pairs * shots) + 0.25 / (pairs * ref_shots)
                    + 2 * pair_variance / pairs)
        return TOLERANCE_SIGMAS * math.sqrt(variance) + 0.001
    return max(one(pairs, pair_variance) for pairs, pair_variance in sampling)


def _render(document) -> tuple[Any, str, str, str]:
    # The three renderings `qrns table1` / `qrns compare` produce.
    return document, document.to_text(), document.to_json(), document.to_csv()


def row_key(kind: str, row: dict) -> str:
    # The "key" field of expected_reports.json rows.
    return str(row["size"]) if kind == "table2" else f"{row['modulus']}:{row['type']}"


def _check_report(kind: str, expected: dict, shots: tuple[int, int]):
    def check(output) -> None:
        document, text, payload, csv_text = output
        rows = [dict(zip(document.columns, row)) for row in document.rows]
        ref_rows = {str(r["key"]): r for r in expected["rows"]}
        _require(len(rows) == len(ref_rows), f"{kind}: {len(rows)} rows")
        for row in rows:
            key = row_key(kind, row)
            ref = ref_rows.get(key)
            _require(ref is not None, f"{kind}: unexpected row {key}")
            for column in RESOURCE_COLUMNS[kind]:
                _require(row[column] == ref[column],
                         f"{kind} {key} {column}: {row[column]!r} != {ref[column]!r}")
            for column, shot_index in PROBABILITY_COLUMNS[kind].items():
                value, ref_value = row[column], ref[column]
                if ref_value is None:
                    _require(value is None, f"{kind} {key} {column}: {value} != None")
                    continue
                _require(value is not None and 0.0 <= value <= 1.0,
                         f"{kind} {key} {column}: {value} outside [0, 1]")
                tol = probability_tolerance(ref[f"{column}_sampling"], shots[shot_index],
                                            expected["shots"][shot_index])
                _require(abs(value - ref_value) <= tol,
                         f"{kind} {key} {column}: {value} vs {ref_value} "
                         f"beyond tolerance {tol:.4f}")
        parsed = json.loads(payload)
        _require(parsed["rows"] == [list(r) for r in document.rows],
                 f"{kind}: JSON rows differ from the document")
        _require(len(csv_text.splitlines()) == len(rows) + 1,
                 f"{kind}: CSV line count")
        _require(len(text.splitlines()) == len(rows) + 1,
                 f"{kind}: text line count")
    return check


def reports_workload(seed: int, tiny: bool = False) -> list[Op]:
    rng = random.Random(seed)
    table1_seed, table2_seed = _input_seed(rng), _input_seed(rng)
    expected = json.loads(EXPECTED_REPORTS.read_text(encoding="utf-8"))
    sizes = REPORT_SIZES[:1] if tiny else REPORT_SIZES
    t1_shots = 10 if tiny else TABLE1_SHOTS
    t2_shots = (10, 10) if tiny else TABLE2_SHOTS

    def run_table1():
        return _render(reports.build_table1(noise.DEFAULT_NOISE, shots=t1_shots,
                                            seed=table1_seed))

    def run_compare(size: int):
        return lambda: _render(reports.build_table2(
            [size], 0.9, noise.DEFAULT_NOISE, seed=table2_seed,
            budget=distributed.DEVICE_BUDGET,
            shots_mod=t2_shots[0], shots_full=t2_shots[1]))

    def digest(output) -> str:
        return repr(output[0].rows)

    ops = [Op("table1", run_table1,
              _check_report("table1", expected["table1"], (t1_shots, t1_shots)), digest)]
    for size in sizes:
        size_expected = dict(expected["table2"])
        size_expected["rows"] = [r for r in size_expected["rows"] if r["key"] == size]
        ops.append(Op(f"compare:{size}", run_compare(size),
                      _check_report("table2", size_expected, t2_shots), digest))
    return ops


# --- dqc-stream ----------------------------------------------------------
#
# A closed loop of `qrns dqc-add` requests: few input rows by 20 000 shots,
# so random draws dominate, on the thread pool, with unequal jobs (mod 4 vs
# mod 9 in one set) and CRT recombination.

DQC_SETS = {2**10: (4, 5, 7, 9), 2**12: (15, 16, 17), 2**18: (63, 64, 65)}
# Few additions a pass, so that each is repeated many times in a run and
# its median latency rests on many samples.
DQC_ADDITIONS = 15
DQC_SHOTS = 20000
DQC_WORKERS = 2
# Workloads in the random-draw regime on several threads; their slowdown
# is measured with worker.large_array_loop.
LARGE_ARRAY_WORKLOADS = {"dqc-stream"}


def _dqc_op(index: int, k: int, a: int, b: int, base_seed: int, shots: int) -> Op:
    moduli = DQC_SETS[k]

    def run():
        rns = select.select_rns(select.SelectorConfig(k))
        return distributed.distributed_add(a, b, rns, noise.DEFAULT_NOISE,
                                           shots=shots, base_seed=base_seed,
                                           workers=DQC_WORKERS)

    def check(result) -> None:
        _require(result.rns.moduli == moduli,
                 f"K={k}: selected {result.rns.moduli}, expected {moduli}")
        _require(result.reconstructed == a + b,
                 f"{a}+{b} on {moduli}: reconstructed {result.reconstructed}")

    def digest(result) -> str:
        return repr((result.reconstructed,
                     [(r.top_bits, r.top_probability) for r in result.results]))

    return Op(f"add{index}", run, check, digest)


def dqc_workload(seed: int, tiny: bool = False) -> list[Op]:
    rng = random.Random(seed)
    ks = list(DQC_SETS)
    ops = []
    for index in range(3 if tiny else DQC_ADDITIONS):
        k = ks[index % len(ks)]
        total_range = math.prod(DQC_SETS[k])
        total = rng.randrange(total_range)
        a = rng.randrange(total + 1)
        ops.append(_dqc_op(index, k, a, total - a, _input_seed(rng),
                           500 if tiny else DQC_SHOTS))
    return ops


# --- synth-select --------------------------------------------------------
#
# No noisy simulation at all: builders, resource reports, the text format,
# the noiseless permutation kernel on 512 packed pairs, and the selector on
# built depths.  A noise-kernel change should leave it unchanged.

SYNTH_SIZES = range(2, 25)
SYNTH_PAIRS = 512
# (max_n, K, selected set or None when the case must be infeasible)
SELECT_CASES = (
    (8, 2**40, (17, 65, 127, 129, 256, 257)),
    (10, 2**50, (127, 129, 257, 511, 512, 1025)),
    (10, 2**56, None),
)
TINY_SELECT_CASES = (SELECT_CASES[0], (8, 2**56, None))


def _synth_op(family: adders.AdderFamily, n: int,
              pairs: list[tuple[int, int]]) -> Op:
    def run():
        built = adders.build_adder(family, n)
        instance = adders.adder_instance(built)
        report = resources.resource_report(built)
        parsed = circuit.from_text(circuit.to_text(built))
        return built, instance, report, parsed, instance.run_pairs(pairs)

    def check(output) -> None:
        built, instance, report, parsed, values = output
        _require(parsed == built, f"{family.value}:{n}: text round trip differs")
        _require(report.qubit_count == built.width, f"{family.value}:{n}: qubits")
        expected = [instance.expected_output_bits(x, y) for x, y in pairs]
        _require(values.tolist() == expected,
                 f"{family.value}:{n}: noiseless outputs differ from the oracle")

    def digest(output) -> str:
        return repr((output[2], output[4].tolist()))

    return Op(f"{family.value}:{n}", run, check, digest)


def _select_op(max_n: int, k: int, expected: tuple[int, ...] | None) -> Op:
    def run():
        cfg = select.SelectorConfig(k, max_n=max_n,
                                    depth_source=select.DepthSource.BUILT)
        try:
            return select.select_rns(cfg).moduli
        except select.SelectionError as exc:
            return exc

    def check(output) -> None:
        if expected is None:
            _require(isinstance(output, select.SelectionError),
                     f"max_n={max_n} K=2^{k.bit_length() - 1}: expected "
                     f"SelectionError, got {output!r}")
        else:
            _require(output == expected,
                     f"max_n={max_n} K=2^{k.bit_length() - 1}: {output!r}")

    return Op(f"select:{max_n}:{k.bit_length() - 1}", run, check, repr)


def synth_workload(seed: int, tiny: bool = False) -> list[Op]:
    rng = np.random.Generator(np.random.PCG64(seed))
    sizes = range(2, 5) if tiny else SYNTH_SIZES
    pair_count = 16 if tiny else SYNTH_PAIRS
    ops = []
    for family in adders.AdderFamily:
        for n in sizes:
            count = adders.family_modulus(family, n) or 2**n
            a = rng.integers(0, count, size=pair_count)
            b = rng.integers(0, count, size=pair_count)
            ops.append(_synth_op(family, n, list(zip(a.tolist(), b.tolist()))))
    cases = TINY_SELECT_CASES if tiny else SELECT_CASES
    ops.extend(_select_op(*case) for case in cases)
    # Built depths are cached lazily by the selector; fill the cache here
    # so it counts as set-up, as it would in a long-lived process.
    for modulus in select.moduli_pool(max(case[0] for case in cases)):
        select.toffoli_depth_of(modulus, select.DepthSource.BUILT)
    return ops


WORKLOADS: dict[str, Callable[[int, bool], list[Op]]] = {
    "reports": reports_workload,
    "dqc-stream": dqc_workload,
    "synth-select": synth_workload,
}
