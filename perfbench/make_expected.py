"""Regenerate expected_reports.json, the reference the `reports` checks use.

Run from the repository root, only when a change deliberately alters the
report tables:

    PYTHONPATH=src python3 perfbench/make_expected.py

It records, at seed 0 (the CLI default), every resource column and RNS set
of `qrns table1` and of `qrns compare` over the workload's sizes, each
measured probability, and what lies behind each probability, from which
the checks derive their statistical tolerance: for every estimate that
enters it, the number of input pairs and, when the kernel sampled those
pairs rather than taking all of them, the variance of the per-pair
probabilities.
"""
from __future__ import annotations

import json
import statistics
from pathlib import Path

from qrns import adders, distributed, noise, reference, reports, rns

import workloads


class _Recorder:
    """Keeps each output_probability estimate, keyed by (family, n), while
    the report builders run."""

    def __init__(self):
        self.estimates: dict[tuple[adders.AdderFamily, int], list] = {}

    def __call__(self, instance, *args, **kwargs):
        estimate = noise.output_probability(instance, *args, **kwargs)
        pairs = [(a, b) for a, b, _ in estimate.per_pair]
        sampled = pairs != list(instance.legal_pairs())
        variance = (statistics.variance(p for _, _, p in estimate.per_pair)
                    if sampled else 0.0)
        self.estimates[(instance.family, instance.n)] = [len(pairs), variance]
        return estimate

    def build(self, module, builder, *args, **kwargs):
        self.estimates = {}
        module.output_probability = self
        try:
            return builder(*args, **kwargs)
        finally:
            module.output_probability = noise.output_probability


def main() -> None:
    recorder = _Recorder()
    table1 = recorder.build(reports, reports.build_table1, noise.DEFAULT_NOISE,
                            shots=workloads.TABLE1_SHOTS, seed=0)
    t1_rows = []
    # build_table1 emits one row per reference adder, in MODULI_ROWS order.
    for ref, row in zip(reference.MODULI_ROWS, table1.rows):
        record = dict(zip(table1.columns, row))
        record["key"] = workloads.row_key("table1", record)
        record["probability_sampling"] = [recorder.estimates[(ref.family, ref.n)]]
        t1_rows.append(record)

    shots_mod, shots_full = workloads.TABLE2_SHOTS
    table2 = recorder.build(distributed, reports.build_table2, workloads.REPORT_SIZES,
                            0.9, noise.DEFAULT_NOISE, seed=0,
                            budget=distributed.DEVICE_BUDGET,
                            shots_mod=shots_mod, shots_full=shots_full)
    t2_rows = []
    for row in table2.rows:
        record = dict(zip(table2.columns, row))
        size = record["size"]
        moduli = [int(m) for m in record["rns_set"].strip("()").split(",")]
        residue_set = rns.RnsSet.from_moduli(moduli)
        record["key"] = size
        mono = recorder.estimates.get((adders.AdderFamily.FULL, size - 1))
        record["mono_probability_sampling"] = [mono] if mono else []
        record["set_probability_sampling"] = [recorder.estimates[family_n]
                                              for family_n in residue_set.families]
        t2_rows.append(record)

    payload = {
        "table1": {"shots": [workloads.TABLE1_SHOTS] * 2, "rows": t1_rows},
        "table2": {"shots": [shots_mod, shots_full], "rows": t2_rows},
    }
    Path(workloads.EXPECTED_REPORTS).write_text(
        json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
