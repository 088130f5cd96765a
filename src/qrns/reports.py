"""Report documents: fixed-schema rows plus reproducibility metadata."""
from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Sequence

from . import __version__
from .adders import make_adder
from .distributed import FULL_SHOTS, MOD_SHOTS, gain_report
from .noise import NoiseModel, derive_seed, output_probability
from .reference import MODULI_ROWS, comparison_row, deviation_flag
from .rns import efficiency_percent
from .select import DepthSource


class ReportKind(Enum):
    TABLE1 = "table1"
    TABLE2 = "table2"


@dataclass(frozen=True)
class ReportDocument:
    kind: ReportKind
    columns: tuple[str, ...]
    rows: tuple[tuple[Any, ...], ...]
    metadata: dict[str, Any] = field(default_factory=dict)

    def to_json(self) -> str:
        payload = {
            "kind": self.kind.value,
            "columns": list(self.columns),
            "rows": [list(row) for row in self.rows],
            "metadata": self.metadata,
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    def to_csv(self) -> str:
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(self.columns)
        for row in self.rows:
            writer.writerow(["" if v is None else v for v in row])
        return buffer.getvalue()

    def _cell(self, column: str, value: Any) -> str:
        if value is None:
            return "N.A."
        if isinstance(value, float):
            if "probability" in column:
                return f"{value:.3f}"
            if "percent" in column or "gain" in column:
                return f"{value:.2f}"
        return str(value)

    def to_text(self) -> str:
        widths = [len(c) for c in self.columns]
        printable = []
        for row in self.rows:
            cells = [self._cell(c, v) for c, v in zip(self.columns, row)]
            widths = [max(w, len(c)) for w, c in zip(widths, cells)]
            printable.append(cells)
        lines = ["  ".join(c.ljust(w) for c, w in zip(self.columns, widths)).rstrip()]
        for cells in printable:
            lines.append("  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip())
        return "\n".join(lines)


def base_metadata(seed: int, noise: NoiseModel, **extra: Any) -> dict[str, Any]:
    meta: dict[str, Any] = {
        "seed": seed,
        "noise": {"p_not": noise.p_not, "p_cnot": noise.p_cnot,
                  "p_toffoli": noise.p_toffoli},
        "version": __version__,
    }
    meta.update(extra)
    return meta


def fmt_prob(p: float | None) -> float | None:
    return None if p is None else round(p, 3)


TABLE1_COLUMNS = (
    "modulus", "type", "qubits", "toffoli_depth", "cnot_depth",
    "toffoli_count", "cnot_count", "probability", "reported_probability",
    "flags",
)


def build_table1(noise: NoiseModel, shots: int, seed: int) -> ReportDocument:
    """Resources and measured output probability for the eight reference
    modulo adders, next to the reported values."""
    rows = []
    for ref in MODULI_ROWS:
        instance = make_adder(ref.family, ref.n)
        report = instance.resources
        estimate = output_probability(
            instance, noise, shots=shots,
            seed=derive_seed(seed, "table1", ref.modulus, ref.family.value),
        )
        flags = "".join([
            deviation_flag(report.qubit_count, ref.qubits),
            deviation_flag(report.toffoli_depth, ref.toffoli_depth),
            deviation_flag(report.cnot_depth, ref.cnot_depth),
            deviation_flag(report.toffoli_count, ref.toffoli_count),
            deviation_flag(report.cnot_count, ref.cnot_count),
        ]).strip()
        rows.append((
            ref.modulus,
            ref.family.value,
            report.qubit_count,
            report.toffoli_depth,
            report.cnot_depth,
            report.toffoli_count,
            report.cnot_count,
            fmt_prob(estimate.mean),
            fmt_prob(ref.output_probability),
            flags,
        ))
    return ReportDocument(
        kind=ReportKind.TABLE1,
        columns=TABLE1_COLUMNS,
        rows=tuple(rows),
        metadata=base_metadata(seed, noise, shots=shots),
    )


TABLE2_COLUMNS = (
    "size", "mono_qubits", "mono_toffoli_depth", "mono_cnot_depth",
    "mono_probability", "rns_set", "efficiency_percent", "max_qubits",
    "max_toffoli_depth", "max_cnot_depth", "set_probability", "gain_percent",
    "reported_mono_probability", "reported_set_probability",
    "reported_gain_percent",
)


def build_table2(sizes: Sequence[int], efficiency: float, noise: NoiseModel,
                 seed: int, budget: int,
                 depth_source: DepthSource = DepthSource.PAPER_TABLE,
                 shots_mod: int = MOD_SHOTS,
                 shots_full: int = FULL_SHOTS) -> ReportDocument:
    """Monolithic-vs-distributed comparison rows for the requested sizes."""
    comparison = gain_report(sizes, efficiency, noise, seed=seed,
                             shots_mod=shots_mod, shots_full=shots_full,
                             budget=budget, depth_source=depth_source)
    rows = []
    for row in comparison:
        ref = comparison_row(row.size)
        rows.append((
            row.size,
            row.mono_report.qubit_count,
            row.mono_report.toffoli_depth,
            row.mono_report.cnot_depth,
            fmt_prob(row.mono_probability),
            str(row.rns),
            efficiency_percent(row.efficiency),
            row.max_qubits,
            row.max_toffoli_depth,
            row.max_cnot_depth,
            fmt_prob(row.set_probability),
            None if row.gain_percent is None else round(row.gain_percent, 2),
            fmt_prob(ref.mono_probability) if ref else None,
            fmt_prob(ref.set_probability) if ref else None,
            ref.gain_percent if ref else None,
        ))
    return ReportDocument(
        kind=ReportKind.TABLE2,
        columns=TABLE2_COLUMNS,
        rows=tuple(rows),
        metadata=base_metadata(seed, noise, sizes=list(sizes), efficiency=efficiency,
                               budget=budget, depth_source=depth_source.value),
    )
