"""Published reference values the reports compare against.

These are the resource counts and hardware-emulator output probabilities
reported for the original evaluation of these adder designs.  They are
embedded read-only so every report can show measured-vs-reported columns
side by side; our bit-flip noise model is deliberately not that emulator,
so probability columns are expected to differ in value (not in ordering).
"""
from __future__ import annotations

from dataclasses import dataclass

from .adders import AdderFamily


@dataclass(frozen=True)
class ModuliRow:
    modulus: int
    family: AdderFamily
    n: int
    qubit_count: int
    toffoli_depth: int
    cnot_depth: int
    toffoli_count: int
    cnot_count: int
    output_probability: float


# The ModuliRow fields that are ResourceReport fields, in table1's flag order.
REPORTED_RESOURCES = ("qubit_count", "toffoli_depth", "cnot_depth", "toffoli_count",
                      "cnot_count")


# "Table 1": the eight reference modulo adders (modulus, variant).
MODULI_ROWS: tuple[ModuliRow, ...] = (
    ModuliRow(2, AdderFamily.MOD_POW2, 1, 2, 0, 1, 0, 1, 0.995),
    ModuliRow(3, AdderFamily.MOD_POW2_MINUS1, 2, 7, 6, 7, 8, 8, 0.912),
    ModuliRow(3, AdderFamily.MOD_POW2_PLUS1, 1, 8, 4, 2, 5, 2, 0.964),
    ModuliRow(4, AdderFamily.MOD_POW2, 2, 4, 1, 1, 1, 2, 0.985),
    ModuliRow(5, AdderFamily.MOD_POW2_PLUS1, 2, 11, 6, 5, 8, 7, 0.931),
    ModuliRow(7, AdderFamily.MOD_POW2_MINUS1, 3, 10, 12, 10, 14, 12, 0.865),
    ModuliRow(8, AdderFamily.MOD_POW2, 3, 6, 3, 4, 3, 6, 0.966),
    ModuliRow(9, AdderFamily.MOD_POW2_PLUS1, 3, 14, 9, 7, 11, 13, 0.893),
)


def moduli_row(modulus: int, family: AdderFamily) -> ModuliRow | None:
    for row in MODULI_ROWS:
        if row.modulus == modulus and row.family == family:
            return row
    return None


@dataclass(frozen=True)
class ComparisonRef:
    size: int
    mono_qubits: int
    mono_toffoli_depth: int
    mono_cnot_depth: int
    mono_probability: float | None  # None: exceeded the 20-qubit device
    rns_set: tuple[int, ...]
    efficiency_percent: str
    max_qubits: int
    max_toffoli_depth: int
    max_cnot_depth: int
    set_probability: float
    gain_percent: float | None


# "Table 2": monolithic adders vs selected residue sets, sizes 6..11.
COMPARISON_ROWS: tuple[ComparisonRef, ...] = (
    ComparisonRef(6, 11, 9, 13, 0.836, (3, 4, 5), "93.75", 11, 6, 5, 0.931, 11.36),
    ComparisonRef(7, 13, 11, 16, 0.702, (4, 5, 9), "100", 14, 9, 7, 0.893, 27.21),
    ComparisonRef(8, 15, 13, 19, 0.595, (5, 8, 9), "100", 14, 9, 7, 0.893, 50.08),
    ComparisonRef(9, 17, 15, 22, 0.481, (7, 8, 9), "98.44", 14, 12, 10, 0.862, 79.21),
    ComparisonRef(10, 19, 17, 25, 0.371, (4, 5, 7, 9), "100", 14, 12, 10, 0.865, 133.15),
    ComparisonRef(11, 21, 19, 28, None, (5, 7, 8, 9), "100", 14, 12, 10, 0.865, None),
)


def comparison_row(size: int) -> ComparisonRef | None:
    for row in COMPARISON_ROWS:
        if row.size == size:
            return row
    return None


# Relative deviation beyond which reports flag a measured resource value.
DEVIATION_FLAG = 0.20


def deviation_flag(measured: int, reference: int) -> str:
    """Empty string when within 20% of the reference, else a delta note."""
    if reference == 0:
        return "" if measured == 0 else f" [ref 0, got {measured}]"
    rel = (measured - reference) / reference
    if abs(rel) <= DEVIATION_FLAG:
        return ""
    return f" [{rel:+.0%} vs ref {reference}]"
