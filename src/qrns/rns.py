"""Residue number system core: moduli sets, range, efficiency, CRT."""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .adders import AdderFamily, family_for_modulus

RANGE_LIMIT = 2**64


def is_pairwise_coprime(moduli: Sequence[int]) -> bool:
    for i, m in enumerate(moduli):
        for other in moduli[i + 1:]:
            if math.gcd(m, other) != 1:
                return False
    return True


@dataclass(frozen=True)
class RnsSet:
    """Pairwise-coprime moduli with their product ``range`` and the adder
    family serving each one; ``range`` and ``families`` are derived from
    the moduli and cannot be given."""

    moduli: tuple[int, ...]
    range: int = field(init=False)
    families: tuple[tuple[AdderFamily, int], ...] = field(init=False)

    def __post_init__(self) -> None:
        if any(m < 2 for m in self.moduli):
            raise ValueError(f"moduli must be >= 2: {self.moduli}")
        if not is_pairwise_coprime(self.moduli):
            raise ValueError(f"moduli are not pairwise coprime: {self.moduli}")
        total_range = math.prod(self.moduli)
        if total_range >= RANGE_LIMIT:
            raise ValueError(f"range of {self.moduli} is 2^64 or more")
        object.__setattr__(self, "range", total_range)
        object.__setattr__(self, "families",
                           tuple([family_for_modulus(m) for m in self.moduli]))

    @classmethod
    def from_moduli(cls, moduli: Sequence[int]) -> "RnsSet":
        return cls(tuple(moduli))

    def __str__(self) -> str:
        return "(" + ", ".join(str(m) for m in self.moduli) + ")"


def rns_efficiency(rns: RnsSet, k: int) -> Fraction:
    """Range/K as an exact fraction, capped at 1 for over-covering sets."""
    if k < 1:
        raise ValueError(f"K must be >= 1, got {k}")
    return min(Fraction(1), Fraction(rns.range, k))


def efficiency_percent(eff: Fraction) -> str:
    """Two-decimal percentage with trailing zeros trimmed (93.75, 100, 98.44)."""
    text = f"{float(eff) * 100:.2f}".rstrip("0").rstrip(".")
    return text


def encode_residues(value: int, rns: RnsSet) -> tuple[int, ...]:
    """The residues of ``value`` in [0, range), one per modulus."""
    if not 0 <= value < rns.range:
        raise ValueError(f"operands must lie in [0, {rns.range})")
    return tuple([value % m for m in rns.moduli])


def crt_reconstruct(residues: Sequence[int], rns: RnsSet) -> int:
    """The unique x in [0, range) congruent to every residue; the inverse
    of ``encode_residues``."""
    if len(residues) != len(rns.moduli):
        raise ValueError("residue count does not match moduli count")
    result = 0
    for residue, m in zip(residues, rns.moduli):
        if not 0 <= residue < m:
            raise ValueError(f"residue {residue} out of range for modulus {m}")
        partial = rns.range // m
        result += residue * partial * pow(partial, -1, m)
    return result % rns.range
