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
    """Pairwise-coprime moduli with the adder family serving each one;
    ``families`` comes from ``family_for_modulus`` and cannot be given."""

    moduli: tuple[int, ...]
    families: tuple[tuple[AdderFamily, int], ...] = field(init=False)

    def __post_init__(self) -> None:
        if any(m < 2 for m in self.moduli):
            raise ValueError(f"moduli must be >= 2: {self.moduli}")
        if not is_pairwise_coprime(self.moduli):
            raise ValueError(f"moduli are not pairwise coprime: {self.moduli}")
        if math.prod(self.moduli) >= RANGE_LIMIT:
            raise ValueError(f"range of {self.moduli} is 2^64 or more")
        object.__setattr__(self, "families",
                           tuple([family_for_modulus(m) for m in self.moduli]))

    @classmethod
    def from_moduli(cls, moduli: Sequence[int]) -> "RnsSet":
        return cls(tuple(moduli))

    def __str__(self) -> str:
        return "(" + ", ".join(str(m) for m in self.moduli) + ")"


def rns_range(rns: RnsSet) -> int:
    return math.prod(rns.moduli)


def rns_efficiency(rns: RnsSet, k: int) -> Fraction:
    """Range/K as an exact fraction, capped at 1 for over-covering sets."""
    if k < 1:
        raise ValueError(f"K must be >= 1, got {k}")
    return min(Fraction(1), Fraction(rns_range(rns), k))


def efficiency_percent(eff: Fraction) -> str:
    """Two-decimal percentage with trailing zeros trimmed (93.75, 100, 98.44)."""
    text = f"{float(eff) * 100:.2f}".rstrip("0").rstrip(".")
    return text


@dataclass(frozen=True)
class ResidueVector:
    rns: RnsSet
    residues: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.residues) != len(self.rns.moduli):
            raise ValueError("residue count does not match moduli count")
        for r, m in zip(self.residues, self.rns.moduli):
            if not 0 <= r < m:
                raise ValueError(f"residue {r} out of range for modulus {m}")


def encode_residues(value: int, rns: RnsSet) -> ResidueVector:
    if not 0 <= value < rns_range(rns):
        raise ValueError(f"operands must lie in [0, {rns_range(rns)})")
    return ResidueVector(rns=rns, residues=tuple([value % m for m in rns.moduli]))


def crt_reconstruct(rv: ResidueVector) -> int:
    """The unique x in [0, range) congruent to every residue."""
    total_range = rns_range(rv.rns)
    result = 0
    for residue, m in zip(rv.residues, rv.rns.moduli):
        partial = total_range // m
        result += residue * partial * pow(partial, -1, m)
    return result % total_range
