"""Moduli-set selection for a target range under an efficiency floor.

The selector picks a pairwise-coprime set from the 2^n-1 / 2^n / 2^n+1
families whose product covers at least E*K and stays below 2^64,
preferring sets that cover the full range, then minimizing the worst
per-modulus Toffoli depth, breaking ties toward smaller moduli sums and
finally lexicographically.  When no set of the requested size qualifies,
the set size is incremented.

One case skips the search: for K = 2^(3h), h >= 2, the special set
(2^h-1, 2^h, 2^h+1) is taken whenever its range reaches E*K and stays
below 2^64, whatever max_n and the depth source are, so its moduli may
lie outside the pool (K = 2^12 gives (15, 16, 17) at the default
max_n = 3).
"""
from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import lru_cache

from .adders import family_for_modulus, make_adder
from .reference import moduli_row
from .rns import RANGE_LIMIT, RnsSet

# Largest moduli count the selector tries before giving up.
C_CEILING = 6


class DepthSource(Enum):
    BUILT = "built"
    PAPER_TABLE = "paper"


class SelectionError(Exception):
    """No qualifying moduli set exists within the configured limits."""

    def __init__(self, binding_constraint: str):
        super().__init__(f"no qualifying moduli set: {binding_constraint}")
        self.binding_constraint = binding_constraint


def moduli_pool(max_n: int) -> tuple[int, ...]:
    """Candidate moduli from the three families for n up to max_n."""
    pool: set[int] = set()
    for n in range(1, max_n + 1):
        pool.add(2**n)
        pool.add(2**n + 1)
        if 2**n - 1 >= 2:
            pool.add(2**n - 1)
    return tuple(sorted(pool))


@lru_cache(maxsize=None)
def _built_depth(modulus: int, force_pow2m1_for_3: bool) -> int:
    return make_adder(*family_for_modulus(modulus, force_pow2m1_for_3)).resources.toffoli_depth


def toffoli_depth_of(modulus: int, source: DepthSource,
                     force_pow2m1_for_3: bool = False) -> int:
    """Toffoli depth of the modulus's adder: built and measured, or the
    published table's value for the family the modulus maps to (3 is the
    2^n+1 design unless the 2^n-1 variant is forced)."""
    if source is DepthSource.BUILT:
        return _built_depth(modulus, force_pow2m1_for_3)
    row = moduli_row(modulus, family_for_modulus(modulus, force_pow2m1_for_3)[0])
    if row is None:
        raise KeyError(f"no reference depth for modulus {modulus}")
    return row.toffoli_depth


@dataclass(frozen=True)
class SelectorConfig:
    k: int
    count: int = 3
    efficiency: float = 0.9
    max_n: int = 3
    depth_source: DepthSource = DepthSource.PAPER_TABLE
    force_pow2m1_for_3: bool = False

    def __post_init__(self) -> None:
        if self.k < 50:
            raise ValueError(f"K must be >= 50, got {self.k}")
        if not 0 < self.efficiency <= 1:
            raise ValueError(f"efficiency must be in (0, 1], got {self.efficiency}")
        if self.count < 2:
            raise ValueError(f"moduli count must be >= 2, got {self.count}")
        if self.count > C_CEILING:
            raise ValueError(f"moduli count must be <= {C_CEILING}, got {self.count}")
        if self.max_n < 1:
            raise ValueError(f"max_n must be >= 1, got {self.max_n}")

    @property
    def pool(self) -> tuple[int, ...]:
        return moduli_pool(self.max_n)

    def depth_of(self, modulus: int) -> int:
        return toffoli_depth_of(modulus, self.depth_source, self.force_pow2m1_for_3)

    @property
    def threshold(self) -> float:
        # The exact product, rounded once: E*K may fit a float when K does not.
        return float(Fraction(self.efficiency) * self.k)


@dataclass(frozen=True)
class Candidate:
    moduli: tuple[int, ...]
    range: int
    max_depth: int
    full_coverage: bool
    verdict: str

    @property
    def moduli_sum(self) -> int:
        return sum(self.moduli)


@dataclass
class SelectionTrace:
    """Ordered audit of the staged selection."""

    config: SelectorConfig
    events: list[str] = field(default_factory=list)
    candidates: list[Candidate] = field(default_factory=list)
    final_moduli: tuple[int, ...] = ()

    def log(self, message: str) -> None:
        self.events.append(message)


def _exact_power_shortcut(cfg: SelectorConfig, trace: SelectionTrace) -> tuple[int, ...] | None:
    """The special set (2^h-1, 2^h, 2^h+1) for K = 2^(3h), h >= 2, if its
    range lies in [E*K, 2^64); otherwise None and the search runs.

    This is intended: the set is taken whatever max_n and the depth source
    are, even when its moduli are not in the pool and the paper table has
    no depth for them, so `qrns select --k 4096` gives (15, 16, 17) and
    `--k 262144 --max-n 2` gives (63, 64, 65).
    """
    k = cfg.k
    exponent = k.bit_length() - 1
    if k != 2**exponent or exponent % 3 != 0 or exponent // 3 < 2:
        trace.log(f"K={k} is not an exact power 2^(3h) with h >= 2; enumerating")
        return None
    h = exponent // 3
    moduli = (2**h - 1, 2**h, 2**h + 1)
    total = math.prod(moduli)
    trace.log(f"K={k} = 2^(3*{h}): shortcut candidate {moduli}, range {total}")
    if total >= RANGE_LIMIT:
        trace.log(f"shortcut rejected: range {total} >= 2^64; enumerating")
        return None
    if total >= cfg.threshold:
        trace.log(
            f"shortcut accepted: range {total} >= E*K = {cfg.threshold:g}"
        )
        return moduli
    trace.log(
        f"shortcut rejected: range {total} < E*K = {cfg.threshold:g}; enumerating"
    )
    return None


def _sort_key(c: Candidate) -> tuple:
    return (not c.full_coverage, c.max_depth, c.moduli_sum, c.moduli)


def _coprime_subsets(pool: tuple[int, ...], count: int,
                     threshold: float) -> Iterator[tuple[tuple[int, ...], int]]:
    """Yield (moduli, product) for every pairwise-coprime `count`-subset of
    the ascending `pool` with threshold <= product < 2^64, in lexicographic
    order.

    A depth-first search: a partial set is extended only by later moduli
    coprime to its product, a branch is cut when even the largest moduli
    left cannot lift its product to the threshold, and a loop stops once
    the product reaches 2^64, because later moduli are larger.
    """
    # top[j]: product of the j largest pool moduli, an upper bound on any
    # j further choices.
    top = [1]
    for m in reversed(pool):
        top.append(top[-1] * m)

    def extend(start: int, chosen: tuple[int, ...],
               product: int) -> Iterator[tuple[tuple[int, ...], int]]:
        need = count - len(chosen)
        for i in range(start, len(pool) - need + 1):
            m = pool[i]
            total = product * m
            if total >= RANGE_LIMIT:
                return
            if total * top[need - 1] < threshold or math.gcd(product, m) != 1:
                continue
            if need == 1:
                yield chosen + (m,), total
            else:
                yield from extend(i + 1, chosen + (m,), total)

    return extend(0, (), 1)


def _enumerate(cfg: SelectorConfig, count: int, trace: SelectionTrace) -> Candidate | None:
    qualifying: list[Candidate] = []
    for combo, total in _coprime_subsets(cfg.pool, count, cfg.threshold):
        qualifying.append(Candidate(
            moduli=combo,
            range=total,
            max_depth=max(cfg.depth_of(m) for m in combo),
            full_coverage=total >= cfg.k,
            verdict="",
        ))
    if not qualifying:
        trace.log(f"C={count}: no pairwise-coprime subset reaches E*K = {cfg.threshold:g}")
        return None
    qualifying.sort(key=_sort_key)
    best = qualifying[0]
    for cand in qualifying:
        if cand is best:
            verdict = "selected"
        elif best.full_coverage and not cand.full_coverage:
            verdict = f"rejected: partial coverage (range {cand.range} < K)"
        elif cand.max_depth > best.max_depth:
            verdict = (f"rejected: max Toffoli depth {cand.max_depth} > "
                       f"{best.max_depth} of {best.moduli}")
        elif cand.moduli_sum > best.moduli_sum:
            verdict = f"rejected: larger moduli sum {cand.moduli_sum} > {best.moduli_sum}"
        else:
            verdict = "rejected: lexicographic tie-break"
        final = Candidate(cand.moduli, cand.range, cand.max_depth,
                          cand.full_coverage, verdict)
        trace.candidates.append(final)
        trace.log(f"C={count}: {final.moduli} range={final.range} "
                  f"maxTdepth={final.max_depth} -> {verdict}")
    return best


def explain_selection(cfg: SelectorConfig) -> SelectionTrace:
    """Run the staged selection, returning the full decision trace."""
    # Decided on the exact product: such a K may not even convert to a float.
    if Fraction(cfg.efficiency) * cfg.k >= RANGE_LIMIT:
        raise SelectionError("range >= E*K and range < 2^64, but E*K >= 2^64")
    trace = SelectionTrace(config=cfg)
    shortcut = _exact_power_shortcut(cfg, trace)
    if shortcut is not None:
        trace.final_moduli = tuple(sorted(shortcut))
        return trace
    count = cfg.count
    while count <= C_CEILING:
        best = _enumerate(cfg, count, trace)
        if best is not None:
            trace.final_moduli = tuple(sorted(best.moduli))
            return trace
        count += 1
        if count <= C_CEILING:
            trace.log(f"incrementing moduli count to C={count}")
    raise SelectionError(f"range >= E*K = {cfg.threshold:g} and range < 2^64 "
                         f"with pool {cfg.pool} and C <= {C_CEILING}")


def select_rns(cfg: SelectorConfig) -> RnsSet:
    return RnsSet.from_moduli(explain_selection(cfg).final_moduli, cfg.force_pow2m1_for_3)
