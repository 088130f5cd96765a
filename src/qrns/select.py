"""Moduli-set selection for a target range under an efficiency floor.

The selector picks a pairwise-coprime set from the 2^n-1 / 2^n / 2^n+1
families whose product covers at least E*K and stays below 2^64,
preferring sets that cover the full range, then minimizing the worst
per-modulus Toffoli depth, breaking ties toward smaller moduli sums and
finally lexicographically.  A modulus's depth is the Toffoli depth of the
adder ``make_adder`` builds for it, so any pool, whatever its max_n, has
depths.  When no set of the requested size qualifies, the set size is
incremented.

One case skips the search: for K = 2^(3h), h >= 2, the special set
(2^h-1, 2^h, 2^h+1) is taken whenever its range reaches E*K and stays
below 2^64, whatever max_n is, so its moduli may lie outside the pool
(K = 2^12 gives (15, 16, 17) at the default max_n = 3).
"""
from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cache

from .adders import FAMILIES, family_for_modulus, family_modulus, make_adder
from .rns import RANGE_LIMIT, RnsSet

# Largest moduli count the selector tries before giving up.
C_CEILING = 6


# The built circuit is the only depth source.  Only the benchmark spells
# DepthSource.BUILT; the next benchmark change deletes the enum.
class DepthSource(Enum):
    BUILT = "built"


class SelectionError(Exception):
    """No qualifying moduli set exists within the configured limits."""

    def __init__(self, binding_constraint: str):
        super().__init__(f"no qualifying moduli set: {binding_constraint}")
        self.binding_constraint = binding_constraint


def moduli_pool(max_n: int) -> tuple[int, ...]:
    """Candidate moduli from the modular families for n up to max_n.

    Only moduli below 2^64 are kept, since no set's range may reach it; so
    n stops at 64 and a huge max_n costs no more than max_n = 64.
    """
    top_n = min(max_n, RANGE_LIMIT.bit_length() - 1)
    pool = {family_modulus(family, n) for family, spec in FAMILIES.items()
            if spec.offset is not None for n in range(spec.min_n, top_n + 1)}
    return tuple(sorted(m for m in pool if m < RANGE_LIMIT))


# `source` is unused: only the benchmark passes it, and the next benchmark
# change deletes it.  Every candidate set asks for its moduli's depths;
# keeping each depth once looked up makes a default selection 10-30% faster
# than asking `make_adder` every time.
@cache
def toffoli_depth_of(modulus: int, source: DepthSource = DepthSource.BUILT) -> int:
    """Toffoli depth of the one adder built for the modulus (3 is the 2^1+1
    design)."""
    return make_adder(*family_for_modulus(modulus)).resources.toffoli_depth


@dataclass(frozen=True)
class SelectorConfig:
    k: int
    count: int = 3
    efficiency: float = 0.9
    max_n: int = 3
    # Only the benchmark sets it; the next benchmark change deletes it.
    depth_source: DepthSource = DepthSource.BUILT

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


@dataclass
class SelectionTrace:
    """Ordered audit of the staged selection."""

    events: list[str] = field(default_factory=list)
    candidates: list[Candidate] = field(default_factory=list)
    final_moduli: tuple[int, ...] = ()

    def log(self, message: str) -> None:
        self.events.append(message)


def _exact_power_shortcut(cfg: SelectorConfig, trace: SelectionTrace) -> tuple[int, ...] | None:
    """The special set (2^h-1, 2^h, 2^h+1) for K = 2^(3h), h >= 2, if its
    range lies in [E*K, 2^64); otherwise None and the search runs.

    This is intended: the set is taken whatever max_n is, even when its
    moduli are not in the pool, so `qrns select --k 4096` gives
    (15, 16, 17) and `--k 262144 --max-n 2` gives (63, 64, 65).
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


def _coprime_subsets(pool: tuple[int, ...], top: list[int], need: int,
                     threshold: float, start: int = 0, chosen: tuple[int, ...] = (),
                     product: int = 1) -> Iterator[tuple[tuple[int, ...], int]]:
    """Yield (moduli, product) for every pairwise-coprime extension of
    `chosen` by `need` moduli of the ascending `pool` from index `start` on,
    with threshold <= product < 2^64, in lexicographic order.

    A depth-first search: a partial set is extended only by later moduli
    coprime to its product, a branch is cut when even the largest moduli
    left cannot lift its product to the threshold (top[j] is the product of
    the j largest pool moduli), and a loop stops once the product reaches
    2^64, because later moduli are larger.
    """
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
            yield from _coprime_subsets(pool, top, need - 1, threshold,
                                        i + 1, chosen + (m,), total)


# A ranked set: (partial coverage, max depth, moduli sum, moduli, range).
# Tuple order is the ranking; the moduli make it total.
_Ranked = tuple[bool, int, int, tuple[int, ...], int]


def _verdict(cand: _Ranked, best: _Ranked) -> str:
    """Why `cand` is selected or loses to `best`, on the first key that differs."""
    if cand is best:
        return "selected"
    partial, depth, moduli_sum, _, total = cand
    best_partial, best_depth, best_sum, best_moduli, _ = best
    if partial and not best_partial:
        return f"rejected: partial coverage (range {total} < K)"
    if depth > best_depth:
        return f"rejected: max Toffoli depth {depth} > {best_depth} of {best_moduli}"
    if moduli_sum > best_sum:
        return f"rejected: larger moduli sum {moduli_sum} > {best_sum}"
    return "rejected: lexicographic tie-break"


def _enumerate(cfg: SelectorConfig, count: int,
               trace: SelectionTrace) -> tuple[int, ...] | None:
    pool, threshold = cfg.pool, cfg.threshold
    top = [1]
    for m in reversed(pool):
        top.append(top[-1] * m)
    ranked: list[_Ranked] = sorted(
        (total < cfg.k, max(map(toffoli_depth_of, moduli)), sum(moduli), moduli, total)
        for moduli, total in _coprime_subsets(pool, top, count, threshold))
    if not ranked:
        trace.log(f"C={count}: no pairwise-coprime subset reaches E*K = {threshold:g}")
        return None
    best = ranked[0]
    for cand in ranked:
        partial, depth, _, moduli, total = cand
        verdict = _verdict(cand, best)
        trace.candidates.append(Candidate(moduli, total, depth, not partial, verdict))
        trace.log(f"C={count}: {moduli} range={total} maxTdepth={depth} -> {verdict}")
    return best[3]


def explain_selection(cfg: SelectorConfig) -> SelectionTrace:
    """Run the staged selection, returning the full decision trace."""
    # Decided on the exact product: such a K may not even convert to a float.
    if Fraction(cfg.efficiency) * cfg.k >= RANGE_LIMIT:
        raise SelectionError("range >= E*K and range < 2^64, but E*K >= 2^64")
    trace = SelectionTrace()
    shortcut = _exact_power_shortcut(cfg, trace)
    if shortcut is not None:
        trace.final_moduli = tuple(sorted(shortcut))
        return trace
    count = cfg.count
    while count <= C_CEILING:
        best = _enumerate(cfg, count, trace)
        if best is not None:
            trace.final_moduli = tuple(sorted(best))
            return trace
        count += 1
        if count <= C_CEILING:
            trace.log(f"incrementing moduli count to C={count}")
    raise SelectionError(f"range >= E*K = {cfg.threshold:g} and range < 2^64 "
                         f"with pool {cfg.pool} and C <= {C_CEILING}")


def select_rns(cfg: SelectorConfig) -> RnsSet:
    return RnsSet.from_moduli(explain_selection(cfg).final_moduli)
