"""Moduli-set selection for a target range under an efficiency floor.

The selector picks a pairwise-coprime set from the 2^n-1 / 2^n / 2^n+1
families whose product covers at least E*K, preferring sets that cover the
full range, then minimizing the worst per-modulus Toffoli depth, breaking
ties toward smaller moduli sums and finally lexicographically.  When no
set of the requested size qualifies, the set size is incremented.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache

from .adders import build_for_modulus
from .resources import resource_report
from .rns import RnsSet, is_pairwise_coprime, rns_range

# Reported per-modulus Toffoli depths from the published resource table.
# 3 uses the 2^n+1 design (depth 4); the 2^n-1 variant is depth 6 there.
PAPER_TABLE_DEPTHS = {2: 0, 3: 4, 4: 1, 5: 6, 7: 12, 8: 3, 9: 9}
PAPER_TABLE_DEPTH_3_MINUS1 = 6

# Largest moduli count the selector tries before giving up.
C_CEILING = 6


class DepthSource(Enum):
    BUILT = "built"
    PAPER_TABLE = "paper"


class SelectionError(Exception):
    """No qualifying moduli set exists within the configured limits."""

    def __init__(self, message: str, binding_constraint: str):
        super().__init__(message)
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
    return resource_report(build_for_modulus(modulus, force_pow2m1_for_3)).toffoli_depth


def toffoli_depth_of(modulus: int, source: DepthSource,
                     force_pow2m1_for_3: bool = False) -> int:
    if source is DepthSource.BUILT:
        return _built_depth(modulus, force_pow2m1_for_3)
    if modulus == 3 and force_pow2m1_for_3:
        return PAPER_TABLE_DEPTH_3_MINUS1
    if modulus not in PAPER_TABLE_DEPTHS:
        raise KeyError(f"no reference depth for modulus {modulus}")
    return PAPER_TABLE_DEPTHS[modulus]


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

    @property
    def pool(self) -> tuple[int, ...]:
        return moduli_pool(self.max_n)

    def depth_of(self, modulus: int) -> int:
        return toffoli_depth_of(modulus, self.depth_source, self.force_pow2m1_for_3)

    @property
    def threshold(self) -> float:
        return self.efficiency * self.k


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
    k = cfg.k
    exponent = k.bit_length() - 1
    if k != 2**exponent or exponent % 3 != 0 or exponent // 3 < 2:
        trace.log(f"K={k} is not an exact power 2^(3h) with h >= 2; enumerating")
        return None
    h = exponent // 3
    moduli = (2**h - 1, 2**h, 2**h + 1)
    total = 1
    for m in moduli:
        total *= m
    trace.log(f"K={k} = 2^(3*{h}): shortcut candidate {moduli}, range {total}")
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


def _enumerate(cfg: SelectorConfig, count: int, trace: SelectionTrace) -> Candidate | None:
    qualifying: list[Candidate] = []
    for combo in itertools.combinations(cfg.pool, count):
        if not is_pairwise_coprime(combo):
            continue
        total = 1
        for m in combo:
            total *= m
        if total < cfg.threshold:
            continue
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
    constraint = (f"range >= E*K = {cfg.threshold:g} with pool {cfg.pool} "
                  f"and C <= {C_CEILING}")
    trace.log(f"infeasible: {constraint}")
    raise SelectionError(f"no qualifying moduli set: {constraint}", constraint)


def select_rns(cfg: SelectorConfig) -> RnsSet:
    trace = explain_selection(cfg)
    rns = RnsSet.from_moduli(trace.final_moduli, cfg.force_pow2m1_for_3)
    if rns_range(rns) < cfg.threshold:
        raise AssertionError("selected set violates the range constraint")
    return rns
