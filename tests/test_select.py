import itertools
import math
from functools import lru_cache

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from qrns import select
from qrns.adders import build_adder, family_for_modulus
from qrns.reference import MODULI_ROWS
from qrns.resources import resource_report
from qrns.rns import RANGE_LIMIT, rns_range
from qrns.select import (
    C_CEILING,
    SelectionError,
    SelectorConfig,
    explain_selection,
    moduli_pool,
    select_rns,
    toffoli_depth_of,
)

GOLDEN_SETS = {
    2**6: (3, 4, 5),
    2**7: (4, 5, 9),
    2**8: (5, 8, 9),
    2**9: (7, 8, 9),
    2**10: (4, 5, 7, 9),
    2**11: (5, 7, 8, 9),
}


def test_default_pool():
    assert moduli_pool(3) == (2, 3, 4, 5, 7, 8, 9)
    assert moduli_pool(4) == (2, 3, 4, 5, 7, 8, 9, 15, 16, 17)


def test_pool_stops_below_2_64():
    # No set may hold a modulus of 2^64 or more, so a larger max_n adds none.
    assert max(moduli_pool(200)) < 2**64
    assert moduli_pool(200) == moduli_pool(64)


@pytest.mark.parametrize("k,expected", sorted(GOLDEN_SETS.items()))
def test_reference_selections(k, expected):
    assert select_rns(SelectorConfig(k=k)).moduli == expected


@pytest.mark.parametrize("modulus,force", [
    (3, False), (3, True), (7, False), (8, False), (9, False),
])
def test_built_depth_is_the_built_adders_toffoli_depth(modulus, force):
    circuit = build_adder(*family_for_modulus(modulus, force))
    assert toffoli_depth_of(modulus, force_pow2m1_for_3=force) == \
        resource_report(circuit).toffoli_depth


def test_full_efficiency_selection():
    assert select_rns(SelectorConfig(k=2**6, efficiency=1.0)).moduli == (3, 5, 8)


def _selection_or_error(cfg: SelectorConfig):
    try:
        return select_rns(cfg).moduli
    except SelectionError as exc:
        return str(exc)


def test_paper_depths_select_the_same_sets_at_max_n_3(monkeypatch):
    # The paper's Table-1 depths pick the same set as the built depths in
    # every max_n = 3 configuration of this grid, so the built circuits
    # alone reproduce the paper's selections.
    ks = [*range(50, 1199, 7), *(2**e for e in range(6, 16))]
    configs = [SelectorConfig(k=k, count=count, efficiency=efficiency,
                              force_pow2m1_for_3=force)
               for k in ks for efficiency in (0.5, 0.9, 1.0)
               for count in (2, 3, 4) for force in (False, True)]
    built = [_selection_or_error(cfg) for cfg in configs]
    paper = {(row.modulus, row.family): row.toffoli_depth for row in MODULI_ROWS}

    def paper_depth(modulus, source, force_pow2m1_for_3=False):
        family, _ = family_for_modulus(modulus, force_pow2m1_for_3)
        return paper[(modulus, family)]

    monkeypatch.setattr(select, "toffoli_depth_of", paper_depth)
    assert SelectorConfig(k=64).depth_of(7) == 12  # the built adder's is 14
    assert [_selection_or_error(cfg) for cfg in configs] == built
    assert any(isinstance(result, str) for result in built)


def test_config_validation():
    with pytest.raises(ValueError):
        SelectorConfig(k=49)
    with pytest.raises(ValueError):
        SelectorConfig(k=64, efficiency=0.0)
    with pytest.raises(ValueError):
        SelectorConfig(k=64, count=1)
    with pytest.raises(ValueError, match="max_n must be >= 1"):
        SelectorConfig(k=64, max_n=0)


def test_trace_exact_power_shortcut():
    trace = explain_selection(SelectorConfig(k=2**6))
    assert trace.final_moduli == (3, 4, 5)
    assert any("shortcut accepted" in e for e in trace.events)
    assert not trace.candidates  # no enumeration happened


def test_trace_depth_rejection_at_256():
    trace = explain_selection(SelectorConfig(k=2**8))
    rejected = {c.moduli: c.verdict for c in trace.candidates}
    assert trace.final_moduli == (5, 8, 9)
    # 14 is the built mod-7 adder's depth (the paper's table gives 12).
    assert "max Toffoli depth 14" in rejected[(5, 7, 8)]


def test_trace_count_increment_at_1024():
    trace = explain_selection(SelectorConfig(k=2**10))
    assert any("incrementing moduli count to C=4" in e for e in trace.events)
    assert trace.final_moduli == (4, 5, 7, 9)


def test_trace_final_matches_select():
    for k in GOLDEN_SETS:
        cfg = SelectorConfig(k=k)
        assert explain_selection(cfg).final_moduli == select_rns(cfg).moduli


def test_selection_is_deterministic():
    cfg = SelectorConfig(k=2**8)
    first = explain_selection(cfg)
    second = explain_selection(cfg)
    assert first.final_moduli == second.final_moduli
    assert first.events == second.events


def test_output_always_meets_constraint():
    for k in (64, 100, 250, 513, 999, 2000):
        for eff in (0.5, 0.9, 1.0):
            try:
                rns = select_rns(SelectorConfig(k=k, efficiency=eff))
            except SelectionError:
                continue
            assert rns_range(rns) >= eff * k
            for a, b in itertools.combinations(rns.moduli, 2):
                assert math.gcd(a, b) == 1


def test_raising_efficiency_never_lowers_range():
    for k in (64, 128, 256, 512, 777, 1024):
        for e1, e2 in [(0.5, 0.9), (0.9, 1.0), (0.6, 0.95)]:
            try:
                r1 = select_rns(SelectorConfig(k=k, efficiency=e1))
                r2 = select_rns(SelectorConfig(k=k, efficiency=e2))
            except SelectionError:
                continue
            assert rns_range(r2) >= rns_range(r1)


def test_winner_depth_dominates_same_coverage_class():
    cfg = SelectorConfig(k=2**8)
    trace = explain_selection(cfg)
    winner = next(c for c in trace.candidates if c.verdict == "selected")
    for cand in trace.candidates:
        if cand.full_coverage == winner.full_coverage:
            assert winner.max_depth <= cand.max_depth


def test_infeasible_selection_raises_with_constraint():
    with pytest.raises(SelectionError) as excinfo:
        select_rns(SelectorConfig(k=10**9))
    assert "range >= E*K" in str(excinfo.value)
    assert excinfo.value.binding_constraint


def test_forced_minus1_propagates_to_set():
    from qrns.adders import AdderFamily
    cfg = SelectorConfig(k=2**6, force_pow2m1_for_3=True)
    rns = select_rns(cfg)
    assert rns.moduli == (3, 4, 5)
    assert rns.families[0] == (AdderFamily.MOD_POW2_MINUS1, 2)


def test_larger_pool_feasible_for_huge_k():
    rns = select_rns(SelectorConfig(k=2**12, max_n=4))
    assert rns_range(rns) >= 0.9 * 2**12


# --- the depth-first search against a brute-force reference ---------------

@lru_cache(maxsize=None)
def _coprime_combos(max_n: int, count: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Every pairwise-coprime `count`-subset of the pool, with its product."""
    return tuple(
        (combo, math.prod(combo))
        for combo in itertools.combinations(moduli_pool(max_n), count)
        if all(math.gcd(a, b) == 1 for a, b in itertools.combinations(combo, 2))
    )


def _reference_candidates(cfg: SelectorConfig) -> list[tuple[int, ...]]:
    """Qualifying subsets of the first count that has any, in trace order."""
    for count in range(cfg.count, C_CEILING + 1):
        # Full coverage first, then the smallest worst depth, the smallest
        # moduli sum and the lexicographically smallest set.
        ranked = sorted(
            (total < cfg.k, max(cfg.depth_of(m) for m in combo), sum(combo), combo)
            for combo, total in _coprime_combos(cfg.max_n, count)
            if cfg.threshold <= total < RANGE_LIMIT
        )
        if ranked:
            return [combo for *_, combo in ranked]
    return []


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(max_n=st.integers(1, 10), count=st.integers(2, 6),
       k=st.integers(6, 62).flatmap(lambda e: st.integers(max(50, 2**(e - 1)), 2**e)),
       efficiency=st.floats(0.05, 1.0))
def test_search_matches_brute_force(max_n, count, k, efficiency):
    cfg = SelectorConfig(k=k, count=count, efficiency=efficiency, max_n=max_n)
    expected = _reference_candidates(cfg)
    try:
        trace = explain_selection(cfg)
    except SelectionError:
        assert expected == []
        return
    assume(trace.candidates)  # the exact-power shortcut enumerates nothing
    assert [c.moduli for c in trace.candidates] == expected
    assert trace.final_moduli == tuple(sorted(expected[0]))


@pytest.mark.parametrize("max_n,k,expected,candidates", [
    (8, 2**40, (17, 65, 127, 129, 256, 257), 4),
    (10, 2**50, (127, 129, 257, 511, 512, 1025), 19),
])
def test_built_depth_selections(max_n, k, expected, candidates):
    trace = explain_selection(SelectorConfig(k=k, max_n=max_n))
    assert trace.final_moduli == expected
    assert len(trace.candidates) == candidates


def test_built_depth_selection_infeasible_at_2_56():
    with pytest.raises(SelectionError):
        explain_selection(SelectorConfig(k=2**56, max_n=10))


def test_sets_reaching_2_64_do_not_qualify():
    # Every full-coverage set for K = 2^64 reaches the limit, so the
    # winner covers E*K only partially.
    cfg = SelectorConfig(k=2**64, max_n=12)
    trace = explain_selection(cfg)
    assert trace.candidates
    assert all(c.range < RANGE_LIMIT and not c.full_coverage
               for c in trace.candidates)
    assert cfg.threshold <= rns_range(select_rns(cfg)) < RANGE_LIMIT


def test_infeasible_beyond_2_64_names_the_limit():
    with pytest.raises(SelectionError, match=r"range < 2\^64"):
        explain_selection(SelectorConfig(k=2**70, max_n=14))


def test_k_beyond_the_float_range_still_selects():
    # Any set covers an E*K this small, although K itself has no float value.
    rns = select_rns(SelectorConfig(k=10**320, efficiency=5e-324))
    assert rns.moduli == (2, 3, 5)


def test_shortcut_refuses_a_range_reaching_2_64():
    trace = explain_selection(SelectorConfig(k=2**66, efficiency=0.2, max_n=12))
    assert any("shortcut rejected: range" in e and ">= 2^64" in e
               for e in trace.events)
    assert math.prod(trace.final_moduli) < RANGE_LIMIT
