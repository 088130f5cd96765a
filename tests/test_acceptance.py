"""Acceptance suite: one test per release criterion.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the per-criterion
pass lines.  Every tolerance is pinned here; nothing is deferred.
"""
import math
import time
from fractions import Fraction

from qrns.adders import (
    AdderFamily,
    build_adder,
    make_adder,
)
from qrns.cli import main as cli_main
from qrns.distributed import MOD_SHOTS, execute_jobs, gain_report, plan_jobs
from qrns.noise import DEFAULT_NOISE, calibrate_noise, derive_seed, output_probability
from qrns.resources import resource_report
from qrns.rns import (
    RnsSet,
    crt_reconstruct,
    encode_residues,
    rns_efficiency,
)
from qrns.select import SelectorConfig, select_rns

SEED = 20240811

TABLE2_SIZES = [6, 7, 8, 9, 10, 11]
TABLE2_SETS = {
    6: (3, 4, 5), 7: (4, 5, 9), 8: (5, 8, 9),
    9: (7, 8, 9), 10: (4, 5, 7, 9), 11: (5, 7, 8, 9),
}

TABLE1_ORDER = [  # (family, n), reported probability, high to low
    ((AdderFamily.MOD_POW2, 1), 0.995),
    ((AdderFamily.MOD_POW2, 2), 0.985),
    ((AdderFamily.MOD_POW2, 3), 0.966),
    ((AdderFamily.MOD_POW2_PLUS1, 1), 0.964),
    ((AdderFamily.MOD_POW2_PLUS1, 2), 0.931),
    ((AdderFamily.MOD_POW2_MINUS1, 2), 0.912),
    ((AdderFamily.MOD_POW2_PLUS1, 3), 0.893),
    ((AdderFamily.MOD_POW2_MINUS1, 3), 0.865),
]


def _report(criterion: str, detail: str) -> None:
    print(f"[criterion {criterion}] PASS: {detail}")


def test_criterion_01_oracle_equivalence_exhaustive():
    started = time.monotonic()
    cases = (
        [(AdderFamily.FULL, n) for n in range(1, 7)]
        + [(AdderFamily.MOD_POW2, n) for n in range(1, 5)]
        + [(AdderFamily.MOD_POW2_MINUS1, n) for n in range(2, 5)]
        + [(AdderFamily.MOD_POW2_PLUS1, n) for n in range(1, 5)]
    )
    total_pairs = 0
    for family, n in cases:
        instance = make_adder(family, n)
        pairs = list(instance.legal_pairs())
        got = instance.run_pairs(pairs)
        for (a, b), bits in zip(pairs, got):
            assert int(bits) == instance.expected_output_bits(a, b), \
                f"{family.value} n={n}: ({a},{b})"
        total_pairs += len(pairs)
    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    _report("1", f"{len(cases)} builders, {total_pairs} input pairs exact "
                 f"in {elapsed:.2f}s")


def test_criterion_02_selector_reference_sets():
    started = time.monotonic()
    for size, expected in TABLE2_SETS.items():
        got = select_rns(SelectorConfig(k=2**size)).moduli
        assert got == expected, f"K=2^{size}"
    assert select_rns(SelectorConfig(k=2**6, efficiency=1.0)).moduli == (3, 5, 8)
    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    _report("2", f"sets for K=2^6..2^11 plus the E=1.0 case in {elapsed:.3f}s")


def test_criterion_03_efficiency_exact_rationals():
    expected = {
        6: Fraction(60, 64), 7: Fraction(1), 8: Fraction(1),
        9: Fraction(504, 512), 10: Fraction(1), 11: Fraction(1),
    }
    percents = {6: "93.75", 7: "100", 8: "100", 9: "98.44", 10: "100", 11: "100"}
    from qrns.rns import efficiency_percent
    for size in TABLE2_SIZES:
        rns = RnsSet.from_moduli(TABLE2_SETS[size])
        eff = rns_efficiency(rns, 2**size)
        assert eff == expected[size]
        assert efficiency_percent(eff) == percents[size]
    _report("3", "six efficiency values exact, incl. 504/512 -> 98.44")


def test_criterion_04_resource_exactness():
    mod2 = resource_report(build_adder(AdderFamily.MOD_POW2, 1))
    assert (mod2.toffoli_count, mod2.cnot_count) == (0, 1)
    mod4 = resource_report(build_adder(AdderFamily.MOD_POW2, 2))
    assert (mod4.toffoli_count, mod4.cnot_count) == (1, 2)
    mod8 = resource_report(build_adder(AdderFamily.MOD_POW2, 3))
    assert (mod8.toffoli_count, mod8.cnot_count) == (3, 6)
    qdma1 = resource_report(build_adder(AdderFamily.MOD_POW2_PLUS1, 1))
    assert (qdma1.toffoli_count, qdma1.cnot_count) == (5, 2)
    assert (qdma1.toffoli_depth, qdma1.cnot_depth) == (4, 2)
    assert qdma1.qubit_count == 8
    _report("4", "mod 2/4/8 gate counts and the full n=1 diminished-1 "
                 "profile exact")


def test_criterion_05_qubit_counts():
    full_qubits = {size: build_adder(AdderFamily.FULL, size - 1).width
                   for size in TABLE2_SIZES}
    assert full_qubits == {6: 11, 7: 13, 8: 15, 9: 17, 10: 19, 11: 21}
    for size in TABLE2_SIZES:
        rns = RnsSet.from_moduli(TABLE2_SETS[size])
        widths = [build_adder(fam, n).width for fam, n in rns.families]
        assert max(widths) <= 14, f"size {size}"
    rows = gain_report([11], efficiency=0.9, noise=DEFAULT_NOISE, seed=SEED,
                       shots_mod=1, shots_full=1, budget=20)
    assert rows[0].mono_probability is None
    assert rows[0].gain_percent is None
    _report("5", "monolithic 11..21 qubits, residue sets <= 14, size 11 "
                 "flagged N.A. at the 20-qubit budget")


def test_criterion_06_toffoli_depth_dominance():
    for size in TABLE2_SIZES:
        mono = resource_report(build_adder(AdderFamily.FULL, size - 1)).toffoli_depth
        rns = RnsSet.from_moduli(TABLE2_SETS[size])
        set_depth = max(resource_report(build_adder(fam, n)).toffoli_depth
                        for fam, n in rns.families)
        assert set_depth < mono, f"size {size}: {set_depth} !< {mono}"
    _report("6", "residue-set max Toffoli depth strictly below the "
                 "monolithic depth at every size")


def test_criterion_07_noise_trends():
    started = time.monotonic()
    effective = 20_000

    def mean_variance(estimate, sampled: bool) -> float:
        # Variance of the across-pairs mean.  For randomly sampled pairs
        # the spread of per-pair probabilities is sampling error and the
        # empirical variance captures it (plus the binomial part); for
        # exhaustive enumeration only the binomial within-pair term counts.
        ps = [p for _, _, p in estimate.per_pair]
        count = len(ps)
        if sampled:
            mean = sum(ps) / count
            return sum((p - mean) ** 2 for p in ps) / max(count - 1, 1) / count
        return sum(p * (1 - p) / estimate.shots for p in ps) / count**2

    # (a) reported probability ordering across the eight reference adders.
    # All pair sets are exhaustive and tiny, so the ordering runs at 1e5
    # effective shots (well past the 1e4 floor) for sharp separations.
    probs = []
    for (family, n), reported in TABLE1_ORDER:
        instance = make_adder(family, n)
        pairs = instance.value_count**2
        shots = max(1, math.ceil(5 * effective / pairs))
        estimate = output_probability(instance, DEFAULT_NOISE, shots=shots,
                                      seed=derive_seed(SEED, "t1", family.value, n))
        probs.append(estimate.mean)
    for upper, lower in zip(probs, probs[1:]):
        assert upper > lower, f"ordering violated: {probs}"

    # (b) monolithic probability strictly decreasing, sizes 6..10.
    # These run at the criterion's stated floor (256 pairs x 40 shots);
    # the 3-sigma tolerances below are computed from this power.
    mono, mono_var = {}, {}
    for size in range(6, 11):
        instance = make_adder(AdderFamily.FULL, size - 1)
        estimate = output_probability(
            instance, DEFAULT_NOISE, shots=40,
            seed=derive_seed(SEED, "mono", size), sampling=256)
        mono[size] = estimate.mean
        mono_var[size] = mean_variance(estimate, sampled=True)
    for size in range(6, 10):
        assert mono[size] > mono[size + 1], f"mono not decreasing at {size}"

    # (c) gains positive and non-decreasing within 3 sigma
    mod_probs, mod_var = {}, {}
    for size in range(6, 11):
        for modulus in TABLE2_SETS[size]:
            if modulus in mod_probs:
                continue
            fam, n = RnsSet.from_moduli((modulus,)).families[0]
            inst = make_adder(fam, n)
            pairs = inst.value_count**2
            shots = max(1, math.ceil(effective / pairs))
            estimate = output_probability(
                inst, DEFAULT_NOISE, shots=shots,
                seed=derive_seed(SEED, "mod", modulus))
            mod_probs[modulus] = estimate.mean
            mod_var[modulus] = mean_variance(estimate, sampled=False)
    gains, sigmas = {}, {}
    for size in range(6, 11):
        binding = min(TABLE2_SETS[size], key=lambda m: mod_probs[m])
        r, m = mod_probs[binding], mono[size]
        gains[size] = 100.0 * (r / m - 1.0)
        sigmas[size] = 100.0 * math.sqrt(
            mod_var[binding] / m**2 + (r**2) * mono_var[size] / m**4)
    for size in range(6, 11):
        assert gains[size] > 0, f"gain at size {size} not positive: {gains}"
    for size in range(6, 10):
        step = gains[size + 1] - gains[size]
        tolerance = 3.0 * math.hypot(sigmas[size], sigmas[size + 1])
        assert step >= -tolerance, (
            f"gain step {size}->{size + 1} fell {step:.2f}, "
            f"beyond -3 sigma = {-tolerance:.2f}")
    assert gains[10] > gains[6], "overall gain trend must rise"

    elapsed = time.monotonic() - started
    assert elapsed < 300.0
    gains_text = " ".join(f"{gains[s]:.1f}" for s in range(6, 11))
    _report("7", f"ordering, monotone monolithic decay, gains [{gains_text}]% "
                 f"in {elapsed:.1f}s")


def test_criterion_08_crt_properties():
    # Exhaustive round trip and homomorphism for every range <= 10^3
    for moduli in ((3, 4, 5), (4, 5, 9), (5, 8, 9), (7, 8, 9)):
        rns = RnsSet.from_moduli(moduli)
        total = rns.range
        assert total <= 1000
        for value in range(total):
            assert crt_reconstruct(encode_residues(value, rns), rns) == value
        for a in range(0, total, 7):
            ra = encode_residues(a, rns)
            for b in range(0, total, 11):
                rb = encode_residues(b, rns)
                summed = [(x + y) % m for x, y, m in zip(ra, rb, rns.moduli)]
                assert crt_reconstruct(summed, rns) == (a + b) % total
    # Randomized cases on the largest set (range 2520)
    import random
    rng = random.Random(SEED)
    rns = RnsSet.from_moduli((5, 7, 8, 9))
    for _ in range(10_000):
        a, b = rng.randrange(2520), rng.randrange(2520)
        ra, rb = encode_residues(a, rns), encode_residues(b, rns)
        summed = [(x + y) % m for x, y, m in zip(ra, rb, rns.moduli)]
        assert crt_reconstruct(summed, rns) == (a + b) % 2520
    _report("8", "round trip and additive homomorphism, exhaustive small "
                 "ranges plus 10^4 randomized cases at range 2520")


def test_criterion_09_schedule_independence(capsys):
    # Repeated CLI runs print the same bytes, and the jobs of one plan give
    # the same histograms whichever order they are passed in.
    outputs = []
    for _ in range(3):
        code = cli_main(["dqc-add", "--a", "123", "--b", "321", "--k", "512",
                         "--seed", str(SEED), "--json"])
        assert code == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] == outputs[2]
    jobs = plan_jobs(123, 321, select_rns(SelectorConfig(k=512)), shots=MOD_SHOTS,
                     base_seed=SEED)
    forward = execute_jobs(jobs, 1, DEFAULT_NOISE)
    backward = execute_jobs(jobs[::-1], 1, DEFAULT_NOISE)
    assert not any(r.failed for r in forward)
    assert [r.histogram for r in forward] == [r.histogram for r in backward]
    with capsys.disabled():
        _report("9", "dqc-add --json byte-identical over 3 runs; equal job "
                     "histograms in job_id and reversed order")


def test_criterion_10_calibration_cross_validation():
    targets = [
        (make_adder(AdderFamily.MOD_POW2, 1), 0.995),
        (make_adder(AdderFamily.MOD_POW2, 3), 0.966),
        (make_adder(AdderFamily.MOD_POW2_PLUS1, 3), 0.893),
    ]
    result = calibrate_noise(targets, shots=250, seed=SEED, max_rounds=8)
    held_out = make_adder(AdderFamily.MOD_POW2, 2)
    predicted = output_probability(held_out, result.model, shots=2000,
                                   seed=derive_seed(SEED, "xval")).mean
    assert abs(predicted - 0.985) <= 0.03, (
        f"held-out prediction {predicted:.3f} vs 0.985 "
        f"(fit residual {result.residual:.5f})")
    _report("10", f"three-row fit predicts the held-out adder at "
                  f"{predicted:.3f} (target 0.985 +/- 0.03)")
