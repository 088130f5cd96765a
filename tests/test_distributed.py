import pytest

from qrns.adders import AdderFamily, make_adder
from qrns.circuit import Circuit, cx
from qrns.distributed import (
    RangeOverflowError,
    aggregate,
    distributed_add,
    execute_jobs,
    gain_report,
    plan_jobs,
)
from qrns.noise import DEFAULT_NOISE, NoiseModel
from qrns.rns import RnsSet
from qrns.select import DepthSource


RNS345 = RnsSet.from_moduli((3, 4, 5))


def test_plan_jobs_residues():
    jobs = plan_jobs(17, 25, RNS345, shots=100, base_seed=1)
    assert [(j.modulus, j.a_residue, j.b_residue) for j in jobs] == [
        (3, 2, 1), (4, 1, 1), (5, 2, 0)]


def test_plan_jobs_zero():
    jobs = plan_jobs(0, 0, RNS345, shots=10, base_seed=1)
    assert all(j.a_residue == j.b_residue == 0 for j in jobs)


def test_plan_jobs_overflow():
    with pytest.raises(RangeOverflowError):
        plan_jobs(30, 30, RNS345, shots=10, base_seed=1)  # 60 >= range 60


def test_plan_jobs_operand_range():
    with pytest.raises(ValueError):
        plan_jobs(60, 0, RNS345, shots=10, base_seed=1)


def test_job_seeds_are_distinct_and_stable():
    first = plan_jobs(17, 25, RNS345, shots=100, base_seed=9)
    second = plan_jobs(17, 25, RNS345, shots=100, base_seed=9)
    assert [j.seed for j in first] == [j.seed for j in second]
    assert len({j.seed for j in first}) == len(first)


def test_zero_noise_top_outcomes_decode_to_residue_sums():
    jobs = plan_jobs(17, 25, RNS345, shots=50, base_seed=3)
    results = execute_jobs(jobs, workers=2, noise=NoiseModel.zero())
    assert [r.top_value for r in results] == [0, 2, 2]  # 42 mod (3,4,5)
    summed = aggregate(results, RNS345)
    assert summed.reconstructed == 42
    assert summed.set_output_probability == 1.0
    assert summed.end_to_end_probability == 1.0
    assert not summed.any_tie


def test_worker_count_does_not_change_results():
    jobs = plan_jobs(11, 30, RNS345, shots=200, base_seed=77)
    reference = execute_jobs(jobs, workers=1, noise=DEFAULT_NOISE)
    for workers in (2, 8):
        again = execute_jobs(plan_jobs(11, 30, RNS345, shots=200, base_seed=77),
                             workers=workers, noise=DEFAULT_NOISE)
        assert [r.histogram for r in again] == [r.histogram for r in reference]


def test_failed_job_is_isolated():
    jobs = plan_jobs(17, 25, RNS345, shots=20, base_seed=1)
    broken_instance = jobs[1].instance
    bad_circuit = Circuit(2, (cx(0, 5),), broken_instance.circuit.registers,
                          broken_instance.circuit.name,
                          dict(broken_instance.circuit.meta))
    jobs[1] = type(jobs[1])(
        job_id=jobs[1].job_id, modulus=jobs[1].modulus,
        instance=type(broken_instance)(circuit=bad_circuit,
                                       family=broken_instance.family,
                                       n=broken_instance.n),
        a_residue=jobs[1].a_residue, b_residue=jobs[1].b_residue,
        shots=jobs[1].shots, seed=jobs[1].seed)
    results = execute_jobs(jobs, workers=3, noise=NoiseModel.zero())
    assert results[1].failed
    assert not results[0].failed and not results[2].failed
    with pytest.raises(ValueError) as excinfo:
        aggregate(results, RNS345)
    assert "missing results" in str(excinfo.value)


def test_aggregate_min_and_product_rules():
    jobs = plan_jobs(5, 6, RNS345, shots=400, base_seed=5)
    results = execute_jobs(jobs, workers=1, noise=DEFAULT_NOISE)
    summed = aggregate(results, RNS345)
    probs = [r.top_probability for r in results]
    assert summed.set_output_probability == min(probs)
    expected_product = 1.0
    for p in probs:
        expected_product *= p
    assert summed.end_to_end_probability == pytest.approx(expected_product)
    assert summed.end_to_end_probability <= summed.set_output_probability


def test_correct_probability_reads_the_oracle_bits():
    jobs = plan_jobs(17, 25, RNS345, shots=500, base_seed=4)
    results = execute_jobs(jobs, workers=2, noise=DEFAULT_NOISE)
    for job, result in zip(jobs, results):
        assert result.correct_probability == (
            result.histogram[job.expected_bits] / job.shots)
        assert 0.0 < result.correct_probability <= 1.0
    zero = execute_jobs(jobs, workers=1, noise=NoiseModel.zero())
    assert [r.correct_probability for r in zero] == [1.0, 1.0, 1.0]


def test_single_modulus_set_aggregates_to_job_value():
    rns = RnsSet.from_moduli((5,))
    result = distributed_add(2, 2, rns, NoiseModel.zero(), shots=30,
                             base_seed=8)
    assert result.reconstructed == 4
    assert len(result.results) == 1


def test_distributed_add_end_to_end_random_pairs():
    import random

    rng = random.Random(123)
    for moduli in [(3, 4, 5), (5, 7, 8, 9)]:
        rns = RnsSet.from_moduli(moduli)
        total = 1
        for m in moduli:
            total *= m
        for _ in range(25):
            a = rng.randrange(total)
            b = rng.randrange(total - a)
            outcome = distributed_add(a, b, rns, NoiseModel.zero(), shots=10,
                                      base_seed=rng.randrange(2**32))
            assert outcome.reconstructed == a + b


def test_selector_sets_end_to_end_zero_noise():
    # Every selected set for sizes 6..11, 200 random in-range pairs each.
    import random

    from qrns.adders import adder_instance, build_adder
    from qrns.noise import NoiseModel
    from qrns.rns import rns_range
    from qrns.select import SelectorConfig, select_rns

    rng = random.Random(987)
    zero = NoiseModel.zero()
    for size in range(6, 12):
        rns = select_rns(SelectorConfig(k=2**size))
        instances = {m: adder_instance(build_adder(fam, n))
                     for m, (fam, n) in zip(rns.moduli, rns.families)}
        total = rns_range(rns)
        for _ in range(200):
            a = rng.randrange(total)
            b = rng.randrange(total - a)
            jobs = plan_jobs(a, b, rns, shots=2, base_seed=rng.randrange(2**32),
                             instances=instances)
            outcome = aggregate(execute_jobs(jobs, workers=1, noise=zero), rns)
            assert outcome.reconstructed == a + b, (size, a, b)


def test_gain_report_zero_noise_gains_are_zero():
    rows = gain_report([6, 7], efficiency=0.9, noise=NoiseModel.zero(),
                       seed=1, shots_mod=5, shots_full=5, sampling=16)
    for row in rows:
        assert row.mono_probability == 1.0
        assert row.set_probability == 1.0
        assert row.gain_percent == 0.0


def test_gain_report_reference_shapes():
    rows = gain_report([6, 11], efficiency=0.9, noise=NoiseModel.zero(),
                       seed=1, shots_mod=5, shots_full=5, sampling=8)
    first, last = rows
    assert first.rns.moduli == (3, 4, 5)
    assert first.max_qubits == 11
    assert str(first.efficiency) == "15/16"
    assert last.size == 11
    assert last.mono_probability is None  # 21 qubits over the 20-qubit budget
    assert last.gain_percent is None
    assert last.mono_report.qubit_count == 21


def test_gain_report_rejects_small_sizes():
    with pytest.raises(ValueError):
        gain_report([5], efficiency=0.9, noise=NoiseModel.zero(), seed=1)


def test_gain_report_built_depth_source():
    rows = gain_report([8], efficiency=0.9, noise=NoiseModel.zero(), seed=1,
                       shots_mod=5, shots_full=5, sampling=8,
                       depth_source=DepthSource.BUILT)
    assert rows[0].rns.moduli == (5, 8, 9)
