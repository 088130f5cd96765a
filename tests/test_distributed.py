import dataclasses
import math
import threading
from collections import Counter

import pytest

from qrns import distributed
from qrns.distributed import (
    DistributedSum,
    JobResult,
    SimulationError,
    aggregate,
    distributed_add,
    execute_jobs,
    gain_report,
    plan_jobs,
)
from qrns.noise import DEFAULT_NOISE, NoiseModel
from qrns.rns import RnsSet


RNS345 = RnsSet.from_moduli((3, 4, 5))


def test_plan_jobs_residues():
    jobs = plan_jobs(17, 25, RNS345, shots=100, base_seed=1)
    assert [(j.modulus, j.a_residue, j.b_residue) for j in jobs] == [
        (3, 2, 1), (4, 1, 1), (5, 2, 0)]


def test_job_modulus_is_its_instances():
    jobs = plan_jobs(10, 20, RnsSet.from_moduli((5, 8, 9)), shots=10, base_seed=1)
    assert [j.modulus for j in jobs] == [j.instance.modulus for j in jobs] == [5, 8, 9]
    # Swapping moduli between jobs would recombine residues under the wrong
    # modulus; the modulus is read from the adder, so it cannot be set.
    with pytest.raises(TypeError, match="modulus"):
        dataclasses.replace(jobs[0], modulus=9)


def test_plan_jobs_zero():
    jobs = plan_jobs(0, 0, RNS345, shots=10, base_seed=1)
    assert all(j.a_residue == j.b_residue == 0 for j in jobs)


def test_plan_jobs_overflow():
    with pytest.raises(SimulationError, match=r"a\+b = 60 >= range 60"):
        plan_jobs(30, 30, RNS345, shots=10, base_seed=1)  # 60 >= range 60


def test_plan_jobs_operand_range():
    # An operand outside [0, range) is bad input, not a SimulationError: the
    # CLI maps the first to exit 1 and the second to exit 3.
    for a in (60, -1):
        with pytest.raises(ValueError, match=r"operands must lie in \[0, 60\)") as excinfo:
            plan_jobs(a, 0, RNS345, shots=10, base_seed=1)
        assert not isinstance(excinfo.value, SimulationError)


def test_job_seeds_are_distinct_and_stable():
    first = plan_jobs(17, 25, RNS345, shots=100, base_seed=9)
    second = plan_jobs(17, 25, RNS345, shots=100, base_seed=9)
    assert [j.seed for j in first] == [j.seed for j in second]
    assert len({j.seed for j in first}) == len(first)


def test_zero_noise_top_outcomes_decode_to_residue_sums():
    jobs = plan_jobs(17, 25, RNS345, shots=50, base_seed=3)
    results = execute_jobs(jobs, workers=2, noise=NoiseModel())
    assert [r.top_value for r in results] == [0, 2, 2]  # 42 mod (3,4,5)
    summed = aggregate(results, RNS345)
    assert summed.reconstructed == 42
    assert summed.set_output_probability == 1.0
    assert summed.end_to_end_probability == 1.0
    assert not any(r.tie for r in summed.results)


def test_worker_count_does_not_change_results():
    jobs = plan_jobs(11, 30, RNS345, shots=200, base_seed=77)
    reference = execute_jobs(jobs, workers=1, noise=DEFAULT_NOISE)
    for workers in (2, 8):
        again = execute_jobs(plan_jobs(11, 30, RNS345, shots=200, base_seed=77),
                             workers=workers, noise=DEFAULT_NOISE)
        assert [r.histogram for r in again] == [r.histogram for r in reference]


def test_jobs_run_in_the_callers_thread(monkeypatch):
    run_job = distributed._run_job
    threads = []

    def recording(job, noise):
        threads.append((job.job_id, threading.get_ident()))
        return run_job(job, noise)

    monkeypatch.setattr(distributed, "_run_job", recording)
    started = threading.active_count()
    results = execute_jobs(plan_jobs(17, 25, RNS345, shots=20, base_seed=1),
                           workers=3, noise=NoiseModel())
    assert threads == [(job_id, threading.get_ident()) for job_id in range(3)]
    assert threading.active_count() == started
    assert [r.top_value for r in results] == [0, 2, 2]


def test_failed_job_is_isolated():
    jobs = plan_jobs(17, 25, RNS345, shots=20, base_seed=1)
    jobs[1] = dataclasses.replace(jobs[1], a_residue=99)
    results = execute_jobs(jobs, workers=3, noise=NoiseModel())
    assert results[1].failed
    assert not results[0].failed and not results[2].failed
    with pytest.raises(ValueError) as excinfo:
        aggregate(results, RNS345)
    assert "missing results" in str(excinfo.value)


def test_aggregate_failures_are_simulation_errors():
    assert issubclass(SimulationError, ValueError)
    results = execute_jobs(plan_jobs(17, 25, RNS345, shots=10, base_seed=1),
                           workers=1, noise=NoiseModel())
    with pytest.raises(SimulationError, match="missing results for moduli"):
        aggregate(results[:2], RNS345)
    # 0x7 is not a residue of 5: the mode has bits and no value.
    results[2] = dataclasses.replace(results[2], histogram=Counter({0x7: 10}))
    with pytest.raises(SimulationError, match="0x7 is not a decodable codeword"):
        aggregate(results, RNS345)


RNS589 = RnsSet.from_moduli((5, 8, 9))


def test_results_cannot_be_given_what_their_sources_say():
    # A mode or modulus that disagreed with its job would recombine 10 + 20
    # into a wrong sum with no error; both are read from the job and its
    # histogram, so neither can be given.
    results = execute_jobs(plan_jobs(10, 20, RNS589, shots=10, base_seed=1),
                           workers=1, noise=NoiseModel())
    summed = aggregate(results, RNS589)
    assert summed.reconstructed == 30
    with pytest.raises(ValueError, match="init=False"):
        dataclasses.replace(results[0], top_value=3)
    with pytest.raises(TypeError, match="modulus"):
        dataclasses.replace(results[0], modulus=9)
    with pytest.raises(ValueError, match="init=False"):
        dataclasses.replace(summed, reconstructed=31)
    assert [r.modulus for r in results] == [5, 8, 9]
    assert [r.job_id for r in results] == [0, 1, 2]


def test_replaced_histogram_rederives_every_field():
    result = execute_jobs(plan_jobs(10, 20, RNS589, shots=10, base_seed=1),
                          workers=1, noise=NoiseModel())[1]
    assert (result.modulus, result.top_bits, result.top_value) == (8, 6, 6)
    assert (result.top_probability, result.correct_probability, result.tie) == (1, 1, False)
    # A tie between residues 3 and 1 of 8 goes to the smaller value; the
    # oracle's 6 is never read.
    tied = dataclasses.replace(result, histogram=Counter({3: 4, 1: 4, 7: 2}))
    assert (tied.top_bits, tied.top_value, tied.tie) == (1, 1, True)
    assert (tied.top_probability, tied.correct_probability) == (0.4, 0.0)
    assert tied.job is result.job and tied.job_id == 1


def test_records_refuse_inconsistent_sources():
    jobs = plan_jobs(10, 20, RNS589, shots=10, base_seed=1)
    results = execute_jobs(jobs, workers=1, noise=NoiseModel())
    with pytest.raises(ValueError, match="either a histogram or an error"):
        JobResult(jobs[0], None)
    with pytest.raises(ValueError, match="either a histogram or an error"):
        JobResult(jobs[0], Counter({0: 10}), "failed")
    with pytest.raises(ValueError, match="9 shots in a job of 10"):
        JobResult(jobs[0], Counter({0: 9}))
    failed = JobResult(jobs[0], None, "boom")
    assert (failed.top_bits, failed.top_value, failed.top_probability,
            failed.correct_probability, failed.tie) == (None, None, 0.0, 0.0, False)
    for wrong in (results[::-1], results[:2], [failed, *results[1:]], [*results, failed]):
        with pytest.raises(ValueError, match="one result per modulus"):
            DistributedSum(RNS589, tuple(wrong))


def test_set_probabilities_read_the_correct_residue_not_the_mode():
    results = execute_jobs(plan_jobs(10, 20, RNS589, shots=10, base_seed=1),
                           workers=1, noise=NoiseModel())
    # Mod 8's oracle reads 6; the wrong residue 3 becomes the mode.
    wrong = dataclasses.replace(results[1], histogram=Counter({3: 6, 6: 4}))
    assert (wrong.top_value, wrong.top_probability, wrong.correct_probability) == (3, 0.6, 0.4)
    summed = DistributedSum(RNS589, (results[0], wrong, results[2]))
    assert summed.reconstructed != 30
    probs = [r.correct_probability for r in summed.results]
    assert summed.set_output_probability == min(probs) == 0.4
    assert summed.end_to_end_probability == math.prod(probs) == 0.4


def test_aggregate_min_and_product_rules():
    jobs = plan_jobs(5, 6, RNS345, shots=400, base_seed=5)
    results = execute_jobs(jobs, workers=1, noise=DEFAULT_NOISE)
    summed = aggregate(results, RNS345)
    probs = [r.correct_probability for r in results]
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
    zero = execute_jobs(jobs, workers=1, noise=NoiseModel())
    assert [r.correct_probability for r in zero] == [1.0, 1.0, 1.0]


def test_single_modulus_set_aggregates_to_job_value():
    rns = RnsSet.from_moduli((5,))
    result = distributed_add(2, 2, rns, NoiseModel(), shots=30,
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
            outcome = distributed_add(a, b, rns, NoiseModel(), shots=10,
                                      base_seed=rng.randrange(2**32))
            assert outcome.reconstructed == a + b


def test_selector_sets_end_to_end_zero_noise():
    # Every selected set for sizes 6..11, 200 random in-range pairs each.
    import random

    from qrns.noise import NoiseModel
    from qrns.select import SelectorConfig, select_rns

    rng = random.Random(987)
    zero = NoiseModel()
    for size in range(6, 12):
        rns = select_rns(SelectorConfig(k=2**size))
        total = rns.range
        for _ in range(200):
            a = rng.randrange(total)
            b = rng.randrange(total - a)
            jobs = plan_jobs(a, b, rns, shots=2, base_seed=rng.randrange(2**32))
            outcome = aggregate(execute_jobs(jobs, workers=1, noise=zero), rns)
            assert outcome.reconstructed == a + b, (size, a, b)


def test_gain_report_zero_noise_gains_are_zero():
    rows = gain_report([6, 7], efficiency=0.9, noise=NoiseModel(),
                       seed=1, shots_mod=5, shots_full=5)
    for row in rows:
        assert row.mono_probability == 1.0
        assert row.set_probability == 1.0
        assert row.gain_percent == 0.0


def test_gain_report_reference_shapes():
    rows = gain_report([6, 11], efficiency=0.9, noise=NoiseModel(),
                       seed=1, shots_mod=5, shots_full=5)
    first, last = rows
    assert first.rns.moduli == (3, 4, 5)
    assert first.max_qubits == 11
    assert str(first.efficiency) == "15/16"
    assert last.size == 11
    assert last.mono_probability is None  # 21 qubits over the 20-qubit budget
    assert last.gain_percent is None
    assert last.mono_report.qubit_count == 21
    # Only the probabilities are settable; the rest follows them.
    with pytest.raises(ValueError, match="init=False"):
        dataclasses.replace(first, max_qubits=1)
    assert dataclasses.replace(first, mono_probability=0.5).gain_percent == 100.0


def test_gain_report_rejects_small_sizes():
    with pytest.raises(ValueError):
        gain_report([5], efficiency=0.9, noise=NoiseModel(), seed=1)
