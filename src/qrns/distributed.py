"""Distributed residue addition: independent per-modulus jobs plus CRT.

A sum is split into one modulo-adder job per modulus.  Jobs share nothing
and carry their own seeds, so results are bit-identical whatever order
they run in.  The classical side plans residues, runs the jobs one after
another, and recombines the modal outcomes through the Chinese Remainder
Theorem.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .adders import AdderFamily, AdderInstance, make_adder
from .noise import NoiseModel, check_shots, derive_seed, output_probability, run_shots
from .resources import ResourceReport
from .rns import (
    ResidueVector,
    RnsSet,
    crt_reconstruct,
    encode_residues,
    rns_efficiency,
    rns_range,
)
from .select import SelectorConfig, select_rns


class SimulationError(ValueError):
    """A distributed addition ran but cannot yield a sum."""


class RangeOverflowError(SimulationError):
    """The requested sum does not fit the residue system's range."""


@dataclass(frozen=True)
class ResidueJob:
    """Everything one worker (or remote QPU) needs to run its modulus."""

    job_id: int
    modulus: int
    instance: AdderInstance
    a_residue: int
    b_residue: int
    shots: int
    seed: int

    @property
    def expected_bits(self) -> int:
        return self.instance.expected_output_bits(self.a_residue, self.b_residue)


@dataclass(frozen=True)
class JobResult:
    job_id: int
    modulus: int
    histogram: Counter[int] | None
    top_bits: int | None
    top_value: int | None
    top_probability: float
    # Share of shots that read the oracle's output bits, which the modal
    # outcome alone does not show when the mode is wrong.
    correct_probability: float
    tie: bool
    error: str | None = None

    @property
    def failed(self) -> bool:
        return self.error is not None


@dataclass(frozen=True)
class DistributedSum:
    """Aggregate of all residue jobs for one addition."""

    rns: RnsSet
    results: tuple[JobResult, ...]
    reconstructed: int
    set_output_probability: float
    end_to_end_probability: float
    any_tie: bool


def plan_jobs(a: int, b: int, rns: RnsSet, shots: int,
              base_seed: int) -> list[ResidueJob]:
    """One job per modulus; residues of a and b, per-job derived seeds."""
    check_shots(shots)
    a_residues, b_residues = (encode_residues(v, rns).residues for v in (a, b))
    total_range = rns_range(rns)
    if a + b >= total_range:
        raise RangeOverflowError(
            f"a+b = {a + b} >= range {total_range}; the residue system "
            "wraps silently, so oversized sums are rejected up front"
        )
    jobs = []
    for index, (modulus, (family, n)) in enumerate(zip(rns.moduli, rns.families)):
        jobs.append(ResidueJob(
            job_id=index,
            modulus=modulus,
            instance=make_adder(family, n),
            a_residue=a_residues[index],
            b_residue=b_residues[index],
            shots=shots,
            seed=derive_seed(base_seed, index, modulus),
        ))
    return jobs


def _run_job(job: ResidueJob, noise: NoiseModel) -> JobResult:
    instance = job.instance
    histogram = run_shots(instance.circuit,
                          instance.input_states([(job.a_residue, job.b_residue)]),
                          job.shots, noise, job.seed, instance.output_wires)
    top_count = max(histogram.values())
    modal = sorted(bits for bits, count in histogram.items() if count == top_count)
    decoded = []
    for bits in modal:
        try:
            decoded.append((instance.decode_output(bits), bits))
        except ValueError:
            pass  # not a legal codeword
    if decoded:
        # Ties break toward the smaller decoded value and are flagged.
        top_value, top_bits = min(decoded)
    else:
        # Modal outcome is not a legal codeword (possible under heavy
        # noise for the diminished-1 family); keep bits, mark no value.
        top_bits, top_value = modal[0], None
    return JobResult(
        job_id=job.job_id,
        modulus=job.modulus,
        histogram=histogram,
        top_bits=top_bits,
        top_value=top_value,
        top_probability=top_count / job.shots,
        correct_probability=histogram[job.expected_bits] / job.shots,
        tie=len(modal) > 1,
    )


def execute_jobs(jobs: list[ResidueJob], workers: int,
                 noise: NoiseModel) -> list[JobResult]:
    """Run jobs one after another in the calling thread, in job_id order;
    a failure stays isolated to its own job.

    ``workers`` is checked (>= 1) but changes nothing: a job is a
    GIL-bound chain of small numpy calls, so threads run no two jobs at
    once and only add their overhead.  Each job carries its own seed, so
    the results do not depend on how the jobs are scheduled.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    results = []
    for job in sorted(jobs, key=lambda j: j.job_id):
        try:
            results.append(_run_job(job, noise))
        except Exception as exc:  # noqa: BLE001 - per-job isolation
            results.append(JobResult(job_id=job.job_id, modulus=job.modulus,
                                     histogram=None, top_bits=None, top_value=None,
                                     top_probability=0.0, correct_probability=0.0,
                                     tie=False, error=str(exc)))
    return results


def aggregate(results: list[JobResult], rns: RnsSet) -> DistributedSum:
    """CRT-combine per-job modal outcomes into the distributed sum."""
    by_modulus = {r.modulus: r for r in results if not r.failed}
    missing = [m for m in rns.moduli if m not in by_modulus]
    if missing:
        failed = {r.modulus: r.error for r in results if r.failed}
        raise SimulationError(f"missing results for moduli {missing}"
                              + (f" (failed: {failed})" if failed else ""))
    residues = []
    for modulus in rns.moduli:
        result = by_modulus[modulus]
        if result.top_value is None:
            raise SimulationError(
                f"modulus {modulus}: modal outcome {result.top_bits:#x} is "
                "not a decodable codeword"
            )
        residues.append(result.top_value)
    ordered = tuple(by_modulus[m] for m in rns.moduli)
    probs = [r.top_probability for r in ordered]
    end_to_end = 1.0
    for p in probs:
        end_to_end *= p
    return DistributedSum(
        rns=rns,
        results=ordered,
        reconstructed=crt_reconstruct(ResidueVector(rns, tuple(residues))),
        set_output_probability=min(probs),
        end_to_end_probability=end_to_end,
        any_tie=any(r.tie for r in ordered),
    )


def distributed_add(a: int, b: int, rns: RnsSet, noise: NoiseModel,
                    shots: int = 100, base_seed: int = 0,
                    workers: int = 1) -> DistributedSum:
    jobs = plan_jobs(a, b, rns, shots, base_seed)
    return aggregate(execute_jobs(jobs, workers, noise), rns)


# --- size-by-size comparison against the monolithic adder ------------------

MOD_SHOTS = 100    # published protocol: one hundred shots for modulo adders
FULL_SHOTS = 200   # and two hundred for the full adders
DEVICE_BUDGET = 20
# Smallest adder size to compare: K = 2^6 is the first power of two the
# selector accepts (K >= 50).
MIN_SIZE = 6


@dataclass(frozen=True)
class ComparisonRow:
    """One adder size: monolithic baseline vs distributed residue set."""

    size: int
    mono_report: ResourceReport
    mono_probability: float | None  # None when over the device budget
    rns: RnsSet
    efficiency: Fraction
    max_qubits: int
    max_toffoli_depth: int
    max_cnot_depth: int
    set_probability: float
    gain_percent: float | None


# Every size from here up is refused by the selector whatever the
# efficiency E: a float E > 0 is at least 2^-1074, so E * 2^size >= 2^64.
# gain_report gives such a size K = 2^_INFEASIBLE_SIZE, which gets the same
# refusal, instead of a 2^size too large to compute.
_INFEASIBLE_SIZE = 64 + 1074


def gain_report(sizes: Sequence[int], efficiency: float, noise: NoiseModel,
                seed: int = 0, shots_mod: int = MOD_SHOTS,
                shots_full: int = FULL_SHOTS, budget: int = DEVICE_BUDGET
                ) -> list[ComparisonRow]:
    """Compare monolithic addition to the selected residue sets per size.

    A size-s adder produces an s-bit sum from (s-1)-bit operands; its
    residue counterpart is selected for K = 2^s.  The monolithic
    probability column goes None above the qubit budget.  Every size is
    checked and its set selected before any simulation runs, from the
    last size back: a range's last size is its largest, so an infeasible
    range fails at once and is never listed.
    """
    selected: dict[int, RnsSet] = {}
    for size in reversed(sizes):
        if size < MIN_SIZE:
            raise ValueError(f"sizes below {MIN_SIZE} leave K under the selector minimum")
        selected[size] = select_rns(SelectorConfig(
            k=2**min(size, _INFEASIBLE_SIZE), efficiency=efficiency))
    rows = []
    mod_probs: dict[int, float] = {}
    for size in sizes:
        rns = selected[size]
        instances = {m: make_adder(fam, n)
                     for m, (fam, n) in zip(rns.moduli, rns.families)}
        set_prob = 1.0
        reports = {}
        for modulus, instance in instances.items():
            reports[modulus] = instance.resources
            if modulus not in mod_probs:
                mod_probs[modulus] = output_probability(
                    instance, noise, shots=shots_mod,
                    seed=derive_seed(seed, "mod", modulus)).mean
            set_prob = min(set_prob, mod_probs[modulus])
        mono = make_adder(AdderFamily.FULL, size - 1)
        mono_report = mono.resources
        if mono_report.qubit_count <= budget:
            mono_prob = output_probability(
                mono, noise, shots=shots_full,
                seed=derive_seed(seed, "full", size)).mean
            gain = 100.0 * (set_prob / mono_prob - 1.0)
        else:
            mono_prob = None
            gain = None
        rows.append(ComparisonRow(
            size=size,
            mono_report=mono_report,
            mono_probability=mono_prob,
            rns=rns,
            efficiency=rns_efficiency(rns, 2**size),
            max_qubits=max(r.qubit_count for r in reports.values()),
            max_toffoli_depth=max(r.toffoli_depth for r in reports.values()),
            max_cnot_depth=max(r.cnot_depth for r in reports.values()),
            set_probability=set_prob,
            gain_percent=gain,
        ))
    return rows
