"""Distributed residue addition: independent per-modulus jobs plus CRT.

A sum is split into one modulo-adder job per modulus.  Jobs share nothing
and carry their own seeds, so results are bit-identical whatever order
they run in.  The classical side plans residues, runs the jobs one after
another, and recombines the modal outcomes through the Chinese Remainder
Theorem.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
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
    instance: AdderInstance
    a_residue: int
    b_residue: int
    shots: int
    seed: int

    @property
    def modulus(self) -> int | None:
        return self.instance.modulus

    @property
    def expected_bits(self) -> int:
        return self.instance.expected_output_bits(self.a_residue, self.b_residue)


def _fill(record: object, **derived: object) -> None:
    """Set the init=False fields of a frozen record from its sources."""
    for name, value in derived.items():
        object.__setattr__(record, name, value)


@dataclass(frozen=True)
class JobResult:
    """A residue job and the histogram of its shots, or the error that
    stopped it; every other field is read from the histogram."""

    job: ResidueJob
    histogram: Counter[int] | None
    error: str | None = None
    # The defaults are a failed job's.
    top_bits: int | None = field(init=False, default=None)
    top_value: int | None = field(init=False, default=None)
    top_probability: float = field(init=False, default=0.0)
    # Share of shots that read the oracle's output bits, which the modal
    # outcome alone does not show when the mode is wrong.
    correct_probability: float = field(init=False, default=0.0)
    tie: bool = field(init=False, default=False)

    def __post_init__(self) -> None:
        histogram, job = self.histogram, self.job
        if (histogram is None) == (self.error is None):
            raise ValueError("a job result holds either a histogram or an error")
        if histogram is None:
            return
        if sum(histogram.values()) != job.shots:
            raise ValueError(f"{sum(histogram.values())} shots in a job of {job.shots}")
        top_count = max(histogram.values())
        modal = sorted(bits for bits, count in histogram.items() if count == top_count)
        decoded = []
        for bits in modal:
            try:
                decoded.append((job.instance.decode_output(bits), bits))
            except ValueError:
                pass  # not a residue of the modulus
        # Ties break toward the smaller decoded value and are flagged.  A
        # modal outcome that is not a residue (possible under heavy noise for
        # the 2^n-1 and 2^n+1 families) keeps its bits and has no value.
        top_value, top_bits = min(decoded) if decoded else (None, modal[0])
        _fill(self, top_bits=top_bits, top_value=top_value,
              top_probability=top_count / job.shots,
              correct_probability=histogram[job.expected_bits] / job.shots,
              tie=len(modal) > 1)

    @property
    def job_id(self) -> int:
        return self.job.job_id

    @property
    def modulus(self) -> int | None:
        return self.job.modulus

    @property
    def failed(self) -> bool:
        return self.error is not None


@dataclass(frozen=True)
class DistributedSum:
    """One addition: a result per modulus of ``rns``, in order, and their modes' CRT."""

    rns: RnsSet
    results: tuple[JobResult, ...]
    reconstructed: int = field(init=False)

    def __post_init__(self) -> None:
        if tuple([r.modulus for r in self.results if not r.failed]) != self.rns.moduli:
            raise ValueError(f"need one result per modulus of {self.rns}, in order")
        for result in self.results:
            if result.top_value is None:
                raise SimulationError(f"modulus {result.modulus}: modal outcome "
                                      f"{result.top_bits:#x} is not a decodable codeword")
        residues = tuple([r.top_value for r in self.results])
        _fill(self, reconstructed=crt_reconstruct(ResidueVector(self.rns, residues)))

    @property
    def set_output_probability(self) -> float:
        return min([r.top_probability for r in self.results])

    @property
    def end_to_end_probability(self) -> float:
        return math.prod([r.top_probability for r in self.results])


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
            instance=make_adder(family, n),
            a_residue=a_residues[index],
            b_residue=b_residues[index],
            shots=shots,
            seed=derive_seed(base_seed, index, modulus),
        ))
    return jobs


def _run_job(job: ResidueJob, noise: NoiseModel) -> JobResult:
    instance = job.instance
    return JobResult(job, run_shots(instance.circuit,
                                    instance.input_states([(job.a_residue, job.b_residue)]),
                                    job.shots, noise, job.seed, instance.output_wires))


def execute_jobs(jobs: list[ResidueJob], workers: int,
                 noise: NoiseModel) -> list[JobResult]:
    """Run jobs one after another in the calling thread, in job_id order;
    a failure stays isolated to its own job.

    ``workers`` is checked (>= 1) but changes nothing: a job is a
    GIL-bound chain of small numpy calls, so threads run no two jobs at
    once and only add their overhead.  Only the benchmark still passes it;
    the CLI has no ``--workers``.  Each job carries its own seed, so the
    results do not depend on the order the jobs are passed in.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    results = []
    for job in sorted(jobs, key=lambda j: j.job_id):
        try:
            results.append(_run_job(job, noise))
        except Exception as exc:  # noqa: BLE001 - per-job isolation
            results.append(JobResult(job, None, str(exc)))
    return results


def aggregate(results: list[JobResult], rns: RnsSet) -> DistributedSum:
    """CRT-combine per-job modal outcomes into the distributed sum."""
    by_modulus = {r.modulus: r for r in results if not r.failed}
    missing = [m for m in rns.moduli if m not in by_modulus]
    if missing:
        failed = {r.modulus: r.error for r in results if r.failed}
        raise SimulationError(f"missing results for moduli {missing}"
                              + (f" (failed: {failed})" if failed else ""))
    return DistributedSum(rns, tuple([by_modulus[m] for m in rns.moduli]))


MOD_SHOTS = 100    # published protocol: one hundred shots for modulo adders
FULL_SHOTS = 200   # and two hundred for the full adders


def distributed_add(a: int, b: int, rns: RnsSet, noise: NoiseModel,
                    shots: int = MOD_SHOTS, base_seed: int = 0,
                    workers: int = 1) -> DistributedSum:  # workers: see execute_jobs
    jobs = plan_jobs(a, b, rns, shots, base_seed)
    return aggregate(execute_jobs(jobs, workers, noise), rns)


# --- size-by-size comparison against the monolithic adder ------------------

DEVICE_BUDGET = 20
# Smallest adder size to compare: K = 2^6 is the first power of two the
# selector accepts (K >= 50).
MIN_SIZE = 6


@dataclass(frozen=True)
class ComparisonRow:
    """One adder size: monolithic baseline vs distributed residue set; only
    the probabilities are measured."""

    size: int
    rns: RnsSet
    mono_probability: float | None  # None when over the device budget
    set_probability: float
    mono_report: ResourceReport = field(init=False)
    efficiency: Fraction = field(init=False)
    max_qubits: int = field(init=False)
    max_toffoli_depth: int = field(init=False)
    max_cnot_depth: int = field(init=False)
    gain_percent: float | None = field(init=False)

    def __post_init__(self) -> None:
        reports = [make_adder(family, n).resources for family, n in self.rns.families]
        mono = self.mono_probability
        _fill(self, mono_report=make_adder(AdderFamily.FULL, self.size - 1).resources,
              efficiency=rns_efficiency(self.rns, 2**self.size),
              max_qubits=max(r.qubit_count for r in reports),
              max_toffoli_depth=max(r.toffoli_depth for r in reports),
              max_cnot_depth=max(r.cnot_depth for r in reports),
              gain_percent=None if mono is None else 100 * (self.set_probability / mono - 1))


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
        for modulus, (family, n) in zip(rns.moduli, rns.families):
            if modulus not in mod_probs:
                mod_probs[modulus] = output_probability(
                    make_adder(family, n), noise, shots=shots_mod,
                    seed=derive_seed(seed, "mod", modulus)).mean
        mono = make_adder(AdderFamily.FULL, size - 1)
        mono_prob = None if mono.resources.qubit_count > budget else output_probability(
            mono, noise, shots=shots_full, seed=derive_seed(seed, "full", size)).mean
        rows.append(ComparisonRow(size, rns, mono_prob,
                                  min([mod_probs[m] for m in rns.moduli])))
    return rows
