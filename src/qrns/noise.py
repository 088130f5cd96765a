"""Stochastic bit-flip simulation of permutation circuits.

All circuits here permute basis states, so a noisy shot is a classical
bit-vector trajectory: apply each gate, then with the gate kind's error
probability flip each touched qubit independently with probability 1/2.
Phase errors commute to an unobservable global phase on basis inputs,
which is why bit flips are the only error channel modeled.  This is a
deliberate, documented substitute for a hardware-calibrated emulator.

One kernel runs every noisy simulation: the whole (inputs x shots) batch
goes through ``apply_permutation_batch`` in fixed-size chunks, and only
the sparse error events are drawn (see its docstring).
"""
from __future__ import annotations

import hashlib
import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .adders import AdderInstance
from .circuit import (
    Circuit,
    GateKind,
    apply_permutation_batch,
    check_readable,
    read_value,
)

EXHAUSTIVE_PAIR_CAP = 2**12
DEFAULT_RANDOM_PAIRS = 256
# Rows (input x shot) simulated at once: bounds the state array at
# CHUNK_ROWS x width bytes, whatever the pair and shot counts.
CHUNK_ROWS = 1 << 15


@dataclass(frozen=True)
class NoiseModel:
    """Per-gate-kind probabilities of one error event after the gate."""

    p_not: float = 0.0
    p_cnot: float = 0.0
    p_toffoli: float = 0.0

    def __post_init__(self) -> None:
        for name in ("p_not", "p_cnot", "p_toffoli"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {p}")

    def for_kind(self, kind: GateKind) -> float:
        if kind is GateKind.NOT:
            return self.p_not
        if kind is GateKind.CNOT:
            return self.p_cnot
        return self.p_toffoli

    @classmethod
    def zero(cls) -> "NoiseModel":
        return cls()

    def to_file(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"p_not = {self.p_not!r}\n")
            fh.write(f"p_cnot = {self.p_cnot!r}\n")
            fh.write(f"p_toffoli = {self.p_toffoli!r}\n")

    @classmethod
    def from_file(cls, path: str) -> "NoiseModel":
        """Read ``name = value`` lines; a malformed one raises ValueError("line N: ...")."""
        values: dict[str, float] = {}
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                key, sep, value = line.partition("=")
                if not sep:
                    raise ValueError(f"line {lineno}: expected 'name = value', "
                                     f"got {line!r}")
                try:
                    values[key.strip()] = float(value)
                except ValueError as exc:
                    raise ValueError(f"line {lineno}: {exc}") from exc
        missing = {"p_not", "p_cnot", "p_toffoli"} - values.keys()
        if missing:
            raise ValueError(f"noise file missing fields: {sorted(missing)}")
        return cls(p_not=values["p_not"], p_cnot=values["p_cnot"],
                   p_toffoli=values["p_toffoli"])


# Calibrated against the published output probabilities of the eight
# reference modulo adders, then nudged within the fit plateau to maximize
# the margin of the published probability ordering (see the `calibrate`
# CLI command, which re-derives a best-fit model from scratch).
DEFAULT_NOISE = NoiseModel(p_not=0.0198, p_cnot=0.011, p_toffoli=0.0077)


def derive_seed(*parts: int | str) -> int:
    """Stable 64-bit seed from arbitrary labeled parts (not Python hash)."""
    digest = hashlib.sha256(":".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:8], "little")


def check_shots(shots: int) -> None:
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    # _simulate multiplies int64 row indices by the shot count.
    if shots >= 2**63:
        raise ValueError("shots must be below 2^63")


def _simulate(circuit: Circuit, inputs: np.ndarray, shots: int,
              noise: NoiseModel, seed: int,
              measure: Sequence[int]) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Noisy runs of ``shots`` shots from each row of ``inputs``.

    Row r of the (inputs x shots) batch is shot r % shots of input
    r // shots.  The batch runs in chunks of at most CHUNK_ROWS rows, and
    chunk c draws its errors from its own seed, derive_seed(seed, c).
    Yields, per chunk, the index of its first input, how many of its rows
    each of its inputs has, and the measured value of every row.
    """
    rates = np.array([noise.for_kind(gate.kind) for gate in circuit.gates])
    total = inputs.shape[0] * shots
    for chunk, start in enumerate(range(0, total, CHUNK_ROWS)):
        stop = min(start + CHUNK_ROWS, total)
        first, last = start // shots, (stop - 1) // shots
        counts = np.diff(np.clip(np.arange(first, last + 2) * shots, start, stop))
        rng = np.random.Generator(np.random.PCG64(derive_seed(seed, chunk)))
        # Repeating the transposed inputs gives the column-major chunk the
        # noisy kernel needs in one allocation.  No name holds the states,
        # so they are freed before the caller runs: the chunk's memory peak
        # stays inside read_value.
        yield first, counts, read_value(measure, apply_permutation_batch(
            circuit, np.repeat(inputs[first:last + 1].T, counts, axis=1).T, rates, rng))


def run_shots(circuit: Circuit, inputs: np.ndarray, shots: int,
              noise: NoiseModel, seed: int,
              measure: Sequence[int]) -> Counter[int]:
    """Histogram of the measured wires' value over noisy repetitions.

    ``inputs`` is the (1, width) state of ``instance.input_states([(a, b)])``.
    Deterministic for a given (inputs, shots, noise, seed).
    """
    check_shots(shots)
    if np.shape(inputs) != (1, circuit.width):
        raise ValueError(f"inputs must be one (1, {circuit.width}) state, "
                         f"got shape {np.shape(inputs)}")
    check_readable(measure)
    histogram: Counter[int] = Counter()
    for _, _, values in _simulate(circuit, inputs, shots, noise, seed, measure):
        outcomes, counts = np.unique(values, return_counts=True)
        histogram.update(dict(zip(outcomes.tolist(), counts.tolist())))
    return histogram


@dataclass(frozen=True)
class ProbabilityEstimate:
    """Mean correct-output frequency across the evaluated input pairs."""

    mean: float
    per_pair: tuple[tuple[int, int, float], ...]
    shots: int
    seed: int

    @property
    def stderr_bound(self) -> float:
        # Binomial worst case per input pair.
        return math.sqrt(0.25 / self.shots)


def _sample_pairs(instance: AdderInstance, pair_count: int,
                  seed: int) -> list[tuple[int, int]]:
    rng = np.random.Generator(np.random.PCG64(derive_seed(seed, "pairs")))
    # The closed interval keeps a count of 2^63 (mod-pow2:63) in int64.
    top = instance.value_count - 1
    a = rng.integers(0, top, size=pair_count, endpoint=True)
    b = rng.integers(0, top, size=pair_count, endpoint=True)
    return [(int(x), int(y)) for x, y in zip(a, b)]


def output_probability(instance: AdderInstance, noise: NoiseModel,
                       shots: int, seed: int,
                       sampling: int | str = "auto") -> ProbabilityEstimate:
    """Correct-output frequency averaged over input combinations.

    ``sampling`` is "exhaustive", "auto" (exhaustive below the pair cap,
    random above), or an explicit random pair count.
    """
    check_shots(shots)
    check_readable(instance.output_wires)
    total_pairs = instance.value_count**2
    if sampling == "exhaustive":
        if total_pairs > EXHAUSTIVE_PAIR_CAP:
            raise ValueError(
                f"{total_pairs} input pairs exceed the exhaustive cap "
                f"{EXHAUSTIVE_PAIR_CAP}; use random sampling"
            )
        pairs = list(instance.legal_pairs())
    elif sampling == "auto":
        if total_pairs <= EXHAUSTIVE_PAIR_CAP:
            pairs = list(instance.legal_pairs())
        else:
            pairs = _sample_pairs(instance, DEFAULT_RANDOM_PAIRS, seed)
    elif isinstance(sampling, int):
        if sampling < 1:
            raise ValueError(f"pair count must be >= 1, got {sampling}")
        pairs = _sample_pairs(instance, sampling, seed)
    else:
        raise ValueError(f"bad sampling spec {sampling!r}")

    expected = np.array([instance.expected_output_bits(a, b) for a, b in pairs],
                        dtype=np.int64)
    hits = np.zeros(len(pairs), dtype=np.int64)
    for first, counts, values in _simulate(instance.circuit, instance.input_states(pairs),
                                           shots, noise, seed, instance.output_wires):
        span = slice(first, first + len(counts))
        correct = values == np.repeat(expected[span], counts)
        hits[span] += np.add.reduceat(correct, np.cumsum(counts) - counts, dtype=np.int64)
    frequencies = hits / shots
    per_pair = tuple((a, b, f) for (a, b), f in zip(pairs, frequencies.tolist()))
    return ProbabilityEstimate(mean=float(np.mean(frequencies)), per_pair=per_pair,
                               shots=shots, seed=seed)


# --- calibration ------------------------------------------------------------


@dataclass(frozen=True)
class CalibrationResult:
    model: NoiseModel
    residual: float
    converged: bool
    evaluations: int


def calibrate_noise(targets: Sequence[tuple[AdderInstance, float]],
                    shots: int = 300, seed: int = 7,
                    max_rounds: int = 12) -> CalibrationResult:
    """Fit (p_not, p_cnot, p_toffoli) to observed output probabilities.

    Coordinate search minimizing the sum of squared differences between
    simulated and target probabilities; deterministic because every
    objective evaluation reuses the same seeds.
    """
    if len(targets) < 3:
        raise ValueError(f"need at least 3 targets, got {len(targets)}")

    evaluations = 0

    def objective(params: tuple[float, float, float]) -> float:
        nonlocal evaluations
        evaluations += 1
        model = NoiseModel(*params)
        error = 0.0
        for instance, observed in targets:
            estimate = output_probability(instance, model, shots=shots, seed=seed)
            error += (estimate.mean - observed) ** 2
        return error

    params = [0.002, 0.008, 0.015]
    best = objective(tuple(params))
    steps = [0.002, 0.004, 0.008]
    converged = False
    for _ in range(max_rounds):
        improved = False
        for axis in range(3):
            for direction in (+1, -1):
                trial = list(params)
                trial[axis] = min(1.0, max(0.0, trial[axis] + direction * steps[axis]))
                if trial[axis] == params[axis]:
                    continue
                value = objective(tuple(trial))
                # Ties resolve toward smaller rates so parameters the
                # targets cannot constrain drift to zero.
                if value < best - 1e-12 or (value <= best + 1e-12 and direction < 0):
                    improved = improved or value < best - 1e-12 or trial[axis] > 0
                    best = min(best, value)
                    params = trial
        if not improved:
            shrunk = [s / 2 for s in steps]
            if max(shrunk) < 1e-4:
                converged = True
                break
            steps = shrunk
    return CalibrationResult(model=NoiseModel(*params), residual=best,
                             converged=converged, evaluations=evaluations)
