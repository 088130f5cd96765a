"""Stochastic bit-flip simulation of permutation circuits.

All circuits here permute basis states, so a noisy shot is a classical
bit-vector trajectory: apply each gate, then with the gate kind's error
probability flip each touched qubit independently with probability 1/2.
Phase errors commute to an unobservable global phase on basis inputs,
which is why bit flips are the only error channel modeled.  This is a
deliberate, documented substitute for a hardware-calibrated emulator.

This module owns the error channel.  The whole (inputs x shots) batch
runs in fixed-size chunks; for each, only the sparse error events are
drawn (see ``_draw_errors``) and turned into flip targets (see
``_flip_targets``), which the one gate loop,
``circuit.apply_permutation_batch``, XORs in after each gate.
"""
from __future__ import annotations

import hashlib
import math
from collections import Counter
from dataclasses import dataclass, fields
from typing import Iterator, Sequence

import numpy as np

from .adders import AdderInstance
from .circuit import (
    Circuit,
    GateKind,
    apply_permutation_batch,
    check_readable,
    read_dtype,
    read_value,
)

EXHAUSTIVE_PAIR_CAP = 2**12
DEFAULT_RANDOM_PAIRS = 256
# The largest random pair count.  The estimate keeps an (a, b, frequency)
# tuple of Python objects per pair, about 200 bytes, so 2^16 pairs hold
# some 13 MB; a larger count is a typo, and one numpy cannot allocate
# would fail with its bare "Maximum allowed dimension exceeded".
MAX_RANDOM_PAIRS = 2**16
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
        for rate in fields(self):
            p = getattr(self, rate.name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{rate.name} must be in [0, 1], got {p}")

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
            for rate in fields(self):
                fh.write(f"{rate.name} = {getattr(self, rate.name)!r}\n")

    @classmethod
    def from_file(cls, path: str) -> "NoiseModel":
        """Read ``name = value`` lines, one per rate; a malformed line, one
        naming no rate or one repeating a rate raises ValueError("line N: ...")."""
        names = [rate.name for rate in fields(cls)]
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
                key = key.strip()
                if key not in names:
                    raise ValueError(f"line {lineno}: unknown field {key!r}")
                if key in values:
                    raise ValueError(f"line {lineno}: repeated field {key!r}")
                try:
                    values[key] = float(value)
                except ValueError as exc:
                    raise ValueError(f"line {lineno}: {exc}") from exc
        missing = set(names) - values.keys()
        if missing:
            raise ValueError(f"noise file missing fields: {sorted(missing)}")
        return cls(**values)


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
    # _simulate keeps per-input shot counts in an int64 array.
    if shots >= 2**63:
        raise ValueError("shots must be below 2^63")


# Cells whose flips _flip_targets handles at once.  Its temporaries then
# stay near 60 KB.  Whole-chunk ones grow the heap past the draw's own
# peak, and freeing them gives back pages that the next chunk faults in
# again, on the calling thread.  Whole-chunk targets took about 675 minor
# faults against 1 per pass of one 20,000-shot addition on each of the
# sets (4, 5, 7, 9), (15, 16, 17) and (63, 64, 65), and 800-990 against
# under 10 per pass of table1 and compare 6, 8..11; both ran 5-14% slower.
_TARGET_BLOCK = 2048


def _flip_targets(circuit: Circuit, cells: np.ndarray, flips: np.ndarray,
                  cell_bounds: list[int], rows: int) -> tuple[np.ndarray, list[int]]:
    """Where the drawn flips land in the flat column buffer, gate by gate.

    Returns ``row + qubit * rows`` for every flip bit that is 1 on a qubit
    its gate touches, in gate order, and the gate bounds: gate g's targets
    are [bounds[g], bounds[g + 1]).  A gate's cells are distinct rows and
    its qubits are distinct, so no target repeats within a gate, as
    ``apply_permutation_batch`` needs.  ``flips``, 0/1 bytes, is overwritten.
    """
    keys = np.asarray(cell_bounds)  # converted once, not per block
    counts = np.diff(keys)
    slots = circuit.gate_qubits
    touched = flips.view(bool)
    # A gate uses the first arity bits of its cell's flips; drop the rest.
    touched[:, 1] &= np.repeat(slots[:, 1] >= 0, counts)
    touched[:, 2] &= np.repeat(slots[:, 2] >= 0, counts)
    # Cell g * rows + r is row r after gate g.  Bit j of the cell goes to
    # row r of the gate's j-th qubit q, at q * rows + r: a shift of
    # (q - g) * rows, entry 3g + j of ``shifts``.
    shifts = ((slots - np.arange(len(slots))[:, np.newaxis]) * rows).ravel()
    # The gate loop indexes with the targets, and an index array of any
    # other dtype than intp is converted on every use, so the block
    # arithmetic is in intp whatever the dtype of the cells.
    targets = np.empty(np.count_nonzero(touched), dtype=np.intp)
    bounds = np.zeros(len(keys), dtype=np.intp)
    done = 0
    for lo in range(0, len(cells), _TARGET_BLOCK):
        # 3 * (cell - lo) + j, ascending, so in gate order
        bits = np.flatnonzero(touched[lo:lo + _TARGET_BLOCK])
        cell = bits // 3
        at = cells[lo:lo + _TARGET_BLOCK].take(cell)
        entry = np.floor_divide(at, rows, dtype=np.intp)
        entry -= cell
        entry *= 3
        entry += bits  # 3 * (g - cell) + bits = 3g + j
        np.add(at, shifts.take(entry), out=targets[done:done + len(bits)])
        done += len(bits)
        cell += lo
        bounds += np.searchsorted(cell, keys)
    return targets, bounds.tolist()


def _draw_errors(rates: np.ndarray, rows: int,
                 rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Draw one chunk's error events for all its gates in three calls.

    Returns the hit cells, each a flat index g * rows + r for row r after
    gate g, sorted and distinct, int32 when gates * rows < 2^31 and int64
    otherwise; a (cells, 3) array of uniform 0/1 flips, of which gate g
    uses its first arity columns; and the gate bounds: gate g's cells are
    [bounds[g], bounds[g + 1]).

    Gate g puts Poisson(rows * lam) hits on uniform rows, with
    lam = -log(1 - p).  Each row then gets an independent Poisson(lam)
    number of hits and so at least one with probability 1 - e^-lam = p,
    independently across rows and gates.  A row hit m times would get the
    XOR of m uniform flip patterns, which is uniform again, so one pattern
    per distinct cell is the same distribution.  A rate-one gate has an
    infinite lam and takes every row instead.
    """
    gates = rates.size
    # Half the bytes sort twice as fast; more than 2^31 cells (65,536
    # gates at CHUNK_ROWS rows) need int64.
    index = np.int32 if gates * rows < 2**31 else np.int64
    full = rates == 1.0
    counts = rng.poisson(rows * -np.log1p(-np.where(full, 0.0, rates)))
    # Drawn as int64 and cast after, so the stream is the same in both dtypes.
    cells = rng.integers(0, rows, size=int(counts.sum())).astype(index)
    starts = np.arange(gates, dtype=index) * rows
    cells += np.repeat(starts, counts)
    if full.any():
        every_row = starts[full][:, np.newaxis] + np.arange(rows, dtype=index)
        cells = np.concatenate([cells, every_row.ravel()])
    cells.sort()
    # Keep the first of each run of equal cells.
    first = np.ones(cells.size, dtype=bool)
    np.not_equal(cells[1:], cells[:-1], out=first[1:])
    cells = cells[first]
    raw = rng.bit_generator.random_raw(-(-3 * cells.size // 64))
    flips = np.unpackbits(raw.view(np.uint8))[:3 * cells.size].reshape(-1, 3)
    bounds = np.searchsorted(cells, starts).tolist()
    bounds.append(cells.size)
    return cells, flips, bounds


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
    rate = {kind.arity: noise.for_kind(kind) for kind in GateKind}
    rates = np.array([rate[len(gate)] for gate in circuit.gates])
    total = inputs.shape[0] * shots
    for chunk, start in enumerate(range(0, total, CHUNK_ROWS)):
        stop = min(start + CHUNK_ROWS, total)
        first, last = start // shots, (stop - 1) // shots
        # Every input has all its shots here but the first and last, which
        # the chunk's edges may cut.
        counts = np.full(last - first + 1, shots, dtype=np.int64)
        counts[0] -= start - first * shots
        counts[-1] -= (last + 1) * shots - stop
        rows = stop - start
        rng = np.random.Generator(np.random.PCG64(derive_seed(seed, chunk)))
        # Repeating the transposed inputs gives the column-major chunk that
        # the flips need in one allocation.  No name holds the states or
        # the flips, so they are freed before the caller runs: the chunk's
        # memory peak stays inside read_value.
        yield first, counts, read_value(measure, apply_permutation_batch(
            circuit, np.repeat(inputs[first:last + 1].T, counts, axis=1).T,
            _flip_targets(circuit, *_draw_errors(rates, rows, rng), rows)))


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
        # np.unique sorts, and numpy sorts uint8, the read dtype of every
        # residue adder, about 9x slower than uint64: 0.92 against 0.11 ms
        # per 20,000 values (numpy 2.4).  np.bincount (0.04 ms) suits narrow
        # reads only, so it would be a second path to save 0.07 ms a job.
        outcomes, counts = np.unique(values.astype(np.uint64, copy=False),
                                     return_counts=True)
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


def check_sampling(instance: AdderInstance, sampling: int | str) -> None:
    """Refuse a ``sampling`` spec that output_probability cannot run."""
    if sampling == "exhaustive":
        total_pairs = instance.value_count**2
        if total_pairs > EXHAUSTIVE_PAIR_CAP:
            raise ValueError(
                f"{total_pairs} input pairs exceed the exhaustive cap "
                f"{EXHAUSTIVE_PAIR_CAP}; use random sampling"
            )
    elif isinstance(sampling, int):
        if not 1 <= sampling <= MAX_RANDOM_PAIRS:
            raise ValueError(f"pair count must be in [1, {MAX_RANDOM_PAIRS}], "
                             f"got {sampling}")
    elif sampling != "auto":
        raise ValueError(f"bad sampling spec {sampling!r}")


def _input_pairs(instance: AdderInstance, sampling: int | str,
                 seed: int) -> np.ndarray:
    """The (pairs, 2) operand array that ``sampling`` asks for."""
    check_sampling(instance, sampling)
    count = instance.value_count
    if sampling == "exhaustive" or (sampling == "auto"
                                    and count**2 <= EXHAUSTIVE_PAIR_CAP):
        # Every legal pair, in the order of instance.legal_pairs().
        return np.stack(np.divmod(np.arange(count**2), count), axis=1)
    pair_count = DEFAULT_RANDOM_PAIRS if sampling == "auto" else sampling
    rng = np.random.Generator(np.random.PCG64(derive_seed(seed, "pairs")))
    # The closed interval keeps a count of 2^63 (mod-pow2:63) in int64.
    a = rng.integers(0, count - 1, size=pair_count, endpoint=True)
    b = rng.integers(0, count - 1, size=pair_count, endpoint=True)
    return np.stack((a, b), axis=1)


def output_probability(instance: AdderInstance, noise: NoiseModel,
                       shots: int, seed: int,
                       sampling: int | str = "auto") -> ProbabilityEstimate:
    """Correct-output frequency averaged over input combinations.

    ``sampling`` is "exhaustive", "auto" (exhaustive below the pair cap,
    random above), or an explicit random pair count.
    """
    check_shots(shots)
    wires = instance.output_wires
    check_readable(wires)
    pairs = instance.operand_array(_input_pairs(instance, sampling, seed))
    expected = np.asarray(instance.expected_output_bits(pairs[:, 0], pairs[:, 1]))
    # The measured values come in read_dtype(wires); an expected code that
    # does not fit the output wires would wrap in it and could match.
    if expected.size and (expected.min() < 0 or expected.max() >= 2**len(wires)):
        raise ValueError(f"expected output codes do not fit the "
                         f"{len(wires)} output wires")
    expected = expected.astype(read_dtype(wires))
    hits = np.zeros(len(pairs), dtype=np.int64)
    for first, counts, values in _simulate(instance.circuit, instance._pack_operands(pairs),
                                           shots, noise, seed, wires):
        span = slice(first, first + len(counts))
        correct = values == np.repeat(expected[span], counts)
        hits[span] += np.add.reduceat(correct, np.cumsum(counts) - counts, dtype=np.int64)
    frequencies = hits / shots
    a, b = pairs.T.tolist()
    per_pair = tuple(zip(a, b, frequencies.tolist()))
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
