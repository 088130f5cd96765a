"""The chunked sparse-error kernel against an exact value and at its edges."""
import itertools
import math

import numpy as np
import pytest

from qrns.adders import AdderFamily, make_adder
from qrns.circuit import Circuit, apply_permutation_batch, cx, x
from qrns.noise import (
    CHUNK_ROWS,
    DEFAULT_NOISE,
    NoiseModel,
    output_probability,
    run_shots,
)


def exact_output_probability(instance, noise):
    """Mean correct-output probability over all legal pairs, with no sampling.

    Propagates one probability vector per pair over the 2^width basis
    states: a gate permutes the indices, and its error mixes in, with
    weight p, the average over the 2^k XOR masks of the k touched qubits.
    """
    circuit = instance.circuit
    index = np.arange(2**circuit.width)

    def bit(q):
        return (index >> q) & 1

    pairs = list(instance.legal_pairs())
    start = instance.input_states(pairs).astype(np.int64) @ (1 << np.arange(circuit.width))
    probs = np.zeros((len(pairs), index.size))
    probs[np.arange(len(pairs)), start] = 1.0
    for gate in circuit.gates:
        *controls, target = gate.qubits
        fire = np.ones(index.size, dtype=np.int64)
        for c in controls:
            fire &= bit(c)
        probs = probs[:, index ^ (fire << target)]  # the gate is an involution
        p = noise.for_kind(gate.kind)
        if p:
            masks = [sum(1 << q for q in subset)
                     for k in range(len(gate.qubits) + 1)
                     for subset in itertools.combinations(gate.qubits, k)]
            mixed = sum(probs[:, index ^ m] for m in masks) / len(masks)
            probs = (1 - p) * probs + p * mixed
    out = sum(bit(w) << i for i, w in enumerate(instance.output_wires))
    expected = np.array([instance.expected_output_bits(a, b) for a, b in pairs])
    return float(np.mean((probs * (out == expected[:, np.newaxis])).sum(axis=1)))


def test_exact_helper_on_a_closed_form():
    # mod-pow2:1 is one CNOT; an error always firing leaves the sum wire
    # uniform, so every pair reads correctly half the time.
    instance = make_adder(AdderFamily.MOD_POW2, 1)
    assert exact_output_probability(instance, NoiseModel(p_cnot=1.0)) == 0.5
    assert exact_output_probability(instance, NoiseModel.zero()) == 1.0


@pytest.mark.parametrize("family,n", [
    (AdderFamily.MOD_POW2, 1), (AdderFamily.MOD_POW2, 2),
    (AdderFamily.MOD_POW2_PLUS1, 1), (AdderFamily.FULL, 2),
])
def test_estimate_matches_exact_value(family, n):
    instance = make_adder(family, n)
    shots = 4000
    estimate = output_probability(instance, DEFAULT_NOISE, shots=shots, seed=0)
    exact = exact_output_probability(instance, DEFAULT_NOISE)
    pairs = len(estimate.per_pair)
    assert abs(estimate.mean - exact) <= 4 * math.sqrt(0.25 / (pairs * shots))


def test_every_row_fires_at_rate_one():
    instance = make_adder(AdderFamily.FULL, 2)
    noise = NoiseModel(1.0, 1.0, 1.0)
    shots = 4000
    estimate = output_probability(instance, noise, shots=shots, seed=1)
    exact = exact_output_probability(instance, noise)
    pairs = len(estimate.per_pair)
    assert abs(estimate.mean - exact) <= 4 * math.sqrt(0.25 / (pairs * shots))
    # A rate-one NOT fires on every row and flips its qubit in about half.
    states = np.zeros((CHUNK_ROWS, 1), dtype=np.uint8)
    apply_permutation_batch(Circuit(1, (x(0),)), states, [1.0],
                            np.random.default_rng(2))
    assert abs(states.mean() - 0.5) <= 4 * math.sqrt(0.25 / CHUNK_ROWS)


def test_single_shot_reads_zero_or_one_per_pair():
    instance = make_adder(AdderFamily.FULL, 2)
    estimate = output_probability(instance, DEFAULT_NOISE, shots=1, seed=3)
    assert len(estimate.per_pair) == 16
    assert {p for _, _, p in estimate.per_pair} <= {0.0, 1.0}
    assert estimate == output_probability(instance, DEFAULT_NOISE, shots=1, seed=3)


def test_run_shots_over_a_chunk_boundary_totals_the_shots():
    instance = make_adder(AdderFamily.MOD_POW2, 3)
    shots = CHUNK_ROWS + 7
    inputs = instance.input_states([(5, 6)])
    histogram = run_shots(instance.circuit, inputs, shots, DEFAULT_NOISE, 4,
                          instance.output_wires)
    assert sum(histogram.values()) == shots
    exact = run_shots(instance.circuit, inputs, shots, NoiseModel.zero(), 4,
                      instance.output_wires)
    assert exact == {3: shots}


def test_pairs_spanning_several_chunks_repeat_bit_identically():
    instance = make_adder(AdderFamily.FULL, 4)  # 256 exhaustive pairs
    shots = 300  # 76,800 rows: three chunks
    assert 256 * shots > 2 * CHUNK_ROWS
    first = output_probability(instance, DEFAULT_NOISE, shots=shots, seed=5)
    second = output_probability(instance, DEFAULT_NOISE, shots=shots, seed=5)
    assert first == second
    assert len(first.per_pair) == 256


def test_error_rates_need_one_rate_per_gate_and_an_rng():
    circuit = Circuit(2, (cx(0, 1), x(0)))
    states = np.zeros((4, 2), dtype=np.uint8)
    with pytest.raises(ValueError, match="one rate per gate"):
        apply_permutation_batch(circuit, states, [0.1], np.random.default_rng(0))
    with pytest.raises(ValueError, match="one rate per gate"):
        apply_permutation_batch(circuit, states, [0.1, 0.1])


# Golden values of the sampling kernel: any change to the draws, their
# order or the way a chunk maps rows to flips moves them.
GOLDEN_HISTOGRAM = {
    0: 733, 1: 772, 2: 458, 3: 18776, 4: 292, 5: 207, 6: 40, 7: 1068, 8: 17, 9: 68,
    10: 53, 11: 1296, 12: 44, 13: 62, 14: 6, 15: 112, 16: 14, 17: 55, 18: 39, 19: 1340,
    20: 23, 21: 22, 22: 4, 23: 94, 24: 4, 25: 13, 26: 9, 27: 203, 28: 76, 29: 51,
    30: 4, 31: 72, 32: 16, 33: 60, 34: 46, 35: 1890, 36: 60, 37: 31, 38: 4, 39: 94,
    40: 8, 41: 18, 42: 7, 43: 322, 44: 25, 45: 26, 46: 6, 47: 63, 48: 19, 49: 46,
    50: 35, 51: 1118, 52: 36, 53: 37, 54: 7, 55: 174, 56: 36, 57: 123, 58: 75,
    59: 1318, 60: 351, 61: 537, 62: 30, 63: 130,
}
# Correct shots out of 300 for each of full:4's 256 pairs, in legal_pairs order.
GOLDEN_HITS = [
    258, 266, 264, 266, 262, 254, 267, 272, 262, 257, 264, 261, 252, 273, 266, 255,
    261, 264, 272, 261, 269, 258, 266, 275, 254, 264, 263, 253, 259, 260, 273, 262,
    276, 263, 264, 252, 270, 271, 265, 268, 260, 264, 262, 256, 264, 265, 259, 262,
    264, 258, 260, 263, 263, 259, 257, 270, 255, 268, 254, 256, 260, 259, 263, 262,
    260, 256, 264, 247, 267, 259, 259, 256, 253, 260, 260, 266, 259, 263, 247, 259,
    268, 265, 260, 263, 254, 270, 263, 266, 257, 267, 264, 274, 251, 263, 264, 254,
    270, 269, 269, 270, 267, 252, 264, 244, 259, 263, 254, 273, 267, 260, 254, 253,
    269, 260, 267, 260, 273, 265, 261, 269, 257, 253, 267, 263, 262, 251, 261, 269,
    252, 254, 268, 256, 271, 264, 261, 267, 251, 260, 267, 264, 260, 268, 261, 262,
    263, 270, 261, 258, 263, 264, 276, 266, 260, 256, 251, 272, 262, 248, 263, 258,
    264, 264, 262, 254, 269, 259, 254, 255, 273, 249, 261, 264, 274, 271, 261, 262,
    257, 261, 248, 253, 257, 266, 261, 248, 249, 248, 258, 262, 271, 265, 260, 257,
    260, 272, 262, 259, 246, 260, 267, 264, 272, 262, 264, 264, 265, 249, 258, 267,
    265, 254, 268, 263, 255, 258, 268, 255, 266, 251, 262, 265, 257, 253, 271, 261,
    265, 262, 261, 266, 265, 266, 256, 254, 266, 271, 266, 267, 252, 257, 257, 259,
    265, 274, 257, 270, 265, 268, 253, 257, 274, 270, 252, 256, 267, 258, 266, 263,
]


def test_run_shots_histogram_is_golden():
    instance = make_adder(AdderFamily.MOD_POW2_MINUS1, 6)  # width 25, 89 gates
    histogram = run_shots(instance.circuit, instance.input_states([(1, 2)]),
                          CHUNK_ROWS + 7, DEFAULT_NOISE, 11, instance.output_wires)
    assert histogram == GOLDEN_HISTOGRAM


def test_per_pair_over_three_chunks_is_golden():
    instance = make_adder(AdderFamily.FULL, 4)
    estimate = output_probability(instance, DEFAULT_NOISE, shots=300, seed=5)
    pairs = list(instance.legal_pairs())
    assert estimate.per_pair == tuple(
        (a, b, hits / 300) for (a, b), hits in zip(pairs, GOLDEN_HITS))


def test_noisy_call_needs_column_major_states():
    circuit = Circuit(2, (cx(0, 1),))
    states = np.zeros((4, 2), dtype=np.uint8)
    with pytest.raises(ValueError, match="column-major"):
        apply_permutation_batch(circuit, states, [0.5], np.random.default_rng(0))


def test_noiseless_kernel_ignores_the_memory_layout():
    instance = make_adder(AdderFamily.MOD_POW2_PLUS1, 3)
    rows = instance.input_states(list(instance.legal_pairs()))
    columns = np.asfortranarray(rows)
    assert rows.flags.c_contiguous and not rows.flags.f_contiguous
    apply_permutation_batch(instance.circuit, rows)
    apply_permutation_batch(instance.circuit, columns)
    assert np.array_equal(rows, columns)
