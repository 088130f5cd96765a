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
    inputs = instance.operand_inputs(5, 6)
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
