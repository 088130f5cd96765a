"""The chunked sparse-error kernel against an exact value and at its edges."""
import itertools
import math
from collections import Counter

import numpy as np
import pytest

from qrns.adders import AdderFamily, make_adder
from qrns.circuit import (
    Circuit,
    GateKind,
    apply_permutation_batch,
    ccx,
    cx,
    gate_kind,
    read_dtype,
    read_value,
    x,
)
from qrns.noise import (
    CHUNK_ROWS,
    DEFAULT_NOISE,
    NoiseModel,
    _draw_errors,
    _flip_targets,
    derive_seed,
    output_probability,
    run_shots,
)


def noisy_chunk(circuit, states, rates, rng):
    """One chunk as the noise side runs it: draw the events, turn them
    into the flip list, and run the gate loop with it."""
    rows = states.shape[0]
    flips = _flip_targets(circuit, *_draw_errors(np.asarray(rates, dtype=float), rows, rng),
                          rows)
    return apply_permutation_batch(circuit, states, flips)


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
        *controls, target = gate
        fire = np.ones(index.size, dtype=np.int64)
        for c in controls:
            fire &= bit(c)
        probs = probs[:, index ^ (fire << target)]  # the gate is an involution
        p = noise.for_kind(gate_kind(gate))
        if p:
            masks = [sum(1 << q for q in subset)
                     for k in range(len(gate) + 1)
                     for subset in itertools.combinations(gate, k)]
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


@pytest.mark.parametrize("noise", [
    NoiseModel(p_not=0.6, p_cnot=0.75, p_toffoli=0.9),
    NoiseModel(p_not=0.3, p_cnot=1.0, p_toffoli=0.05),
], ids=["dense", "rate-one-cnot"])
@pytest.mark.parametrize("family,n", [
    (AdderFamily.MOD_POW2, 2), (AdderFamily.MOD_POW2_PLUS1, 1), (AdderFamily.FULL, 2),
])
def test_estimate_matches_exact_value_under_heavy_noise(family, n, noise):
    # Rates above 1/2 make most rows hit more than once; a rate of one on
    # some gates, beside rates below one on others, takes every row there.
    instance = make_adder(family, n)
    shots = 4000
    estimate = output_probability(instance, noise, shots=shots, seed=6)
    exact = exact_output_probability(instance, noise)
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
    noisy_chunk(Circuit(1, (x(0),)), states, [1.0], np.random.default_rng(2))
    assert abs(states.mean() - 0.5) <= 4 * math.sqrt(0.25 / CHUNK_ROWS)


def test_single_shot_reads_zero_or_one_per_pair():
    instance = make_adder(AdderFamily.FULL, 2)
    estimate = output_probability(instance, DEFAULT_NOISE, shots=1, seed=3)
    assert len(estimate.per_pair) == 16
    assert {p for _, _, p in estimate.per_pair} <= {0.0, 1.0}
    assert estimate == output_probability(instance, DEFAULT_NOISE, shots=1, seed=3)


def test_noisy_call_without_events_only_applies_the_gates():
    instance = make_adder(AdderFamily.MOD_POW2_PLUS1, 3)
    rates = [0.0] * len(instance.circuit.gates)
    columns = instance.input_states(list(instance.legal_pairs()))
    rows = columns.copy()
    assert not np.shares_memory(rows, columns)
    apply_permutation_batch(instance.circuit, rows)
    noisy_chunk(instance.circuit, columns, rates, np.random.default_rng(0))
    assert np.array_equal(rows, columns)
    empty = np.zeros((0, instance.circuit.width), dtype=np.uint8)
    noisy_chunk(instance.circuit, empty, [0.5] * len(rates), np.random.default_rng(0))
    assert empty.shape == (0, instance.circuit.width)


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


@pytest.mark.parametrize("family,n,shots,itemsize", [
    (AdderFamily.MOD_POW2, 2, CHUNK_ROWS + 7, 1),
    (AdderFamily.FULL, 9, 3000, 2),
    (AdderFamily.FULL, 20, 2000, 4),
    (AdderFamily.FULL, 40, 500, 8),
])
def test_run_shots_counts_every_rows_read_value(family, n, shots, itemsize):
    """The histogram is a plain Counter of each chunk's rows as read_value
    reads them, whatever the item size of the read."""
    instance = make_adder(family, n)
    circuit, wires = instance.circuit, instance.output_wires
    assert read_dtype(wires).itemsize == itemsize
    inputs = instance.input_states([(1, instance.value_count - 2)])
    rates = [DEFAULT_NOISE.for_kind(gate_kind(gate)) for gate in circuit.gates]
    expected = Counter()
    for chunk, start in enumerate(range(0, shots, CHUNK_ROWS)):
        rng = np.random.Generator(np.random.PCG64(derive_seed(3, chunk)))
        states = np.asfortranarray(np.repeat(inputs, min(CHUNK_ROWS, shots - start), axis=0))
        expected.update(read_value(wires, noisy_chunk(circuit, states, rates, rng)).tolist())
    assert len(expected) > 1
    assert run_shots(circuit, inputs, shots, DEFAULT_NOISE, 3, wires) == expected


def test_pairs_spanning_several_chunks_repeat_bit_identically():
    instance = make_adder(AdderFamily.FULL, 4)  # 256 exhaustive pairs
    shots = 300  # 76,800 rows: three chunks
    assert 256 * shots > 2 * CHUNK_ROWS
    first = output_probability(instance, DEFAULT_NOISE, shots=shots, seed=5)
    second = output_probability(instance, DEFAULT_NOISE, shots=shots, seed=5)
    assert first == second
    assert len(first.per_pair) == 256


# Golden values of the sampling kernel: any change to the draws, their
# order or the way a chunk maps rows to flips moves them.
GOLDEN_HISTOGRAM = {
    0: 762, 1: 823, 2: 465, 3: 18794, 4: 274, 5: 227, 6: 43, 7: 1026, 8: 26, 9: 67,
    10: 37, 11: 1240, 12: 61, 13: 44, 14: 2, 15: 117, 16: 14, 17: 50, 18: 38, 19: 1390,
    20: 29, 21: 21, 22: 7, 23: 89, 24: 5, 25: 22, 26: 10, 27: 193, 28: 69, 29: 45,
    30: 3, 31: 68, 32: 16, 33: 68, 34: 51, 35: 1906, 36: 68, 37: 33, 38: 11, 39: 104,
    40: 3, 41: 14, 42: 8, 43: 268, 44: 36, 45: 33, 46: 3, 47: 49, 48: 14, 49: 40,
    50: 34, 51: 1086, 52: 38, 53: 47, 54: 10, 55: 192, 56: 45, 57: 109, 58: 105,
    59: 1325, 60: 325, 61: 519, 62: 43, 63: 111,
}
# Correct shots out of 300 for each of full:4's 256 pairs, in legal_pairs order.
GOLDEN_HITS = [
    265, 268, 266, 258, 269, 260, 263, 272, 261, 252, 254, 256, 267, 264, 262, 254,
    263, 264, 258, 262, 265, 258, 272, 272, 259, 250, 258, 255, 261, 260, 269, 270,
    274, 254, 263, 260, 259, 269, 259, 261, 263, 260, 266, 262, 272, 255, 261, 256,
    256, 263, 253, 263, 273, 266, 251, 269, 271, 263, 249, 261, 261, 250, 268, 262,
    266, 265, 267, 263, 257, 266, 263, 256, 255, 262, 256, 269, 261, 252, 261, 256,
    262, 263, 271, 258, 269, 263, 260, 259, 264, 259, 268, 273, 261, 259, 257, 263,
    280, 269, 256, 267, 262, 270, 255, 253, 264, 256, 259, 261, 267, 266, 263, 261,
    274, 264, 261, 271, 269, 273, 261, 267, 263, 262, 255, 273, 257, 256, 254, 264,
    246, 253, 258, 253, 259, 265, 254, 261, 254, 256, 269, 267, 252, 261, 258, 263,
    257, 268, 265, 251, 260, 254, 265, 261, 253, 266, 258, 268, 268, 263, 270, 269,
    271, 254, 255, 254, 273, 255, 261, 262, 263, 262, 259, 271, 264, 265, 266, 268,
    263, 262, 254, 259, 265, 261, 245, 262, 251, 264, 245, 264, 276, 273, 255, 258,
    267, 260, 265, 265, 262, 277, 258, 264, 267, 277, 269, 262, 263, 262, 253, 261,
    264, 260, 271, 254, 261, 257, 256, 271, 254, 264, 259, 265, 261, 265, 259, 249,
    259, 254, 261, 262, 260, 270, 256, 253, 266, 265, 256, 267, 258, 262, 260, 259,
    265, 265, 256, 260, 257, 261, 260, 258, 262, 265, 252, 256, 263, 265, 255, 255,
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


def per_gate_flips(circuit, states, rates, rng):
    """The noisy kernel with each gate placing its own flips, from the
    same _draw_errors events: gate g XORs its cells' first arity flip bits
    into its qubits."""
    rows = states.shape[0]
    columns = states.T.reshape(-1)
    cells, flips, bounds = _draw_errors(np.asarray(rates, dtype=float), rows, rng)
    for g, q in enumerate(circuit.gates):
        if gate_kind(q) is GateKind.NOT:
            states[:, q[0]] ^= 1
        elif gate_kind(q) is GateKind.CNOT:
            states[:, q[1]] ^= states[:, q[0]]
        else:
            states[:, q[2]] ^= states[:, q[0]] & states[:, q[1]]
        lo, hi = bounds[g], bounds[g + 1]
        if lo < hi:
            columns[cells[lo:hi, np.newaxis] + rows * (np.array(q) - g)] ^= \
                flips[lo:hi, :len(q)]
    return states


def random_circuit(rng, width, gate_count):
    gates = []
    for _ in range(gate_count):
        arity = int(rng.integers(1, min(3, width) + 1))
        qubits = [int(q) for q in rng.permutation(width)[:arity]]
        gates.append((x, cx, ccx)[arity - 1](*qubits))
    return Circuit(width, tuple(gates))


@pytest.mark.parametrize("case", range(12))
def test_flip_targets_match_per_gate_flips(case):
    # Mixed arities, row counts that are not powers of two, and rates of
    # 0 and 1 beside others: the flips land exactly where each gate would
    # place them itself.
    rng = np.random.default_rng(case)
    width = int(rng.integers(1, 9))
    circuit = random_circuit(rng, width, int(rng.integers(1, 40)))
    rows = int(rng.choice([1, 3, 7, 100, 999, 5000]))
    rates = rng.choice([0.0, 1.0, 0.02, 0.3, 0.7], size=len(circuit.gates))
    start = np.asfortranarray(rng.integers(0, 2, size=(rows, width), dtype=np.uint8))
    seed = int(rng.integers(2**32))
    got = noisy_chunk(circuit, start.copy(order="F"), rates, np.random.default_rng(seed))
    want = per_gate_flips(circuit, start.copy(order="F"), rates,
                          np.random.default_rng(seed))
    assert np.array_equal(got, want)
    cells, _, _ = _draw_errors(rates, rows, np.random.default_rng(seed))
    assert cells.dtype == np.int32


def test_a_chunk_past_2_31_cells_indexes_in_int64():
    # 65,540 gates at CHUNK_ROWS rows: the cells of the last gates lie past
    # 2^31, so the draw must keep them in int64.  Only the last four gates
    # (a NOT, a CNOT, a Toffoli and a CNOT) have errors.
    rows = CHUNK_ROWS
    gate_count = 2**31 // rows + 4
    circuit = Circuit(3, (x(0), cx(0, 1), ccx(0, 1, 2), cx(2, 0)) * (gate_count // 4))
    rates = np.zeros(gate_count)
    rates[-4:] = [0.3, 1.0, 0.3, 0.02]
    cells, _, _ = _draw_errors(rates, rows, np.random.default_rng(8))
    assert cells.dtype == np.int64
    assert cells.min() >= 2**31
    start = np.asfortranarray(np.random.default_rng(9).integers(0, 2, size=(rows, 3),
                                                                 dtype=np.uint8))
    got = noisy_chunk(circuit, start.copy(order="F"), rates, np.random.default_rng(8))
    want = per_gate_flips(circuit, start.copy(order="F"), rates, np.random.default_rng(8))
    assert np.array_equal(got, want)


def test_noisy_call_needs_column_major_states():
    circuit = Circuit(2, (cx(0, 1),))
    states = np.zeros((4, 2), dtype=np.uint8)
    with pytest.raises(ValueError, match="column-major"):
        apply_permutation_batch(circuit, states, (np.zeros(0, dtype=np.int64), [0, 0]))


# x(0) then cx(0, 1) on two rows from 00 ends at 11.  One flip on row 1
# after gate 0 runs through the CNOT; after gate 1 it lands on the output.
@pytest.mark.parametrize("gate,qubit,row1", [
    (0, 0, [0, 0]),
    (0, 1, [1, 0]),
    (1, 0, [0, 1]),
    (1, 1, [1, 0]),
])
def test_a_flip_lands_after_its_gate_on_its_row_and_qubit(gate, qubit, row1):
    circuit = Circuit(2, (x(0), cx(0, 1)))
    states = np.zeros((2, 2), dtype=np.uint8, order="F")
    bounds = [0, 0, 0]
    bounds[gate + 1:] = [1] * (2 - gate)
    targets = np.array([qubit * 2 + 1], dtype=np.int64)  # row 1 of the qubit's column
    apply_permutation_batch(circuit, states, (targets, bounds))
    assert states[0].tolist() == [1, 1]
    assert states[1].tolist() == row1


def test_noiseless_kernel_ignores_the_memory_layout():
    instance = make_adder(AdderFamily.MOD_POW2_PLUS1, 3)
    columns = instance.input_states(list(instance.legal_pairs()))
    rows = np.ascontiguousarray(columns)
    assert rows.flags.c_contiguous and not rows.flags.f_contiguous
    assert columns.flags.f_contiguous and not columns.flags.c_contiguous
    apply_permutation_batch(instance.circuit, rows)
    apply_permutation_batch(instance.circuit, columns)
    assert np.array_equal(rows, columns)
