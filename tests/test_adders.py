import dataclasses
import hashlib
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qrns.adders import (
    FAMILIES,
    AdderFamily,
    AdderInstance,
    adder_instance,
    build_adder,
    dim1_decode,
    dim1_encode,
    family_for_modulus,
    make_adder,
)
from qrns.circuit import (
    TAG_PASS,
    Circuit,
    GateKind,
    apply_permutation_batch,
    ccx,
    cx,
    from_text,
    gate_kind,
    to_text,
    x,
)
from qrns.resources import ResourceReport, resource_report
from qrns.select import moduli_pool


def wire_value(row, wires):
    """The little-endian integer on ``wires`` of one state row."""
    return sum(int(row[w]) << i for i, w in enumerate(wires))


# --- diminished-1 codec -----------------------------------------------------

@pytest.mark.parametrize("value,n,bits", [
    (0, 3, 0b1000),
    (1, 3, 0b0000),
    (5, 3, 0b0100),
    (0, 1, 0b10),
    (2, 1, 0b01),
])
def test_dim1_encoding(value, n, bits):
    assert dim1_encode(value, n) == bits


def test_dim1_round_trip_is_a_bijection():
    for n in (1, 2, 3, 4):
        seen = set()
        for value in range(2**n + 1):
            encoded = dim1_encode(value, n)
            assert dim1_decode(encoded, n) == value
            seen.add(encoded)
        assert len(seen) == 2**n + 1


def test_dim1_rejects_out_of_range():
    with pytest.raises(ValueError):
        dim1_encode(9, 3)
    with pytest.raises(ValueError):
        dim1_encode(-1, 3)
    with pytest.raises(ValueError):
        dim1_decode(0b1010, 3)  # MSB set with nonzero low bits


def test_decode_output_rejects_the_modulus():
    # The all-ones word of the 2^n-1 family equals its modulus: no residue.
    instance = make_adder(AdderFamily.MOD_POW2_MINUS1, 3)
    assert instance.decode_output(6) == 6
    with pytest.raises(ValueError, match="0x7 is not a residue of modulus 7"):
        instance.decode_output(7)


# --- exhaustive oracle equivalence -----------------------------------------

CASES = (
    [(AdderFamily.FULL, n) for n in range(1, 7)]
    + [(AdderFamily.MOD_POW2, n) for n in range(1, 5)]
    + [(AdderFamily.MOD_POW2_MINUS1, n) for n in range(2, 5)]
    + [(AdderFamily.MOD_POW2_PLUS1, n) for n in range(1, 5)]
)


@pytest.mark.parametrize("family,n", CASES)
def test_builder_matches_oracle_exhaustively(family, n):
    instance = make_adder(family, n)
    pairs = list(instance.legal_pairs())
    got = instance.run_pairs(pairs)
    for (a, b), bits in zip(pairs, got):
        assert int(bits) == instance.expected_output_bits(a, b), (family, n, a, b)


@pytest.mark.parametrize("family,n", CASES)
def test_pass_through_registers_survive(family, n):
    instance = make_adder(family, n)
    circuit = instance.circuit
    pass_regs = circuit.registers_tagged(TAG_PASS)
    assert pass_regs, "every builder declares at least one pass-through register"
    pairs = list(instance.legal_pairs())
    before = instance.input_states(pairs)
    after = before.copy()
    apply_permutation_batch(circuit, after)
    for reg in pass_regs:
        assert np.array_equal(before[:, reg.qubits], after[:, reg.qubits]), reg.name


def test_qdma_output_never_exceeds_modulus():
    for n in (1, 2, 3):
        instance = make_adder(AdderFamily.MOD_POW2_PLUS1, n)
        pairs = list(instance.legal_pairs())
        for bits in instance.run_pairs(pairs):
            assert 0 <= dim1_decode(int(bits), n) <= 2**n


@pytest.mark.parametrize("family,n", CASES)
def test_wiring_survives_text_round_trip(family, n):
    instance = make_adder(family, n)
    parsed = adder_instance(from_text(to_text(instance.circuit)))
    assert (parsed.a_wires, parsed.b_wires, parsed.output_wires) == (
        instance.a_wires, instance.b_wires, instance.output_wires)


def test_qdma_wiring_comes_from_register_tags():
    instance = make_adder(AdderFamily.MOD_POW2_PLUS1, 3)
    reg = instance.circuit.register
    assert instance.a_wires == reg("ALOW").qubits + reg("AMSB").qubits
    assert instance.output_wires == reg("ALOW").qubits + reg("MTOP").qubits
    # Zero is the codeword 0b1000: only the MSB register is set.
    zero_four, five_zero = instance.input_states([(0, 4), (5, 0)])
    for row, values in [(zero_four, [0, 1, 0b011]), (five_zero, [0b100, 0, 0b1000])]:
        assert [wire_value(row, reg(name).qubits)
                for name in ("ALOW", "AMSB", "B")] == values


# --- specific value examples ------------------------------------------------

def test_full_adder_17_plus_25():
    instance = make_adder(AdderFamily.FULL, 5)
    assert int(instance.run_pairs([(17, 25)])[0]) == 42


def test_full_adder_carry_ripple():
    instance = make_adder(AdderFamily.FULL, 5)
    assert int(instance.run_pairs([(31, 1)])[0]) == 32


def test_mod4_example():
    instance = make_adder(AdderFamily.MOD_POW2, 2)
    assert int(instance.run_pairs([(3, 2)])[0]) == 1


def test_mod3_and_mod7_examples():
    mod3 = make_adder(AdderFamily.MOD_POW2_MINUS1, 2)
    assert int(mod3.run_pairs([(2, 2)])[0]) == 1
    mod7 = make_adder(AdderFamily.MOD_POW2_MINUS1, 3)
    assert int(mod7.run_pairs([(6, 6)])[0]) == 5


def test_qdma_dim1_examples():
    instance = make_adder(AdderFamily.MOD_POW2_PLUS1, 3)
    # 4 + 7 = 11 = 2 mod 9, all in diminished-1 on the wire.
    assert dim1_encode(4, 3) == 0b0011
    assert dim1_encode(7, 3) == 0b0110
    assert int(instance.run_pairs([(4, 7)])[0]) == dim1_encode(2, 3) == 0b0001
    # 0 + 0 keeps the zero flag set.
    assert int(instance.run_pairs([(0, 0)])[0]) == 0b1000


# --- builder text pins -------------------------------------------------------

# First 16 hex digits of the sha256 of to_text(build_adder(family, n)), for n
# from the family's smallest n up to 12.  Width, registers, metadata and the
# gate order are all pinned: noisy runs draw their errors per gate index, so
# reordering gates would move every noisy result.
BUILDER_TEXT_DIGESTS = {
    AdderFamily.FULL: (
        "0f9fe907fd7fe7c9", "bccdbee1abcd095a", "33bcc708a439762d", "4cbba50fd438e37a",
        "66f9f31ee399f725", "5a15d7f88f902c30", "d49e5bb7a3b2c86d", "5bcea4ca861d6fd6",
        "8e095ebc0cfc7d5d", "77a794754a610538", "0001d054b2397242", "0c7dc04362c21e23",
    ),
    AdderFamily.MOD_POW2: (
        "3bc27ac44b74efa6", "538f6e5a29b400ee", "3e74402d2c2a4bb2", "af4d3377b0069026",
        "b2f9475e10fded39", "f518ca71a727a67e", "a12013c5311d1ec6", "2ffe7d5b1ba742ef",
        "db14972df2a993b8", "5fd1b97d49816872", "020adfc86c76197b", "e69166bf57bc66b6",
    ),
    AdderFamily.MOD_POW2_MINUS1: (
        "f81ac9e5f756c01e", "2192e8ee8dc2d2b5", "c365549e06f92976", "acebf3555ffa5ed1",
        "427cbc582f224867", "3fb8f8bf49d2341b", "60a9171c9de0f76b", "f07464121dba52fa",
        "3006a14de865637a", "bf7e72aff4897bab", "fde57f090b562118",
    ),
    AdderFamily.MOD_POW2_PLUS1: (
        "677a5befcdd57a63", "38b08536838eb473", "1eaffd6f93b5eb7d", "8eaf74f0f94dc9a2",
        "1ff6df35d5939295", "e735be4a234c0240", "6c6578fa4d648968", "bbde8c29400bb4bc",
        "e94599a86db3b4d7", "b754f0a9cffc8438", "1ea6e78a9a984277", "97ee8dba5d7e5e58",
    ),
}


@pytest.mark.parametrize("family", list(AdderFamily))
def test_builders_keep_their_recorded_text(family):
    pinned = BUILDER_TEXT_DIGESTS[family]
    digests = tuple(hashlib.sha256(to_text(build_adder(family, n)).encode()).hexdigest()[:16]
                    for n in range(13 - len(pinned), 13))
    assert digests == pinned


# First 16 hex digits of the sha256 of the concatenated
# to_text(build_adder(family, n)) for n from the family's smallest n to 64.
BUILDER_TEXT_DIGESTS_TO_64 = {
    AdderFamily.FULL: "a90fd4a0453493e3",
    AdderFamily.MOD_POW2: "629af4f2362477af",
    AdderFamily.MOD_POW2_MINUS1: "063a5baffc56e282",
    AdderFamily.MOD_POW2_PLUS1: "5a95cb21cd2f8cd7",
}


@pytest.mark.parametrize("family", list(AdderFamily))
def test_builders_keep_their_recorded_text_to_64(family):
    text = "".join(to_text(build_adder(family, n))
                   for n in range(FAMILIES[family].min_n, 65))
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == BUILDER_TEXT_DIGESTS_TO_64[family]


# --- resource pins ----------------------------------------------------------

def test_mod_pow2_resources_are_exact():
    pins = {1: (0, 1, 0, 1, 2), 2: (1, 2, 1, 1, 4), 3: (3, 6, 3, 4, 6)}
    for n, (tc, cc, td, cd, qubits) in pins.items():
        report = resource_report(build_adder(AdderFamily.MOD_POW2, n))
        assert report.toffoli_count == tc
        assert report.cnot_count == cc
        assert report.toffoli_depth == td
        assert report.cnot_depth == cd
        assert report.qubit_count == qubits


def test_mod2_circuit_is_a_single_cnot():
    circuit = build_adder(AdderFamily.MOD_POW2, 1)
    assert len(circuit.gates) == 1
    assert gate_kind(circuit.gates[0]) is GateKind.CNOT


def test_qdma_resources_are_exact():
    # (toffoli, cnot, toffoli depth, cnot depth, qubits) per size parameter
    pins = {1: (5, 2, 4, 2, 8), 2: (8, 7, 6, 5, 11), 3: (11, 13, 9, 7, 14)}
    for n, (tc, cc, td, cd, qubits) in pins.items():
        report = resource_report(build_adder(AdderFamily.MOD_POW2_PLUS1, n))
        assert (report.toffoli_count, report.cnot_count) == (tc, cc)
        assert (report.toffoli_depth, report.cnot_depth) == (td, cd)
        assert report.qubit_count == qubits


def _layered_depth(gates):
    """ASAP depth of a gate sequence, one schedule at a time."""
    last_layer = {}
    depth = 0
    for gate in gates:
        layer = 1 + max((last_layer.get(q, 0) for q in gate), default=0)
        for q in gate:
            last_layer[q] = layer
        depth = max(depth, layer)
    return depth


@pytest.mark.parametrize("family", list(AdderFamily))
def test_one_pass_depths_match_a_schedule_per_kind(family):
    for n in range(2, 12):
        gates = build_adder(family, n).gates
        report = resource_report(build_adder(family, n))
        assert report.total_depth == _layered_depth(gates)
        for kind, depth in ((GateKind.TOFFOLI, report.toffoli_depth),
                            (GateKind.CNOT, report.cnot_depth)):
            assert depth == _layered_depth(g for g in gates if gate_kind(g) is kind)


@st.composite
def _random_circuits(draw):
    """Circuits of width 0-8 and up to 60 gates, of every arity that fits."""
    width = draw(st.integers(0, 8))
    kinds = [st.lists(st.integers(0, width - 1), min_size=arity, max_size=arity,
                      unique=True).map(lambda q, make=make: make(*q))
             for arity, make in ((1, x), (2, cx), (3, ccx)) if arity <= width]
    gates = draw(st.lists(st.one_of(kinds), max_size=60)) if kinds else []
    return Circuit(width, tuple(gates))


@settings(max_examples=300, deadline=None)
@given(_random_circuits())
@example(Circuit(0))
@example(Circuit(4))
@example(Circuit(3, (x(0), x(2), x(0), x(1))))
def test_one_pass_report_matches_a_schedule_per_kind_on_random_circuits(circuit):
    gates = circuit.gates
    kinds = [gate_kind(g) for g in gates]
    assert resource_report(circuit) == ResourceReport(
        qubit_count=circuit.width,
        toffoli_count=kinds.count(GateKind.TOFFOLI),
        cnot_count=kinds.count(GateKind.CNOT),
        not_count=kinds.count(GateKind.NOT),
        toffoli_depth=_layered_depth(g for g in gates if gate_kind(g) is GateKind.TOFFOLI),
        cnot_depth=_layered_depth(g for g in gates if gate_kind(g) is GateKind.CNOT),
        total_depth=_layered_depth(gates),
    )


def test_qdma_nand_stage_budget():
    # The three-input inverted product costs two Toffolis and six NOTs.
    report = resource_report(build_adder(AdderFamily.MOD_POW2_PLUS1, 3))
    assert report.not_count == 6


def test_full_adder_qubit_counts_match_reference_sizes():
    for n, qubits in [(5, 11), (6, 13), (7, 15), (8, 17), (9, 19), (10, 21)]:
        assert build_adder(AdderFamily.FULL, n).width == qubits


def test_full_adder_toffoli_depth_is_linear():
    for n in range(1, 11):
        report = resource_report(build_adder(AdderFamily.FULL, n))
        assert report.toffoli_depth == 2 * n - 1


def test_full_adder_cnot_depth_tracks_reference():
    # Reference depths follow 3n-2. Under the kind-filtered layering
    # convention this construction measures 2n: cross-kind ordering is
    # transparent, so sums that are Toffoli-ordered share CNOT layers.
    # The shortfall stays under 30% and is conservative (a shallower
    # baseline only understates the distributed advantage).
    for n in range(5, 11):
        report = resource_report(build_adder(AdderFamily.FULL, n))
        assert report.cnot_depth == 2 * n
        reference = 3 * n - 2
        assert abs(report.cnot_depth - reference) / reference <= 0.30


def test_mod_pow2_has_no_carry_wire():
    for n in (1, 2, 3, 4):
        circuit = build_adder(AdderFamily.MOD_POW2, n)
        assert circuit.width == 2 * n
        touched = {q for g in circuit.gates for q in g}
        assert touched <= set(range(2 * n))


# --- builder parameter validation -------------------------------------------

@pytest.mark.parametrize("family,bad_n", [
    (AdderFamily.FULL, 0),
    (AdderFamily.MOD_POW2, 0),
    (AdderFamily.MOD_POW2_MINUS1, 1),
    (AdderFamily.MOD_POW2_PLUS1, 0),
])
def test_builders_reject_small_n(family, bad_n):
    with pytest.raises(ValueError, match=f"n must be >= {bad_n + 1}, got {bad_n}"):
        build_adder(family, bad_n)


# --- family tagging -----------------------------------------------------------

@pytest.mark.parametrize("modulus,family,n", [
    (2, AdderFamily.MOD_POW2, 1),
    (3, AdderFamily.MOD_POW2_PLUS1, 1),   # smallest-n match wins
    (4, AdderFamily.MOD_POW2, 2),
    (5, AdderFamily.MOD_POW2_PLUS1, 2),
    (7, AdderFamily.MOD_POW2_MINUS1, 3),
    (8, AdderFamily.MOD_POW2, 3),
    (9, AdderFamily.MOD_POW2_PLUS1, 3),
    (15, AdderFamily.MOD_POW2_MINUS1, 4),
    (16, AdderFamily.MOD_POW2, 4),
    (17, AdderFamily.MOD_POW2_PLUS1, 4),
])
def test_family_for_modulus(modulus, family, n):
    assert family_for_modulus(modulus) == (family, n)


def test_family_for_modulus_rejects_unsupported():
    with pytest.raises(ValueError):
        family_for_modulus(6)
    with pytest.raises(ValueError):
        family_for_modulus(1)


# (modulus offset from 2^n, smallest n) of each modular family, written out
# here so that the brute-force tests below do not read the family table.
MODULAR_FAMILIES = {
    AdderFamily.MOD_POW2: (0, 1),
    AdderFamily.MOD_POW2_MINUS1: (-1, 2),
    AdderFamily.MOD_POW2_PLUS1: (+1, 1),
}


def _family_moduli(max_n):
    """(modulus, n, family) for every modular family and n <= max_n."""
    return [(2**n + offset, n, family)
            for family, (offset, min_n) in MODULAR_FAMILIES.items()
            for n in range(min_n, max_n + 1)]


def test_family_for_modulus_matches_brute_force():
    listed = _family_moduli(12)
    for m in range(4096):
        matches = sorted((n, family.value, family) for modulus, n, family in listed
                         if modulus == m)
        if matches:
            assert family_for_modulus(m) == (matches[0][2], matches[0][0]), m
        else:
            with pytest.raises(ValueError):
                family_for_modulus(m)


def test_moduli_pool_matches_brute_force():
    for max_n in range(1, 13):
        assert moduli_pool(max_n) == tuple(sorted({m for m, _, _ in _family_moduli(max_n)}))


def test_adder_instance_requires_metadata():
    from qrns.circuit import Circuit, cx
    with pytest.raises(ValueError):
        adder_instance(Circuit(2, (cx(0, 1),)))


def test_adder_instance_requires_register_b_and_an_output():
    from qrns.circuit import TAG_INPUT, TAG_OUTPUT, Circuit, Register, cx
    meta = {"family": "mod-pow2", "n": "1"}
    a = Register("A", (0,), frozenset({TAG_INPUT}))
    for registers in [(a, Register("S", (1,), frozenset({TAG_INPUT, TAG_OUTPUT}))),
                      (a, Register("B", (1,), frozenset({TAG_INPUT})))]:
        circuit = Circuit(2, (cx(0, 1),), registers, "mod-pow2", meta)
        with pytest.raises(ValueError, match="register 'B'"):
            adder_instance(circuit)
        with pytest.raises(ValueError, match="register 'B'"):
            AdderInstance(circuit)


@pytest.mark.parametrize("family", list(AdderFamily))
def test_adder_instance_loads_every_builders_output(family):
    for n in range(FAMILIES[family].min_n, 12):
        instance = adder_instance(build_adder(family, n))
        assert (instance.family, instance.n) == (family, n)


@pytest.mark.parametrize("family,meta", [
    (family, {"n": "5"}) for family in AdderFamily
] + [
    # Same A and B widths, one output wire fewer than a full adder's.
    (AdderFamily.MOD_POW2, {"family": "full"}),
])
def test_adder_instance_refuses_registers_that_disagree_with_meta(family, meta):
    circuit = build_adder(family, 3)
    claimed = dataclasses.replace(circuit, meta={**circuit.meta, **meta})
    with pytest.raises(ValueError, match="A, B and output wires"):
        adder_instance(claimed)


def test_meta_n_is_read_as_an_integer():
    # A hand-edited "n=04" names n = 4, and the wire widths still agree.
    circuit = build_adder(AdderFamily.MOD_POW2_PLUS1, 4)
    padded = dataclasses.replace(circuit, meta={**circuit.meta, "n": "04"})
    assert adder_instance(padded).n == 4


@pytest.mark.parametrize("family", list(AdderFamily))
def test_relabelled_instances_are_refused(family):
    # family and n are read from the circuit's meta, so neither a direct
    # call nor dataclasses.replace can set them, not even to a family of
    # equal wire widths.
    instance = make_adder(family, 4)
    with pytest.raises(TypeError):
        AdderInstance(instance.circuit, family, 4)
    for other in AdderFamily:
        with pytest.raises(ValueError, match="init=False"):
            dataclasses.replace(instance, family=other)
    with pytest.raises(ValueError, match="init=False"):
        dataclasses.replace(instance, n=5)
    assert dataclasses.replace(instance) == instance
    assert (instance.family, instance.n) == (family, 4)


@pytest.mark.parametrize("family,n", [
    (AdderFamily.FULL, 70), (AdderFamily.MOD_POW2_PLUS1, 64),
    (AdderFamily.MOD_POW2, 64), (AdderFamily.FULL, 3),
])
def test_input_states_match_operand_inputs(family, n):
    # Each packed row holds the encoded operands on the A and B wires and
    # zeros elsewhere, also for codewords too wide for 64-bit integers.
    instance = make_adder(family, n)
    top = instance.value_count - 1
    pairs = [(0, top), (top, 1), (top // 3, top // 7)]
    states = instance.input_states(pairs)
    others = sorted(set(range(instance.circuit.width))
                    - set(instance.a_wires + instance.b_wires))
    for row, (a, b) in zip(states, pairs):
        assert wire_value(row, instance.a_wires) == instance.encode_operand(a)
        assert wire_value(row, instance.b_wires) == instance.encode_operand(b)
        assert not row[others].any()


def _reference_code(family, n, value):
    """Codeword of one operand, written out per family."""
    if family is AdderFamily.MOD_POW2_PLUS1:
        return 2**n if value == 0 else value - 1
    return value


def _reference_states(instance, pairs):
    """input_states one value and one wire at a time."""
    states = np.zeros((len(pairs), instance.circuit.width), dtype=np.uint8)
    for row, pair in enumerate(pairs):
        for wires, value in zip((instance.a_wires, instance.b_wires), pair):
            code = instance.encode_operand(value)
            assert code == _reference_code(instance.family, instance.n, value)
            for i, w in enumerate(wires):
                states[row, w] = (code >> i) & 1
    return states


CODEC_CASES = [(family, n) for family in AdderFamily for n in (1, 2, 3, 4, 5, 6, 62, 63)
               if (family, n) != (AdderFamily.MOD_POW2_MINUS1, 1)]


@pytest.mark.parametrize("family,n", CODEC_CASES)
def test_array_codec_matches_the_per_value_reference(family, n):
    instance = make_adder(family, n)
    count = instance.value_count
    rng = random.Random(f"{family.value}:{n}")
    if count <= 8:
        pairs = list(instance.legal_pairs())
    else:
        edges = [0, 1, count - 2, count - 1]
        pairs = [(a, b) for a in edges for b in edges]
        pairs += [(rng.randrange(count), rng.randrange(count)) for _ in range(40)]
    operands = instance.operand_array(pairs)
    # Python ints wherever an operand sum may not fit int64.
    assert operands.dtype == (object if count > 2**62 else np.int64)
    states = instance.input_states(pairs)
    assert np.array_equal(states, _reference_states(instance, pairs))
    # Column-major, so that each wire is contiguous for the gate loop, and
    # the same states from a list of pairs as from their array.
    assert states.flags.f_contiguous
    assert np.array_equal(instance.input_states(operands), states)
    # The fourth holds four values, as two pairs would, in the wrong shape.
    for malformed in [[(0, 0), (1, 0, 0)], [(0, 0), (1,)], [(0, 0), 1], [(0, 0, 0), (0,)],
                      [(0, 0), ("x", 1)], [(0, None)]]:
        with pytest.raises(ValueError):
            instance.input_states(malformed)
    expected = instance.expected_output_bits(operands[:, 0], operands[:, 1])
    modulus = instance.modulus
    assert [int(v) for v in expected] == [
        instance.expected_output_bits(a, b) for a, b in pairs] == [
        a + b if modulus is None else _reference_code(family, n, (a + b) % modulus)
        for a, b in pairs]


@pytest.mark.parametrize("family,n", CODEC_CASES)
@pytest.mark.parametrize("operand", [-1, 2**70])
def test_operands_beyond_int64_or_below_zero_raise_value_error(family, n, operand):
    instance = make_adder(family, n)
    for pair in [(operand, 0), (0, operand)]:
        with pytest.raises(ValueError, match=r"operands must lie in \[0, "):
            instance.input_states([(1, 1), pair])


@pytest.mark.parametrize("n", [20, 63])
def test_non_integer_operands_raise_value_error(n):
    # numpy would truncate them: (1.5, 2.9) used to be packed as (1, 2).
    instance = make_adder(AdderFamily.MOD_POW2, n)
    for pairs in ([(1.5, 2.9)], [(1, 2), (3, 4.0)], np.array([[1.5, 2.9]]),
                  [(np.float64(1.0), np.float32(2.0))], np.array([[1, 2.5]], dtype=object)):
        for convert in (instance.operand_array, instance.input_states):
            with pytest.raises(ValueError, match="each operand pair must be two integers"):
                convert(pairs)
    # Integers of any type still pass.
    integers = [(np.int64(1), np.uint8(2)), (True, 3)]
    assert instance.operand_array(integers).tolist() == [[1, 2], [1, 3]]
    for array in (np.array([[1, 2]], dtype=object), np.array([[1, 2]], dtype=np.uint8),
                  np.array([[True, False]])):
        assert instance.operand_array(array).tolist() == [[int(v) for v in array[0]]]


def test_make_adder_returns_one_shared_instance():
    assert make_adder(AdderFamily.MOD_POW2_PLUS1, 3) is make_adder(
        AdderFamily.MOD_POW2_PLUS1, 3)
    assert make_adder(AdderFamily.FULL, 3) is not make_adder(AdderFamily.MOD_POW2, 3)


@pytest.mark.parametrize("family,n", [
    (AdderFamily.FULL, 3), (AdderFamily.MOD_POW2, 3),
    (AdderFamily.MOD_POW2_MINUS1, 3), (AdderFamily.MOD_POW2_PLUS1, 3),
])
def test_resources_are_the_circuits_report_cached_on_the_shared_instance(family, n):
    instance = make_adder(family, n)
    assert instance.resources == resource_report(build_adder(family, n))
    assert make_adder(family, n).resources is instance.resources


@pytest.mark.parametrize("family,n,pair", [
    (AdderFamily.MOD_POW2, 2, (9, 0)), (AdderFamily.MOD_POW2, 2, (0, 4)),
    (AdderFamily.MOD_POW2, 2, (-1, 0)), (AdderFamily.FULL, 3, (9, 0)),
    (AdderFamily.MOD_POW2_MINUS1, 3, (7, 0)), (AdderFamily.MOD_POW2_PLUS1, 2, (0, 5)),
])
def test_input_states_rejects_out_of_range_operands(family, n, pair):
    # Packing must not truncate an operand to its wires or overflow numpy.
    instance = make_adder(family, n)
    with pytest.raises(ValueError, match=rf"\[0, {instance.value_count}\)"):
        instance.input_states([(1, 1), pair])
