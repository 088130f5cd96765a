import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qrns.circuit import (
    MAX_READ_WIRES,
    VALID_TAGS,
    Circuit,
    CircuitValidationError,
    Gate,
    GateKind,
    Register,
    apply_permutation_batch,
    ccx,
    cx,
    from_text,
    read_value,
    to_text,
    x,
)
from qrns.adders import (
    AdderFamily,
    build_adder,
    build_full_adder,
    build_mod_pow2,
    build_qdma,
)
from qrns.resources import resource_report


def test_gate_arity_enforced():
    with pytest.raises(ValueError):
        Gate(GateKind.CNOT, (0,))
    with pytest.raises(ValueError):
        Gate(GateKind.TOFFOLI, (0, 1))


def _violations(*args, **kwargs) -> list[str]:
    """The errors that building Circuit(*args, **kwargs) raises."""
    with pytest.raises(CircuitValidationError) as excinfo:
        Circuit(*args, **kwargs)
    return excinfo.value.errors


def test_validate_minimal_ok():
    assert Circuit(2, (cx(0, 1),)).gates == (cx(0, 1),)


def test_validate_duplicate_qubit():
    errors = _violations(2, (cx(0, 0),))
    assert len(errors) == 1 and "duplicate" in errors[0]


def test_validate_out_of_range():
    errors = _violations(1, (cx(0, 1),))
    assert len(errors) == 1 and "out of range" in errors[0]


def test_validate_negative_qubit():
    # Numpy would take -1 as the last column: it must not reach a kernel.
    errors = _violations(3, (cx(0, -1),))
    assert errors == ["gate 0 (cx): qubit -1 out of range for width 3"]


def test_validate_overlapping_registers():
    errors = _violations(3, (), (
        Register("A", (0, 1)),
        Register("B", (1, 2)),
    ))
    assert any("overlap" in e for e in errors)


def test_validate_reports_every_violation():
    errors = _violations(1, (cx(0, 0), cx(0, 5)), (
        Register("A", (0,)),
        Register("B", (0,)),
    ))
    assert len(errors) >= 3


@pytest.mark.parametrize("gates,bits,expected", [
    ((cx(0, 1),), "10", "11"),
    ((ccx(0, 1, 2),), "110", "111"),
    ((ccx(0, 1, 2),), "100", "100"),
    ((x(0),), "0", "1"),
])
def test_apply_permutation_textbook(gates, bits, expected):
    states = np.array([[int(b) for b in bits]], dtype=np.uint8)
    apply_permutation_batch(Circuit(len(bits), gates), states)
    assert "".join(str(b) for b in states[0]) == expected


def test_apply_permutation_width_mismatch():
    with pytest.raises(ValueError, match=r"\(\*, 2\)"):
        apply_permutation_batch(Circuit(2, (cx(0, 1),)),
                                np.zeros((1, 3), dtype=np.uint8))


@pytest.mark.parametrize("circuit", [
    build_full_adder(3),
    build_mod_pow2(4),
    build_qdma(3),
    build_adder(AdderFamily.MOD_POW2_MINUS1, 3),
])
def test_builders_are_injective_on_all_basis_states(circuit):
    assert circuit.width <= 14
    count = 2**circuit.width
    states = np.zeros((count, circuit.width), dtype=np.uint8)
    for q in range(circuit.width):
        states[:, q] = (np.arange(count) >> q) & 1
    apply_permutation_batch(circuit, states)
    packed = np.zeros(count, dtype=np.int64)
    for q in range(circuit.width):
        packed |= states[:, q].astype(np.int64) << q
    assert len(np.unique(packed)) == count


def test_gate_qubits_pads_with_minus_one_and_is_read_only():
    circuit = Circuit(3, (x(2), cx(0, 1), ccx(0, 1, 2)))
    table = circuit.gate_qubits
    assert table.tolist() == [[2, -1, -1], [0, 1, -1], [0, 1, 2]]
    assert circuit.gate_qubits is table
    with pytest.raises(ValueError):
        table[0, 0] = 1


def test_empty_circuit_report_is_zero():
    report = resource_report(Circuit(3))
    assert (report.toffoli_count, report.cnot_count, report.not_count) == (0, 0, 0)
    assert (report.toffoli_depth, report.cnot_depth, report.total_depth) == (0, 0, 0)


def test_depth_counts_disjoint_gates_once():
    # Two CNOTs on disjoint qubits share a layer; a third that overlaps
    # both cannot.
    circuit = Circuit(4, (cx(0, 1), cx(2, 3), cx(1, 2)))
    report = resource_report(circuit)
    assert report.cnot_count == 3
    assert report.cnot_depth == 2


def test_kind_depth_ignores_other_kinds():
    # The Toffoli between the CNOTs is transparent for CNOT depth.
    circuit = Circuit(3, (cx(0, 1), ccx(0, 1, 2), cx(0, 1)))
    report = resource_report(circuit)
    assert report.cnot_depth == 2
    assert report.toffoli_depth == 1
    assert report.total_depth == 3


def test_depth_never_exceeds_count():
    for circuit in (build_full_adder(4), build_qdma(2)):
        report = resource_report(circuit)
        assert report.toffoli_depth <= report.toffoli_count
        assert report.cnot_depth <= report.cnot_count


@settings(max_examples=50, deadline=None)
@given(st.permutations(list(range(8))))
def test_depths_invariant_under_wire_relabeling(perm):
    base = build_qdma(1)
    relabeled = Circuit(
        base.width,
        tuple(Gate(g.kind, tuple(perm[q] for q in g.qubits)) for g in base.gates),
    )
    got = resource_report(relabeled)
    want = resource_report(Circuit(base.width, base.gates))
    assert (got.toffoli_depth, got.cnot_depth, got.total_depth) == (
        want.toffoli_depth, want.cnot_depth, want.total_depth)


_GATE_STRATEGY = st.one_of(
    st.builds(x, st.integers(0, 5)),
    st.builds(cx, *(st.integers(0, 5),) * 2).filter(
        lambda g: len(set(g.qubits)) == 2),
    st.builds(ccx, *(st.integers(0, 5),) * 3).filter(
        lambda g: len(set(g.qubits)) == 3),
)


@settings(max_examples=60, deadline=None)
@given(st.lists(_GATE_STRATEGY, max_size=12), _GATE_STRATEGY)
def test_appending_gates_is_monotone(gates, extra):
    before = resource_report(Circuit(6, tuple(gates)))
    after = resource_report(Circuit(6, tuple(gates) + (extra,)))
    assert after.toffoli_count >= before.toffoli_count
    assert after.cnot_count >= before.cnot_count
    assert after.not_count >= before.not_count
    assert after.total_depth >= before.total_depth


@pytest.mark.parametrize("circuit", [
    build_full_adder(1),
    build_full_adder(5),
    build_mod_pow2(3),
    build_qdma(2),
    build_adder(AdderFamily.MOD_POW2_MINUS1, 2),
])
def test_text_round_trip(circuit):
    assert from_text(to_text(circuit)) == circuit


def test_from_text_rejects_garbage():
    with pytest.raises(ValueError):
        from_text("qubits 2\nfoo 1 2\n")
    with pytest.raises(ValueError):
        from_text("cx 0 1\n")  # missing qubits header


@pytest.mark.parametrize("text,message", [
    ("qubits\n", "line 1: 'qubits' takes 1 fields, got 0"),
    ("qubits 2 3\n", "line 1: 'qubits' takes 1 fields, got 2"),
    ("qubits -1\n", "line 1: qubit count must be >= 0"),
    ("qubits two\n", "line 1: invalid literal"),
    ("qubits 3\nreg A\n", "line 2: 'reg' takes 2 or 3 fields, got 1"),
    ("qubits 3\nreg A 2..0 input\n", "line 2: descending span"),
    ("qubits 3\nreg A 0..x input\n", "line 2: invalid literal"),
    ("qubits 3\nreg A 0 bogus\n", "line 2: unknown register tags"),
    ("qubits 3\n\n# note\nccx 0 1\n", "line 4: TOFFOLI takes 3 qubits"),
    ("qubits 3\ncx 0 q\n", "line 2: invalid literal"),
])
def test_from_text_names_the_malformed_line(text, message):
    with pytest.raises(ValueError, match=message):
        from_text(text)


_NAMES = st.text(alphabet="ABCDEFGHIJKLMNOPQRSTUVWXYZ_0123456789", min_size=1,
                 max_size=6)
# Identifier-like names, or any text at all: spaces, '=', line breaks and
# empty strings, which the text format cannot carry.
_ANY_NAMES = st.one_of(_NAMES, st.text(max_size=6),
                       st.text(alphabet=" =\n\r\x1cA#", max_size=4))


@st.composite
def _circuits(draw):
    width = draw(st.integers(3, 8))
    wires = st.integers(0, width - 1)
    gates = draw(st.lists(st.one_of(
        st.builds(x, wires),
        st.lists(wires, min_size=2, max_size=2, unique=True).map(lambda q: cx(*q)),
        st.lists(wires, min_size=3, max_size=3, unique=True).map(lambda q: ccx(*q)),
    ), max_size=20))
    # Disjoint non-empty registers: cut a wire permutation into runs.
    order = draw(st.permutations(range(width)))
    cuts = sorted(draw(st.sets(st.integers(1, width - 1))))
    groups = [order[lo:hi] for lo, hi in zip([0] + cuts, cuts + [width])]
    groups = groups[:draw(st.integers(0, len(groups)))]
    groups += [()] * draw(st.integers(0, 1))
    names = draw(st.lists(_ANY_NAMES, min_size=len(groups), max_size=len(groups),
                          unique=True))
    registers = tuple(
        Register(name, tuple(group), draw(st.frozensets(st.sampled_from(sorted(VALID_TAGS)))))
        for name, group in zip(names, groups)
    )
    fields = (width, tuple(gates), registers,
              draw(st.one_of(st.just(""), _ANY_NAMES)),
              draw(st.dictionaries(_ANY_NAMES, _ANY_NAMES, max_size=3)))
    # None stands for drawn fields that Circuit refuses.
    try:
        return Circuit(*fields)
    except CircuitValidationError:
        return None


@settings(max_examples=300, deadline=None)
@given(_circuits())
def test_text_round_trip_of_random_circuits(circuit):
    # Every circuit that can be built must come back equal.
    if circuit is not None:
        assert from_text(to_text(circuit)) == circuit


@pytest.mark.parametrize("circuit,message", [
    (dict(registers=(Register("my reg", (0, 1)),)), "register name"),
    (dict(registers=(Register("", (0,)),)), "register name"),
    (dict(registers=(Register("A", ()),)), "no qubits"),
    (dict(meta={"a=b": "c"}), "meta key"),
    (dict(meta={"": "c"}), "meta key"),
    (dict(meta={"a b": "c"}), "meta key"),
    (dict(meta={"a": "c\nd"}), "not one trimmed line"),
    (dict(meta={"a": " c"}), "not one trimmed line"),
    (dict(name="x\ny"), "circuit name"),
])
def test_validate_refuses_what_the_text_format_cannot_carry(circuit, message):
    errors = _violations(2, **circuit)
    assert len(errors) == 1 and message in errors[0]


_TOKENS = st.sampled_from([
    "qubits", "reg", "x", "cx", "ccx", "#", "# meta", "# circuit", "A", "B",
    "0", "1", "2", "-1", "0..2", "2..0", "1..", "1,2", "input",
    "output,pass", "bogus", "=", "..", ",",
])


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.text(),
                 st.lists(st.lists(_TOKENS, max_size=5).map(" ".join),
                          max_size=8).map("\n".join)))
def test_from_text_raises_only_value_error(text):
    try:
        from_text(text)
    except ValueError:
        pass


def test_read_value_refuses_more_than_63_wires():
    state = np.ones((1, MAX_READ_WIRES + 1), dtype=np.uint8)
    assert read_value(range(MAX_READ_WIRES), state)[0] == 2**MAX_READ_WIRES - 1
    with pytest.raises(ValueError, match="63"):
        read_value(range(MAX_READ_WIRES + 1), state)
