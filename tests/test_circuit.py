import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qrns.circuit import (
    MAX_READ_WIRES,
    VALID_TAGS,
    Circuit,
    CircuitValidationError,
    GateKind,
    Register,
    apply_permutation_batch,
    ccx,
    cx,
    from_text,
    gate_kind,
    read_value,
    to_text,
    x,
)
from qrns.adders import (
    AdderFamily,
    build_adder,
)
from qrns.resources import resource_report


def test_gate_arity_enforced():
    assert _violations(4, ((), (0, 1, 2, 3), cx(0, 1))) == [
        "gate 0: 0 qubits (); a gate acts on 1 to 3",
        "gate 1: 4 qubits (0, 1, 2, 3); a gate acts on 1 to 3",
    ]


def test_gate_kinds_carry_their_text_and_arity():
    assert [(k.name, k.value, k.arity) for k in GateKind] == [
        ("NOT", "x", 1), ("CNOT", "cx", 2), ("TOFFOLI", "ccx", 3)]
    assert GateKind("ccx") is GateKind.TOFFOLI
    assert GateKind("ccx").arity == 3
    assert GateKind.TOFFOLI.value == "ccx"


@pytest.mark.parametrize("quick,checked", [
    (x(4), (4,)),
    (cx(0, 1), (0, 1)),
    (ccx(2, 0, 1), (2, 0, 1)),
])
def test_gate_helpers_equal_checked_gates(quick, checked):
    assert quick == checked and hash(quick) == hash(checked)
    assert type(quick) is tuple
    # The gate reads back unchanged through the checked text path.
    text = to_text(Circuit(5, (quick,)))
    assert from_text(text).gates == (checked,)
    assert text.splitlines()[-1].split()[0] == gate_kind(quick).value
    assert gate_kind(quick).arity == len(checked)


def test_gates_are_immutable():
    gate = cx(0, 1)
    with pytest.raises(TypeError):
        gate[1] = 0
    with pytest.raises(AttributeError):
        gate.label = "spare"  # no instance dict either
    circuit = Circuit(2, (gate,))
    with pytest.raises(AttributeError):
        circuit.gates = (cx(1, 0),)
    assert gate == cx(0, 1) and circuit.gates == ((0, 1),)


def test_gate_repr():
    # A gate prints as its qubits, and so do the messages that name it.
    assert repr(cx(0, 1)) == "(0, 1)"
    assert repr(x(3)) == "(3,)"
    assert _violations(2, (cx(0, 0),)) == [
        f"gate 0 (cx): duplicate qubit in {cx(0, 0)!r}"]


def test_gates_and_circuits_survive_pickle():
    gate = ccx(0, 1, 2)
    copy = pickle.loads(pickle.dumps(gate))
    assert copy == gate and gate_kind(copy) is GateKind.TOFFOLI
    circuit = build_adder(AdderFamily.MOD_POW2_PLUS1, 3)
    assert pickle.loads(pickle.dumps(circuit)) == circuit


def _violations(*args, **kwargs) -> list[str]:
    """The errors that building Circuit(*args, **kwargs) raises."""
    with pytest.raises(CircuitValidationError) as excinfo:
        Circuit(*args, **kwargs)
    return excinfo.value.errors


def test_validate_minimal_ok():
    assert Circuit(2, (cx(0, 1),)).gates == (cx(0, 1),)
    # Anything operator.index takes is a qubit or a width.
    wide = Circuit(np.int64(3), (cx(np.int64(0), 2), (True, np.uint8(2))),
                   (Register("A", (np.int64(0), 1)),))
    assert from_text(to_text(wide)) == wide


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


@pytest.mark.parametrize("args,message", [
    ((-1,), "negative width -1"),
    ((2, (), (Register("A", (0, 5)),)), "register A: qubit 5 out of range"),
])
def test_validate_width_and_register_range(args, message):
    assert _violations(*args) == [message]


def test_validate_overlapping_registers():
    errors = _violations(3, (), (
        Register("A", (0, 1)),
        Register("B", (1, 2)),
    ))
    assert any("overlap" in e for e in errors)


def test_validate_reports_every_violation():
    errors = _violations(1, (cx(0, 0), cx(0, 5), ccx(0, 0, 2), x(-1)), (
        Register("A", (0,)),
        Register("B", (0,)),
    ))
    assert errors == [
        "gate 0 (cx): duplicate qubit in (0, 0)",
        "gate 1 (cx): qubit 5 out of range for width 1",
        "gate 2 (ccx): qubit 2 out of range for width 1",
        "gate 2 (ccx): duplicate qubit in (0, 0, 2)",
        "gate 3 (x): qubit -1 out of range for width 1",
        "registers A and B overlap on qubit 0",
    ]


def _gate_errors_one_qubit_at_a_time(width, gates):
    """The gate checks of Circuit, written as a loop over each gate's qubits."""
    errors = []
    for i, gate in enumerate(gates):
        if not 1 <= len(gate) <= 3:
            errors.append(f"gate {i}: {len(gate)} qubits {gate}; a gate acts on 1 to 3")
            continue
        for q in gate:
            if not 0 <= q < width:
                errors.append(
                    f"gate {i} ({gate_kind(gate).value}): qubit {q} out of range "
                    f"for width {width}"
                )
        if len(set(gate)) != len(gate):
            errors.append(
                f"gate {i} ({gate_kind(gate).value}): duplicate qubit in {gate}"
            )
    return errors


# Qubits around [0, width): negative, in range and past the end, often
# repeated within a gate.
_ANY_QUBIT = st.integers(-2, 10)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 8), st.lists(st.one_of(
    st.builds(x, _ANY_QUBIT),
    st.builds(cx, _ANY_QUBIT, _ANY_QUBIT),
    st.builds(ccx, _ANY_QUBIT, _ANY_QUBIT, _ANY_QUBIT),
    st.just(()),
    st.tuples(_ANY_QUBIT, _ANY_QUBIT, _ANY_QUBIT, _ANY_QUBIT),
), max_size=12))
def test_gate_checks_match_a_per_qubit_loop(width, gates):
    try:
        Circuit(width, tuple(gates))
        errors = []
    except CircuitValidationError as exc:
        errors = exc.errors
    assert errors == _gate_errors_one_qubit_at_a_time(width, gates)


def test_a_register_listing_a_qubit_twice_says_so():
    assert _violations(3, (), (Register("A", (0, 0)),)) == [
        "register A: qubit 0 listed twice"]
    # Two registers that share a qubit still overlap; a shared name does
    # not make them one register.
    assert _violations(3, (), (Register("A", (1, 2, 1)), Register("B", (2,)))) == [
        "register A: qubit 1 listed twice", "registers A and B overlap on qubit 2"]
    assert _violations(3, (), (Register("A", (0,)), Register("A", (0,)))) == [
        "register name 'A' is used twice", "registers A and A overlap on qubit 0"]


def test_from_text_names_a_qubit_listed_twice_in_a_register():
    with pytest.raises(CircuitValidationError) as excinfo:
        from_text("qubits 3\nreg A 0..1,1 input\n")
    assert excinfo.value.errors == ["register A: qubit 1 listed twice"]


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
    build_adder(AdderFamily.FULL, 3),
    build_adder(AdderFamily.MOD_POW2, 4),
    build_adder(AdderFamily.MOD_POW2_PLUS1, 3),
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
    for circuit in (build_adder(AdderFamily.FULL, 4),
                    build_adder(AdderFamily.MOD_POW2_PLUS1, 2)):
        report = resource_report(circuit)
        assert report.toffoli_depth <= report.toffoli_count
        assert report.cnot_depth <= report.cnot_count


@settings(max_examples=50, deadline=None)
@given(st.permutations(list(range(8))))
def test_depths_invariant_under_wire_relabeling(perm):
    base = build_adder(AdderFamily.MOD_POW2_PLUS1, 1)
    relabeled = Circuit(
        base.width,
        tuple(tuple(perm[q] for q in g) for g in base.gates),
    )
    got = resource_report(relabeled)
    want = resource_report(Circuit(base.width, base.gates))
    assert (got.toffoli_depth, got.cnot_depth, got.total_depth) == (
        want.toffoli_depth, want.cnot_depth, want.total_depth)


_GATE_STRATEGY = st.one_of(
    st.builds(x, st.integers(0, 5)),
    st.builds(cx, *(st.integers(0, 5),) * 2).filter(
        lambda g: len(set(g)) == 2),
    st.builds(ccx, *(st.integers(0, 5),) * 3).filter(
        lambda g: len(set(g)) == 3),
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
    build_adder(AdderFamily.FULL, 1),
    build_adder(AdderFamily.FULL, 5),
    build_adder(AdderFamily.MOD_POW2, 3),
    build_adder(AdderFamily.MOD_POW2_PLUS1, 2),
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
    ("qubits 3\nx 0 1\n", r"line 2: NOT takes 1 qubits, got \(0, 1\)$"),
    ("qubits 3\ncx\n", r"line 2: CNOT takes 2 qubits, got \(\)$"),
    ("qubits 3\nccx 0 q\n", "line 2: invalid literal"),  # before the count
    ("qubits 3\ncx 0 q\n", "line 2: invalid literal"),
    ("qubits 4\nqubits 2\ncx 0 1\n", "line 2: second 'qubits' header"),
])
def test_from_text_names_the_malformed_line(text, message):
    with pytest.raises(ValueError, match=message):
        from_text(text)


def test_repeated_gate_lines_parse_like_gates_built_one_by_one():
    gates = (ccx(0, 1, 2), cx(0, 1), x(3), cx(0, 1), ccx(0, 1, 2), x(3), cx(1, 0))
    text = "qubits 4\n" + "".join(
        " ".join([gate_kind(g).value, *map(str, g)]) + "\n" for g in gates)
    assert from_text(text) == Circuit(4, gates)
    # Spacing is not part of a gate: "cx  0 1" is the same CNOT.
    assert from_text("qubits 2\ncx 0 1\n  cx  0 1\n").gates == (cx(0, 1), cx(0, 1))


def test_a_repeated_malformed_gate_line_names_its_first_occurrence():
    with pytest.raises(ValueError, match="^line 3: TOFFOLI takes 3 qubits"):
        from_text("qubits 3\ncx 0 1\nccx 0 1\ncx 0 1\nccx 0 1\n")


def test_register_names_must_be_unique():
    # register("B") would return the first B, and an adder would lose the
    # second one's wires.
    with pytest.raises(CircuitValidationError) as excinfo:
        from_text("qubits 4\nreg B 0..1 input,output\nreg B 2..3 input\n")
    assert excinfo.value.errors == ["register name 'B' is used twice"]
    errors = _violations(3, (cx(0, 5),), (
        Register("B", (0,)), Register("A", (1,)), Register("B", (2,)),
    ))
    assert errors == ["gate 0 (cx): qubit 5 out of range for width 3",
                      "register name 'B' is used twice"]


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
    (dict(name=None), "circuit name"),
    (dict(meta={"n": 3}), "not one trimmed line"),
    (dict(meta={3: "x"}), "meta key"),
    (dict(registers=(Register(3, (0,)),)), "register name"),
    (dict(gates=((0.5, 1),)), "gate 0: qubits (0.5, 1) are not all integers"),
    (dict(gates=((0, 1), (1.0,), (0, 1))), "gate 1: qubits (1.0,) are not all integers"),
    (dict(width="2"), "width '2' is not an integer"),
    (dict(width=2.0), "width 2.0 is not an integer"),
    (dict(registers=(Register("A", ("x",)),)), "register A: qubit 'x' is not an integer"),
    (dict(meta=None), "meta None is not a mapping"),
    (dict(meta=[("n", "3")]), "is not a mapping"),
    (dict(gates=(5,)), "gate 0: 5 is not a sequence of qubits"),
    (dict(gates=None), "gates None are not a sequence of gates"),
    (dict(registers=None), "registers None are not a sequence of registers"),
    (dict(registers=(Register("A", 5),)), "register A: qubits 5 are not a sequence"),
    # One-shot iterators are refused before a check could use them up.
    (dict(gates=(g for g in [(0, 1), (5,)])), "are not a sequence of gates"),
    (dict(gates=((q for q in (0, 1)),)), "is not a sequence of qubits"),
    (dict(registers=(Register("A", (q for q in (0, 1))),)), "register A: qubits <generator"),
    (dict(registers=(5,)), "register 0: 5 is not a Register"),
])
def test_validate_refuses_what_the_text_format_cannot_carry(circuit, message):
    errors = _violations(**{"width": 2, **circuit})
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


@pytest.mark.parametrize("wires,dtype", [
    (1, np.uint8), (8, np.uint8), (9, np.uint16), (33, np.uint64), (63, np.uint64),
])
def test_read_value_is_as_narrow_as_its_wires(wires, dtype):
    state = np.ones((3, MAX_READ_WIRES), dtype=np.uint8)
    values = read_value(range(wires), state)
    assert values.dtype == dtype
    assert values.tolist() == [2**wires - 1] * 3


def test_read_value_refuses_more_than_63_wires():
    state = np.ones((1, MAX_READ_WIRES + 1), dtype=np.uint8)
    assert read_value(range(MAX_READ_WIRES), state)[0] == 2**MAX_READ_WIRES - 1
    with pytest.raises(ValueError, match="63"):
        read_value(range(MAX_READ_WIRES + 1), state)
