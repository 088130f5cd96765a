"""Gate-level IR for classical-reversible (permutation) circuits.

Every representable gate (X, CNOT, Toffoli) permutes computational basis
states, so a circuit here is always a bijection on bitstrings.  A gate is
the plain tuple of its qubits, controls first and target last: (q,) is a
NOT, (c, t) a CNOT and (c1, c2, t) a Toffoli, so its length names its
kind.  Qubit indexing is 0-based and bit 0 of every register is the least
significant bit of the value it carries.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from itertools import chain
from typing import Mapping, Sequence

import numpy as np


class GateKind(Enum):
    """A gate kind: ``value`` is its name in the text format and ``arity``
    the number of qubits it acts on."""

    NOT = "x", 1
    CNOT = "cx", 2
    TOFFOLI = "ccx", 3

    def __new__(cls, text: str, arity: int) -> GateKind:
        kind = object.__new__(cls)
        kind._value_ = text  # so GateKind("ccx") is the Toffoli
        kind.arity = arity
        return kind


# Register tags.  A register may carry several: the sum register of an
# in-place adder is both "input" and "output"; "pass" marks registers the
# builder guarantees to leave bit-identical; "ancilla" registers must
# start in the all-zero state.
TAG_INPUT = "input"
TAG_OUTPUT = "output"
TAG_ANCILLA = "ancilla"
TAG_PASS = "pass"
VALID_TAGS = frozenset({TAG_INPUT, TAG_OUTPUT, TAG_ANCILLA, TAG_PASS})


Gate = tuple[int, ...]  # the gate's qubits; see the module docstring
_KIND_OF_ARITY = {kind.arity: kind for kind in GateKind}


def gate_kind(gate: Gate) -> GateKind:
    """The kind of a gate of 1 to 3 qubits, named by its length."""
    return _KIND_OF_ARITY[len(gate)]


def x(q: int) -> Gate:
    return (q,)


def cx(control: int, target: int) -> Gate:
    return (control, target)


def ccx(c1: int, c2: int, target: int) -> Gate:
    return (c1, c2, target)


@dataclass(frozen=True)
class Register:
    """Named, contiguous-or-not block of wires with role tags."""

    name: str
    qubits: tuple[int, ...]
    tags: frozenset[str] = frozenset({TAG_INPUT})

    def __post_init__(self) -> None:
        bad = self.tags - VALID_TAGS
        if bad:
            raise ValueError(f"unknown register tags {sorted(bad)}")


@dataclass(frozen=True)
class Circuit:
    """Immutable gate list over a fixed qubit count.

    ``name`` identifies the builder that produced the circuit and ``meta``
    carries its parameters (strings only, so circuits round-trip through
    the text format losslessly).
    """

    width: int
    gates: tuple[Gate, ...] = ()
    registers: tuple[Register, ...] = ()
    name: str = ""
    meta: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        errors = _violations(self)
        if errors:
            raise CircuitValidationError(errors)

    def register(self, name: str) -> Register:
        for reg in self.registers:
            if reg.name == name:
                return reg
        raise KeyError(f"no register named {name!r}")

    def registers_tagged(self, tag: str) -> tuple[Register, ...]:
        return tuple([r for r in self.registers if tag in r.tags])

    @cached_property
    def gate_qubits(self) -> np.ndarray:
        """(gates, 3) int64 table: row g is gate g's qubits, padded with -1."""
        table = np.full((len(self.gates), 3), -1, dtype=np.int64)
        for g, qubits in enumerate(self.gates):
            table[g, :len(qubits)] = qubits
        table.flags.writeable = False  # shared by every reader of the circuit
        return table


class CircuitValidationError(ValueError):
    """Raised when a circuit is built that violates a structural invariant;
    ``errors`` lists every violation."""

    def __init__(self, errors: list[str]):
        super().__init__("; ".join(errors))
        self.errors = errors


def _violations(circuit: Circuit) -> list[str]:
    """Every invariant the circuit violates (empty when it is ok)."""
    width = circuit.width
    if not _integer_type(type(width)):  # every range check below compares it
        return [f"width {width!r} is not an integer"]
    errors: list[str] = []
    if width < 0:
        errors.append(f"negative width {width}")
    # A qubit is whatever operator.index takes (np.int64 too), tested per type.
    gates = enumerate(circuit.gates)
    if not all(map(_integer_type, {*map(type, chain.from_iterable(circuit.gates))})):
        errors += [f"gate {i}: qubits {qubits} are not all integers"
                   for i, qubits in gates if not all(map(_integer_type, map(type, qubits)))]
        gates = ()  # ranges are checked only on a circuit of integer qubits
    # Direct comparisons by arity pass a sound gate; messages are built
    # only for a gate that fails.
    for i, qubits in gates:
        arity = len(qubits)
        if arity == 2:
            a, b = qubits
            if 0 <= a < width and 0 <= b < width and a != b:
                continue
        elif arity == 3:
            a, b, c = qubits
            if (0 <= a < width and 0 <= b < width and 0 <= c < width
                    and a != b and a != c and b != c):
                continue
        elif arity == 1:
            if 0 <= qubits[0] < width:
                continue
        else:
            errors.append(f"gate {i}: {arity} qubits {qubits}; a gate acts on 1 to 3")
            continue
        name = gate_kind(qubits).value
        for q in qubits:
            if not 0 <= q < width:
                errors.append(f"gate {i} ({name}): qubit {q} out of range "
                              f"for width {width}")
        if len(set(qubits)) != arity:
            errors.append(f"gate {i} ({name}): duplicate qubit in {qubits}")
    # The text format stores names and meta on whitespace-split lines, so
    # these rules are what keeps every circuit readable by from_text.
    if not _is_one_line(circuit.name):
        errors.append(f"circuit name {circuit.name!r} is not one trimmed line of text")
    if not isinstance(circuit.meta, Mapping):
        errors.append(f"meta {circuit.meta!r} is not a mapping")
    else:
        for key, value in circuit.meta.items():
            if not _is_word(key) or "=" in key:
                errors.append(f"meta key {key!r} is not a non-empty string free of "
                              "'=' and whitespace")
            if not _is_one_line(value):
                errors.append(f"meta {key!r}: value {value!r} is not one trimmed line of text")
    seen: dict[int, int] = {}  # qubit -> index of the first register on it
    names: set[str] = set()
    for r, reg in enumerate(circuit.registers):
        if not _is_word(reg.name):
            errors.append(f"register name {reg.name!r} is not a non-empty string "
                          "free of whitespace")
        if reg.name in names:
            # register() would find only the first of them.
            errors.append(f"register name {reg.name!r} is used twice")
        names.add(reg.name)
        if not reg.qubits:
            errors.append(f"register {reg.name}: no qubits")
        for q in reg.qubits:
            if not _integer_type(type(q)):
                errors.append(f"register {reg.name}: qubit {q!r} is not an integer")
            elif not 0 <= q < width:
                errors.append(f"register {reg.name}: qubit {q} out of range")
            elif q not in seen:
                seen[q] = r
            elif seen[q] == r:
                errors.append(f"register {reg.name}: qubit {q} listed twice")
            else:
                errors.append(f"registers {circuit.registers[seen[q]].name} and "
                              f"{reg.name} overlap on qubit {q}")
    return errors


def _integer_type(kind: type) -> bool:
    return hasattr(kind, "__index__")  # what operator.index takes


# Both take any object: a name or meta entry that is not a string fails.
def _is_word(text: object) -> bool:
    return isinstance(text, str) and text != "" and not any(c.isspace() for c in text)


def _is_one_line(text: object) -> bool:
    return isinstance(text, str) and text == text.strip() and len(text.splitlines()) <= 1


def apply_permutation_batch(circuit: Circuit, states: np.ndarray,
                            flips: tuple[np.ndarray, Sequence[int]] | None = None
                            ) -> np.ndarray:
    """Apply the circuit to many basis states in place.

    ``states`` is a (count, width) uint8 array of 0/1 values; column i is
    qubit i.  Returns the same array for convenience.

    ``flips = (targets, bounds)`` puts bit flips between the gates: after
    gate g, 1 is XORed into the flat column buffer of ``states`` at
    ``targets[bounds[g]:bounds[g + 1]]``, where entry q * count + r is
    row r of qubit q.  Each gate's targets must be distinct.  With flips,
    ``states`` must be column-major (F-contiguous), so that the flat
    buffer is a view of it.
    """
    if states.ndim != 2 or states.shape[1] != circuit.width:
        raise ValueError(f"states must be (*, {circuit.width})")
    if flips is None:
        targets, bounds = (), [0] * (len(circuit.gates) + 1)  # no gate has flips
    else:
        if not states.flags.f_contiguous:
            # The flat view below would be a copy of a row-major array, and
            # the flips would land in the copy.
            raise ValueError("states with flips must be column-major (F-contiguous)")
        columns = states.T.reshape(-1)  # a view: qubit q is [q * count, (q + 1) * count)
        targets, bounds = flips
    # One view per qubit, bound once, so that each gate is one ufunc call
    # writing in place (a Toffoli two, through one reused scratch column)
    # rather than new views and a temporary per gate.  The ufuncs take out
    # as their third argument, and the constant 1 as a 0-d array, which
    # numpy converts faster than a Python int.
    wire = list(states.T)
    scratch = np.empty(states.shape[0], dtype=states.dtype)
    one = np.ones((), dtype=states.dtype)
    for g, q in enumerate(circuit.gates):
        if len(q) == 1:  # NOT
            np.bitwise_xor(wire[q[0]], one, wire[q[0]])
        elif len(q) == 2:  # CNOT
            np.bitwise_xor(wire[q[1]], wire[q[0]], wire[q[1]])
        else:  # Toffoli
            np.bitwise_and(wire[q[0]], wire[q[1]], scratch)
            np.bitwise_xor(wire[q[2]], scratch, wire[q[2]])
        lo, hi = bounds[g], bounds[g + 1]
        if lo < hi:
            # Distinct targets, so the buffered ^= loses no flip.
            columns[targets[lo:hi]] ^= one
    return states


# read_value returns each row's value in the narrowest unsigned dtype that
# holds 2^k - 1 for k wires.  63 wires at most keeps every value below
# 2^63, inside the int64 that operands and oracle codes are computed in.
MAX_READ_WIRES = 63


def check_readable(wires: Sequence[int]) -> None:
    if len(wires) > MAX_READ_WIRES:
        raise ValueError(f"{len(wires)} measured wires exceed the "
                         f"{MAX_READ_WIRES} that fit a signed 64-bit value")


def read_dtype(wires: Sequence[int]) -> np.dtype:
    """The dtype of ``read_value`` on ``wires``: the narrowest unsigned one
    that holds every value of len(wires) bits."""
    return np.min_scalar_type(2**len(wires) - 1)


def read_value(wires: Sequence[int], state: np.ndarray) -> np.ndarray:
    """Read the little-endian integer on ``wires`` from each row of
    ``state``, as an array of ``read_dtype(wires)``."""
    check_readable(wires)
    out = np.zeros(state.shape[0], dtype=read_dtype(wires))
    shifted = np.empty_like(out)
    for i, w in enumerate(wires):
        np.left_shift(state[:, w], i, out=shifted, dtype=out.dtype)
        out |= shifted
    return out


# --- text serialization -------------------------------------------------

_FORMAT_HEADER = "# qrns circuit v1"
_BIT_ORDER_NOTE = "# bit order: qubit i is position i of the state string (LSB first per register)"


def _span_text(qubits: tuple[int, ...]) -> str:
    spans: list[str] = []
    i = 0
    while i < len(qubits):
        j = i
        while j + 1 < len(qubits) and qubits[j + 1] == qubits[j] + 1:
            j += 1
        spans.append(f"{qubits[i]}..{qubits[j]}" if j > i else str(qubits[i]))
        i = j + 1
    return ",".join(spans)


def _parse_span(text: str) -> tuple[int, ...]:
    out: list[int] = []
    for part in text.split(","):
        lo, dots, hi = part.partition("..")
        if not dots:
            out.append(int(part))
        elif int(lo) > int(hi):
            raise ValueError(f"descending span {part!r}")
        else:
            out.extend(range(int(lo), int(hi) + 1))
    return tuple(out)


def _check_field_count(fields: list[str], low: int, high: int) -> None:
    given = len(fields) - 1
    if not low <= given <= high:
        wanted = str(low) if low == high else f"{low} or {high}"
        raise ValueError(f"{fields[0]!r} takes {wanted} fields, got {given}")


def to_text(circuit: Circuit) -> str:
    lines = [_FORMAT_HEADER, _BIT_ORDER_NOTE]
    if circuit.name:
        lines.append(f"# circuit {circuit.name}")
    for key in sorted(circuit.meta):
        lines.append(f"# meta {key}={circuit.meta[key]}")
    lines.append(f"qubits {circuit.width}")
    for reg in circuit.registers:
        tags = ",".join(sorted(reg.tags))
        lines.append(f"reg {reg.name} {_span_text(reg.qubits)} {tags}")
    # Each qubit is converted to text once, and a gate's arity names its
    # kind (Circuit has checked both).
    names = [str(q) for q in range(circuit.width)]
    not_text, cnot_text, toffoli_text = (GateKind.NOT.value, GateKind.CNOT.value,
                                         GateKind.TOFFOLI.value)
    for qubits in circuit.gates:
        if len(qubits) == 2:
            a, b = qubits
            lines.append(f"{cnot_text} {names[a]} {names[b]}")
        elif len(qubits) == 3:
            a, b, c = qubits
            lines.append(f"{toffoli_text} {names[a]} {names[b]} {names[c]}")
        else:
            lines.append(f"{not_text} {names[qubits[0]]}")
    return "\n".join(lines) + "\n"


def from_text(text: str) -> Circuit:
    """Parse the text format of to_text.

    A malformed line raises ValueError("line N: ...").  A well-formed text
    whose circuit breaks an invariant of Circuit raises
    CircuitValidationError.
    """
    width = -1
    name = ""
    meta: dict[str, str] = {}
    registers: list[Register] = []
    gates: list[Gate] = []
    kinds = {k.value: k for k in GateKind}
    # Each distinct gate line is parsed once: an adder's uncompute half
    # repeats its compute half's lines, and a gate is an immutable tuple,
    # so a repeat appends the same object.  The memo lives for this call only.
    parsed: dict[str, Gate] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        gate = parsed.get(line)
        if gate is not None:
            gates.append(gate)
            continue
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("circuit "):
                name = body[len("circuit "):].strip()
            elif body.startswith("meta "):
                key, _, value = body[len("meta "):].partition("=")
                meta[key.strip()] = value.strip()
            continue
        fields = line.split()
        try:
            kind = kinds.get(fields[0])
            if kind is not None:  # almost every line is a gate
                arity = len(fields) - 1
                if arity != kind.arity:  # bad literals still raise first
                    raise ValueError(f"{kind.name} takes {kind.arity} qubits, "
                                     f"got {tuple([int(field) for field in fields[1:]])}")
                # Unrolled by arity: int() per field beats tuple(map(int, ...)).
                if arity == 2:
                    qubits = (int(fields[1]), int(fields[2]))
                elif arity == 3:
                    qubits = (int(fields[1]), int(fields[2]), int(fields[3]))
                else:
                    qubits = (int(fields[1]),)
                parsed[line] = qubits
                gates.append(qubits)
            elif fields[0] == "qubits":
                _check_field_count(fields, 1, 1)
                if width >= 0:
                    raise ValueError(f"second 'qubits' header (the first gave {width})")
                width = int(fields[1])
                if width < 0:
                    raise ValueError(f"qubit count must be >= 0, got {width}")
            elif fields[0] == "reg":
                _check_field_count(fields, 2, 3)
                tags = frozenset(fields[3].split(",")) if len(fields) > 3 else frozenset()
                registers.append(Register(fields[1], _parse_span(fields[2]), tags))
            else:
                raise ValueError(f"cannot parse {raw!r}")
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from exc
    if width < 0:
        raise ValueError("missing 'qubits' header")
    return Circuit(width, tuple(gates), tuple(registers), name, meta)
