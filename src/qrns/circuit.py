"""Gate-level IR for classical-reversible (permutation) circuits.

Every representable gate (X, CNOT, Toffoli) permutes computational basis
states, so a circuit here is always a bijection on bitstrings.  Qubit
indexing is 0-based and bit 0 of every register is the least significant
bit of the value it carries.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping, Sequence

import numpy as np


class GateKind(Enum):
    NOT = "x"
    CNOT = "cx"
    TOFFOLI = "ccx"


ARITY = {GateKind.NOT: 1, GateKind.CNOT: 2, GateKind.TOFFOLI: 3}

# Register tags.  A register may carry several: the sum register of an
# in-place adder is both "input" and "output"; "pass" marks registers the
# builder guarantees to leave bit-identical; "ancilla" registers must
# start in the all-zero state.
TAG_INPUT = "input"
TAG_OUTPUT = "output"
TAG_ANCILLA = "ancilla"
TAG_PASS = "pass"
VALID_TAGS = frozenset({TAG_INPUT, TAG_OUTPUT, TAG_ANCILLA, TAG_PASS})


@dataclass(frozen=True)
class Gate:
    """One reversible gate: controls first, target last."""

    kind: GateKind
    qubits: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.qubits) != ARITY[self.kind]:
            raise ValueError(
                f"{self.kind.name} takes {ARITY[self.kind]} qubits, got {self.qubits}"
            )


def x(q: int) -> Gate:
    return Gate(GateKind.NOT, (q,))


def cx(control: int, target: int) -> Gate:
    return Gate(GateKind.CNOT, (control, target))


def ccx(c1: int, c2: int, target: int) -> Gate:
    return Gate(GateKind.TOFFOLI, (c1, c2, target))


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

    @property
    def size(self) -> int:
        return len(self.qubits)


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
        return tuple(r for r in self.registers if tag in r.tags)


class CircuitValidationError(ValueError):
    """Raised when a circuit is built that violates a structural invariant;
    ``errors`` lists every violation."""

    def __init__(self, errors: list[str]):
        super().__init__("; ".join(errors))
        self.errors = errors


def _violations(circuit: Circuit) -> list[str]:
    """Every invariant the circuit violates (empty when it is ok)."""
    errors: list[str] = []
    if circuit.width < 0:
        errors.append(f"negative width {circuit.width}")
    for i, gate in enumerate(circuit.gates):
        for q in gate.qubits:
            if not 0 <= q < circuit.width:
                errors.append(
                    f"gate {i} ({gate.kind.value}): qubit {q} out of range "
                    f"for width {circuit.width}"
                )
        if len(set(gate.qubits)) != len(gate.qubits):
            errors.append(
                f"gate {i} ({gate.kind.value}): duplicate qubit in {gate.qubits}"
            )
    # The text format stores names and meta on whitespace-split lines, so
    # these rules are what keeps every circuit readable by from_text.
    if not _is_one_line(circuit.name):
        errors.append(f"circuit name {circuit.name!r} is not one trimmed line")
    for key, value in circuit.meta.items():
        if not key or "=" in key or _has_space(key):
            errors.append(f"meta key {key!r} is empty or holds '=' or whitespace")
        if not _is_one_line(value):
            errors.append(f"meta {key!r}: value {value!r} is not one trimmed line")
    seen: dict[int, str] = {}
    for reg in circuit.registers:
        if not reg.name or _has_space(reg.name):
            errors.append(f"register name {reg.name!r} is empty or holds whitespace")
        if not reg.qubits:
            errors.append(f"register {reg.name}: no qubits")
        for q in reg.qubits:
            if not 0 <= q < circuit.width:
                errors.append(f"register {reg.name}: qubit {q} out of range")
            elif q in seen:
                errors.append(
                    f"registers {seen[q]} and {reg.name} overlap on qubit {q}"
                )
            else:
                seen[q] = reg.name
    return errors


def _has_space(text: str) -> bool:
    return any(c.isspace() for c in text)


def _is_one_line(text: str) -> bool:
    return text == text.strip() and len(text.splitlines()) <= 1


def apply_permutation_batch(circuit: Circuit, states: np.ndarray,
                            error_rates: Sequence[float] | None = None,
                            rng: np.random.Generator | None = None) -> np.ndarray:
    """Apply the circuit to many basis states in place.

    ``states`` is a (count, width) uint8 array of 0/1 values; column i is
    qubit i.  Returns the same array for convenience.

    With ``error_rates`` (one probability per gate) and ``rng``, an error
    event follows gate g on each row independently with probability
    ``error_rates[g]`` and flips each qubit the gate touches with
    probability 1/2.  Only the rows that an event hits are drawn, for
    every gate at once, before the gate loop (see ``_draw_errors``).

    A noisy call needs column-major (F-contiguous) ``states``: each qubit
    is then one contiguous column, and a gate's flips go into the flat
    column buffer through one index per (hit row, qubit).
    """
    if states.ndim != 2 or states.shape[1] != circuit.width:
        raise ValueError(f"states must be (*, {circuit.width})")
    rows = states.shape[0]
    bounds = [0] * (len(circuit.gates) + 1)  # noiseless: no gate has error cells
    if error_rates is not None:
        if len(error_rates) != len(circuit.gates) or rng is None:
            raise ValueError("error_rates needs one rate per gate and an rng")
        rates = np.asarray(error_rates, dtype=float)
        if not np.all((rates >= 0.0) & (rates <= 1.0)):
            raise ValueError("error rates must lie in [0, 1]")
        if not states.flags.f_contiguous:
            # The flat view below would be a copy of a row-major array, and
            # the flips would land in the copy.
            raise ValueError("noisy states must be column-major (F-contiguous)")
        columns = states.T.reshape(-1)  # a view: qubit q is [q * rows, (q + 1) * rows)
        cells, flips, bounds = _draw_errors(rates, rows, rng)
    for g, gate in enumerate(circuit.gates):
        q = gate.qubits
        if gate.kind is GateKind.NOT:
            states[:, q[0]] ^= 1
        elif gate.kind is GateKind.CNOT:
            states[:, q[1]] ^= states[:, q[0]]
        else:
            states[:, q[2]] ^= states[:, q[0]] & states[:, q[1]]
        lo, hi = bounds[g], bounds[g + 1]
        if lo < hi:
            # Cell g * rows + r is row r, which qubit q holds at q * rows + r.
            # Cells are distinct and so are a gate's qubits, so no index
            # repeats and the buffered ^= loses no flip.
            columns[cells[lo:hi, np.newaxis] + rows * (np.array(q) - g)] ^= \
                flips[lo:hi, :len(q)]
    return states


def _draw_errors(rates: np.ndarray, rows: int,
                 rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Draw one chunk's error events for all its gates in three calls.

    Returns the hit cells, each a flat index g * rows + r for row r after
    gate g, sorted and distinct; a (cells, 3) array of uniform 0/1 flips,
    of which gate g uses its first arity columns; and the gate bounds:
    gate g's cells are [bounds[g], bounds[g + 1]).

    Gate g puts Poisson(rows * lam) hits on uniform rows, with
    lam = -log(1 - p).  Each row then gets an independent Poisson(lam)
    number of hits and so at least one with probability 1 - e^-lam = p,
    independently across rows and gates.  A row hit m times would get the
    XOR of m uniform flip patterns, which is uniform again, so one pattern
    per distinct cell is the same distribution.  A rate-one gate has an
    infinite lam and takes every row instead.
    """
    gates = rates.size
    full = rates == 1.0
    counts = rng.poisson(rows * -np.log1p(-np.where(full, 0.0, rates)))
    cells = rng.integers(0, rows, size=int(counts.sum()))
    cells += np.repeat(np.arange(gates) * rows, counts)
    if full.any():
        every_row = np.flatnonzero(full)[:, np.newaxis] * rows + np.arange(rows)
        cells = np.concatenate([cells, every_row.ravel()])
    cells.sort()
    cells = cells[np.diff(cells, prepend=-1) != 0]  # first of each run of equal cells
    raw = rng.bit_generator.random_raw(-(-3 * cells.size // 64))
    flips = np.unpackbits(raw.view(np.uint8))[:3 * cells.size].reshape(-1, 3)
    bounds = np.searchsorted(cells, np.arange(gates + 1) * rows).tolist()
    return cells, flips, bounds


def pack_value(values: np.ndarray, wires: Sequence[int], state: np.ndarray) -> None:
    """Write ``values``, one integer per row, little-endian onto ``wires``
    of a (count, width) state."""
    for i, w in enumerate(wires):
        state[:, w] = (values >> i) & 1


# read_value packs each measured row into an int64, so 63 wires at most.
MAX_READ_WIRES = 63


def check_readable(wires: Sequence[int]) -> None:
    if len(wires) > MAX_READ_WIRES:
        raise ValueError(f"{len(wires)} measured wires exceed the "
                         f"{MAX_READ_WIRES} that fit a signed 64-bit value")


def read_value(wires: Sequence[int], state: np.ndarray) -> np.ndarray:
    """Read the little-endian integer on ``wires`` from each row of ``state``."""
    check_readable(wires)
    out = np.zeros(state.shape[0], dtype=np.int64)
    for i, w in enumerate(wires):
        out |= np.left_shift(state[:, w], i, dtype=np.int64)
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
    for gate in circuit.gates:
        lines.append(" ".join([gate.kind.value] + [str(q) for q in gate.qubits]))
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
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
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
            if fields[0] == "qubits":
                _check_field_count(fields, 1, 1)
                width = int(fields[1])
                if width < 0:
                    raise ValueError(f"qubit count must be >= 0, got {width}")
            elif fields[0] == "reg":
                _check_field_count(fields, 2, 3)
                tags = frozenset(fields[3].split(",")) if len(fields) > 3 else frozenset()
                registers.append(Register(fields[1], _parse_span(fields[2]), tags))
            elif fields[0] in kinds:
                gates.append(Gate(kinds[fields[0]], tuple(int(q) for q in fields[1:])))
            else:
                raise ValueError(f"cannot parse {raw!r}")
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from exc
    if width < 0:
        raise ValueError("missing 'qubits' header")
    return Circuit(width, tuple(gates), tuple(registers), name, meta)
