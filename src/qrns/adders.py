"""Builders for the four reversible adder families.

Families
--------
FULL             in-place ripple adder, n-bit inputs, (n+1)-bit sum
MOD_POW2         (A+B) mod 2^n, the (n-1)-bit ripple core of FULL, its carry-out
                 wired into B's top bit
MOD_POW2_MINUS1  (A+B) mod (2^n-1), end-around-carry, two adder stages
MOD_POW2_PLUS1   (A+B) mod (2^n+1) on diminished-1 encoded inputs

``FAMILIES`` gives each family's modulus, smallest n and wiring, and
``build_adder`` builds every family from it.  The circuits are pure
functions of (family, n) and exhaustively verified against the classical
modular oracle in the test suite.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property, lru_cache
from itertools import chain
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from .circuit import (
    TAG_ANCILLA,
    TAG_INPUT,
    TAG_OUTPUT,
    TAG_PASS,
    Circuit,
    Gate,
    Register,
    apply_permutation_batch,
    ccx,
    cx,
    read_value,
    x,
)
from .resources import ResourceReport, resource_report


class AdderFamily(Enum):
    FULL = "full"
    MOD_POW2 = "mod-pow2"
    MOD_POW2_MINUS1 = "mod-pow2-minus1"
    MOD_POW2_PLUS1 = "mod-pow2-plus1"


# --- diminished-1 codec ---------------------------------------------------


def dim1_encode(value: int | np.ndarray, n: int) -> int | np.ndarray:
    """Diminished-1 codeword of ``value`` for modulo (2^n + 1) arithmetic,
    elementwise when ``value`` is an integer array.

    Values 1..2^n are stored as value-1 on the low n bits; 0 is stored as
    2^n, i.e. only the MSB set.  The MSB therefore flags zero.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    values = np.asarray(value)
    if values.size and (values.min() < 0 or values.max() > 2**n):
        raise ValueError(f"value {value} outside [0, {2**n}]")
    return (value - 1) % (2**n + 1)


def dim1_decode(bits: int, n: int) -> int:
    """Value of an (n+1)-bit diminished-1 codeword; inverse of dim1_encode."""
    if not (bits == 2**n or 0 <= bits < 2**n):
        raise ValueError(f"{bits:#x} is not a diminished-1 codeword")
    return 0 if bits >> n else bits + 1


# --- shared ripple-carry core --------------------------------------------


def _ripple_add(gates: list[Gate], xw: list[int], yw: list[int], z: int) -> None:
    """y <- (x+y) mod 2^n, z ^= carry-out; x is restored.

    Carries ripple transiently through the x register (prefix-CNOT trick),
    so no workspace beyond the carry-out wire is needed.
    """
    n = len(xw)
    if n == 1:
        gates.append(ccx(xw[0], yw[0], z))
        gates.append(cx(xw[0], yw[0]))
        return
    for i in range(1, n):
        gates.append(cx(xw[i], yw[i]))
    gates.append(cx(xw[n - 1], z))
    for i in range(n - 2, 0, -1):
        gates.append(cx(xw[i], xw[i + 1]))
    for i in range(n - 1):
        gates.append(ccx(xw[i], yw[i], xw[i + 1]))
    gates.append(ccx(xw[n - 1], yw[n - 1], z))
    for i in range(n - 1, 0, -1):
        gates.append(cx(xw[i], yw[i]))
        gates.append(ccx(xw[i - 1], yw[i - 1], xw[i]))
    for i in range(1, n - 1):
        gates.append(cx(xw[i], xw[i + 1]))
    for i in range(n):
        gates.append(cx(xw[i], yw[i]))


# --- wiring ---------------------------------------------------------------

# What a family's wiring function gives for n: (width, gates, registers).
Wiring = tuple[int, list[Gate], tuple[Register, ...]]


def _full_wiring(n: int) -> Wiring:
    """n-bit + n-bit -> (n+1)-bit sum over 2n+1 qubits.

    B is replaced by the low sum bits, the extra qubit holds the carry-out,
    and A passes through unchanged.  There is no input-carry qubit.
    """
    aw = list(range(n))
    bw = list(range(n, 2 * n))
    cout = 2 * n
    gates: list[Gate] = []
    _ripple_add(gates, aw, bw, cout)
    return 2 * n + 1, gates, (
        Register("A", tuple(aw), frozenset({TAG_INPUT, TAG_PASS})),
        Register("B", tuple(bw), frozenset({TAG_INPUT, TAG_OUTPUT})),
        Register("COUT", (cout,), frozenset({TAG_ANCILLA, TAG_OUTPUT})),
    )


def _mod_pow2_wiring(n: int) -> Wiring:
    """(A+B) mod 2^n into B over 2n qubits; A passes through unchanged."""
    aw = list(range(n))
    bw = list(range(n, 2 * n))
    gates: list[Gate] = []
    if n > 1:
        _ripple_add(gates, aw[:-1], bw[:-1], bw[-1])
    # A's top bit is never written and B's top bit only XORed from other wires,
    # so this CNOT commutes with the core: any slot gives the same permutation.
    # Slot max(n-2, 1) is the recorded order, so every noise draw keeps its gate.
    gates.insert(max(n - 2, 1), cx(aw[-1], bw[-1]))
    return 2 * n, gates, (
        Register("A", tuple(aw), frozenset({TAG_INPUT, TAG_PASS})),
        Register("B", tuple(bw), frozenset({TAG_INPUT, TAG_OUTPUT})),
    )


def _mod_pow2_minus1_wiring(n: int) -> Wiring:
    """(A+B) mod (2^n - 1) into B for inputs in [0, 2^n - 2].

    End-around carry: stage 1 adds A+B producing a carry, stage 2 runs a
    second adder stage folding the carry back in, and a final correction
    maps the all-ones word (the second representation of zero in one's
    complement) to zero.  The correction detects all-ones with a Toffoli
    chain, copies the flag, and uncomputes the chain so the detector
    ancillas end clean.  A passes through unchanged.
    """
    aw = list(range(n))
    bw = list(range(n, 2 * n))
    carry = 2 * n
    zpad = list(range(2 * n + 1, 3 * n))  # high bits of the fold register, stay 0
    carry2 = 3 * n  # fold stage carry-out, provably 0 on legal inputs
    gw = list(range(3 * n + 1, 4 * n))
    flag = 4 * n
    gates: list[Gate] = []
    _ripple_add(gates, aw, bw, carry)
    _ripple_add(gates, [carry] + zpad, bw, carry2)
    chain = [ccx(bw[0], bw[1], gw[0])]
    chain += [ccx(gw[i - 2], bw[i], gw[i - 1]) for i in range(2, n)]
    gates.extend(chain)
    gates.append(cx(gw[n - 2], flag))
    gates.extend(reversed(chain))
    for i in range(n):
        gates.append(cx(flag, bw[i]))
    return 4 * n + 1, gates, (
        Register("A", tuple(aw), frozenset({TAG_INPUT, TAG_PASS})),
        Register("B", tuple(bw), frozenset({TAG_INPUT, TAG_OUTPUT})),
        Register("CARRY", (carry,), frozenset({TAG_ANCILLA})),
        Register("ZPAD", tuple(zpad), frozenset({TAG_ANCILLA})),
        Register("CARRY2", (carry2,), frozenset({TAG_ANCILLA})),
        Register("G", tuple(gw), frozenset({TAG_ANCILLA})),
        Register("FLAG", (flag,), frozenset({TAG_ANCILLA})),
    )


def _qdma_wiring(n: int) -> Wiring:
    """(A+B) mod (2^n + 1) on diminished-1 inputs of n+1 bits each.

    Three steps: (1) ripple-add the n low bits, keeping the carry-out live;
    (2) compute the partial product not(An)*not(Bn)*not(Carry) into a fresh
    qubit with two Toffolis and six NOTs; (3) a half-adder stage adds that
    bit into (An*Bn, S), producing the diminished-1 modulo sum.  B and the
    MSB of A pass through unchanged; the low bits of A end up holding the
    low output bits.
    """
    aw = list(range(n + 1))  # aw[n] is the MSB flag
    bw = list(range(n + 1, 2 * n + 2))
    carry = 2 * n + 2
    tmp = 2 * n + 3
    pprod = 2 * n + 4
    ww = list(range(2 * n + 5, 3 * n + 4))
    mtop = 3 * n + 4
    gates: list[Gate] = []
    # Step 1: S = A_low + B_low with B restored; carries ripple through B.
    _ripple_add(gates, bw[:n], aw[:n], carry)
    # Step 2: partial product of the three inverted bits.
    for q in (aw[n], bw[n], carry):
        gates.append(x(q))
    gates.append(ccx(aw[n], bw[n], tmp))
    gates.append(ccx(tmp, carry, pprod))
    for q in (aw[n], bw[n], carry):
        gates.append(x(q))
    # Step 3: half-adder ripple of the partial product into (An*Bn, S).
    chain = [pprod] + ww + [mtop]
    for i in range(n):
        gates.append(ccx(aw[i], chain[i], chain[i + 1]))
    gates.append(ccx(aw[n], bw[n], mtop))
    for i in range(n):
        gates.append(cx(chain[i], aw[i]))
    return 3 * n + 5, gates, (
        Register("ALOW", tuple(aw[:n]), frozenset({TAG_INPUT, TAG_OUTPUT})),
        Register("AMSB", (aw[n],), frozenset({TAG_INPUT, TAG_PASS})),
        Register("B", tuple(bw), frozenset({TAG_INPUT, TAG_PASS})),
        Register("CARRY", (carry,), frozenset({TAG_ANCILLA})),
        Register("TMP", (tmp,), frozenset({TAG_ANCILLA})),
        Register("PPROD", (pprod,), frozenset({TAG_ANCILLA})),
        *([Register("W", tuple(ww), frozenset({TAG_ANCILLA}))] if ww else []),
        Register("MTOP", (mtop,), frozenset({TAG_ANCILLA, TAG_OUTPUT})),
    )


class FamilySpec(NamedTuple):
    offset: int | None  # the modulus is 2^n + offset; None: no modulus (FULL)
    min_n: int
    wiring: Callable[[int], Wiring]
    code_bits: int  # bits of an operand codeword beyond n
    sum_bits: int  # bits of the measured sum beyond n


# The one place that knows each family's modulus, smallest n, wiring and
# register widths.
FAMILIES: dict[AdderFamily, FamilySpec] = {
    AdderFamily.FULL: FamilySpec(None, 1, _full_wiring, 0, 1),
    AdderFamily.MOD_POW2: FamilySpec(0, 1, _mod_pow2_wiring, 0, 0),
    AdderFamily.MOD_POW2_MINUS1: FamilySpec(-1, 2, _mod_pow2_minus1_wiring, 0, 0),
    AdderFamily.MOD_POW2_PLUS1: FamilySpec(+1, 1, _qdma_wiring, 1, 1),
}


def family_modulus(family: AdderFamily, n: int) -> int | None:
    offset = FAMILIES[family].offset
    return None if offset is None else 2**n + offset


# The largest n any builder accepts.  The paper's adders have n <= 10 and a
# simulation reads at most 63 wires, so a larger n is a typo; unchecked,
# `synth full 100000000` still ran after 20 s (`synth full 4096` takes 0.6 s).
MAX_ADDER_N = 1024


def build_adder(family: AdderFamily, n: int) -> Circuit:
    """The ``family`` adder on n-bit operands, named after its family, with
    its family, n and modulus (if any) in ``meta``."""
    spec = FAMILIES[family]
    if n < spec.min_n:
        raise ValueError(f"n must be >= {spec.min_n}, got {n}")
    if n > MAX_ADDER_N:
        raise ValueError(f"n must be <= {MAX_ADDER_N} (the builder size limit), got {n}")
    width, gates, registers = spec.wiring(n)
    meta = {"family": family.value, "n": str(n)}
    modulus = family_modulus(family, n)
    if modulus is not None:
        meta["modulus"] = str(modulus)
    return Circuit(width=width, gates=tuple(gates), registers=registers,
                   name=family.value, meta=meta)


def family_for_modulus(m: int) -> tuple[AdderFamily, int]:
    """Map a modulus to its one adder family; smallest n wins on ambiguity.

    3 is both 2^1+1 and 2^2-1; it is the 2^1+1 design, which has fewer
    gates and less depth.
    """
    if m < 2:
        raise ValueError(f"modulus must be >= 2, got {m}")
    candidates: list[tuple[int, AdderFamily]] = []
    for family, spec in FAMILIES.items():
        if spec.offset is not None:
            n = (m - spec.offset).bit_length() - 1
            if n >= spec.min_n and family_modulus(family, n) == m:
                candidates.append((n, family))
    if not candidates:
        raise ValueError(f"{m} is not of the form 2^n, 2^n-1 or 2^n+1")
    n, family = min(candidates)
    return family, n


# --- instance harness ------------------------------------------------------


@dataclass(frozen=True)
class AdderInstance:
    """A built circuit plus the value-level semantics needed to drive it.

    ``family`` and ``n`` are read from the circuit's ``meta``.  The register
    tags give the wiring: operand B is register ``B``, operand A is every
    other ``input`` register in order (the 2^n+1 family splits it into ALOW
    and AMSB), and the ``output`` registers in order form the measured
    value.  Only the operand codec depends on the family: the 2^n+1 family
    carries diminished-1 codewords.
    """

    circuit: Circuit
    family: AdderFamily = field(init=False)
    n: int = field(init=False)

    def __post_init__(self) -> None:
        try:
            object.__setattr__(self, "family", AdderFamily(self.circuit.meta["family"]))
            object.__setattr__(self, "n", int(self.circuit.meta["n"]))
        except KeyError as exc:
            raise ValueError("circuit lacks builder metadata (family, n)") from exc
        # The A, B and output wires must have the widths that the family
        # and n give, or operands would be cut to the wires there are.
        if ("B" not in {reg.name for reg in self.circuit.registers}
                or not self.circuit.registers_tagged(TAG_OUTPUT)):
            raise ValueError("register tags do not describe an adder: it needs a "
                             "register 'B' and at least one 'output' register")
        spec = FAMILIES[self.family]
        widths = (len(self.a_wires), len(self.b_wires), len(self.output_wires))
        expected = (self.n + spec.code_bits, self.n + spec.code_bits, self.n + spec.sum_bits)
        if widths != expected:
            raise ValueError(f"A, B and output wires: {widths}, but meta "
                             f"family={self.family.value} n={self.n} needs {expected}")

    @property
    def modulus(self) -> int | None:
        return family_modulus(self.family, self.n)

    @property
    def value_count(self) -> int:
        """Number of legal input values for each operand."""
        return self.modulus or 2**self.n

    @cached_property
    def resources(self) -> ResourceReport:
        return resource_report(self.circuit)

    @cached_property
    def a_wires(self) -> tuple[int, ...]:
        return tuple([q for reg in self.circuit.registers_tagged(TAG_INPUT)
                      if reg.name != "B" for q in reg.qubits])

    @cached_property
    def b_wires(self) -> tuple[int, ...]:
        return self.circuit.register("B").qubits

    @cached_property
    def output_wires(self) -> tuple[int, ...]:
        return tuple([q for reg in self.circuit.registers_tagged(TAG_OUTPUT)
                      for q in reg.qubits])

    def encode_operand(self, value: int | np.ndarray) -> int | np.ndarray:
        """Codeword of a legal operand value, elementwise on an integer array.

        This is the one place that knows the family codec.
        """
        if self.family is AdderFamily.MOD_POW2_PLUS1:
            return dim1_encode(value, self.n)
        return value

    def decode_output(self, bits: int) -> int:
        if self.family is AdderFamily.MOD_POW2_PLUS1:
            return dim1_decode(bits, self.n)
        if self.modulus is not None and bits >= self.modulus:
            raise ValueError(f"{bits:#x} is not a residue of modulus {self.modulus}")
        return bits

    def expected_output_bits(self, a: int | np.ndarray,
                             b: int | np.ndarray) -> int | np.ndarray:
        """Oracle value of the measured register for legal inputs a, b,
        elementwise on integer arrays."""
        if self.modulus is None:
            return a + b
        return self.encode_operand((a + b) % self.modulus)

    def operand_array(self, pairs: Sequence[tuple[int, int]] | np.ndarray) -> np.ndarray:
        """The (a, b) pairs, a sequence or a (pairs, 2) array, as a
        (len(pairs), 2) integer array.

        The array is int64, or holds Python ints when an operand sum may
        not fit int64.  Operands outside [0, value_count), and operands
        that are not integers (floats too), raise ValueError.
        """
        count = self.value_count
        message = f"operands must lie in [0, {count})"
        dtype = np.int64 if count <= 2**62 else object
        malformed = "each operand pair must be two integers"
        try:
            # operator.index refuses floats, which numpy would truncate;
            # an array of bools or integers ("biu") needs no such check.
            if isinstance(pairs, np.ndarray) and pairs.dtype.kind in "biu":
                operands = np.array(pairs, dtype=dtype)
            elif isinstance(pairs, np.ndarray):
                operands = np.fromiter(map(operator.index, pairs.flat), dtype, pairs.size)
            elif {*map(len, pairs)} <= {2}:
                # One fromiter over the flattened pairs skips np.array's
                # nested-sequence discovery; the length test keeps the one
                # check of it that flattening would lose.
                operands = np.fromiter(map(operator.index, chain.from_iterable(pairs)),
                                       dtype, 2 * len(pairs))
            else:
                raise ValueError(malformed)
        except OverflowError:  # an operand beyond int64
            raise ValueError(message) from None
        except TypeError:  # a pair without a length, or an operand that is no integer
            raise ValueError(malformed) from None
        if operands.size and (operands.min() < 0 or operands.max() >= count):
            raise ValueError(message)
        return operands.reshape(len(pairs), 2)

    def input_states(self, pairs: Sequence[tuple[int, int]] | np.ndarray) -> np.ndarray:
        """One basis state per (a, b) pair, the encoded operands on their
        wires and every other wire at zero.

        This is the one operand packer: every noiseless and noisy run
        starts from its rows.  The (pairs, width) array is column-major
        (F-contiguous), so each wire's column is contiguous for the gate
        loop.  Operands outside [0, value_count) raise ValueError.
        """
        codes = self.encode_operand(self.operand_array(pairs))
        columns = np.zeros((self.circuit.width, len(codes)), dtype=np.uint8)
        for wires, column in zip((self.a_wires, self.b_wires), codes.T):
            columns[wires, :] = (column >> np.arange(len(wires))[:, np.newaxis]) & 1
        return columns.T

    def legal_pairs(self) -> Iterator[tuple[int, int]]:
        count = self.value_count
        for a in range(count):
            for b in range(count):
                yield a, b

    def run_pairs(self, pairs: list[tuple[int, int]]) -> np.ndarray:
        """Noiseless measured-register values for each input pair."""
        states = self.input_states(pairs)
        apply_permutation_batch(self.circuit, states)
        return read_value(self.output_wires, states)


def adder_instance(circuit: Circuit) -> AdderInstance:
    """The harness for a circuit produced by one of the builders."""
    return AdderInstance(circuit)


# Distinct (family, n) instances make_adder keeps.  The paper's tables use
# about twenty; a later call for an evicted one builds it again.
MAKE_ADDER_CACHE = 64


@lru_cache(maxsize=MAKE_ADDER_CACHE)
def make_adder(family: AdderFamily, n: int) -> AdderInstance:
    """The instance of the ``family`` adder on n-bit operands.

    Instances are frozen, so one per (family, n) is built and shared by
    every caller.
    """
    return adder_instance(build_adder(family, n))
