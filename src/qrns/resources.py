"""Resource metrics: gate counts and scheduled depths.

Depth is the layer count of an as-soon-as-possible schedule where two
gates share a layer iff they touch disjoint qubits.  Per-kind depth is
measured on the sub-circuit containing only gates of that kind, with all
other gates removed entirely (they do not block).
"""
from __future__ import annotations

from dataclasses import dataclass

from .circuit import Circuit, GateKind


@dataclass(frozen=True)
class ResourceReport:
    qubit_count: int
    toffoli_count: int
    cnot_count: int
    not_count: int
    toffoli_depth: int
    cnot_depth: int
    total_depth: int


def resource_report(circuit: Circuit) -> ResourceReport:
    """Counts and the three depths, from one pass over the gates.

    Each schedule holds the last layer it used on every qubit; its depth
    is the largest of them at the end.
    """
    every, toffolis, cnots = ([0] * circuit.width for _ in range(3))
    # A gate's arity names its kind (Gate checks it), and a tuple index by
    # arity is cheaper than a dict lookup by GateKind, which hashes the enum.
    schedules = (None, (every,), (every, cnots), (every, toffolis))
    for gate in circuit.gates:
        qubits = gate.qubits
        for layers in schedules[len(qubits)]:
            layer = 1 + max(map(layers.__getitem__, qubits))
            for q in qubits:
                layers[q] = layer
    kinds = [gate.kind for gate in circuit.gates]
    return ResourceReport(
        qubit_count=circuit.width,
        toffoli_count=kinds.count(GateKind.TOFFOLI),
        cnot_count=kinds.count(GateKind.CNOT),
        not_count=kinds.count(GateKind.NOT),
        toffoli_depth=max(toffolis, default=0),
        cnot_depth=max(cnots, default=0),
        total_depth=max(every, default=0),
    )
