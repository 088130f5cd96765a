"""Resource metrics: gate counts and scheduled depths.

Depth is the layer count of an as-soon-as-possible schedule where two
gates share a layer iff they touch disjoint qubits.  Per-kind depth is
measured on the sub-circuit containing only gates of that kind, with all
other gates removed entirely (they do not block).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .circuit import Circuit, Gate, GateKind


@dataclass(frozen=True)
class ResourceReport:
    qubit_count: int
    toffoli_count: int
    cnot_count: int
    not_count: int
    toffoli_depth: int
    cnot_depth: int
    total_depth: int


def _layered_depth(gates: Iterable[Gate]) -> int:
    last_layer: dict[int, int] = {}
    depth = 0
    for gate in gates:
        layer = 1 + max((last_layer.get(q, 0) for q in gate.qubits), default=0)
        for q in gate.qubits:
            last_layer[q] = layer
        depth = max(depth, layer)
    return depth


def resource_report(circuit: Circuit) -> ResourceReport:
    by_kind = {kind: [g for g in circuit.gates if g.kind is kind] for kind in GateKind}
    return ResourceReport(
        qubit_count=circuit.width,
        toffoli_count=len(by_kind[GateKind.TOFFOLI]),
        cnot_count=len(by_kind[GateKind.CNOT]),
        not_count=len(by_kind[GateKind.NOT]),
        toffoli_depth=_layered_depth(by_kind[GateKind.TOFFOLI]),
        cnot_depth=_layered_depth(by_kind[GateKind.CNOT]),
        total_depth=_layered_depth(circuit.gates),
    )
