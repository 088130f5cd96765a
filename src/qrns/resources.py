"""Resource metrics: gate counts and scheduled depths.

Depth is the layer count of an as-soon-as-possible schedule where two
gates share a layer iff they touch disjoint qubits.  Per-kind depth is
measured on the sub-circuit containing only gates of that kind, with all
other gates removed entirely (they do not block).
"""
from __future__ import annotations

from dataclasses import dataclass

from .circuit import Circuit


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
    width = circuit.width
    every, toffolis, cnots = [0] * width, [0] * width, [0] * width
    toffoli_count = cnot_count = not_count = 0
    # Unrolled by arity, which names the kind (Circuit checks it): each gate
    # indexes its schedules directly, and a conditional expression takes
    # the larger layer, which is cheaper than a call to max().
    for qubits in circuit.gates:
        if len(qubits) == 2:
            a, b = qubits
            la, lb = every[a], every[b]
            every[a] = every[b] = (la if la > lb else lb) + 1
            la, lb = cnots[a], cnots[b]
            cnots[a] = cnots[b] = (la if la > lb else lb) + 1
            cnot_count += 1
        elif len(qubits) == 3:
            a, b, c = qubits
            la, lb, lc = every[a], every[b], every[c]
            la = la if la > lb else lb
            every[a] = every[b] = every[c] = (la if la > lc else lc) + 1
            la, lb, lc = toffolis[a], toffolis[b], toffolis[c]
            la = la if la > lb else lb
            toffolis[a] = toffolis[b] = toffolis[c] = (la if la > lc else lc) + 1
            toffoli_count += 1
        else:
            every[qubits[0]] += 1
            not_count += 1
    return ResourceReport(
        qubit_count=width,
        toffoli_count=toffoli_count,
        cnot_count=cnot_count,
        not_count=not_count,
        toffoli_depth=max(toffolis, default=0),
        cnot_depth=max(cnots, default=0),
        total_depth=max(every, default=0),
    )
