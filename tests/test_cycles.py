"""No qrns entry point leaves reference cycles behind.

Garbage in a cycle waits for the cyclic collector, so memory grows between
its runs.  Each call runs once to warm the caches, then again with the
collector off; the collection that follows must find nothing.
"""
import gc

import pytest

from qrns.adders import AdderFamily, make_adder
from qrns.circuit import from_text, to_text
from qrns.distributed import distributed_add, gain_report
from qrns.noise import DEFAULT_NOISE, output_probability, run_shots
from qrns.reports import build_table1
from qrns.rns import RnsSet
from qrns.select import SelectionError, SelectorConfig, select_rns


def _infeasible_selection():
    try:
        select_rns(SelectorConfig(k=2**56, max_n=10))
    except SelectionError:
        return
    raise AssertionError("K = 2^56 at max_n 10 selected a set")


def _run_shots():
    instance = make_adder(AdderFamily.MOD_POW2_PLUS1, 3)
    run_shots(instance.circuit, instance.input_states([(2, 3)]), shots=200,
              noise=DEFAULT_NOISE, seed=5, measure=instance.output_wires)


CALLS = {
    "select-2^10": lambda: select_rns(SelectorConfig(k=2**10)),
    "select-2^40-max-n-8": lambda: select_rns(SelectorConfig(k=2**40, max_n=8)),
    "select-2^56-infeasible": _infeasible_selection,
    "select-2^12-shortcut": lambda: select_rns(SelectorConfig(k=2**12)),
    "gain-report": lambda: gain_report([8], 0.9, DEFAULT_NOISE),
    "distributed-add": lambda: distributed_add(
        17, 25, RnsSet.from_moduli((3, 4, 5)), DEFAULT_NOISE, shots=100, base_seed=3),
    "output-probability": lambda: output_probability(
        make_adder(AdderFamily.MOD_POW2_MINUS1, 3), DEFAULT_NOISE, shots=50, seed=1),
    "run-shots": _run_shots,
    "text-round-trip": lambda: from_text(to_text(make_adder(AdderFamily.FULL, 4).circuit)),
    "table1": lambda: build_table1(DEFAULT_NOISE, shots=10, seed=0),
}


@pytest.mark.parametrize("call", CALLS.values(), ids=CALLS.keys())
def test_entry_point_leaves_no_cyclic_garbage(call):
    call()
    gc.collect()
    gc.disable()
    try:
        call()
        assert gc.collect() == 0
    finally:
        gc.enable()
