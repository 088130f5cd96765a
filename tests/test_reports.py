import json

from qrns.noise import DEFAULT_NOISE, NoiseModel
from qrns.reports import ReportKind, build_table1, build_table2


def test_table1_rows_reproducible_from_metadata():
    first = build_table1(DEFAULT_NOISE, shots=25, seed=9)
    second = build_table1(DEFAULT_NOISE, shots=25, seed=9)
    assert first.rows == second.rows
    assert first.kind is ReportKind.TABLE1
    assert first.metadata["seed"] == 9
    assert first.metadata["noise"]["p_cnot"] == DEFAULT_NOISE.p_cnot


def test_table1_flags_minus1_deviations_only():
    document = build_table1(NoiseModel(), shots=1, seed=0)
    by_type = {(row[0], row[1]): row[-1] for row in document.rows}
    # The 2^n and 2^n+1 rows reproduce the reference resources exactly.
    assert by_type[(2, "mod-pow2")] == ""
    assert by_type[(4, "mod-pow2")] == ""
    assert by_type[(8, "mod-pow2")] == ""
    assert by_type[(3, "mod-pow2-plus1")] == ""
    assert by_type[(5, "mod-pow2-plus1")] == ""
    assert by_type[(9, "mod-pow2-plus1")] == ""
    # The end-around-carry rows differ from the cited design and say so.
    assert "ref" in by_type[(3, "mod-pow2-minus1")]
    assert "ref" in by_type[(7, "mod-pow2-minus1")]


def test_table2_reference_columns_and_na():
    document = build_table2([6, 11], efficiency=0.9, noise=NoiseModel(),
                            seed=1, budget=20, shots_mod=2, shots_full=2)
    first, last = document.rows
    columns = dict(zip(document.columns, first))
    assert columns["rns_set"] == "(3, 4, 5)"
    assert columns["efficiency_percent"] == "93.75"
    assert columns["reported_gain_percent"] == 11.36
    last_columns = dict(zip(document.columns, last))
    assert last_columns["mono_probability"] is None
    assert last_columns["gain_percent"] is None
    assert last_columns["reported_mono_probability"] is None
    payload = json.loads(document.to_json())
    assert payload["metadata"]["efficiency"] == 0.9
    assert "depth_source" not in payload["metadata"]

