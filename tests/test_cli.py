import csv
import io
import json

import pytest

from qrns.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_synth_qdma_writes_circuit_and_report(capsys, tmp_path):
    out = tmp_path / "qdma3.txt"
    code, stdout, _ = run_cli(capsys, "synth", "qdma", "3", "--out", str(out))
    assert code == 0
    compact = {" ".join(line.split()) for line in stdout.splitlines()}
    assert "qubits 14" in compact
    assert "toffoli count 11" in compact
    text = out.read_text()
    assert text.startswith("# qrns circuit v1")
    assert "qubits 14" in text


def test_synth_mod_pow2_1_is_single_cnot(capsys):
    code, stdout, _ = run_cli(capsys, "synth", "mod-pow2", "1")
    assert code == 0
    gate_lines = [l for l in stdout.splitlines()
                  if l and l.split()[0] in ("x", "cx", "ccx")]
    assert gate_lines == ["cx 0 1"]


def test_synth_rejects_bad_n(capsys):
    code, _, stderr = run_cli(capsys, "synth", "full", "0")
    assert code == 1
    assert "n must be >= 1" in stderr


def test_select_rejects_small_k(capsys):
    code, _, stderr = run_cli(capsys, "select", "--k", "49")
    assert code == 1
    assert "K must be >= 50" in stderr


def test_usage_error_exit_code(capsys):
    assert run_cli(capsys, "synth")[0] == 1
    assert run_cli(capsys, "select")[0] == 1
    assert run_cli(capsys, "nonsense")[0] == 1


def test_select_reference_value(capsys):
    code, stdout, _ = run_cli(capsys, "select", "--k", "128")
    assert code == 0
    assert "(4, 5, 9)" in stdout


def test_select_json(capsys):
    code, stdout, _ = run_cli(capsys, "select", "--k", "256", "--json")
    assert code == 0
    payload = json.loads(stdout)
    assert payload["moduli"] == [5, 8, 9]
    assert payload["range"] == 360
    assert any("rejected" in e for e in payload["trace"])


def test_select_infeasible_exit_code(capsys):
    code, _, stderr = run_cli(capsys, "select", "--k", "1000000000")
    assert code == 2
    assert "infeasible" in stderr


def test_run_builder_spec_zero_noise(capsys):
    code, stdout, _ = run_cli(capsys, "run", "--circuit", "qdma:2",
                              "--noise", "zero", "--shots", "5")
    assert code == 0
    assert "mean output probability 1.000" in stdout


def test_run_single_pair_histogram(capsys):
    code, stdout, _ = run_cli(capsys, "run", "--circuit", "mod-pow2:2",
                              "--noise", "zero", "--shots", "7",
                              "--a", "3", "--b", "2")
    assert code == 0
    assert "01       7  expected" in stdout


def test_run_circuit_file(capsys, tmp_path):
    out = tmp_path / "mod4.txt"
    run_cli(capsys, "synth", "mod-pow2", "2", "--out", str(out))
    code, stdout, _ = run_cli(capsys, "run", "--circuit", str(out),
                              "--noise", "zero", "--shots", "3")
    assert code == 0
    assert "mean output probability 1.000" in stdout


def test_run_bad_spec(capsys):
    code, _, stderr = run_cli(capsys, "run", "--circuit", "bogus")
    assert code == 1
    assert "neither" in stderr


def test_run_bad_noise_file(capsys):
    code, _, stderr = run_cli(capsys, "run", "--circuit", "mod:5",
                              "--noise", "/no/such/file")
    assert code == 1


def test_dqc_add_zero_noise(capsys):
    code, stdout, _ = run_cli(capsys, "dqc-add", "--a", "17", "--b", "25",
                              "--k", "64", "--noise", "zero")
    assert code == 0
    assert "reconstructed sum 42" in stdout
    assert "set output probability 1.000" in stdout


def test_dqc_add_byte_identical_across_workers(capsys):
    outputs = []
    for workers in ("1", "2", "8"):
        code, stdout, _ = run_cli(capsys, "dqc-add", "--a", "100", "--b", "200",
                                  "--k", "512", "--seed", "31",
                                  "--workers", workers)
        assert code == 0
        outputs.append(stdout)
    assert outputs[0] == outputs[1] == outputs[2]


@pytest.mark.parametrize("argv", [
    ("run", "--circuit", "mod:5", "--shots", "0"),
    ("run", "--circuit", "mod:5", "--sample", "0"),
    ("run", "--circuit", "mod:5", "--sample", "-3"),
    ("run", "--circuit", "mod:5", "--sample", "some"),
    ("dqc-add", "--a", "1", "--b", "2", "--k", "64", "--workers", "0"),
    ("dqc-add", "--a", "1", "--b", "2", "--k", "64", "--shots", "-1"),
    ("table1", "--shots", "0"),
    ("calibrate", "--shots", "0"),
])
def test_non_positive_counts_are_usage_errors(capsys, argv):
    code, stdout, stderr = run_cli(capsys, *argv)
    assert code == 1
    assert stdout == ""
    assert "Traceback" not in stderr


@pytest.mark.parametrize("argv,message", [
    (("compare", "--sizes", "6", "--efficiency", "0"), "efficiency must be in (0, 1]"),
    (("calibrate", "--rows", "bogus,2"), "unknown --rows labels bogus;"),
    (("calibrate", "--rounds", "-1", "--rows", "2,4,8", "--shots", "5"),
     "--rounds: must be >= 1"),
    (("select", "--k", "1000", "--max-n", "0"), "max_n must be >= 1"),
    (("select", "--k", "20000", "--max-n", "4"),
     "no reference depth for modulus 15; use --depth-source built"),
])
def test_bad_options_are_usage_errors(capsys, argv, message):
    code, stdout, stderr = run_cli(capsys, *argv)
    assert code == 1
    assert stdout == ""
    assert message in stderr


def test_select_range_beyond_2_64_is_infeasible(capsys):
    code, stdout, stderr = run_cli(capsys, "select", "--k", str(2**70),
                                   "--max-n", "14", "--depth-source", "built")
    assert code == 2
    assert stdout == ""
    assert "range < 2^64" in stderr


def test_dqc_add_small_k_is_usage_error(capsys):
    code, _, stderr = run_cli(capsys, "dqc-add", "--a", "1", "--b", "2",
                              "--k", "10")
    assert code == 1
    assert "K must be >= 50" in stderr


def test_run_widest_readable_full_adder(capsys):
    code, stdout, _ = run_cli(capsys, "run", "--circuit", "full:62",
                              "--sample", "16", "--noise", "zero",
                              "--shots", "2")
    assert code == 0
    assert "mean output probability 1.000" in stdout


@pytest.mark.parametrize("extra", [(), ("--a", "1", "--b", "2")])
def test_run_refuses_more_than_63_output_wires(capsys, extra):
    code, stdout, stderr = run_cli(capsys, "run", "--circuit", "full:63",
                                   "--sample", "16", "--noise", "zero", *extra)
    assert code == 1
    assert stdout == ""
    assert "64 measured wires" in stderr


def test_synth_full_63_still_builds(capsys):
    code, stdout, _ = run_cli(capsys, "synth", "full", "63")
    assert code == 0
    assert "qubits 127" in stdout


def test_run_malformed_circuit_file(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("qubits 3\nreg A\n")
    code, _, stderr = run_cli(capsys, "run", "--circuit", str(path))
    assert code == 1
    assert "line 2" in stderr


def test_dqc_add_operand_outside_range_is_usage_error(capsys):
    code, stdout, stderr = run_cli(capsys, "dqc-add", "--a", "-5", "--b", "2",
                                   "--k", "64")
    assert code == 1
    assert stdout == ""
    assert "operands must lie in [0, 60)" in stderr


@pytest.mark.parametrize("sizes,message", [
    ("5", "sizes must be >= 6"),
    ("x", "not a size list"),
    ("8..6", "empty size range"),
])
def test_compare_bad_sizes_are_usage_errors(capsys, sizes, message):
    code, stdout, stderr = run_cli(capsys, "compare", "--sizes", sizes)
    assert code == 1
    assert stdout == ""
    assert message in stderr


def test_run_circuit_file_without_register_b_is_usage_error(capsys, tmp_path):
    path = tmp_path / "no_b.txt"
    path.write_text("# meta family=mod-pow2\n# meta n=1\nqubits 2\n"
                    "reg A 0 input,pass\nreg S 1 input,output\ncx 0 1\n")
    code, stdout, stderr = run_cli(capsys, "run", "--circuit", str(path),
                                   "--noise", "zero", "--shots", "2")
    assert code == 1
    assert stdout == ""
    assert "register 'B'" in stderr


def test_dqc_add_reports_correct_outcome_probability(capsys):
    argv = ("dqc-add", "--a", "300", "--b", "500", "--k", "1024")
    code, stdout, _ = run_cli(capsys, *argv, "--json")
    assert code == 0
    payload = json.loads(stdout)
    assert payload["correct"] is True
    assert payload["reconstructed"] == 800
    for job in payload["jobs"]:
        assert 0.0 < job["correct_probability"] <= 1.0
    code, stdout, _ = run_cli(capsys, *argv)
    assert code == 0
    assert "correct yes" in stdout.splitlines()
    assert stdout.count("correct outcome p=") == len(payload["jobs"])


def test_dqc_add_overflow_is_simulation_error(capsys):
    code, _, stderr = run_cli(capsys, "dqc-add", "--a", "30", "--b", "30",
                              "--k", "64", "--efficiency", "0.9")
    assert code == 3
    assert "range" in stderr


def test_table1_zero_noise_all_ones(capsys):
    code, stdout, _ = run_cli(capsys, "table1", "--noise", "zero",
                              "--shots", "4")
    assert code == 0
    lines = stdout.splitlines()
    assert len(lines) == 9  # header + eight adders
    assert all("1.0" in line for line in lines[1:])


def test_table1_deterministic(capsys):
    first = run_cli(capsys, "table1", "--shots", "30", "--seed", "5")[1]
    second = run_cli(capsys, "table1", "--shots", "30", "--seed", "5")[1]
    assert first == second


def test_table1_json_csv_same_values(capsys, tmp_path):
    csv_path = tmp_path / "t1.csv"
    code, stdout, _ = run_cli(capsys, "table1", "--noise", "zero",
                              "--shots", "3", "--json",
                              "--csv", str(csv_path))
    assert code == 0
    payload = json.loads(stdout)
    with open(csv_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list(payload["columns"])
    for json_row, csv_row in zip(payload["rows"], rows[1:]):
        for json_value, csv_value in zip(json_row, csv_row):
            if json_value is None:
                assert csv_value == ""
            else:
                assert str(json_value) == csv_value


def test_compare_row_shape(capsys, tmp_path):
    csv_path = tmp_path / "cmp.csv"
    code, stdout, _ = run_cli(capsys, "compare", "--sizes", "6,11",
                              "--noise", "zero", "--csv", str(csv_path))
    assert code == 0
    with open(csv_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["rns_set"] == "(3, 4, 5)"
    assert rows[0]["efficiency_percent"] == "93.75"
    assert rows[0]["max_qubits"] == "11"
    assert rows[1]["mono_probability"] == ""  # over budget: N.A.
    assert rows[1]["mono_qubits"] == "21"
    assert rows[1]["rns_set"] == "(5, 7, 8, 9)"


def test_calibrate_trivial_targets(capsys, tmp_path):
    out = tmp_path / "fit.txt"
    code, stdout, _ = run_cli(capsys, "calibrate", "--rows", "2,4,8",
                              "--shots", "40", "--rounds", "3",
                              "--out", str(out))
    assert code == 0
    assert "p_cnot" in stdout
    assert out.exists()
