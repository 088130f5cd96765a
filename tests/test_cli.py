import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qrns
from qrns.adders import MAX_ADDER_N
from qrns.cli import main
from qrns.noise import MAX_RANDOM_PAIRS


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


@pytest.mark.parametrize("argv,moduli", [
    (("--k", "4096"), "(15, 16, 17)"),
    (("--k", "262144", "--max-n", "2"), "(63, 64, 65)"),
])
def test_select_exact_power_shortcut_ignores_the_pool(capsys, argv, moduli):
    # K = 2^(3h) takes (2^h-1, 2^h, 2^h+1) even when max_n leaves those
    # moduli out of the pool; the benchmark's dqc-stream relies on it.
    code, stdout, _ = run_cli(capsys, "select", *argv, "--trace")
    assert code == 0
    assert stdout.startswith(f"selected {moduli}")
    assert "shortcut accepted" in stdout


@pytest.mark.parametrize("a,b", [("8", "0"), ("0", "-1")])
def test_run_operand_outside_range_is_usage_error(capsys, a, b):
    code, stdout, stderr = run_cli(capsys, "run", "--circuit", "full:3",
                                   "--a", a, "--b", b)
    assert code == 1
    assert stdout == ""
    assert "operands must lie in [0, 8)" in stderr


def test_select_infeasible_exit_code(capsys):
    code, _, stderr = run_cli(capsys, "select", "--k", "1000000000")
    assert code == 2
    assert "infeasible" in stderr


@pytest.mark.parametrize("argv", [
    ("select", "--k", str(10**400)),
    ("dqc-add", "--a", "1", "--b", "1", "--k", str(10**400)),
    ("compare", "--sizes", "1100"),
    # A range is not listed: its last size is selected first and refused.
    ("compare", "--sizes", f"6..{10**20}"),
], ids=["select", "dqc-add", "compare", "compare-huge-range"])
def test_k_beyond_every_range_is_infeasible(capsys, argv):
    # E*K >= 2^64 is decided before K meets a float, which it may overflow.
    code, stdout, stderr = run_cli(capsys, *argv)
    assert code == 2
    assert stdout == ""
    assert stderr == ("qrns: infeasible selection: no qualifying moduli set: "
                      "range >= E*K and range < 2^64, but E*K >= 2^64\n")


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


@pytest.mark.parametrize("argv", [
    ("dqc-add", "--a", "100", "--b", "200", "--k", "512", "--seed", "31"),
    ("dqc-add", "--a", "300", "--b", "500", "--k", "1024", "--json"),
])
def test_dqc_add_byte_identical_across_repeats(capsys, argv):
    outputs = [run_cli(capsys, *argv) for _ in range(3)]
    assert outputs[0][0] == 0
    assert outputs[0] == outputs[1] == outputs[2]


@pytest.mark.parametrize("argv", [
    ("run", "--circuit", "mod:5", "--shots", "0"),
    ("run", "--circuit", "mod:5", "--sample", "0"),
    ("run", "--circuit", "mod:5", "--sample", "-3"),
    ("run", "--circuit", "mod:5", "--sample", "some"),
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
    (("calibrate", "--rows", ""), "--rows '' has an empty label ''"),
    (("calibrate", "--rows", "2,,4"), "--rows '2,,4' has an empty label ''"),
    (("select", "--k", "64", "--depth-source", "built"),
     "unrecognized arguments: --depth-source built"),
    (("dqc-add", "--a", "1", "--b", "2", "--k", "64", "--workers", "2"),
     "unrecognized arguments: --workers 2"),
])
def test_bad_options_are_usage_errors(capsys, argv, message):
    code, stdout, stderr = run_cli(capsys, *argv)
    assert code == 1
    assert stdout == ""
    assert message in stderr


def test_select_range_beyond_2_64_is_infeasible(capsys):
    code, stdout, stderr = run_cli(capsys, "select", "--k", str(2**70),
                                   "--max-n", "14")
    assert code == 2
    assert stdout == ""
    assert "range < 2^64" in stderr


def test_select_ranks_moduli_beyond_the_paper_table(capsys):
    code, stdout, _ = run_cli(capsys, "select", "--k", "5000", "--max-n", "4")
    assert code == 0
    assert stdout.startswith("selected (5, 8, 9, 17)")


# Whole outputs, pinned byte for byte: every event, candidate and verdict.
PINNED_SELECT_OUTPUTS = {
    ("--k", "1024", "--trace"): """\
selected (4, 5, 7, 9) (range 1260)
  K=1024 is not an exact power 2^(3h) with h >= 2; enumerating
  C=3: no pairwise-coprime subset reaches E*K = 921.6
  incrementing moduli count to C=4
  C=4: (4, 5, 7, 9) range=1260 maxTdepth=14 -> selected
  C=4: (5, 7, 8, 9) range=2520 maxTdepth=14 -> rejected: larger moduli sum 29 > 25
""",
    ("--k", "5000", "--max-n", "4", "--trace"): """\
selected (5, 8, 9, 17) (range 6120)
  K=5000 is not an exact power 2^(3h) with h >= 2; enumerating
  C=3: no pairwise-coprime subset reaches E*K = 4500
  incrementing moduli count to C=4
  C=4: (5, 8, 9, 17) range=6120 maxTdepth=12 -> selected
  C=4: (5, 9, 16, 17) range=12240 maxTdepth=12 -> rejected: larger moduli sum 47 > 39
  C=4: (5, 7, 9, 16) range=5040 maxTdepth=14 -> rejected: max Toffoli depth 14 > 12 of (5, 8, 9, 17)
  C=4: (5, 7, 9, 17) range=5355 maxTdepth=14 -> rejected: max Toffoli depth 14 > 12 of (5, 8, 9, 17)
  C=4: (7, 8, 9, 17) range=8568 maxTdepth=14 -> rejected: max Toffoli depth 14 > 12 of (5, 8, 9, 17)
  C=4: (3, 7, 16, 17) range=5712 maxTdepth=14 -> rejected: max Toffoli depth 14 > 12 of (5, 8, 9, 17)
  C=4: (5, 7, 16, 17) range=9520 maxTdepth=14 -> rejected: max Toffoli depth 14 > 12 of (5, 8, 9, 17)
  C=4: (7, 9, 16, 17) range=17136 maxTdepth=14 -> rejected: max Toffoli depth 14 > 12 of (5, 8, 9, 17)
  C=4: (4, 7, 15, 17) range=7140 maxTdepth=20 -> rejected: max Toffoli depth 20 > 12 of (5, 8, 9, 17)
  C=4: (7, 8, 15, 17) range=14280 maxTdepth=20 -> rejected: max Toffoli depth 20 > 12 of (5, 8, 9, 17)
  C=4: (7, 15, 16, 17) range=28560 maxTdepth=20 -> rejected: max Toffoli depth 20 > 12 of (5, 8, 9, 17)
  C=4: (5, 7, 8, 17) range=4760 maxTdepth=14 -> rejected: partial coverage (range 4760 < K)
""",
    ("--k", "1024", "--json"): """\
{
  "efficiency": 0.9,
  "k": 1024,
  "moduli": [
    4,
    5,
    7,
    9
  ],
  "range": 1260,
  "trace": [
    "K=1024 is not an exact power 2^(3h) with h >= 2; enumerating",
    "C=3: no pairwise-coprime subset reaches E*K = 921.6",
    "incrementing moduli count to C=4",
    "C=4: (4, 5, 7, 9) range=1260 maxTdepth=14 -> selected",
    "C=4: (5, 7, 8, 9) range=2520 maxTdepth=14 -> rejected: larger moduli sum 29 > 25"
  ]
}
""",
}


@pytest.mark.parametrize("argv", PINNED_SELECT_OUTPUTS, ids=" ".join)
def test_select_output_is_pinned(capsys, argv):
    assert run_cli(capsys, "select", *argv) == (0, PINNED_SELECT_OUTPUTS[argv], "")


def test_select_infeasible_message_is_pinned(capsys):
    pool = ", ".join(map(str, (2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65,
                                 127, 128, 129, 255, 256, 257, 511, 512, 513,
                                 1023, 1024, 1025)))
    assert run_cli(capsys, "select", "--k", str(2**56), "--max-n", "10") == (
        2, "", "qrns: infeasible selection: no qualifying moduli set: "
        f"range >= E*K = 6.48518e+16 and range < 2^64 with pool ({pool}) and C <= 6\n")


def test_select_max_n_beyond_64_prints_what_62_prints(capsys):
    # No modulus of 2^64 or more can be in a set, so the pool stops there and
    # a huge --max-n costs no more memory than --max-n 64.
    assert run_cli(capsys, "select", "--k", "100", "--max-n", "1024") == run_cli(
        capsys, "select", "--k", "100", "--max-n", "62")


# Whole outputs of commands and branches no other test runs, pinned byte for byte.
PINNED_OUTPUTS = {
    ("run", "--circuit", "mod:9", "--a", "4", "--b", "7", "--json"): """\
{
  "a": 4,
  "b": 7,
  "expected": "0001",
  "histogram": {
    "0000": 1,
    "0001": 89,
    "0010": 2,
    "0101": 6,
    "0110": 1,
    "1000": 1
  },
  "seed": 0,
  "shots": 100
}
""",
    ("run", "--circuit", "mod:9", "--shots", "10", "--json"): """\
{
  "circuit": "mod:9",
  "mean_probability": 0.852,
  "pairs": 81,
  "seed": 0,
  "shots": 10,
  "stderr_bound": 0.158114
}
""",
    # Size 11 exceeds the 20-qubit device, so its monolithic columns are N.A.
    ("compare", "--sizes", "6,11"): """\
size  mono_qubits  mono_toffoli_depth  mono_cnot_depth  mono_probability  rns_set       efficiency_percent  max_qubits  max_toffoli_depth  max_cnot_depth  set_probability  gain_percent  reported_mono_probability  reported_set_probability  reported_gain_percent
6     11           9                   10               0.831             (3, 4, 5)     93.75               11          6                  5               0.910            9.45          0.836                      0.931                     11.36
11    21           19                  20               N.A.              (5, 7, 8, 9)  100                 14          14                 14              0.806            N.A.          N.A.                       0.865                     N.A.
""",
    # A size past the paper's table has no reported columns.
    ("compare", "--sizes", "12"): """\
size  mono_qubits  mono_toffoli_depth  mono_cnot_depth  mono_probability  rns_set       efficiency_percent  max_qubits  max_toffoli_depth  max_cnot_depth  set_probability  gain_percent  reported_mono_probability  reported_set_probability  reported_gain_percent
12    23           21                  22               N.A.              (15, 16, 17)  99.61               17          20                 18              0.729            N.A.          N.A.                       N.A.                      N.A.
""",
    # Mod 7's mode is a wrong residue: the sum is wrong, and the set lines
    # give the share of shots that read the correct residues.
    ("dqc-add", "--a", "300", "--b", "500", "--k", "1024",
     "--shots", "5", "--seed", "142"): """\
moduli (4, 5, 7, 9)
  mod 4: top outcome 0 p=1.000
    correct outcome p=1.000
  mod 5: top outcome 0 p=1.000
    correct outcome p=1.000
  mod 7: top outcome 0 p=0.600
    correct outcome p=0.400
  mod 9: top outcome 8 p=1.000
    correct outcome p=1.000
reconstructed sum 980
correct no
set output probability 0.400
end-to-end probability 0.400
""",
    ("dqc-add", "--a", "300", "--b", "500", "--k", "1024",
     "--shots", "5", "--seed", "142", "--json"): """\
{
  "a": 300,
  "b": 500,
  "correct": false,
  "end_to_end_probability": 0.4,
  "jobs": [
    {
      "correct_probability": 1.0,
      "modulus": 4,
      "tie": false,
      "top_probability": 1.0,
      "top_value": 0
    },
    {
      "correct_probability": 1.0,
      "modulus": 5,
      "tie": false,
      "top_probability": 1.0,
      "top_value": 0
    },
    {
      "correct_probability": 0.4,
      "modulus": 7,
      "tie": false,
      "top_probability": 0.6,
      "top_value": 0
    },
    {
      "correct_probability": 1.0,
      "modulus": 9,
      "tie": false,
      "top_probability": 1.0,
      "top_value": 8
    }
  ],
  "k": 1024,
  "moduli": [
    4,
    5,
    7,
    9
  ],
  "reconstructed": 980,
  "seed": 142,
  "set_output_probability": 0.4
}
""",
    # An adder outside Table 1 has no reference row, so no line is flagged.
    ("synth", "mod-pow2", "4"): """\
# qrns circuit v1
# bit order: qubit i is position i of the state string (LSB first per register)
# circuit mod-pow2
# meta family=mod-pow2
# meta modulus=16
# meta n=4
qubits 8
reg A 0..3 input,pass
reg B 4..7 input,output
cx 1 5
cx 2 6
cx 3 7
cx 2 7
cx 1 2
ccx 0 4 1
ccx 1 5 2
ccx 2 6 7
cx 2 6
ccx 1 5 2
cx 1 5
ccx 0 4 1
cx 1 2
cx 0 4
cx 1 5
cx 2 6
qubits         8
toffoli count  5
cnot count     11
not count      0
toffoli depth  5
cnot depth     6
total depth    12
""",
}


@pytest.mark.parametrize("argv", PINNED_OUTPUTS, ids=" ".join)
def test_output_is_pinned(capsys, argv):
    assert run_cli(capsys, *argv) == (0, PINNED_OUTPUTS[argv], "")


@pytest.mark.parametrize("operand", [("--a", "4"), ("--b", "7")])
def test_run_one_operand_is_usage_error(capsys, operand):
    assert run_cli(capsys, "run", "--circuit", "mod:9", *operand) == (
        1, "", "qrns: error: --a and --b must be given together\n")


@pytest.mark.parametrize("sample", ["5", "exhaustive"])
def test_run_one_pair_refuses_sample(capsys, sample):
    assert run_cli(capsys, "run", "--circuit", "mod:9", "--a", "4", "--b", "7",
                   "--sample", sample) == (
        1, "", "qrns: error: --sample applies only without --a and --b\n")


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


@pytest.mark.parametrize("operands", [("--a", "20", "--b", "9"), ()])
def test_run_circuit_file_with_a_wrong_meta_n_is_usage_error(capsys, tmp_path,
                                                             operands):
    # The full:3 circuit claims n=5: its 3-bit registers cannot hold 20.
    path = tmp_path / "full3_n5.txt"
    assert run_cli(capsys, "synth", "full", "3", "--out", str(path))[0] == 0
    path.write_text(path.read_text().replace("# meta n=3\n", "# meta n=5\n"))
    code, stdout, stderr = run_cli(capsys, "run", "--circuit", str(path),
                                   "--noise", "zero", "--shots", "2", *operands)
    assert code == 1
    assert stdout == ""
    assert stderr.startswith("qrns: error: --circuit ")
    assert "A, B and output wires: (3, 3, 4), but meta family=full n=5" in stderr


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


def _write_noise_files(tmp_path):
    (tmp_path / "p_not_2.txt").write_text("p_not = 2\np_cnot = 0\np_toffoli = 0\n")
    (tmp_path / "no_equals.txt").write_text("p_not 0.1\np_cnot = 0\np_toffoli = 0\n")
    (tmp_path / "not_utf8.txt").write_bytes(b"p_not = \xff\xfe\n")
    (tmp_path / "all_ones.txt").write_text("p_not = 1\np_cnot = 1\np_toffoli = 1\n")
    (tmp_path / "p_measure.txt").write_text(
        "p_not = 0\np_cnot = 0\np_toffoli = 0\np_measure = 0.5\n")
    (tmp_path / "p_not_twice.txt").write_text(
        "p_not = 0.1\np_cnot = 0\np_toffoli = 0\np_not = 0.9\n")
    (tmp_path / "a_directory").mkdir()


@pytest.mark.parametrize("argv,message", [
    (("run", "--circuit", "full:7", "--sample", "exhaustive"),
     "16384 input pairs exceed the exhaustive cap"),
    (("run", "--circuit", "mod:5", "--noise", "{tmp}/p_not_2.txt"),
     "p_not must be in [0, 1], got 2"),
    (("run", "--circuit", "mod:5", "--noise", "{tmp}/no_equals.txt"),
     "line 1: expected 'name = value'"),
    (("run", "--circuit", "mod:5", "--noise", "{tmp}/not_utf8.txt"),
     "can't decode byte 0xff"),
    (("run", "--circuit", "mod:5", "--noise", "{tmp}/a_directory"), "Is a directory"),
    (("run", "--circuit", "mod:5", "--noise", "{tmp}/p_measure.txt"),
     "line 4: unknown field 'p_measure'"),
    (("run", "--circuit", "mod:5", "--noise", "{tmp}/p_not_twice.txt"),
     "line 4: repeated field 'p_not'"),
    (("run", "--circuit", "{tmp}/a_directory"), "Is a directory"),
    (("run", "--circuit", "x" * 5000), "File name too long"),
    (("synth", "qdma", "2", "--out", "{tmp}/missing/x.txt"),
     "No such file or directory"),
    (("table1", "--shots", "1", "--csv", "{tmp}/missing/x.csv"),
     "No such file or directory"),
    (("calibrate", "--rows", "2,4,8", "--shots", "5", "--rounds", "1",
      "--out", "{tmp}/missing/m.txt"), "No such file or directory"),
    (("run", "--circuit", "mod:5", "--shots", str(10**20)), "shots must be below 2^63"),
    (("run", "--circuit", "mod:5", "--shots", str(2**63), "--a", "1", "--b", "2"),
     "shots must be below 2^63"),
    (("table1", "--shots", str(2**63)), "shots must be below 2^63"),
    (("calibrate", "--rows", "2,4,8", "--shots", str(10**20)), "shots must be below 2^63"),
    (("dqc-add", "--a", "1", "--b", "2", "--k", "64", "--shots", str(10**20)),
     "shots must be below 2^63"),
    (("run", "--circuit", "full:5", "--sample", str(10**20), "--noise", "zero"),
     f"--sample {10**20}: pair count must be in [1, {MAX_RANDOM_PAIRS}]"),
    (("run", "--circuit", "full:5", "--sample", str(MAX_RANDOM_PAIRS + 1), "--noise",
      "zero"), f"--sample {MAX_RANDOM_PAIRS + 1}: pair count must be in [1, "),
], ids=["exhaustive-over-cap", "noise-rate-above-1", "noise-line-without-equals",
        "noise-not-utf8", "noise-directory", "noise-unknown-field",
        "noise-repeated-field", "circuit-directory",
        "circuit-name-too-long", "synth-out-unwritable", "table1-csv-unwritable",
        "calibrate-out-unwritable", "run-shots-2^63", "run-pair-shots-2^63",
        "table1-shots-2^63", "calibrate-shots-2^63", "dqc-add-shots-2^63",
        "run-sample-10^20", "run-sample-over-cap"])
def test_bad_input_anywhere_exits_1_without_traceback(capsys, tmp_path, argv, message):
    _write_noise_files(tmp_path)
    code, stdout, stderr = run_cli(capsys, *(arg.format(tmp=tmp_path) for arg in argv))
    assert code == 1
    assert stdout == ""
    assert "Traceback" not in stderr
    assert stderr.startswith("qrns: error: ")
    assert message in stderr


def test_repeated_noise_line_names_the_option(capsys, tmp_path):
    _write_noise_files(tmp_path)
    code, _, stderr = run_cli(capsys, "dqc-add", "--a", "1", "--b", "2", "--k", "64",
                              "--noise", str(tmp_path / "p_not_twice.txt"))
    assert code == 1
    assert stderr.startswith("qrns: error: --noise ")
    assert stderr.endswith(": line 4: repeated field 'p_not'\n")


@pytest.mark.parametrize("argv, modulus", [
    # A 2^n+1 job whose modal outcome, 0x5, is no diminished-1 codeword.
    pytest.param(("--a", "3", "--b", "4", "--k", "64", "--seed", "0", "--shots", "20"),
                 5, id="mod-5"),
    # A 2^n-1 job whose modal outcome is the all-ones word, the modulus.
    pytest.param(("--a", "3", "--b", "2", "--k", "1024", "--seed", "18", "--shots", "3"),
                 7, id="mod-7-all-ones"),
])
def test_dqc_add_undecodable_modal_outcome_is_simulation_error(capsys, tmp_path,
                                                               argv, modulus):
    _write_noise_files(tmp_path)
    code, stdout, stderr = run_cli(capsys, "dqc-add", *argv,
                                   "--noise", str(tmp_path / "all_ones.txt"))
    assert code == 3
    assert stdout == ""
    assert f"qrns: simulation error: modulus {modulus}: modal outcome {modulus:#x} " \
           "is not a decodable codeword" in stderr


def test_compare_budget_below_one_is_usage_error(capsys):
    code, stdout, stderr = run_cli(capsys, "compare", "--sizes", "6", "--budget", "-1")
    assert code == 1
    assert stdout == ""
    assert "--budget: must be >= 1" in stderr


@pytest.mark.parametrize("argv", [
    ("table1", "--shots", "5", "--json"),
    ("compare", "--sizes", "6", "--json"),
])
def test_report_json_is_byte_reproducible(capsys, argv):
    first = run_cli(capsys, *argv)
    second = run_cli(capsys, *argv)
    assert first[0] == 0
    assert first[1] == second[1]


@pytest.mark.parametrize("argv", [
    ("synth", "full", str(MAX_ADDER_N + 1)),
    ("run", "--circuit", f"full:{MAX_ADDER_N + 1}"),
], ids=["synth", "run"])
def test_adder_above_the_size_limit_exits_1_naming_it(capsys, argv):
    code, stdout, stderr = run_cli(capsys, *argv)
    assert code == 1
    assert stdout == ""
    assert f"n must be <= {MAX_ADDER_N} (the builder size limit)" in stderr


def test_circuit_spec_errors_name_a_short_spec(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "d").mkdir()
    code, _, stderr = run_cli(capsys, "run", "--circuit", "d")
    assert code == 1
    assert stderr == "qrns: error: --circuit d: Is a directory\n"
    code, _, stderr = run_cli(capsys, "run", "--circuit", "x" * 5000)
    assert code == 1
    assert len(stderr) < 300
    assert f"--circuit {'x' * 59}…: " in stderr


@pytest.mark.parametrize("argv", [
    ("synth", "qdma", "2", "--out"),
    ("calibrate", "--rows", "2,4,8", "--shots", "5", "--rounds", "1", "--out"),
    ("table1", "--shots", "1", "--noise", "zero", "--csv"),
    ("compare", "--sizes", "6", "--noise", "zero", "--csv"),
], ids=["synth-out", "calibrate-out", "table1-csv", "compare-csv"])
@pytest.mark.parametrize("path,start", [
    ("d", "{option} d: Is a directory\n"),
    ("x" * 5000, f"{{option}} {'x' * 59}…: File name too long\n"),
], ids=["directory", "name-too-long"])
def test_output_path_errors_name_their_option(capsys, tmp_path, monkeypatch,
                                              argv, path, start):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "d").mkdir()
    code, stdout, stderr = run_cli(capsys, *argv, path)
    assert code == 1
    assert stdout == ""
    assert stderr == "qrns: error: " + start.format(option=argv[-1])
    assert len(stderr) < 300


@pytest.mark.parametrize("spec,start", [
    ("d", "qrns: error: --noise d: Is a directory\n"),
    ("x" * 5000, f"qrns: error: --noise {'x' * 59}…: "),
    ("bad.txt", "qrns: error: --noise bad.txt: line 2: could not convert "
                "string to float: ' abc'\n"),
], ids=["directory", "name-too-long", "malformed-file"])
def test_noise_spec_errors_name_a_short_spec(capsys, tmp_path, monkeypatch, spec, start):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "d").mkdir()
    (tmp_path / "bad.txt").write_text("p_not = 0.1\np_cnot = abc\np_toffoli = 0\n")
    code, stdout, stderr = run_cli(capsys, "run", "--circuit", "mod:5", "--noise", spec)
    assert code == 1
    assert stdout == ""
    assert stderr.startswith(start)
    assert len(stderr) < 300


def test_closed_stdout_exits_1_quietly():
    # As in `qrns select --k 256 | head -0`: the reader is gone before qrns
    # writes.  No error line, and no "Exception ignored" line at exit.
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=str(Path(qrns.__file__).parents[1]))
    try:
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; from qrns.cli import main; sys.exit(main())",
             "select", "--k", "256", "--trace"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == b""
