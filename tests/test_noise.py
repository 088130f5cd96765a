import dataclasses
import math
import re

import numpy as np
import pytest

from qrns.adders import AdderFamily, dim1_encode, make_adder
from qrns.circuit import GateKind, apply_permutation_batch, gate_kind, read_value
from qrns.noise import (
    DEFAULT_NOISE,
    MAX_RANDOM_PAIRS,
    NoiseModel,
    calibrate_noise,
    check_sampling,
    derive_seed,
    output_probability,
    run_shots,
)


def test_noise_model_validation():
    with pytest.raises(ValueError):
        NoiseModel(p_cnot=1.5)
    with pytest.raises(ValueError):
        NoiseModel(p_not=-0.1)
    with pytest.raises(ValueError):
        NoiseModel(p_toffoli=float("nan"))


@pytest.mark.parametrize("field", ["p_not", "p_cnot", "p_toffoli"])
def test_every_rate_refuses_nan(field):
    with pytest.raises(ValueError, match=rf"{field} must be in \[0, 1\]"):
        NoiseModel(**{field: float("nan")})


def test_noise_model_file_round_trip(tmp_path):
    path = tmp_path / "noise.txt"
    DEFAULT_NOISE.to_file(str(path))
    assert NoiseModel.from_file(str(path)) == DEFAULT_NOISE


def test_noise_model_file_text(tmp_path):
    path = tmp_path / "noise.txt"
    DEFAULT_NOISE.to_file(str(path))
    assert path.read_text() == "p_not = 0.0198\np_cnot = 0.011\np_toffoli = 0.0077\n"


def test_noise_model_file_missing_field(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("p_not = 0.1\np_cnot = 0.1\n")
    with pytest.raises(ValueError):
        NoiseModel.from_file(str(path))


@pytest.mark.parametrize("text,message", [
    ("p_not = 0.1\n# comment\n\np_cnot 0.1\np_toffoli = 0.1\n",
     "line 4: expected 'name = value'"),
    ("p_not = 0.1\np_cnot = lots\np_toffoli = 0.1\n",
     "line 2: could not convert string to float"),
    ("p_not = 0.1\np_cnot =\np_toffoli = 0.1\n",
     "line 2: could not convert string to float"),
    ("p_not = 0.1\np_cnot = 0.1\np_toffoli = 0.1\np_measure = 0.5\n",
     "line 4: unknown field 'p_measure'"),
    ("p_not = 0.1\np_cnot = 0.1\np_tofoli = 0.9\np_toffoli = 0.1\n",
     "line 3: unknown field 'p_tofoli'"),
    ("p_not = 0.1\np_cnot = 0.1\np_toffoli = 0.1\np_not = 0.9\n",
     "line 4: repeated field 'p_not'"),
], ids=["no-equals", "not-a-float", "empty-value", "unknown-field", "misspelt-field",
        "repeated-field"])
def test_noise_model_file_malformed_line_names_its_number(tmp_path, text, message):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(ValueError, match=message):
        NoiseModel.from_file(str(path))


def test_derive_seed_is_stable_and_distinct():
    assert derive_seed(1, "a") == derive_seed(1, "a")
    assert derive_seed(1, "a") != derive_seed(1, "b")
    assert derive_seed(1, 2) != derive_seed(12)


def test_run_exact_qdma_example():
    instance = make_adder(AdderFamily.MOD_POW2_PLUS1, 3)
    state = apply_permutation_batch(instance.circuit, instance.input_states([(4, 7)]))
    assert read_value(instance.output_wires, state)[0] == dim1_encode(2, 3)


def test_expected_codes_wider_than_the_output_wires_raise():
    # mod-pow2:8 adds mod 2^8 on 8 output wires.  Labelled as the full
    # adder, its oracle would ask for a + b, up to 510.  Cast to the uint8
    # of the measured values, a sum of 256 + s would wrap to s and match
    # every noiseless shot, so the relabelled instance is never built.
    with pytest.raises(ValueError, match=re.escape(
            "A, B and output wires: (8, 8, 8), but meta family=full n=8 needs (8, 8, 9)")):
        dataclasses.replace(make_adder(AdderFamily.MOD_POW2, 8), family=AdderFamily.FULL)


def test_run_exact_mod4_zero():
    instance = make_adder(AdderFamily.MOD_POW2, 2)
    state = apply_permutation_batch(instance.circuit, instance.input_states([(0, 0)]))
    assert not state.any()


def test_zero_noise_concentrates_on_exact_output():
    instance = make_adder(AdderFamily.MOD_POW2, 2)
    histogram = run_shots(instance.circuit, instance.input_states([(3, 2)]), shots=50,
                          noise=NoiseModel.zero(), seed=1,
                          measure=instance.output_wires)
    assert histogram == {1: 50}


def test_run_shots_deterministic_for_seed():
    instance = make_adder(AdderFamily.MOD_POW2_PLUS1, 2)
    kwargs = dict(inputs=instance.input_states([(2, 3)]), shots=300,
                  noise=DEFAULT_NOISE, measure=instance.output_wires)
    first = run_shots(instance.circuit, seed=42, **kwargs)
    second = run_shots(instance.circuit, seed=42, **kwargs)
    third = run_shots(instance.circuit, seed=43, **kwargs)
    assert first == second
    assert first != third


def test_histogram_totals_equal_shots():
    instance = make_adder(AdderFamily.MOD_POW2, 3)
    histogram = run_shots(instance.circuit, instance.input_states([(5, 6)]), shots=777,
                          noise=DEFAULT_NOISE, seed=9,
                          measure=instance.output_wires)
    assert sum(histogram.values()) == 777


def test_saturated_cnot_noise_gives_half_on_measured_wire():
    # One CNOT, error always fires, each touched qubit flips w.p. 1/2: the
    # measured sum wire is uniform, so the correct outcome shows half the
    # time (closed form, no simulation needed for the expectation).
    instance = make_adder(AdderFamily.MOD_POW2, 1)
    shots = 40_000
    histogram = run_shots(instance.circuit, instance.input_states([(1, 0)]), shots=shots,
                          noise=NoiseModel(p_cnot=1.0), seed=5,
                          measure=instance.output_wires)
    freq = histogram[1] / shots
    sigma = math.sqrt(0.25 / shots)
    assert abs(freq - 0.5) <= 3 * sigma


def test_output_probability_zero_noise_is_one():
    for family, n in [(AdderFamily.MOD_POW2, 1), (AdderFamily.MOD_POW2, 2),
                      (AdderFamily.MOD_POW2_PLUS1, 1),
                      (AdderFamily.MOD_POW2_MINUS1, 2),
                      (AdderFamily.FULL, 3),
                      # The widest that fit int64: full:62 measures 63
                      # wires, mod-pow2:63 draws operands up to 2^63 - 1.
                      (AdderFamily.FULL, 62), (AdderFamily.MOD_POW2, 63)]:
        estimate = output_probability(make_adder(family, n),
                                      NoiseModel.zero(), shots=20, seed=0)
        assert estimate.mean == 1.0


def test_output_probability_exhaustive_cap():
    instance = make_adder(AdderFamily.FULL, 7)  # 2^14 pairs
    with pytest.raises(ValueError):
        output_probability(instance, NoiseModel.zero(), shots=1, seed=0,
                           sampling="exhaustive")
    estimate = output_probability(instance, NoiseModel.zero(), shots=1,
                                  seed=0, sampling=64)
    assert len(estimate.per_pair) == 64


def test_random_pair_count_is_capped():
    instance = make_adder(AdderFamily.FULL, 7)
    check_sampling(instance, MAX_RANDOM_PAIRS)
    for count in (MAX_RANDOM_PAIRS + 1, 10**20):
        with pytest.raises(ValueError,
                           match=rf"pair count must be in \[1, {MAX_RANDOM_PAIRS}\]"):
            output_probability(instance, NoiseModel.zero(), shots=1, seed=0,
                               sampling=count)


def test_output_probability_deterministic():
    instance = make_adder(AdderFamily.MOD_POW2_PLUS1, 1)
    first = output_probability(instance, DEFAULT_NOISE, shots=500, seed=11)
    second = output_probability(instance, DEFAULT_NOISE, shots=500, seed=11)
    assert first == second


def test_stderr_bound():
    instance = make_adder(AdderFamily.MOD_POW2, 1)
    estimate = output_probability(instance, DEFAULT_NOISE, shots=400, seed=2)
    assert estimate.stderr_bound == math.sqrt(0.25 / 400)


def test_probability_monotone_in_each_noise_parameter():
    # 3-sigma statistical check per the contract; large shot budget.
    instance = make_adder(AdderFamily.MOD_POW2_PLUS1, 1)
    shots = 4000
    base = output_probability(instance, NoiseModel(0.01, 0.01, 0.01),
                              shots=shots, seed=3).mean
    sigma = math.sqrt(0.25 / (shots * 9)) * 2  # 9 input pairs, two estimates
    for bumped in (NoiseModel(0.08, 0.01, 0.01),
                   NoiseModel(0.01, 0.08, 0.01),
                   NoiseModel(0.01, 0.01, 0.08)):
        worse = output_probability(instance, bumped, shots=shots, seed=3).mean
        assert worse <= base + 3 * sigma


def test_all_builder_circuits_are_permutation_only():
    # Bit-flip noise is exact only because every gate is classical
    # reversible; guard the gate vocabulary.
    for family, n in [(AdderFamily.FULL, 4), (AdderFamily.MOD_POW2, 3),
                      (AdderFamily.MOD_POW2_MINUS1, 3),
                      (AdderFamily.MOD_POW2_PLUS1, 3)]:
        circuit = make_adder(family, n).circuit
        assert all(gate_kind(g) in (GateKind.NOT, GateKind.CNOT, GateKind.TOFFOLI)
                   for g in circuit.gates)


def test_calibrate_noise_requires_three_targets():
    instance = make_adder(AdderFamily.MOD_POW2, 1)
    with pytest.raises(ValueError):
        calibrate_noise([(instance, 0.995)])


def test_calibrate_noise_all_perfect_targets_returns_zero_model():
    targets = [(make_adder(AdderFamily.MOD_POW2, 1), 1.0),
               (make_adder(AdderFamily.MOD_POW2, 2), 1.0),
               (make_adder(AdderFamily.MOD_POW2, 3), 1.0)]
    result = calibrate_noise(targets, shots=60, seed=1, max_rounds=16)
    model = result.model
    assert model.p_not == 0.0
    assert model.p_cnot == 0.0
    assert model.p_toffoli == 0.0
    assert result.residual == 0.0


def test_output_probability_rejects_empty_shot_and_pair_counts():
    instance = make_adder(AdderFamily.MOD_POW2, 2)
    with pytest.raises(ValueError, match="shots"):
        output_probability(instance, NoiseModel.zero(), shots=0, seed=0)
    with pytest.raises(ValueError, match="pair count"):
        output_probability(instance, NoiseModel.zero(), shots=5, seed=0,
                           sampling=0)
    with pytest.raises(ValueError, match="bad sampling spec 'bogus'"):
        output_probability(instance, NoiseModel.zero(), shots=5, seed=0,
                           sampling="bogus")


def test_more_than_63_measured_wires_are_refused():
    instance = make_adder(AdderFamily.FULL, 63)
    with pytest.raises(ValueError, match="63"):
        output_probability(instance, NoiseModel.zero(), shots=1, seed=0,
                           sampling=1)
    with pytest.raises(ValueError, match="63"):
        run_shots(instance.circuit, instance.input_states([(1, 2)]), shots=1,
                  noise=NoiseModel.zero(), seed=0, measure=instance.output_wires)


@pytest.mark.parametrize("family,n", [
    (AdderFamily.FULL, 2), (AdderFamily.MOD_POW2, 2),
    (AdderFamily.MOD_POW2_MINUS1, 3), (AdderFamily.MOD_POW2_PLUS1, 2),
])
def test_operand_inputs_drive_run_shots_to_the_oracle(family, n):
    instance = make_adder(family, n)
    for a, b in instance.legal_pairs():
        histogram = run_shots(instance.circuit, instance.input_states([(a, b)]),
                              shots=1, noise=NoiseModel.zero(), seed=0,
                              measure=instance.output_wires)
        assert histogram == {instance.expected_output_bits(a, b): 1}


def test_run_shots_takes_exactly_one_input_state():
    instance = make_adder(AdderFamily.MOD_POW2, 2)
    args = dict(shots=1, noise=NoiseModel.zero(), seed=0,
                measure=instance.output_wires)
    for inputs in ({"A": 1, "B": 2}, instance.input_states([(1, 2), (0, 3)]),
                   instance.input_states([(1, 2)])[0],
                   np.zeros((1, instance.circuit.width + 1), dtype=np.uint8)):
        with pytest.raises(ValueError, match="one \\(1, 4\\) state"):
            run_shots(instance.circuit, inputs, **args)
