import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qrns.adders import AdderFamily
from qrns.rns import (
    ResidueVector,
    RnsSet,
    crt_reconstruct,
    efficiency_percent,
    encode_residues,
    is_pairwise_coprime,
    rns_efficiency,
    rns_range,
)


def brute_force_crt(residues, moduli):
    """Independent oracle: scan [0, prod) for the congruent value."""
    total = math.prod(moduli)
    for candidate in range(total):
        if all(candidate % m == r for r, m in zip(residues, moduli)):
            return candidate
    raise AssertionError("no solution")


@pytest.mark.parametrize("moduli,expected", [
    ((3, 4, 5), True),
    ((3, 9, 4), False),
    ((5, 7, 8, 9), True),
])
def test_is_pairwise_coprime(moduli, expected):
    assert is_pairwise_coprime(moduli) is expected


@pytest.mark.parametrize("moduli,expected", [
    ((3, 4, 5), 60),
    ((5, 8, 9), 360),
    ((7, 8, 9), 504),
])
def test_rns_range(moduli, expected):
    assert rns_range(RnsSet.from_moduli(moduli)) == expected


def test_rns_range_overflow_detection():
    with pytest.raises(ValueError, match="2\\^64 or more"):
        RnsSet.from_moduli((2**31 - 1, 2**31, 2**31 + 1, 5))


def test_rns_set_rejects_non_coprime():
    with pytest.raises(ValueError):
        RnsSet.from_moduli((3, 9, 4))
    with pytest.raises(ValueError):
        RnsSet.from_moduli((1, 2))


def test_rns_set_family_tags():
    rns = RnsSet.from_moduli((3, 4, 5))
    assert rns.families == (
        (AdderFamily.MOD_POW2_PLUS1, 1),
        (AdderFamily.MOD_POW2, 2),
        (AdderFamily.MOD_POW2_PLUS1, 2),
    )


@pytest.mark.parametrize("moduli,k,expected", [
    ((3, 4, 5), 64, Fraction(60, 64)),
    ((7, 8, 9), 512, Fraction(504, 512)),
    ((5, 8, 9), 256, Fraction(1)),
])
def test_rns_efficiency_exact(moduli, k, expected):
    assert rns_efficiency(RnsSet.from_moduli(moduli), k) == expected


def test_efficiency_percent_formatting():
    assert efficiency_percent(Fraction(60, 64)) == "93.75"
    assert efficiency_percent(Fraction(1)) == "100"
    assert efficiency_percent(Fraction(504, 512)) == "98.44"


def test_rns_efficiency_rejects_bad_k():
    with pytest.raises(ValueError):
        rns_efficiency(RnsSet.from_moduli((3, 4, 5)), 0)


def test_efficiency_monotone_in_k():
    rns = RnsSet.from_moduli((3, 4, 5))
    values = [rns_efficiency(rns, k) for k in range(1, 200)]
    assert all(a >= b for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("value,moduli,expected", [
    (23, (3, 4, 5), (2, 3, 3)),
    (0, (3, 4, 5), (0, 0, 0)),
    (59, (3, 4, 5), (2, 3, 4)),
])
def test_encode_residues(value, moduli, expected):
    assert encode_residues(value, RnsSet.from_moduli(moduli)).residues == expected


def test_encode_residues_range_check():
    rns = RnsSet.from_moduli((3, 4, 5))
    with pytest.raises(ValueError):
        encode_residues(60, rns)
    with pytest.raises(ValueError):
        encode_residues(-1, rns)


def test_residue_vector_validation():
    rns = RnsSet.from_moduli((3, 4, 5))
    with pytest.raises(ValueError):
        ResidueVector(rns, (3, 0, 0))
    with pytest.raises(ValueError):
        ResidueVector(rns, (0, 0))


def test_crt_matches_brute_force_oracle():
    rns = RnsSet.from_moduli((3, 4, 5))
    vector = ResidueVector(rns, (2, 3, 3))
    assert crt_reconstruct(vector) == brute_force_crt((2, 3, 3), (3, 4, 5)) == 23
    assert crt_reconstruct(ResidueVector(rns, (0, 2, 2))) == 42


def test_crt_round_trip_exhaustive_small_ranges():
    for moduli in ((3, 4, 5), (5, 8, 9), (7, 8, 9)):
        rns = RnsSet.from_moduli(moduli)
        for value in range(rns_range(rns)):
            assert crt_reconstruct(encode_residues(value, rns)) == value


def test_additive_homomorphism_exhaustive_small():
    rns = RnsSet.from_moduli((3, 4, 5))  # range 60 <= 10^3: all pairs
    total = rns_range(rns)
    for a in range(total):
        ra = encode_residues(a, rns)
        for b in range(total):
            rb = encode_residues(b, rns)
            summed = ResidueVector(rns, tuple(
                (x + y) % m for x, y, m in zip(ra.residues, rb.residues, rns.moduli)))
            assert crt_reconstruct(summed) == (a + b) % total


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2519), st.integers(0, 2519))
def test_additive_homomorphism_random_large(a, b):
    rns = RnsSet.from_moduli((5, 7, 8, 9))  # range 2520
    ra, rb = encode_residues(a, rns), encode_residues(b, rns)
    summed = ResidueVector(rns, tuple(
        (x + y) % m for x, y, m in zip(ra.residues, rb.residues, rns.moduli)))
    assert crt_reconstruct(summed) == (a + b) % 2520


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2519))
def test_crt_round_trip_random_large(value):
    rns = RnsSet.from_moduli((5, 7, 8, 9))
    assert crt_reconstruct(encode_residues(value, rns)) == value
