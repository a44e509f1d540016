import math
from fractions import Fraction

import numpy as np
import pytest

from oracles import luroth_cylinders, luroth_partial_sum
from selfsim import (
    InputError,
    LurothDigits,
    ResourceCapError,
    beta_prop10,
    beta_theorem4,
    figure_intervals,
    luroth_decode,
    luroth_encode,
    luroth_ifs,
    matveev_degree,
    solve_moran,
    theoretical_beta,
    validate_disjointness,
)


def test_luroth_ifs_geometry():
    ifs = luroth_ifs((2, 3))
    by_symbol = {s: m for s, m in zip(ifs.symbols, ifs.maps)}
    assert by_symbol[2].ratio == pytest.approx(1 / 2)
    assert by_symbol[2].translation == pytest.approx(1 / 2)
    assert by_symbol[3].ratio == pytest.approx(1 / 6)
    assert by_symbol[3].translation == pytest.approx(1 / 3)
    assert validate_disjointness(ifs)


def test_luroth_ifs_single_digit_fixed_point():
    ifs = luroth_ifs((2,))
    (m,) = ifs.maps
    assert m.fixed_point == pytest.approx(1.0)


def test_luroth_ifs_total_length():
    ifs = luroth_ifs(range(2, 11))
    total = math.fsum(m.ratio for m in ifs.maps)
    assert total == pytest.approx(1.0 - 1.0 / 10.0, rel=1e-15)
    assert validate_disjointness(ifs)
    with pytest.raises(InputError):
        luroth_ifs((1, 3))
    with pytest.raises(InputError):
        luroth_ifs(())


def test_encode_known_points():
    assert luroth_encode(1, 6).digits == (2, 2, 2, 2, 2, 2)
    assert luroth_encode(Fraction(2, 5), 6).digits == (3, 3, 3, 3, 3, 3)
    assert luroth_encode(Fraction(1, 2), 6).digits == (3, 2, 2, 2, 2, 2)
    assert luroth_encode(Fraction(2, 3), 6).digits == (2, 4, 2, 2, 2, 2)
    with pytest.raises(InputError):
        luroth_encode(0, 5)
    with pytest.raises(InputError):
        luroth_encode(1.5, 5)


def test_decode_known_values():
    value, tail = luroth_decode((2,))
    assert value == pytest.approx(0.5) and tail == pytest.approx(0.5)
    value, tail = luroth_decode((3,) + (2,) * 19)
    assert abs(value - 0.5) <= 2.0 ** -20
    value, tail = luroth_decode((2, 3, 2), exact=True)
    assert value == Fraction(17, 24) and tail == Fraction(1, 24)
    with pytest.raises(InputError):
        luroth_decode((2, 1, 3))
    with pytest.raises(InputError):
        luroth_decode(())


def test_decode_matches_series_oracle():
    rng = np.random.default_rng(53)
    for _ in range(300):
        digits = tuple(int(d) for d in rng.integers(2, 61, size=int(rng.integers(1, 31))))
        want = luroth_partial_sum(digits)
        assert luroth_decode(digits, exact=True) == want
        assert luroth_decode(digits) == (float(want[0]), float(want[1]))


def test_value_round_trip():
    rng = np.random.default_rng(59)
    for _ in range(500):
        x = float(rng.uniform(1e-6, 1.0))
        digits = luroth_encode(x, 30)
        value, tail = luroth_decode(digits)
        assert abs(value - x) <= 2.0 ** -30 + 1e-12
        assert tail <= 2.0 ** -30


def test_digit_round_trip_through_cylinder_endpoint():
    # A digit block names the half-open cylinder (value, value + tail]; the
    # right endpoint therefore re-encodes to exactly the same block.
    rng = np.random.default_rng(61)
    for _ in range(200):
        digits = tuple(int(d) for d in rng.integers(2, 9, size=25))
        value, tail = luroth_decode(digits, exact=True)
        again = luroth_encode(value + tail, 25)
        assert again.digits == digits


def test_digits_validation():
    with pytest.raises(InputError):
        LurothDigits((2, 1), False)
    # Each digit is checked before the set is hashed and sorted.
    for bad in ([[2]], ["a", 2], [], [2, 10 ** 400]):
        with pytest.raises(InputError):
            luroth_ifs(bad)
    LurothDigits((5, 7, 2), False)


def test_figure_intervals_level1():
    got = figure_intervals((2, 3), 1)
    assert got == ((Fraction(1, 3), Fraction(1, 2)), (Fraction(1, 2), Fraction(1, 1)))


def test_figure_intervals_level3_golden():
    got = figure_intervals((2, 3), 3)
    assert len(got) == 8
    assert got[0] == (Fraction(43, 108), Fraction(29, 72))
    assert got[-1] == (Fraction(7, 8), Fraction(1, 1))
    # Intervals are sorted, disjoint, and shrink by the ratio products.
    for (a1, b1), (a2, b2) in zip(got, got[1:]):
        assert b1 <= a2
    widths = sorted(b - a for a, b in got)
    assert widths[0] == Fraction(1, 6) ** 3
    assert widths[-1] == Fraction(1, 2) ** 3
    with pytest.raises(ResourceCapError):
        figure_intervals((2, 3), 20, cap=100)


def test_figure_intervals_match_fraction_oracle():
    rng = np.random.default_rng(67)
    for _ in range(40):
        digits = tuple(int(d) for d in rng.choice(np.arange(2, 61), size=int(rng.integers(1, 5)),
                                                  replace=False))
        # At most 4096 intervals, so the Fraction oracle stays quick.
        top = max(n for n in range(1, 9) if len(digits) ** n <= 4096)
        level = int(rng.integers(1, top + 1))
        assert figure_intervals(digits, level) == luroth_cylinders(digits, level)


def test_beta_values_golden():
    assert beta_theorem4((2, 3)) == pytest.approx(1.5494002748488316e-11,
                                                  rel=1e-12)
    assert beta_prop10((2, 3)) == pytest.approx(9.007767876534651e-11,
                                                rel=1e-12)
    assert beta_theorem4((2, 3)) > 1e-11
    assert beta_prop10((2, 3)) >= beta_theorem4((2, 3))
    with pytest.raises(InputError):
        beta_theorem4((2,))
    with pytest.raises(InputError):
        beta_prop10((3,))


def test_beta_prop10_matches_generic_formula():
    for digits in ((2, 3), (2, 5), (3, 7), (2, 3, 4)):
        dim = solve_moran(luroth_ifs(digits)).s_star
        a1, a2 = sorted(digits)[:2]
        expect = theoretical_beta(dim, matveev_degree(a1, a2))
        assert beta_prop10(digits) == pytest.approx(expect, rel=1e-12)


def test_beta_monotone_in_digit_set():
    # A richer digit set raises the dimension, and x/(1+2x) is increasing,
    # so the headline exponent for the same two smallest digits grows.
    small = beta_theorem4((2, 3))
    large = beta_theorem4((2, 3, 4))
    assert large > small
