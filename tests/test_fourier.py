import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_disjoint_ifs
from oracles import cantor_product_transform
from selfsim import (
    InputError,
    ResourceCapError,
    Similitude,
    WeightedIFS,
    decay_fit,
    dyadic_scan,
    fourier,
    mu_hat_cylinder,
    self_similarity_residual,
    solve_t_of_xi,
    stopping_words,
    theoretical_beta,
)
from selfsim.ifs import DEFAULT_WORD_CAP, _stopping_states
from selfsim.luroth import luroth_natural_ifs

EPS = np.finfo(float).eps


@pytest.fixture(scope="module")
def luroth23():
    ifs, _ = luroth_natural_ifs((2, 3))
    return ifs


@pytest.fixture(scope="module")
def cantor():
    return WeightedIFS(
        (0, 1), (Similitude(1 / 3, 0.0), Similitude(1 / 3, 2 / 3)), (0.5, 0.5))


@pytest.fixture(scope="module")
def ninety():
    return WeightedIFS(
        (0, 1), (Similitude(9 / 10, 0.0), Similitude(1 / 20, 19 / 20)), (0.6, 0.4))


def enumerated_sum(ifs, xi, t):
    """Midpoint rule summed word by word over the enumerated stopping family."""
    words = stopping_words(ifs, t).words
    mid = np.array([w.intercept + 0.5 * w.ratio_product for w in words])
    wts = np.array([w.weight_product for w in words])
    terms = wts * np.exp((-2j * math.pi * xi) * mid)
    return complex(math.fsum(terms.real), math.fsum(terms.imag)), len(words)


def assert_matches_enumeration(ifs, xi, t):
    sample = mu_hat_cylinder(ifs, xi, t)
    want, size = enumerated_sum(ifs, xi, t)
    assert sample.cost == size
    assert abs(sample.value - want) <= 4 * EPS * (size + 2 * math.pi * abs(xi))


REFERENCE_XIS = (0.0, 1e-9, -1e-9, 0.37, -0.37, 7.5, -300.0, 4321.0, 1e5, 1e6, -1e6)


def test_mu_hat_matches_enumerated_family(luroth23, cantor, ninety):
    for ifs, ts in ((luroth23, (0.5, 3.0, 9.0, 14.0)), (cantor, (1.0, 2.0, 10.0)),
                    (ninety, (1.0, 4.0, 9.0))):
        for t in ts:
            for xi in REFERENCE_XIS:
                assert_matches_enumeration(ifs, xi, t)
    rng = np.random.default_rng(41)
    for _ in range(30):
        ifs = random_disjoint_ifs(rng)
        t = float(rng.uniform(0.5, 7.0))
        for xi in REFERENCE_XIS:
            assert_matches_enumeration(ifs, xi, t)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), t=st.floats(0.05, 6.0),
       xi=st.floats(-1e6, 1e6, allow_subnormal=False))
def test_mu_hat_matches_enumerated_family_property(seed, t, xi):
    assert_matches_enumeration(random_disjoint_ifs(np.random.default_rng(seed)), xi, t)


def test_mu_hat_at_zero_is_total_mass(luroth23):
    sample = mu_hat_cylinder(luroth23, 0.0, 10.0)
    assert sample.value == pytest.approx(1.0 + 0.0j, abs=1e-12)
    assert sample.error_bound == 0.0


def test_mu_hat_matches_cantor_product(cantor):
    rng = np.random.default_rng(3)
    for xi in rng.uniform(0.0, 500.0, size=12):
        got = mu_hat_cylinder(cantor, float(xi), 14.0)
        want, tail = cantor_product_transform(float(xi), 40)
        assert abs(got.value - want) <= got.error_bound + tail


def test_mu_hat_conjugate_symmetry(luroth23):
    rng = np.random.default_rng(7)
    for xi in rng.uniform(0.1, 200.0, size=20):
        plus = mu_hat_cylinder(luroth23, float(xi), 9.0)
        minus = mu_hat_cylinder(luroth23, -float(xi), 9.0)
        assert minus.value == plus.value.conjugate()  # bitwise


def test_mu_hat_refinement_inequality():
    rng = np.random.default_rng(13)
    for _ in range(30):
        ifs = random_disjoint_ifs(rng)
        xi = float(rng.uniform(0.0, 80.0))
        t = float(rng.uniform(2.0, 7.0))
        coarse = mu_hat_cylinder(ifs, xi, t)
        fine = mu_hat_cylinder(ifs, xi, t + 5.0)
        assert abs(coarse.value - fine.value) <= (
            coarse.error_bound + fine.error_bound)


def test_mu_hat_modulus_bounded(luroth23):
    rng = np.random.default_rng(19)
    for xi in rng.uniform(-300.0, 300.0, size=25):
        sample = mu_hat_cylinder(luroth23, float(xi), 8.0)
        assert abs(sample.value) <= 1.0 + sample.error_bound


def test_self_similarity_residual_small(luroth23):
    for xi in (3.7, 41.0, 250.0):
        residual = self_similarity_residual(luroth23, xi, 12.0)
        combined = math.pi * abs(xi) * math.exp(-12.0) * (
            1.0 + sum(w * m.ratio for w, m in zip(luroth23.weights, luroth23.maps)))
        assert residual <= combined


def test_dyadic_scan_structure(luroth23, cantor, ninety):
    one_map = WeightedIFS((0,), (Similitude(0.5, 0.25),), (1.0,))
    for ifs in (luroth23, cantor, ninety, one_map):
        samples, envelope = dyadic_scan(ifs, 128.0, 4, 9.0)
        assert [e.x for e in envelope] == [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0]
        xs = [s.xi for s in samples]
        assert xs == sorted(xs)
        assert all(s.xi <= 128.0 for s in samples)
        for e in envelope:
            block = [s for s in samples if e.x <= s.xi < 2 * e.x]
            assert e.max_abs == max(abs(s.value) for s in block)
            assert e.error_bound == max(s.error_bound for s in block)
        # A single evaluation equals the grid's sample at the same frequency:
        # the fold does the same arithmetic for a frequency alone.
        for s in samples:
            assert mu_hat_cylinder(ifs, s.xi, 9.0) == s


def test_dyadic_scan_does_not_depend_on_fold_blocks(luroth23, cantor, ninety, monkeypatch):
    # Each fold block holds 1, 2, 3 or 7 frequencies instead of all of them;
    # every sample and envelope point must keep its bits.
    rng = np.random.default_rng(24)
    systems = [luroth23, luroth_natural_ifs((2, 3, 5, 7))[0], cantor, ninety]
    systems += [random_disjoint_ifs(rng) for _ in range(3)]
    for ifs in systems:
        default = dyadic_scan(ifs, 1e4, 5, 10.0)
        levels, _ = _stopping_states(ifs, 10.0, DEFAULT_WORD_CAP)
        widest = max(len(ratio) for ratio, _ in levels)
        for rows in (1, 2, 3, 7):
            with monkeypatch.context() as patch:
                patch.setattr(fourier, "_FOLD_ENTRIES", rows * widest)
                assert dyadic_scan(ifs, 1e4, 5, 10.0) == default


def test_decay_fit_recovers_synthetic_exponent():
    # Envelope values c * (log X)^(-beta) must return beta exactly.
    xs = [2.0 ** k for k in range(3, 24)]
    beta = 0.5
    env = [(x, 1.7 * math.log(x) ** -beta) for x in xs]
    fit = decay_fit(env)
    assert fit.beta_hat == pytest.approx(beta, abs=1e-9)
    assert fit.residual_rms <= 1e-12
    flat = decay_fit([(x, 0.25) for x in xs])
    assert flat.beta_hat == pytest.approx(0.0, abs=1e-12)


def test_decay_fit_window_excludes_small_blocks():
    xs = [2.0 ** k for k in range(0, 12)]
    env = [(x, 0.5) for x in xs]
    fit = decay_fit(env)
    assert fit.window[0] >= math.exp(2.0)
    with pytest.raises(InputError):
        decay_fit([(4.0, 0.5), (8.0, 0.4)])  # not enough usable blocks


def test_theoretical_beta_closed_form():
    assert theoretical_beta(1.0, 2.0) == 1.0 / 54.0
    with pytest.raises(InputError):
        theoretical_beta(1.5, 2.0)
    with pytest.raises(InputError):
        theoretical_beta(0.5, 1.0)


def test_solve_t_of_xi_inverts():
    alpha, l = 1.0, 2.0
    expo = (1.0 + alpha) / ((1.0 + 2.0 * alpha) * (8.0 * l - 7.0))
    for t in (2.0, 5.0, 10.0):
        xi = t ** expo * math.exp(t)
        assert solve_t_of_xi(alpha, l, xi) == pytest.approx(t, abs=1e-12)
    with pytest.raises(InputError):
        solve_t_of_xi(1.0, 2.0, 2.0)  # log(2) < 1, no threshold


def test_mu_hat_validation(luroth23):
    with pytest.raises(InputError):
        mu_hat_cylinder(luroth23, 1.0, 0.0)
    with pytest.raises(ResourceCapError) as err:
        mu_hat_cylinder(luroth23, 1.0, 12.0, cap=50)
    assert "cap" in str(err.value)


def test_fold_cap_counts_table_entries(luroth23):
    # Lüroth {2,3} at t=12 walks 70 states of 3 entries each; its 1989
    # words are never built, so the cap is met by the 210 entries alone.
    assert mu_hat_cylinder(luroth23, 5.0, 12.0, cap=210).cost == 1989
    assert dyadic_scan(luroth23, 64.0, 2, 12.0, cap=210)[0][0].cost == 1989
    for call in (lambda: mu_hat_cylinder(luroth23, 5.0, 12.0, cap=209),
                 lambda: dyadic_scan(luroth23, 64.0, 2, 12.0, cap=209)):
        with pytest.raises(ResourceCapError, match="needs more than cap=209 table entries"):
            call()


@pytest.mark.parametrize("r,b", [(0.99999, 0.0), (0.9, 0.05), (0.5, 0.5), (0.2, 0.3)])
def test_single_map_transform_is_the_fixed_point_phase(r, b):
    # The measure is the point mass at the fixed point b / (1 - r).
    ifs = WeightedIFS((0,), (Similitude(r, b),), (1.0,))
    fixed = b / (1.0 - r)
    for t in (3.0, 12.0):
        samples, _ = dyadic_scan(ifs, 1e3, 4, t)
        for s in samples:
            assert s.cost == 1
            assert abs(s.value - cmath.exp(-2j * math.pi * s.xi * fixed)) <= s.error_bound
        minus, plus = mu_hat_cylinder(ifs, -7.0, t), mu_hat_cylinder(ifs, 7.0, t)
        assert minus.value == plus.value.conjugate()
        assert abs(plus.value - cmath.exp(-14j * math.pi * fixed)) <= plus.error_bound
