"""Acceptance suite: one PASS/FAIL line per criterion, then the assertion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line; under
default capture the lines still appear for any failing criterion.  Each
criterion is self-contained, seeds its own generator, and pins its own
tolerances, so a failure names exactly what broke and with what numbers.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from conftest import random_disjoint_ifs
from oracles import (
    cantor_product_transform,
    overshoot_expectation_dp,
    stationary_phase_expectation,
)
from selfsim import (
    Similitude,
    WeightedIFS,
    auxiliary_measure,
    beta_prop10,
    beta_theorem4,
    decay_fit,
    dyadic_scan,
    figure_intervals,
    luroth_decode,
    luroth_encode,
    luroth_ifs,
    luroth_natural_ifs,
    matveev_degree,
    mu_hat_cylinder,
    phase_test_function,
    renewal_expectation_mc,
    renewal_limit,
    self_similarity_residual,
    solve_moran,
    stopping_words,
    theoretical_beta,
    weakly_diophantine_scan,
)

LUROTH23_DIM_GOLDEN = 0.60096685161367548572


def _report(number: int, ok: bool, detail: str) -> None:
    line = f"criterion {number:02d}: {'PASS' if ok else 'FAIL'}  {detail}"
    print(line, flush=True)
    if not ok:
        pytest.fail(line, pytrace=False)


def _equal_map_ifs(n: int, m: int) -> WeightedIFS:
    # n maps of ratio 1/m spread across [0,1] with equal gaps.
    step = (1.0 - 1.0 / m) / max(n - 1, 1)
    maps = tuple(Similitude(1.0 / m, i * step) for i in range(n))
    return WeightedIFS(tuple(range(n)), maps, tuple(1.0 / n for _ in range(n)))


def _cantor_ifs() -> WeightedIFS:
    return WeightedIFS(
        (0, 1), (Similitude(1 / 3, 0.0), Similitude(1 / 3, 2 / 3)), (0.5, 0.5))


def test_criterion_01_dimension_golden():
    t0 = time.perf_counter()
    sol = solve_moran(luroth_ifs((2, 3)))
    elapsed = time.perf_counter() - t0
    err = abs(sol.s_star - LUROTH23_DIM_GOLDEN)
    ok = err <= 1e-12 and elapsed < 1.0
    _report(1, ok,
            f"digit set {{2,3}} dimension={sol.s_star!r} err={err:.3e} "
            f"(tol 1e-12) elapsed={elapsed:.4f}s (< 1 s)")


def test_criterion_02_closed_form_dimensions():
    worst = 0.0
    cases = 0
    two_map = solve_moran(_cantor_ifs()).s_star
    worst = max(worst, abs(two_map - math.log(2) / math.log(3)))
    cases += 1
    rng = np.random.default_rng(202)
    pairs = [(2, 4), (3, 5), (4, 7), (9, 10)]
    while len(pairs) < 24:
        m = int(rng.integers(3, 13))
        pairs.append((int(rng.integers(2, m)), m))
    for n, m in pairs:
        got = solve_moran(_equal_map_ifs(n, m)).s_star
        worst = max(worst, abs(got - math.log(n) / math.log(m)))
        cases += 1
    ok = worst <= 1e-13
    _report(2, ok,
            f"two-map ratio-1/3 and {cases - 1} equal-map systems, "
            f"worst |dim - logN/logm| = {worst:.3e} (tol 1e-13)")


def test_criterion_03_degree_bounds_and_monotonicity():
    deg = matveev_degree(2, 3)
    in_window = deg > 189369098 and deg < 1.9e8
    rng = np.random.default_rng(303)
    violations = 0
    for _ in range(100):
        a1 = int(rng.integers(2, 1000))
        a2 = int(rng.integers(a1 + 1, a1 + 1000))
        base = matveev_degree(a1, a2)
        if not matveev_degree(a1, a2 + 1) > base:
            violations += 1
        if a1 + 1 < a2 and not matveev_degree(a1 + 1, a2) > base:
            violations += 1
    ok = in_window and violations == 0
    _report(3, ok,
            f"degree(2,3)={deg!r} in (189369098, 1.9e8)={in_window}, "
            f"monotonicity violations={violations}/100 pairs")


def test_criterion_04_decay_exponents():
    thm = beta_theorem4((2, 3))
    prop = beta_prop10((2, 3))
    ok_floor = thm > 1e-11
    ok_order = prop >= thm
    rng = np.random.default_rng(404)
    worst_rel = 0.0
    for _ in range(20):
        size = int(rng.integers(2, 7))
        digits = tuple(sorted(rng.choice(np.arange(2, 61), size=size,
                                         replace=False).tolist()))
        _, dim = luroth_natural_ifs(digits)
        want = theoretical_beta(dim, matveev_degree(digits[0], digits[1]))
        got = beta_prop10(digits)
        worst_rel = max(worst_rel, abs(got - want) / want)
    ok_identity = worst_rel <= 1e-12
    ok_exact = theoretical_beta(1.0, 2.0) == 1.0 / 54.0
    ok = ok_floor and ok_order and ok_identity and ok_exact
    _report(4, ok,
            f"thm4={thm:.6e} (> 1e-11: {ok_floor}), prop10={prop:.6e} "
            f"(>= thm4: {ok_order}), identity worst rel err={worst_rel:.3e} "
            f"over 20 digit sets (tol 1e-12), beta(1,2)==1/54: {ok_exact}")


def test_criterion_05_product_oracle_agreement():
    cantor = _cantor_ifs()
    rng = np.random.default_rng(505)
    t0 = time.perf_counter()
    worst_excess = -math.inf
    for xi in rng.uniform(0.0, 1e3, size=50):
        sample = mu_hat_cylinder(cantor, float(xi), 18.0)
        oracle, oracle_bound = cantor_product_transform(float(xi), 40)
        gap = abs(sample.value - oracle)
        worst_excess = max(worst_excess,
                           gap - (sample.error_bound + oracle_bound))
    elapsed = time.perf_counter() - t0
    ok = worst_excess <= 0.0 and elapsed < 30.0
    _report(5, ok,
            f"Cantor, 50 frequencies in [0,1e3], worst (gap - bounds) = "
            f"{worst_excess:.3e} (<= 0), elapsed={elapsed:.2f}s (< 30 s)")


def test_criterion_06_error_bound_soundness():
    rng = np.random.default_rng(606)
    violations = 0
    for _ in range(200):
        ifs = random_disjoint_ifs(rng)
        xi = float(rng.uniform(0.0, 100.0))
        t = float(rng.uniform(1.0, 6.0))
        coarse = mu_hat_cylinder(ifs, xi, t)
        fine = mu_hat_cylinder(ifs, xi, t + 5.0)
        if abs(coarse.value - fine.value) > (
                coarse.error_bound + fine.error_bound):
            violations += 1
    ok = violations == 0
    _report(6, ok, f"refinement inequality violations={violations}/200 "
                   f"random (IFS, xi, t, t+5) cases")


def test_criterion_07_self_similarity_and_symmetry():
    rng = np.random.default_rng(707)
    residual_violations = 0
    symmetry_violations = 0
    for _ in range(100):
        ifs = random_disjoint_ifs(rng)
        xi = float(rng.uniform(0.0, 80.0))
        t = float(rng.uniform(2.0, 6.0))
        residual = self_similarity_residual(ifs, xi, t)
        parent = mu_hat_cylinder(ifs, xi, t)
        combined = parent.error_bound + sum(
            ifs.weights[k] * mu_hat_cylinder(ifs, ifs.maps[k].ratio * xi,
                                             t).error_bound
            for k in range(ifs.size))
        if residual > combined:
            residual_violations += 1
        plus = mu_hat_cylinder(ifs, xi, t).value
        minus = mu_hat_cylinder(ifs, -xi, t).value
        if minus != plus.conjugate():
            symmetry_violations += 1
    ok = residual_violations == 0 and symmetry_violations == 0
    _report(7, ok,
            f"residual > combined bounds on {residual_violations}/100 cases, "
            f"conjugate symmetry violations={symmetry_violations}/100")


def test_criterion_08_renewal_limit_agreement():
    ifs, _ = luroth_natural_ifs((2, 3))
    lam = auxiliary_measure(ifs)
    s = 0.3
    g = phase_test_function(s)

    one = lambda z: 1.0
    limit_one = renewal_limit(lam, one)
    mc_one = renewal_expectation_mc(lam, one, t=30.0, n_samples=10**5, seed=88)
    ok_unit = (limit_one == (1 + 0j) and mc_one.mc_estimate == (1 + 0j)
               and mc_one.mc_stderr == 0.0)

    # Sampling half: the Monte Carlo estimate of the finite-level E_30
    # against the exact E_30 of the same walk.
    res = renewal_expectation_mc(lam, g, t=30.0, n_samples=10**6, seed=8)
    exact_30 = overshoot_expectation_dp(lam.locations, lam.masses, 30.0, g)
    four_sigma = 4.0 * res.mc_stderr
    ok_mc = abs(res.mc_estimate - exact_30) <= four_sigma

    # Limit half: the quadrature limit E_inf against its closed form.
    limit = renewal_limit(lam, g)
    closed = stationary_phase_expectation(lam.locations, lam.masses, s)
    ok_limit = res.limit_value == limit and abs(limit - closed) <= 1e-10

    # Agreement half: the renewal theorem in averaged form.  E_t itself
    # approaches E_inf slowly and not monotonically (|E_30 - E_inf| is
    # about 0.06), but its average over levels in (0, L] is within
    # 2*l_max/L of E_inf for |g| <= 1.  With steps X_n, partial sums S_n,
    # first-passage index tau(L), overshoot R_t and G(x) = int_0^x g,
    #   int_0^L g(R_t) dt = sum_{n <= tau(L)} G(X_n) - G(R_L),
    # and Wald's identity gives E[sum G(X_n)] = E[tau(L)] * E[G(X)] with
    # E[tau(L)] * sigma = L + E[R_L] and E[G(X)] = sigma * E_inf, so
    #   (1/L) int_0^L E_t dt - E_inf = (E[R_L] * E_inf - E[G(R_L)]) / L,
    # bounded by 2*l_max/L since 0 < R_L <= l_max.  Levels drawn uniformly
    # on (0, L], each with its own seed, make the mean of the per-level
    # estimates an unbiased estimate of that average.
    span, n_levels, per_level = 1000.0, 1000, 100
    rng = np.random.default_rng(808)
    levels = span * (1.0 - rng.random(n_levels))
    est = np.array([
        renewal_expectation_mc(lam, g, t=float(t), n_samples=per_level,
                               seed=80_000 + i).mc_estimate
        for i, t in enumerate(levels)])
    m_bar = complex(est.mean())
    s_hat = float(np.std(est, ddof=1)) / math.sqrt(n_levels)
    bias = 2.0 * lam.max_location / span
    gap = abs(m_bar - limit)
    tolerance = 4.0 * s_hat + bias
    ok_avg = gap <= tolerance

    ok = ok_unit and ok_mc and ok_limit and ok_avg
    _report(8, ok,
            f"g=1 exact both sides: {ok_unit}; phase observable s={s}: "
            f"mc(t=30)={res.mc_estimate:.6f} exact E_30={exact_30:.6f} "
            f"|diff|={abs(res.mc_estimate - exact_30):.4e} "
            f"4*stderr={four_sigma:.4e} within={ok_mc}; "
            f"limit={limit:.6f} closed form={closed:.6f} "
            f"|diff|={abs(limit - closed):.1e} (<= 1e-10: {ok_limit}); "
            f"{n_levels} levels in (0, {span:g}] x {per_level} samples: "
            f"mean={m_bar:.6f} stderr={s_hat:.4e} bias bound={bias:.4e} "
            f"|mean-limit|={gap:.4e} <= 4*stderr+bias={tolerance:.4e}: "
            f"{ok_avg}; info |E_30-E_inf|={abs(exact_30 - limit):.4e}")


def test_criterion_09_diophantine_scan():
    # An arithmetic step law: ratios 1/2 and 1/4 give steps log2 and 2*log2,
    # so the transform returns to 1 exactly at b = 2*pi*k / log2.
    lattice_ifs = WeightedIFS(
        (0, 1), (Similitude(0.5, 0.0), Similitude(0.25, 0.75)), (0.7, 0.3))
    lat = weakly_diophantine_scan(auxiliary_measure(lattice_ifs),
                                  l=2.0, b_max=1e4)
    k = round(lat.scan_argmin * math.log(2) / (2.0 * math.pi))
    predicted = 2.0 * math.pi * k / math.log(2)
    at_predicted = abs(lat.scan_argmin - predicted) <= 1e-6
    ok_lattice = lat.scan_min < 1e-9 and at_predicted and lat.lattice

    ifs, _ = luroth_natural_ifs((2, 3))
    rep = weakly_diophantine_scan(auxiliary_measure(ifs),
                                  l=2.0, b_max=1e4)
    ok_nonlattice = rep.scan_min > 0.0 and not rep.lattice
    ok = ok_lattice and ok_nonlattice
    _report(9, ok,
            f"arithmetic case min={lat.scan_min:.3e} (< 1e-9) at "
            f"b={lat.scan_argmin:.6f} (predicted {predicted:.6f}, k={k}); "
            f"digit set {{2,3}} min={rep.scan_min:.3e} (> 0) over b <= 1e4")


def test_criterion_10_luroth_round_trips():
    rng = np.random.default_rng(1010)
    value_bad = 0
    digit_bad = 0
    tol = 2.0 ** -30 + 1e-12
    for _ in range(10**4):
        x = float(rng.uniform(1e-9, 1.0))
        digits = luroth_encode(x, 30)
        value, _ = luroth_decode(digits)
        if abs(value - x) > tol:
            value_bad += 1
        # The depth-25 cylinder is (value, value + tail]; its right endpoint
        # carries exactly the same leading 25 digits, so re-encoding it must
        # reproduce them.
        head = digits.digits[:25]
        v, tail = luroth_decode(head, exact=True)
        if luroth_encode(v + tail, 25).digits != head:
            digit_bad += 1
    ok = value_bad == 0 and digit_bad == 0
    _report(10, ok,
            f"value round-trip failures={value_bad}/10000 (tol 2^-30+1e-12), "
            f"depth-25 digit round-trip failures={digit_bad}/10000")


def test_criterion_11_stopping_family_properties():
    rng = np.random.default_rng(1111)
    prefix_bad = 0
    mass_bad = 0
    window_bad = 0
    for _ in range(200):
        ifs = random_disjoint_ifs(rng)
        t = float(rng.uniform(1.0, 10.0))
        family = stopping_words(ifs, t)
        seen = {w.symbols for w in family.words}
        for w in family.words:
            if any(w.symbols[:k] in seen for k in range(1, len(w.symbols))):
                prefix_bad += 1
                break
        if abs(family.total_weight - 1.0) > 1e-12:
            mass_bad += 1
        lo = ifs.min_ratio * math.exp(-t)
        hi = math.exp(-t)
        if not all(lo < w.ratio_product <= hi for w in family.words):
            window_bad += 1
    ok = prefix_bad == 0 and mass_bad == 0 and window_bad == 0
    _report(11, ok,
            f"200 random (IFS, t in [1,10]): prefix violations={prefix_bad}, "
            f"mass violations={mass_bad} (tol 1e-12), "
            f"ratio-window violations={window_bad}")


def test_criterion_12_decay_trend_diagnostic():
    ifs, _ = luroth_natural_ifs((2, 3))
    t0 = time.perf_counter()
    _, envelope = dyadic_scan(ifs, xi_max=1e6, points_per_octave=8, t=14.0)
    min_env = min(p.max_abs for p in envelope)
    fit = decay_fit(envelope)
    elapsed = time.perf_counter() - t0
    xs = 2.0 ** np.arange(3, 41)
    synthetic = tuple(
        (float(x), float(3.1 * math.log(x) ** -0.5)) for x in xs)
    recovered = decay_fit(synthetic).beta_hat
    ok = (min_env > 0.0 and fit.beta_hat >= 0.0
          and abs(recovered - 0.5) <= 1e-9 and elapsed < 300.0)
    _report(12, ok,
            f"envelope min={min_env:.6f} (> 0) over {len(envelope)} blocks to "
            f"1e6, beta_hat={fit.beta_hat:.5f} (>= 0), synthetic 0.5 "
            f"recovered as {recovered!r}, elapsed={elapsed:.2f}s (< 300 s)")


def test_criterion_13_level_three_intervals():
    F = Fraction
    # Level-3 cylinders of the {2,3} system, digit maps x/2 + 1/2 and
    # x/6 + 1/3 applied outermost-first, worked by hand:
    #   333: [0,1] -> [1/3,1/2] -> [7/18,5/12] -> [43/108, 29/72]
    #   332: [0,1] -> [1/2,1]   -> [5/12,1/2]  -> [29/72, 5/12]
    #   323: [0,1] -> [1/3,1/2] -> [2/3,3/4]   -> [4/9, 11/24]
    #   322: [0,1] -> [1/2,1]   -> [3/4,1]     -> [11/24, 1/2]
    #   233: [0,1] -> [1/3,1/2] -> [7/18,5/12] -> [25/36, 17/24]
    #   232: [0,1] -> [1/2,1]   -> [5/12,1/2]  -> [17/24, 3/4]
    #   223: [0,1] -> [1/3,1/2] -> [2/3,3/4]   -> [5/6, 7/8]
    #   222: [0,1] -> [1/2,1]   -> [3/4,1]     -> [7/8, 1]
    expected = (
        (F(43, 108), F(29, 72)),
        (F(29, 72), F(5, 12)),
        (F(4, 9), F(11, 24)),
        (F(11, 24), F(1, 2)),
        (F(25, 36), F(17, 24)),
        (F(17, 24), F(3, 4)),
        (F(5, 6), F(7, 8)),
        (F(7, 8), F(1, 1)),
    )
    got = figure_intervals((2, 3), 3)
    ok = got == expected
    _report(13, ok,
            f"level-3 retained intervals: {len(got)} computed, exact rational "
            f"match={ok}, first={got[0][0]}..{got[0][1]}, "
            f"last={got[-1][0]}..{got[-1][1]}")
