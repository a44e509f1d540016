import math
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import selfsim.diophantine
from oracles import gap_bounds, is_lattice, is_perfect_power, scaled_gap
from selfsim import (
    DiophantineReport,
    InputError,
    ResourceCapError,
    Similitude,
    WeightedIFS,
    auxiliary_measure,
    classify_lattice,
    laplace_transform,
    lattice_test,
    matveev_degree,
    matveev_log_constant,
    perfect_power_free,
    weakly_diophantine_scan,
)
from selfsim.cli import parse_spec
from selfsim.diophantine import SCAN_CHUNK, TILE, _gap_bounds, _scaled_gap, _workspace
from selfsim.luroth import luroth_ifs, luroth_natural_ifs


@pytest.fixture(scope="module")
def luroth_lambda():
    ifs, _ = luroth_natural_ifs((2, 3))
    return auxiliary_measure(ifs)


@pytest.fixture(scope="module")
def lattice_lambda():
    # Step sizes log 2 and log 4 share the lattice span log 2.
    ifs = WeightedIFS(
        (0, 1), (Similitude(0.5, 0.0), Similitude(0.25, 0.75)), (0.7, 0.3))
    return auxiliary_measure(ifs)


def test_auxiliary_measure_atoms(luroth_lambda):
    locs = luroth_lambda.locations
    masses = luroth_lambda.masses
    assert locs == pytest.approx((math.log(2), math.log(6)), abs=1e-15)
    assert masses == pytest.approx((0.659311955892103, 0.340688044107897),
                                   abs=1e-14)
    assert math.fsum(masses) == pytest.approx(1.0, abs=1e-12)
    assert luroth_lambda.sigma == pytest.approx(
        masses[0] * math.log(2) + masses[1] * math.log(6), rel=1e-14)


def test_auxiliary_measure_merges_equal_steps():
    # Two maps with the same ratio collapse onto one atom.
    ifs = WeightedIFS(
        (0, 1), (Similitude(0.25, 0.0), Similitude(0.25, 0.5)), (0.6, 0.4))
    lam = auxiliary_measure(ifs)
    assert len(lam.atoms) == 1
    assert lam.locations[0] == pytest.approx(math.log(4))
    assert lam.masses[0] == pytest.approx(1.0)


def test_laplace_transform_normalization(luroth_lambda):
    assert laplace_transform(luroth_lambda, 0.0) == pytest.approx(1.0 + 0.0j)
    # Derivative at 0 along the real axis is -sigma.
    h = 1e-7
    numeric = (laplace_transform(luroth_lambda, h).real - 1.0) / h
    assert numeric == pytest.approx(-luroth_lambda.sigma, abs=1e-6)


@pytest.mark.parametrize("digits", [(2, 3), (2, 3, 5, 7)])
def test_laplace_transform_off_the_axis(digits):
    lam = auxiliary_measure(luroth_natural_ifs(digits)[0])
    rng = np.random.default_rng(sum(digits))
    z = rng.uniform(-2.0, 2.0, 3000) + 1j * rng.uniform(-1e4, 1e4, 3000)
    values = laplace_transform(lam, z)
    assert values.shape == z.shape and values.dtype == complex
    # Each term's phase -z*l carries a relative error of a few u, which
    # becomes an absolute error of |z|*l times the term's modulus.
    scale = 4.0 * 2.0 ** -53 * (np.abs(z) * lam.max_location + 1.0) * sum(
        m * np.exp(-z.real * loc) for loc, m in lam.atoms)
    with mpmath.workdps(40):
        exact = [complex(mpmath.fsum(mpmath.mpf(m) * mpmath.exp(-mpmath.mpc(p) * mpmath.mpf(loc))
                                     for loc, m in lam.atoms)) for p in z.tolist()]
    assert np.all(np.abs(values - np.array(exact)) <= scale)
    points = np.array([laplace_transform(lam, p) for p in z.tolist()])
    assert np.all(np.abs(values - points) <= scale)
    # The scan's gaps are this evaluator's on the imaginary axis, bit for bit.
    report = weakly_diophantine_scan(lam, 2.0, 500.0)
    bs = [row[0] for row in report.rows]
    assert np.array_equal(np.array([row[1] for row in report.rows]).view(np.uint64),
                          gap_bits(lam, bs))


@pytest.mark.parametrize("digits", [(2, 3), (2, 3, 5, 7), (2, 3, 5, 7, 11)])
def test_laplace_transform_at_a_point_is_its_batch_entry(digits):
    # A point's value has the same bits alone, in a batch and in the
    # reversed batch, on the imaginary axis and off it.
    lam = auxiliary_measure(luroth_natural_ifs(digits)[0])
    assert len(lam.atoms) == len(digits)
    rng = np.random.default_rng(len(digits))
    off_axis = rng.uniform(-2.0, 2.0, 300) + 1j * rng.uniform(-1e4, 1e4, 300)
    for z in (1j * np.linspace(1.0, 1e5, 5001), off_axis):
        points = np.array([laplace_transform(lam, p) for p in z.tolist()]).view(np.uint64)
        for batch in (laplace_transform(lam, z), laplace_transform(lam, z[::-1])[::-1]):
            assert np.array_equal(np.ascontiguousarray(batch).view(np.uint64), points)


def test_scan_flags_lattice_resonance(lattice_lambda):
    report = weakly_diophantine_scan(lattice_lambda, 2.0, 200.0)
    assert report.lattice is True
    assert report.scan_min < 1e-9
    # The minimizer sits at a predicted frequency 2*pi*k / log 2.
    b = report.scan_argmin
    k = round(b * math.log(2) / (2.0 * math.pi))
    assert k >= 1
    assert abs(b - 2.0 * math.pi * k / math.log(2)) < 1e-9 * max(1.0, b)


def test_scan_stays_positive_off_lattice(luroth_lambda):
    report = weakly_diophantine_scan(luroth_lambda, 2.0, 2000.0)
    assert report.lattice is False
    assert report.scan_min > 0.0 and report.scan_min_lower > 0.0
    bs = [r[0] for r in report.rows]
    assert bs == sorted(bs)
    assert all(1.0 <= b <= 2000.0 for b in bs)
    # Scaled column is b^l * gap, assembled in log space.
    b, gap, scaled, *_ = report.rows[len(report.rows) // 2]
    if gap > 0.0:
        assert scaled == pytest.approx(b ** 2.0 * gap, rel=1e-12)


def test_scan_cap_counts_evaluations(luroth_lambda, monkeypatch):
    # ceil(width * sqrt(M)) initial evaluations per block are counted
    # before any is made, then every split's as it comes.
    root = math.sqrt(2.0 * luroth_lambda.sigma ** 2 + 4.0 * math.fsum(
        m * loc * loc for loc, m in luroth_lambda.atoms))
    edges = [1, 2, 4, 8, 16, 32, 64, 128, 200]
    initial = sum(math.ceil((hi - lo) * root) for lo, hi in zip(edges, edges[1:]))
    report = weakly_diophantine_scan(luroth_lambda, 2.0, 200.0)
    assert initial < report.evaluations
    assert weakly_diophantine_scan(luroth_lambda, 2.0, 200.0, cap=report.evaluations) == report
    with pytest.raises(ResourceCapError, match=f"more than {report.evaluations - 1} evaluations"):
        weakly_diophantine_scan(luroth_lambda, 2.0, 200.0, cap=report.evaluations - 1)

    def evaluated(*args):
        raise AssertionError("an evaluation was made")

    monkeypatch.setattr(selfsim.diophantine, "_gap_bounds", evaluated)
    with pytest.raises(ResourceCapError, match=f"needs at least {initial} evaluations, "
                                               f"cap={initial - 1}"):
        weakly_diophantine_scan(luroth_lambda, 2.0, 200.0, cap=initial - 1)
    # b_max * sqrt(M) overflows to inf; the count still stops at the cap.
    with pytest.raises(ResourceCapError):
        weakly_diophantine_scan(luroth_lambda, 2.0, 1.7e308)


def scaled_bits(bs, gaps, l):
    """The scaled column row by row through the scalar rule, as raw float bits."""
    return np.array([scaled_gap(b, g, l) for b, g in zip(bs, gaps)]).view(np.uint64)


def gap_bits(lam, bs):
    """|1 - L(i*b)| of each b alone, as raw float bits."""
    return np.array([abs(1.0 - laplace_transform(lam, 1j * b)) for b in bs]).view(np.uint64)


@pytest.mark.parametrize("l,b_max", [(2.0 * matveev_degree(2, 3) - 2.0, 2e4), (2.0, 2e4)],
                         ids=["luroth-degree", "square"])
def test_scan_rows_are_one_per_block(luroth_lambda, l, b_max):
    report = weakly_diophantine_scan(luroth_lambda, l, b_max)
    rows = report.rows
    assert isinstance(rows, tuple) and all(len(row) == 6 for row in rows)
    bs, gaps, scaled, lower, block_lo, block_hi = map(list, zip(*rows))
    # The blocks [2^k, 2^(k+1)] tile [1, b_max], the last one cut at b_max.
    assert block_lo == [2.0 ** k for k in range(15)]
    assert block_hi == [2.0 ** k for k in range(1, 15)] + [b_max]
    assert all(lo < b < hi for b, lo, hi in zip(bs, block_lo, block_hi))
    assert np.array_equal(np.array(gaps).view(np.uint64), gap_bits(luroth_lambda, bs))
    assert np.array_equal(np.array(scaled).view(np.uint64), scaled_bits(bs, gaps, l))
    assert all(0.0 < lo <= gap for lo, gap in zip(lower, gaps))
    assert report.scan_min == min(gaps) and report.scan_min_lower == min(lower)
    assert report.scan_argmin == bs[gaps.index(min(gaps))]


def test_scan_argmin_takes_the_first_minimum():
    rows = ((1.0, 0.5, 0.0, 0.4, 1.0, 2.0), (2.0, 0.25, 0.0, 0.2, 2.0, 4.0),
            (4.0, 0.25, 0.0, 0.1, 4.0, 8.0))
    report = DiophantineReport(2.0, rows, "non-lattice", 10)
    assert report.scan_min == 0.25 and report.scan_argmin == 2.0
    assert report.scan_min_lower == 0.1


def test_scaled_column_is_scaled_gap_bit_for_bit():
    l = 1000.0
    bs, gaps = [], []
    # One-ulp steps of b around exp(0.709) and exp(0.710) move the exponent
    # 1000 * log(b) across 709, where the scaled gap turns inf, and across
    # 710, past exp's own overflow at about 709.78.
    for center in (math.exp(0.709), math.exp(0.710)):
        b = center
        for _ in range(20):
            b = math.nextafter(b, 0.0)
        for _ in range(40):
            bs.append(b)
            gaps.append(1.0)
            b = math.nextafter(b, math.inf)
    bs += [2.0, 2.0, 1.0, 1e300, 1e300, 3.0]
    gaps += [0.0, 5e-324, 1.0, 0.0, 1e-300, 1e-200]
    scaled = np.array([_scaled_gap(b, gap, l) for b, gap in zip(bs, gaps)])
    assert np.array_equal(scaled.view(np.uint64), scaled_bits(bs, gaps, l))
    assert 0.0 in scaled and math.inf in scaled
    finite = scaled[np.isfinite(scaled)]
    assert finite.max() > math.exp(708.9999)
    # This l puts the exponent at 709.0 by one rounding of log(b) and just
    # below by the other; the cut is taken on libm's log.
    b, l = 64818.84011583974, 63.992914631642435
    assert _scaled_gap(b, 1.0, l) == scaled_gap(b, 1.0, l)
    # l * log(b) overflows to inf, and inf + log(0) is nan: a zero gap
    # still scales to 0, and a positive one to inf.
    bs, gaps, l = [1e300, 1e300, 2.0], [0.0, 1e-300, 0.0], 1e306
    assert [_scaled_gap(b, gap, l) for b, gap in zip(bs, gaps)] == [0.0, math.inf, 0.0]


# Steps and powers whose scaled columns are finite: the 9/10 walk and
# Luroth {2,3} at l = 2, and Luroth {2,3,5,7} at l = 7.5.
FINITE_SCANS = pytest.mark.parametrize(
    "spec,l", [('{"maps": [["9/10", "0"], ["1/20", "19/20"]]}', 2.0),
               ('{"luroth": [2, 3]}', 2.0), ('{"luroth": [2, 3, 5, 7]}', 7.5)],
    ids=["ninety", "luroth23", "luroth2357"])


@FINITE_SCANS
def test_scaled_column_rows_alone_equal_their_batch_entries(spec, l):
    # A row's gap and scaled gap are those of its b taken alone, and a
    # block's row does not depend on the blocks after it.
    lam = auxiliary_measure(parse_spec(spec).ifs)
    rows = weakly_diophantine_scan(lam, l, 2e3).rows
    for b, gap, scaled, *_ in rows:
        assert gap == abs(1.0 - laplace_transform(lam, 1j * b))
        assert scaled == _scaled_gap(b, gap, l)
    assert weakly_diophantine_scan(lam, l, 256.0).rows == rows[:8]


@FINITE_SCANS
def test_scaled_column_is_accurate(spec, l):
    """The scaled gap against a 40-digit b^l * gap of the same floats.

    exp(l*log(b) + log(gap)) takes five roundings: the two logs and the
    exp, each within an ulp (2u relative, u = 2^-53), and the product and
    the sum, each correctly rounded (u).  The exponent's absolute error is then at most
    (2u + u)*|l*log b| + 2u*|log gap| + u*|e|, and exp turns it into the
    same relative error, plus 2u of its own.  That is at most
    4*(|l*log b| + |log gap|)*u + 2u to first order, so
    4*(|l*log b| + |log gap| + 1)*u bounds it with room for the
    second-order terms.  The rows are 1500 frequencies drawn from
    [1, 2e4] and the scan's own.
    """
    lam = auxiliary_measure(parse_spec(spec).ifs)
    bs = np.random.default_rng(11).uniform(1.0, 2e4, 1500).tolist()
    bs += [row[0] for row in weakly_diophantine_scan(lam, l, 2e4).rows]
    worst = 0.0
    with mpmath.workdps(40):
        for b in bs:
            gap = abs(1.0 - laplace_transform(lam, 1j * b))
            scaled = _scaled_gap(b, gap, l)
            assert math.isfinite(scaled) and scaled > 0.0
            exact = mpmath.mpf(b) ** mpmath.mpf(l) * mpmath.mpf(gap)
            units = (abs(l * math.log(b)) + abs(math.log(gap)) + 1.0) * 2.0 ** -53
            worst = max(worst, float(abs(scaled - exact) / exact) / units)
    assert worst <= 4.0


def mp_gap(lam, b):
    """|1 - L(i*b)| of the float atoms at the float b, in 40-digit arithmetic."""
    with mpmath.workdps(40):
        value = 1 - mpmath.fsum(mpmath.mpf(m) * mpmath.expj(-mpmath.mpf(b) * mpmath.mpf(loc))
                                for loc, m in lam.atoms)
        return abs(value)


@pytest.mark.parametrize("spec,l", [('{"luroth": [2, 3]}', 2.0),
                                    ('{"maps": [["9/10", "0"], ["1/20", "19/20"]]}', 2.0)],
                         ids=["luroth23", "ninety"])
def test_block_lower_bounds_hold_against_mpmath(spec, l):
    lam = auxiliary_measure(parse_spec(spec).ifs)
    rows = weakly_diophantine_scan(lam, l, 2e4).rows
    for b, gap, _, lower, _, _ in rows:
        exact = mp_gap(lam, b)
        assert lower <= exact and abs(gap - exact) <= 1e-12
        assert gap - lower <= 0.03 * gap
    # A dense sweep of the block [16, 32] at spacing 1/200, then a finer one
    # around its least point: no sampled gap is below the block's bound.
    b, _, _, lower, lo, hi = rows[4]
    sweep = [lo + (hi - lo) * k / 3200 for k in range(3201)]
    least = min(sweep, key=lambda x: mp_gap(lam, x))
    sweep += [least + k * 1e-6 for k in range(-1000, 1001)]
    assert lower <= min(mp_gap(lam, x) for x in sweep) <= mp_gap(lam, b)


def test_gap_bounds_hold_over_each_interval(luroth_lambda):
    # A centre's bound is below f = |1 - L(i*b)|^2 at every point of its
    # interval: on start-width intervals, where the M*r^2/2 term carries it
    # over the maxima of f, and near b = 719149.58, where a gap of about
    # 5e-10 is taken from phases rounded by about 1e-10, so that only the
    # rounding allowance keeps it below the mpmath value.
    curvature = 2.0 * luroth_lambda.sigma ** 2 + 4.0 * math.fsum(
        m * loc * loc for loc, m in luroth_lambda.atoms)
    r = 0.5 / math.sqrt(curvature)
    centres = np.random.default_rng(3).uniform(2.0, 200.0, 300)
    _, bounds = _gap_bounds(luroth_lambda, centres, r, curvature)
    offsets = np.linspace(-r, r, 401)
    for c, bound in zip(centres, bounds):
        gaps = np.abs(1.0 - laplace_transform(luroth_lambda, 1j * (c + offsets)))
        assert bound <= np.min(gaps) ** 2
    centres = 719149.583714323 + np.arange(-100, 100) * 1e-7
    _, bounds = _gap_bounds(luroth_lambda, centres, 1e-12, curvature)
    assert all(bound <= mp_gap(luroth_lambda, c) ** 2 for c, bound in zip(centres, bounds))


@pytest.mark.parametrize("spec", ['{"luroth": [2, 3]}',
                                  '{"maps": [["9/10", "0"], ["1/20", "19/20"]]}',
                                  '{"luroth": [2, 3, 5, 7]}'],
                         ids=["luroth23", "ninety", "luroth2357"])
def test_gap_bounds_equal_the_whole_array_formula_bit_for_bit(spec):
    # The kernel steps through TILE centres at a time, in place; each value
    # is the whole-array formula's, also with one workspace reused from a
    # longer call to shorter ones, as the scan reuses it.  The centres span
    # [1, 1e16], so that on the top decades the rounding allowance outweighs
    # f and its bits reach the bound's.
    lam = auxiliary_measure(parse_spec(spec).ifs)
    curvature = 2.0 * lam.sigma ** 2 + 4.0 * math.fsum(m * loc * loc for loc, m in lam.atoms)
    rng = np.random.default_rng(37)
    shared = _workspace()
    for n in (SCAN_CHUNK, 1, TILE - 1, TILE, TILE + 1, 3 * TILE + 5):
        b = np.sort(10.0 ** rng.uniform(0.0, 16.0, n))
        for r in (0.3, 1e-12):
            want = gap_bounds(lam, b, r, curvature)
            for workspace in (None, shared):
                got = _gap_bounds(lam, b, r, curvature, workspace)
                for w, g in zip(want, got):
                    assert np.array_equal(w.view(np.int64), g.view(np.int64)), (n, r)


@pytest.mark.parametrize("spec,l,minimum", [
    ('{"luroth": [2, 3]}', 2.0, 7.4156e-9),
    ('{"maps": [["9/10", "0"], ["1/20", "19/20"]]}', 2.0, 1.5888e-8),
], ids=["luroth23", "ninety"])
def test_scan_brackets_the_known_minimum(spec, l, minimum):
    # The minima on [1, 1e5], found in mpmath: 7.4156e-9 at b = 6028.03886233
    # and 1.5888e-8 at b = 91003.16817031.  A grid of 448 497 points saw
    # 1.0e-4 and 6.8e-5.
    report = weakly_diophantine_scan(auxiliary_measure(parse_spec(spec).ifs), l, 1e5)
    assert report.scan_min_lower <= minimum <= report.scan_min
    assert report.scan_min - report.scan_min_lower <= 0.04 * report.scan_min


def test_scan_memory_does_not_grow_with_b_max(luroth_lambda):
    # Centres are evaluated at most SCAN_CHUNK at a time, and only the
    # intervals still to split are kept.
    peaks = []
    for b_max in (1e5, 1e6):
        tracemalloc.start()
        try:
            weakly_diophantine_scan(luroth_lambda, 2.0, b_max)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] <= 2 ** 20


@pytest.mark.parametrize("spec", ['{"luroth": [2, 3]}',
                                  '{"maps": [["9/10", "0"], ["1/20", "19/20"]]}'],
                         ids=["luroth23", "ninety"])
def test_scan_traced_peak_is_small(spec):
    # One workspace serves the whole scan: 8 rows of TILE centres and the
    # two SCAN_CHUNK buffers of f and the bound, 1.5 MiB.  A new temporary
    # of up to SCAN_CHUNK centres per ufunc step peaked at 9.0 and 8.6 MiB.
    lam = auxiliary_measure(parse_spec(spec).ifs)
    tracemalloc.start()
    try:
        weakly_diophantine_scan(lam, 2.0, 1e5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 2 ** 20


def test_scan_validation(luroth_lambda):
    with pytest.raises(InputError):
        weakly_diophantine_scan(luroth_lambda, 0.0, 100.0)
    with pytest.raises(InputError):
        weakly_diophantine_scan(luroth_lambda, 2.0, 0.5)
    with pytest.raises(InputError):
        weakly_diophantine_scan(luroth_lambda, 2.0, 1.0)
    with pytest.raises(InputError):
        weakly_diophantine_scan(luroth_lambda, 2.0, math.nan)


def test_classify_lattice(luroth_lambda, lattice_lambda):
    assert classify_lattice(lattice_lambda) == "lattice"
    assert classify_lattice(luroth_lambda) == "non-lattice"
    assert lattice_test(lattice_lambda) is True
    assert lattice_test(luroth_lambda) is False
    single = auxiliary_measure(WeightedIFS(
        (0,), (Similitude(0.5, 0.0),), (1.0,)))
    assert classify_lattice(single) == "lattice"
    three_eleven = auxiliary_measure(luroth_ifs((3, 11)))
    assert classify_lattice(three_eleven) == "non-lattice"
    assert lattice_test(three_eleven) is False
    report = weakly_diophantine_scan(three_eleven, 2.0, 200.0)
    assert report.classification == "non-lattice" and report.lattice is False


def _system(ratios):
    """A system with these exact ratios, all at translation 0, uniformly weighted."""
    maps = tuple(Similitude(r, 0.0) for r in ratios)
    return WeightedIFS(tuple(range(len(maps))), maps, tuple([1.0 / len(maps)] * len(maps)))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(1, 10 ** 4 - 1).flatmap(
    lambda p: st.tuples(st.just(p), st.integers(p + 1, 10 ** 4))), min_size=1, max_size=4))
def test_classify_lattice_matches_trial_division(pairs):
    ratios = [Fraction(p, q) for p, q in pairs]
    want = "lattice" if is_lattice(ratios) else "non-lattice"
    assert classify_lattice(auxiliary_measure(_system(ratios))) == want


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 99).flatmap(lambda p: st.tuples(st.just(p), st.integers(p + 1, 100))),
       st.lists(st.integers(1, 5), min_size=1, max_size=4))
def test_classify_lattice_on_powers_of_one_ratio(pq, powers):
    ratios = [Fraction(*pq) ** n for n in powers]
    assert is_lattice(ratios)
    assert classify_lattice(auxiliary_measure(_system(ratios))) == "lattice"


def test_luroth_digit_pairs_are_non_lattice():
    # a*(a-1) is never a perfect power, so no two digits' steps are commensurable.
    for a in range(2, 41):
        assert perfect_power_free(a)
        for b in range(a + 1, 41):
            lam = auxiliary_measure(luroth_ifs((a, b)))
            assert classify_lattice(lam) == "non-lattice", (a, b)
            assert not is_lattice([Fraction(1, a * (a - 1)), Fraction(1, b * (b - 1))])


def test_lattice_verdict_reads_exact_ratios():
    # The floats 1/3 and 1/9 are dyadic rationals whose logs are not
    # commensurable; the fractions 1/3 and 1/9 are.
    assert classify_lattice(auxiliary_measure(_system([1 / 3, 1 / 9]))) == "non-lattice"
    assert classify_lattice(auxiliary_measure(_system([Fraction(1, 3), Fraction(1, 9)]))) == "lattice"


def test_matveev_degree_golden():
    assert matveev_degree(2, 3) == pytest.approx(189369098.5872438, rel=1e-13)
    assert matveev_degree(2, 3) > 189369098
    assert matveev_degree(2, 3) < 1.9e8
    assert matveev_log_constant(2, 3) == pytest.approx(-86305744.49895959,
                                                       rel=1e-13)


def test_matveev_degree_monotone():
    rng = np.random.default_rng(43)
    for _ in range(50):
        a1 = int(rng.integers(2, 1000))
        a2 = int(rng.integers(a1 + 1, a1 + 1000))
        base = matveev_degree(a1, a2)
        assert matveev_degree(a1, a2 + 1) > base
        assert matveev_degree(a1 + 1, a2) > base or a1 + 1 == a2


def test_matveev_validation():
    with pytest.raises(InputError):
        matveev_degree(2, 2)
    with pytest.raises(InputError):
        matveev_degree(1, 3)
    with pytest.raises(InputError):
        matveev_degree(True, 3)


def test_perfect_power_free():
    # The check concerns a*(a-1); products of consecutive integers are
    # never perfect powers, so every valid argument passes.
    for a in (2, 3, 4, 9, 10, 100, 12345):
        assert perfect_power_free(a)
    with pytest.raises(InputError):
        perfect_power_free(1)
    with pytest.raises(InputError):
        perfect_power_free(True)
    # The claim, checked by brute force: the oracle finds powers of any
    # exponent, and no a(a-1) with a up to 20 000 is one.
    assert all(is_perfect_power(m) for m in (4, 8, 27, 6 ** 5, 1024, 2 ** 67, 3 ** 41))
    assert not any(is_perfect_power(m) for m in (2, 12, 2 ** 67 + 1))
    assert not any(is_perfect_power(a * (a - 1)) for a in range(2, 20_001))
