import cmath
import math
import os
import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
# numpy.random loads on first use, about 0.8 MB that the traced memory
# bounds below would count in whichever test first touched it; it is
# loaded here, as renewal._run_chunks loads it before its workers start.
import numpy.random  # noqa: F401
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from conftest import random_disjoint_ifs
from oracles import (
    overshoot_expectation_dp,
    overshoot_law,
    run_overshoots,
    stationary_phase_expectation,
)
from selfsim import (
    InputError,
    PreconditionError,
    ResourceCapError,
    Similitude,
    WeightedIFS,
    auxiliary_measure,
    phase_test_function,
    renewal_expectation_mc,
    renewal_limit,
    sample_overshoot,
)
from selfsim.cli import parse_spec
from selfsim.luroth import luroth_natural_ifs
import selfsim.renewal
from selfsim.renewal import (
    _CHUNK, _GL_NODES, _GL_WEIGHTS, _PANEL, _chunk_overshoots, _Slot)

# Limit value of E exp(0.3i * overshoot) for the Luroth {2,3} walk, frozen
# from the quadrature path and cross-checked by interval subdivision.
LIMIT_LUROTH23_S03 = 0.4217923302983996 - 0.7984221470484344j


@pytest.fixture(scope="module")
def luroth_lambda():
    ifs, _ = luroth_natural_ifs((2, 3))
    return auxiliary_measure(ifs)


def test_phase_test_function_basics():
    g = phase_test_function(0.3)
    # The observable winds the phase through exp(-z): at z = 0 the full
    # strength -2*pi*s shows, and it flattens toward 1 as z grows.
    assert g(0.0) == pytest.approx(cmath.exp(-2j * math.pi * 0.3), abs=1e-15)
    assert g(50.0) == pytest.approx(1.0 + 0.0j, abs=1e-12)
    assert abs(g(2.0)) == pytest.approx(1.0)
    assert g.c1_bound == pytest.approx(1.0 + 2.0 * math.pi * 0.3)
    arr = g.apply_array(np.array([0.0, 1.0, 2.0]))
    assert arr[0] == g(0.0) and arr[2] == g(2.0)


@pytest.mark.parametrize("s", [0.3, -0.3, 0.0, -0.0, 2.5, 40.0])
def test_phase_observable_has_the_bits_of_the_complex_exp(s):
    # cos and sin of the phase stand for the complex exp of its product
    # with -2j*pi*s; the zeros of s = +-0 and of exp(-z) = 0 pin the sign
    # of zero.
    rng = np.random.default_rng(11)
    z = np.concatenate([[0.0, 5e-324, 1.0, 745.0, 800.0, np.inf], 30.0 * rng.random(4096)])
    got = phase_test_function(s).apply_array(z)
    want = np.exp((-2j * math.pi * s) * np.exp(-z))
    assert np.array_equal(got.real.view(np.uint64), want.real.view(np.uint64))
    assert np.array_equal(got.imag.view(np.uint64), want.imag.view(np.uint64))


def test_sample_overshoot_deterministic(luroth_lambda):
    a = sample_overshoot(luroth_lambda, 12.0, seed=3)
    b = sample_overshoot(luroth_lambda, 12.0, seed=3)
    assert a == b
    assert 0.0 < a <= max(luroth_lambda.locations)


def test_renewal_limit_constant_observable(luroth_lambda):
    # For g identically 1 both the numerator and normalizer collapse to the
    # same integral, so the value is exactly 1.
    assert renewal_limit(luroth_lambda, lambda x: 1.0) == (1.0 + 0.0j)


def test_renewal_limit_golden(luroth_lambda):
    g = phase_test_function(0.3)
    value = renewal_limit(luroth_lambda, g)
    assert value == pytest.approx(LIMIT_LUROTH23_S03, abs=1e-14)


def _assert_limit_matches_closed_form(lam, s):
    want = stationary_phase_expectation(lam.locations, lam.masses, s)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = renewal_limit(lam, phase_test_function(s))
    assert abs(got - want) <= 1e-12


# s = 40 winds the phase about 250 radians over the first segment, so the
# rule has to bisect there.
LIMIT_STRENGTHS = [0.3, -0.3, 2.5, 40.0]


@pytest.mark.parametrize("digits", [(2, 3), (2, 3, 5, 7)])
@pytest.mark.parametrize("s", LIMIT_STRENGTHS)
def test_renewal_limit_matches_closed_form(digits, s):
    _assert_limit_matches_closed_form(auxiliary_measure(luroth_natural_ifs(digits)[0]), s)


@pytest.mark.parametrize("s", LIMIT_STRENGTHS)
def test_renewal_limit_matches_closed_form_for_the_ninety_walk(s):
    lam = auxiliary_measure(parse_spec(SAMPLER_SPECS["ninety"]).ifs)
    _assert_limit_matches_closed_form(lam, s)


def test_gauss_legendre_rule_is_exact_to_degree_47():
    nodes, weights = _GL_NODES, _GL_WEIGHTS
    assert len(nodes) == 24 and np.all(np.diff(nodes) > 0)
    assert np.array_equal(nodes, -nodes[::-1]) and np.array_equal(weights, weights[::-1])
    assert np.all(np.abs(nodes) < 1.0) and np.all(weights > 0.0)
    eps = np.finfo(float).eps
    assert abs(math.fsum(weights) - 2.0) <= 2 * eps
    for degree in range(48):
        want = 0.0 if degree % 2 else 2.0 / (degree + 1)
        assert abs(math.fsum(weights * nodes ** degree) - want) <= 4 * eps, degree


def test_renewal_limit_of_a_plain_callable():
    # No apply_array: the limit calls g point by point.  With
    # g(z) = cos z + i z^2 every segment integral is known exactly.
    lam = auxiliary_measure(parse_spec(SAMPLER_SPECS["luroth2357"]).ifs)
    numerator = 0j
    denominator = 0.0
    prev = 0.0
    for loc in lam.locations:
        survival = lam.survival(prev)
        numerator += survival * complex(math.sin(loc) - math.sin(prev),
                                        (loc ** 3 - prev ** 3) / 3.0)
        denominator += survival * (loc - prev)
        prev = loc
    got = renewal_limit(lam, lambda z: math.cos(z) + 1j * z * z)
    assert abs(got - numerator / denominator) <= 1e-14


def test_renewal_limit_warns_when_bisection_runs_out(luroth_lambda):
    # A square wave with hundreds of jumps per segment cannot meet the
    # tolerance in 200 bisections: the limit must stop, warn and return.
    start = time.perf_counter()
    with pytest.warns(RuntimeWarning, match="200 bisections .* estimated error"):
        value = renewal_limit(luroth_lambda,
                              lambda z: math.copysign(1.0, math.sin(1e3 * z)))
    assert time.perf_counter() - start < 10.0
    assert math.isfinite(value.real) and abs(value) <= 1.0 and value.imag == 0.0


def test_renewal_mc_constant_observable_exact(luroth_lambda):
    result = renewal_expectation_mc(luroth_lambda, lambda x: 1.0, 10.0,
                                    n_samples=500, seed=2)
    assert result.mc_estimate == (1.0 + 0.0j)
    assert result.mc_stderr == 0.0
    assert result.limit_value == (1.0 + 0.0j)


def test_renewal_mc_matches_exact_law(luroth_lambda):
    g = phase_test_function(0.3)
    t = 12.0
    want = overshoot_expectation_dp(
        luroth_lambda.locations, luroth_lambda.masses, t, g)
    result = renewal_expectation_mc(luroth_lambda, g, t, n_samples=40000,
                                    seed=17)
    assert abs(result.mc_estimate - want) <= 4.0 * result.mc_stderr
    assert result.n_samples == 40000
    assert result.lattice is False


def test_renewal_mc_single_atom_closed_form():
    # With one step size the overshoot is deterministic.
    ifs = WeightedIFS((0,), (Similitude(0.5, 0.25),), (1.0,))
    lam = auxiliary_measure(ifs)
    g = phase_test_function(0.7)
    t = 2.0
    shot = sample_overshoot(lam, t, seed=9)
    steps = math.ceil(t / math.log(2))
    assert shot == pytest.approx(steps * math.log(2) - t, rel=1e-12)
    with pytest.warns(UserWarning):
        result = renewal_expectation_mc(lam, g, t, n_samples=200, seed=9)
    # Averaging identical samples reproduces the sample up to rounding.
    assert result.mc_estimate == pytest.approx(complex(g(shot)), abs=1e-13)
    assert result.mc_stderr == pytest.approx(0.0, abs=1e-8)
    assert result.lattice is True


def test_renewal_mc_warns_on_lattice():
    ifs = WeightedIFS(
        (0, 1), (Similitude(0.5, 0.0), Similitude(0.25, 0.75)), (0.7, 0.3))
    lam = auxiliary_measure(ifs)
    with pytest.warns(UserWarning):
        renewal_expectation_mc(lam, phase_test_function(0.1), 8.0,
                               n_samples=200, seed=1)


def test_renewal_validation(luroth_lambda):
    with pytest.raises(PreconditionError):
        renewal_expectation_mc(luroth_lambda, phase_test_function(0.1), 10.0,
                               n_samples=50, seed=1)
    with pytest.raises(InputError):
        renewal_expectation_mc(luroth_lambda, phase_test_function(0.1), -1.0,
                               n_samples=500, seed=1)
    with pytest.raises(InputError):
        sample_overshoot(luroth_lambda, 0.0, seed=1)


def test_chunk_memory_stays_bounded_for_long_walks():
    # Steps of -log(0.9) need up to 287 draws per walker to cross t = 30,
    # so one chunk drawn at once would hold about 38 MB; panels of runs
    # for the walkers still below t hold the slot's 1.0 MB, the 128 KB
    # output and the index lists of one panel (1.3 MB).
    ifs = WeightedIFS((0, 1), (Similitude(0.9, 0.0), Similitude(0.05, 0.95)), (0.5, 0.5))
    lam = auxiliary_measure(ifs)
    tracemalloc.start()
    try:
        overshoots = _chunk_overshoots(lam, 30.0, 5, 0, _CHUNK)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(overshoots) == _CHUNK
    assert np.all((overshoots >= 0.0) & (overshoots < -math.log(0.05)))
    assert peak < 1.5 * 2 ** 20


def test_chunk_sizes_are_not_listed_before_the_first_draw(luroth_lambda):
    # 10^12 samples are about 61 million chunks; the first chunk comes
    # back without a list of every chunk's size being built first.
    tracemalloc.start()
    try:
        chunks = selfsim.renewal._run_chunks(luroth_lambda, 1.0, 0, 10 ** 12, 1)
        first = next(chunks)
        chunks.close()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(first) == _CHUNK
    assert peak < 32 * 2 ** 20


# Step laws for the sampler identity: Luroth systems with two to eight
# digits, the 9/10 walk (small steps, long walks), four maps of equal
# weight (the heaviest atom is the first of a tie) and a single map.  The
# identity tests check the run-by-run reference; their names date from
# the stream's earlier Generator.choice reference.
SAMPLER_SPECS = {
    "luroth23": '{"luroth": [2, 3]}',
    "luroth2-9": '{"luroth": [2, 3, 4, 5, 6, 7, 8, 9]}',
    "luroth2357": '{"luroth": [2, 3, 5, 7]}',
    "ninety": '{"maps": [["9/10", "0"], ["1/20", "19/20"]]}',
    "equal4": '{"maps": [["1/2", "0"], ["1/5", "1/2"], ["1/7", "7/10"], ["1/8", "17/20"]],'
              ' "weights": ["1/4", "1/4", "1/4", "1/4"]}',
    "single": '{"maps": [["1/2", "1/4"]]}',
}


@pytest.mark.parametrize("t", [0.3, 5.0, 30.0, 100.0])
@pytest.mark.parametrize("name", sorted(SAMPLER_SPECS))
def test_chunk_overshoots_match_choice_sampler(name, t):
    # From one walker to a full chunk, and one short of it.
    lam = auxiliary_measure(parse_spec(SAMPLER_SPECS[name]).ifs)
    for chunk_index in (0, 7):
        for count in (1, 999, _CHUNK - 1, _CHUNK):
            want = run_overshoots(lam, t, 42, chunk_index, count, _PANEL)
            got = _chunk_overshoots(lam, t, 42, chunk_index, count)
            assert np.array_equal(got, want), (name, t, chunk_index, count)


def test_chunk_overshoots_match_choice_sampler_for_a_full_chunk(luroth_lambda):
    want = run_overshoots(luroth_lambda, 30.0, 42, 3, _CHUNK, _PANEL)
    assert np.array_equal(_chunk_overshoots(luroth_lambda, 30.0, 42, 3, _CHUNK), want)


def test_chunk_overshoots_match_choice_sampler_with_many_atoms():
    # 300 atoms index past 255, so the atom counter must be wider than a byte.
    maps = tuple(Similitude(1 / 400 + k * 1e-6, k / 300) for k in range(300))
    ifs = WeightedIFS(tuple(range(300)), maps, tuple([1 / 300] * 300))
    lam = auxiliary_measure(ifs)
    got = _chunk_overshoots(lam, 20.0, 3, 1, 999)
    assert np.array_equal(got, run_overshoots(lam, 20.0, 3, 1, 999, _PANEL))


# The first uniforms of two chunk streams, keyed by (seed mod 2^64, chunk
# index): a numpy release whose SeedSequence, PCG64DXSM or Generator.random
# gave other values would move every Monte Carlo result.
STREAM_PINS = {
    (11, 0): [0.5406396312784714, 0.8046078417168928, 0.8455584997189253,
              0.45892312594785556, 0.7632970122638721, 0.5335556937054148,
              0.4710237412715381, 0.3589209066271227],
    (2 ** 64 - 5, 3): [0.2650972413022509, 0.8036454286829701, 0.8235130500887201,
                       0.39739863241418183, 0.30272795146372, 0.9718355927396215,
                       0.4394648029596798, 0.8377125352412508],
}


def test_chunk_stream_is_pinned(luroth_lambda):
    for (key, chunk_index), want in STREAM_PINS.items():
        rng = np.random.Generator(np.random.PCG64DXSM(
            np.random.SeedSequence(key, spawn_key=(chunk_index,))))
        assert rng.random(8).tolist() == want, (key, chunk_index)
    # The seed -5 is the key 2^64 - 5.
    assert np.array_equal(_chunk_overshoots(luroth_lambda, 30.0, -5, 3, 999),
                          _chunk_overshoots(luroth_lambda, 30.0, 2 ** 64 - 5, 3, 999))
    assert sample_overshoot(luroth_lambda, 30.0, seed=11) == 0.22434490556416264


# Luroth {2,3} at t = 30 over three full chunks and a short one: the
# streams of several chunks and their fold in chunk order set these bits.
MULTI_CHUNK_PIN = (0.4785583143245088, -0.7777328105633412, 0.0018157149683661253)


@pytest.mark.parametrize("threads", [1, 2])
def test_multi_chunk_result_is_pinned(luroth_lambda, threads, monkeypatch):
    monkeypatch.setattr(selfsim.renewal, "_available_cpus", lambda: 2)
    result = renewal_expectation_mc(luroth_lambda, phase_test_function(0.3), 30.0,
                                    3 * _CHUNK + 1234, seed=6, threads=threads)
    got = (result.mc_estimate.real, result.mc_estimate.imag, result.mc_stderr)
    assert got == MULTI_CHUNK_PIN


# The reference walks one run at a time in Python, so counts stay small.
@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), t=st.floats(0.05, 40.0),
       chunk_index=st.integers(0, 2 ** 20), count=st.integers(1, 500))
def test_chunk_overshoots_match_choice_sampler_property(seed, t, chunk_index, count):
    lam = auxiliary_measure(random_disjoint_ifs(np.random.default_rng(seed)))
    assert np.array_equal(_chunk_overshoots(lam, t, seed, chunk_index, count),
                          run_overshoots(lam, t, seed, chunk_index, count, _PANEL))


def test_renewal_mc_matches_exact_law_for_the_ninety_walk():
    lam = auxiliary_measure(parse_spec(SAMPLER_SPECS["ninety"]).ifs)
    g = phase_test_function(0.3)
    want = overshoot_expectation_dp(lam.locations, lam.masses, 30.0, g)
    result = renewal_expectation_mc(lam, g, 30.0, n_samples=200_000, seed=8)
    assert abs(result.mc_estimate - want) <= 4.0 * result.mc_stderr


def test_crossing_step_is_the_least_that_reaches_t():
    # One map of ratio 1/2: the overshoot is k * log 2 - t for the least k
    # with k * log 2 >= t in floats.  At t = 29 log 2 the ceil of t / log 2
    # is one too many, and just above 33 log 2 it is one too few.
    lam = auxiliary_measure(parse_spec(SAMPLER_SPECS["single"]).ifs)
    step = lam.locations[0]
    for t in (29 * step, math.nextafter(33 * step, math.inf)):
        k = 1
        while k * step < t:
            k += 1
        assert math.ceil(t / step) != k
        assert sample_overshoot(lam, t, seed=1) == k * step - t


def test_renewal_mc_matches_exact_law_with_four_atoms():
    lam = auxiliary_measure(parse_spec(SAMPLER_SPECS["luroth2357"]).ifs)
    g = phase_test_function(0.3)
    want = overshoot_expectation_dp(lam.locations, lam.masses, 12.0, g)
    result = renewal_expectation_mc(lam, g, 12.0, n_samples=200_000, seed=12)
    assert abs(result.mc_estimate - want) <= 4.0 * result.mc_stderr


def _binned_law(law, bins):
    """Bin edges of an atomic law, each bin holding at least 1/bins of its mass.

    Atoms within 1e-9 of each other are one group, and edges sit at the
    midpoints of the gaps between groups, far beyond the rounding that
    separates a sampled overshoot from the exact atom it stands for.
    Groups fill a bin in order until it holds 1/bins of the mass; a short
    last bin joins the one before it.
    """
    law = sorted(law)
    edges, probs, mass = [], [], 0.0
    for (z, w), (after, _) in zip(law, law[1:]):
        mass += w
        if mass >= 1.0 / bins and after - z > 1e-9:
            edges.append(0.5 * (z + after))
            probs.append(mass)
            mass = 0.0
    mass += law[-1][1]
    if mass < 1.0 / bins:
        edges.pop()
        probs[-1] += mass
    else:
        probs.append(mass)
    return np.array(edges), np.array(probs)


@pytest.mark.parametrize("name, t", [("ninety", 30.0), ("luroth23", 30.0),
                                     ("luroth2357", 12.0), ("equal4", 12.0)])
def test_chunk_overshoots_follow_the_exact_law(name, t):
    # 2^20 samples binned against the exact overshoot law, in up to 30
    # bins; the chi-squared statistic must stay below its 0.999 quantile:
    # 45.31 with 21 bins (ninety), 34.53 with 14 (luroth23) and 48.27 with
    # 23 (luroth2357 and equal4).
    lam = auxiliary_measure(parse_spec(SAMPLER_SPECS[name]).ifs)
    edges, probs = _binned_law(overshoot_law(lam.locations, lam.masses, t), 30)
    assert len(probs) >= 10
    samples = np.concatenate([_chunk_overshoots(lam, t, 26, i, _CHUNK)
                              for i in range(2 ** 20 // _CHUNK)])
    counts = np.bincount(np.searchsorted(edges, samples), minlength=len(probs))
    expected = len(samples) * probs
    stat = float(np.sum((counts - expected) ** 2 / expected))
    assert stat < chi2.ppf(0.999, len(probs) - 1), (name, len(probs), stat)


def test_walk_length_is_capped_before_drawing(luroth_lambda):
    g = phase_test_function(0.3)
    # Luroth {2,3} runs of log-2 steps close with a log-6 step, so t = 1e5
    # needs up to 55 815 uniforms per walker; a full chunk of them is about
    # 9.1e8 uniform draws.
    uniforms = math.ceil(1e5 / math.log(6)) + _PANEL
    with pytest.raises(ResourceCapError, match=f"needs {uniforms} uniforms per walker"):
        renewal_expectation_mc(luroth_lambda, g, 1e5, n_samples=10 ** 6, seed=1)
    # The cap counts the uniform draws of one chunk, not of all the samples.
    uniforms = math.ceil(30.0 / math.log(6)) + _PANEL
    draws = uniforms * _CHUNK
    renewal_expectation_mc(luroth_lambda, g, 30.0, n_samples=2 * _CHUNK, seed=1, cap=draws)
    with pytest.raises(ResourceCapError, match=f"{draws} uniform draws per chunk"):
        renewal_expectation_mc(luroth_lambda, g, 30.0, n_samples=2 * _CHUNK, seed=1,
                               cap=draws - 1)
    assert sample_overshoot(luroth_lambda, 30.0, seed=1, cap=uniforms) >= 0.0
    with pytest.raises(ResourceCapError, match=f"cap={uniforms - 1}"):
        sample_overshoot(luroth_lambda, 30.0, seed=1, cap=uniforms - 1)
    # A single atom's walkers draw one panel, whatever t is.
    single = auxiliary_measure(parse_spec('{"maps":[["1/2","0"]]}').ifs)
    assert sample_overshoot(single, 1e300, seed=1, cap=_PANEL) >= 0.0
    with pytest.raises(ResourceCapError, match=f"needs {_PANEL} uniforms per walker"):
        sample_overshoot(single, 1e300, seed=1, cap=_PANEL - 1)


def test_ninety_walk_at_t100_fits_the_default_cap():
    # Its runs of log(10/9) steps close with a log-20 step: 37 uniforms per
    # walker, though a walker can need 952 steps.
    lam = auxiliary_measure(parse_spec(SAMPLER_SPECS["ninety"]).ifs)
    result = renewal_expectation_mc(lam, phase_test_function(0.3), 100.0,
                                    n_samples=200_000, seed=1)
    assert result.n_samples == 200_000 and math.isfinite(result.mc_stderr)


# Twelve full chunks and a short last one.
THREAD_SAMPLES = 12 * _CHUNK + 1234


@pytest.mark.parametrize("name", ["luroth23", "ninety"])
def test_renewal_mc_is_the_same_for_every_thread_count(name, monkeypatch):
    lam = auxiliary_measure(parse_spec(SAMPLER_SPECS[name]).ifs)
    g = phase_test_function(0.3)
    # Frequent thread switches would show any state the chunks in flight
    # share; the available CPUs are raised so that three workers run.
    monkeypatch.setattr(selfsim.renewal, "_available_cpus", lambda: 3)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        results = [renewal_expectation_mc(lam, g, 20.0, THREAD_SAMPLES, seed=6, threads=n)
                   for n in (1, 2, 3)]
    finally:
        sys.setswitchinterval(interval)
    assert results[0] == results[1] == results[2]
    assert renewal_expectation_mc(lam, g, 20.0, THREAD_SAMPLES, seed=6) == results[0]


class RecordingObservable:
    """The phase observable, noting the thread and the overshoots of each call."""

    def __init__(self):
        self.inner = phase_test_function(0.3)
        self.threads = set()
        self.chunks = []

    def __call__(self, z):
        self.threads.add(threading.get_ident())
        return self.inner(z)

    def apply_array(self, z):
        self.threads.add(threading.get_ident())
        self.chunks.append(np.array(z))
        return self.inner.apply_array(z)


def test_observable_runs_on_the_calling_thread_in_chunk_order(luroth_lambda):
    g = RecordingObservable()
    renewal_expectation_mc(luroth_lambda, g, 20.0, THREAD_SAMPLES, seed=4, threads=3)
    assert g.threads == {threading.get_ident()}
    counts = [_CHUNK] * 12 + [1234]
    assert [len(z) for z in g.chunks] == counts
    # Slots are reused across chunks: each chunk still equals a fresh one.
    for index, (z, count) in enumerate(zip(g.chunks, counts)):
        assert np.array_equal(z, _chunk_overshoots(luroth_lambda, 20.0, 4, index, count))


def test_next_chunk_is_sampled_while_the_observable_runs(luroth_lambda, monkeypatch):
    # With one worker, chunk 1 is submitted as soon as chunk 0 is fetched:
    # the observable on chunk 0 waits for chunk 1's sampling to begin.
    started = threading.Event()
    waited = []
    chunk_overshoots = selfsim.renewal._chunk_overshoots

    def signalling(lam, t, seed, chunk_index, *args):
        if chunk_index == 1:
            started.set()
        return chunk_overshoots(lam, t, seed, chunk_index, *args)

    class Waiting(RecordingObservable):
        def apply_array(self, z):
            if not self.chunks:
                waited.append(started.wait(5.0))
            return super().apply_array(z)

    monkeypatch.setattr(selfsim.renewal, "_chunk_overshoots", signalling)
    g = Waiting()
    result = renewal_expectation_mc(luroth_lambda, g, 20.0, THREAD_SAMPLES, seed=4, threads=1)
    assert waited == [True]
    assert g.threads == {threading.get_ident()}
    assert result == renewal_expectation_mc(luroth_lambda, phase_test_function(0.3), 20.0,
                                            THREAD_SAMPLES, seed=4, threads=1)


def test_renewal_mc_of_a_plain_callable(luroth_lambda, monkeypatch):
    # Without apply_array the observable is called once per overshoot; it
    # equals the phase observable point by point, so the estimates agree.
    phase = phase_test_function(0.3)
    samples = 2 * _CHUNK + 1234
    want = renewal_expectation_mc(luroth_lambda, phase, 20.0, samples, seed=4)
    monkeypatch.setattr(selfsim.renewal, "_available_cpus", lambda: 2)
    results = [renewal_expectation_mc(luroth_lambda, lambda z: phase(z), 20.0, samples,
                                      seed=4, threads=n) for n in (1, 2)]
    assert results[0] == results[1]
    assert abs(results[0].mc_estimate - want.mc_estimate) <= 1e-12
    assert results[0].limit_value == want.limit_value


def test_worker_exception_reaches_the_caller(luroth_lambda, monkeypatch):
    raised_on = []
    chunk_overshoots = selfsim.renewal._chunk_overshoots

    def failing(lam, t, seed, chunk_index, *args):
        if chunk_index == 2:
            raised_on.append(threading.get_ident())
            raise RuntimeError("chunk 2 failed")
        return chunk_overshoots(lam, t, seed, chunk_index, *args)

    monkeypatch.setattr(selfsim.renewal, "_chunk_overshoots", failing)
    with pytest.raises(RuntimeError, match="chunk 2 failed"):
        renewal_expectation_mc(luroth_lambda, phase_test_function(0.3), 20.0,
                               THREAD_SAMPLES, seed=4, threads=2)
    assert raised_on and raised_on[0] != threading.get_ident()


@pytest.mark.parametrize("cpus, threads, workers", [(2, 8, 2), (8, None, 4), (8, 1, 1)])
def test_workers_are_capped_by_the_available_cpus(luroth_lambda, monkeypatch,
                                                  cpus, threads, workers):
    # Each worker holds a slot of work arrays, so more workers than CPUs,
    # or than the four chunks here, would only add memory.
    seen = set()
    chunk_overshoots = selfsim.renewal._chunk_overshoots

    def recording(lam, t, seed, chunk_index, count, slot, out):
        seen.add((threading.get_ident(), id(slot)))
        return chunk_overshoots(lam, t, seed, chunk_index, count, slot, out)

    monkeypatch.setattr(selfsim.renewal, "_available_cpus", lambda: cpus)
    monkeypatch.setattr(selfsim.renewal, "_chunk_overshoots", recording)
    renewal_expectation_mc(luroth_lambda, phase_test_function(0.3), 20.0,
                           3 * _CHUNK + 1234, seed=4, threads=threads)
    assert len({ident for ident, _ in seen}) <= workers
    assert len({slot for _, slot in seen}) == workers
    assert threading.get_ident() not in {ident for ident, _ in seen}


def test_available_cpus_fall_back_to_the_cpu_count(monkeypatch):
    # Where os.sched_getaffinity is missing (macOS, Windows) the CPU count
    # stands in, and 1 where even that is unknown.
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert selfsim.renewal._available_cpus() == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert selfsim.renewal._available_cpus() == 1


def test_thread_count_is_validated(luroth_lambda):
    with pytest.raises(InputError, match="thread count"):
        renewal_expectation_mc(luroth_lambda, phase_test_function(0.3), 10.0, 500,
                               seed=1, threads=0)


@pytest.mark.parametrize("t", [3.0, 30.0, 100.0])
def test_slot_kernel_allocates_little_whatever_t(t):
    # With its work arrays in a slot, a chunk allocates only the index
    # lists of each panel, 8 bytes per walker, and numpy's cast buffers,
    # however many panels its walkers need: 0.2 MB at most.
    lam = auxiliary_measure(parse_spec(SAMPLER_SPECS["ninety"]).ifs)
    slot, out = _Slot(_CHUNK), np.empty(_CHUNK)
    tracemalloc.start()
    try:
        _chunk_overshoots(lam, t, 5, 0, _CHUNK, slot, out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(out, _chunk_overshoots(lam, t, 5, 0, _CHUNK))
    assert peak < 2 ** 18
