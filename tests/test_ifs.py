import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpmath import mp, mpf

from conftest import random_disjoint_ifs
from oracles import bfs_stopping_words, compose_word, lattice_family_size
from selfsim import (
    InputError,
    ResourceCapError,
    Similitude,
    WeightedIFS,
    mu_hat_cylinder,
    stopping_words,
    validate_disjointness,
)
from selfsim.ifs import DEFAULT_WORD_CAP, _min_states, _stopping_states
from selfsim.luroth import luroth_natural_ifs


@pytest.fixture(scope="module")
def luroth23():
    ifs, _ = luroth_natural_ifs((2, 3))
    return ifs


def test_similitude_validation():
    Similitude(0.5, 0.5)
    with pytest.raises(InputError):
        Similitude(0.0, 0.1)
    with pytest.raises(InputError):
        Similitude(1.0, 0.0)
    with pytest.raises(InputError):
        Similitude(0.5, -0.1)
    with pytest.raises(InputError):
        Similitude(0.5, 0.6)  # image leaves [0,1]


def test_similitude_geometry():
    m = Similitude(0.25, 0.5)
    assert m.interval == (0.5, 0.75)
    assert m.fixed_point == pytest.approx(0.5 / 0.75)
    assert m(0.0) == 0.5 and m(1.0) == 0.75


def test_weighted_ifs_validation():
    maps = (Similitude(0.5, 0.0), Similitude(0.25, 0.75))
    WeightedIFS((0, 1), maps, (0.5, 0.5))
    with pytest.raises(InputError):
        WeightedIFS((0, 0), maps, (0.5, 0.5))  # duplicate symbols
    with pytest.raises(InputError):
        WeightedIFS((0, 1), maps, (0.6, 0.6))  # weights exceed 1
    with pytest.raises(InputError):
        WeightedIFS((0, 1), maps, (1.0, 0.0))  # zero weight
    with pytest.raises(InputError):
        WeightedIFS((0,), maps, (0.5, 0.5))  # length mismatch
    with pytest.raises(InputError, match="non-empty"):
        WeightedIFS((), (), ())


def test_compose_word_applies_first_symbol_first(luroth23):
    # Word (2,3): apply the digit-2 map, then the digit-3 map on top.
    word = compose_word(luroth23, (2, 3))
    assert word.ratio_product == pytest.approx(1.0 / 12.0, abs=1e-15)
    assert word.intercept == pytest.approx(5.0 / 12.0, abs=1e-15)
    lo, hi = word.interval
    assert (lo, hi) == pytest.approx((5.0 / 12.0, 0.5), abs=1e-15)


def test_word_products_multiply(luroth23):
    word = compose_word(luroth23, (2, 3, 2))
    assert word.ratio_product == pytest.approx((1 / 2) * (1 / 6) * (1 / 2))
    w2, w3 = luroth23.weights
    expected_weight = (w2 ** 2) * w3
    assert word.weight_product == pytest.approx(expected_weight, rel=1e-15)
    assert word.symbols == (2, 3, 2)


def test_validate_disjointness_detects_overlap():
    maps = (Similitude(0.5, 0.0), Similitude(0.5, 0.25))
    report = validate_disjointness(
        WeightedIFS((0, 1), maps, (0.5, 0.5)))
    assert not report
    assert report.overlaps
    ok = validate_disjointness(
        WeightedIFS((0, 1), (Similitude(0.5, 0.0), Similitude(0.5, 0.5)),
                    (0.5, 0.5)))
    assert ok  # touching at one point is allowed


def test_stopping_family_golden(luroth23):
    fam = stopping_words(luroth23, 2.0)
    words = {w.symbols: w for w in fam.words}
    assert set(words) == {(2, 2, 2), (2, 2, 3), (2, 3), (3, 2), (3, 3)}
    # First symbol outermost: the family tiles the attractor by refinement.
    intervals = {
        (2, 2, 2): (7 / 8, 1.0),
        (2, 2, 3): (5 / 6, 7 / 8),
        (2, 3): (2 / 3, 3 / 4),
        (3, 2): (5 / 12, 1 / 2),
        (3, 3): (7 / 18, 5 / 12),
    }
    for syms, (lo, hi) in intervals.items():
        got_lo, got_hi = words[syms].interval
        assert got_lo == pytest.approx(lo, abs=1e-14)
        assert got_hi == pytest.approx(hi, abs=1e-14)
    assert fam.total_weight == pytest.approx(1.0, abs=1e-12)


def test_stopping_family_matches_breadth_first(luroth23):
    rng = np.random.default_rng(23)
    for _ in range(25):
        ifs = random_disjoint_ifs(rng)
        t = float(rng.uniform(0.5, 6.0))
        fam = stopping_words(ifs, t)
        got = {w.symbols for w in fam.words}
        want = bfs_stopping_words(
            [m.ratio for m in ifs.maps], math.exp(-t))
        assert got == want


def test_stopping_family_properties(luroth23):
    rng = np.random.default_rng(37)
    for _ in range(40):
        ifs = random_disjoint_ifs(rng)
        t = float(rng.uniform(1.0, 8.0))
        fam = stopping_words(ifs, t)
        threshold = math.exp(-t)
        r_min = ifs.min_ratio
        symbol_lists = sorted(w.symbols for w in fam.words)
        for a, b in zip(symbol_lists, symbol_lists[1:]):
            assert a != b[: len(a)], "family must be prefix-free"
        assert math.fsum(w.weight_product for w in fam.words) == pytest.approx(
            1.0, abs=1e-12)
        for w in fam.words:
            assert r_min * threshold < w.ratio_product <= threshold


def assert_family_at_tie(rng):
    # t = -log of a word's ratio product puts exp(-t) on a product that
    # words with the same symbol counts reach in different float orders.
    ifs = random_disjoint_ifs(rng, max_maps=3)
    word = rng.integers(0, ifs.size, size=int(rng.integers(2, 8)))
    t = -math.log(math.prod(ifs.maps[k].ratio for k in word))
    fam = stopping_words(ifs, t)
    assert len(fam) == mu_hat_cylinder(ifs, 1.0, t).cost
    assert len(fam) == lattice_family_size([m.ratio for m in ifs.maps], t)
    symbol_lists = sorted(w.symbols for w in fam.words)
    for a, b in zip(symbol_lists, symbol_lists[1:]):
        assert a != b[: len(a)], "family must be prefix-free"
    assert fam.total_weight == pytest.approx(1.0, abs=1e-12)


def test_stopping_family_size_is_cost_at_ties():
    rng = np.random.default_rng(41)
    for _ in range(300):
        assert_family_at_tie(rng)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_stopping_family_size_is_cost_at_ties_property(seed):
    assert_family_at_tie(np.random.default_rng(seed))


def test_stopping_family_level_order(luroth23):
    words = [w.symbols for w in stopping_words(luroth23, 6.0).words]
    assert words == sorted(words, key=lambda syms: (len(syms), syms))


def test_stopping_family_nested_intervals(luroth23):
    # Distinct family cylinders only meet at endpoints.
    fam = stopping_words(luroth23, 4.0)
    spans = sorted(w.interval for w in fam.words)
    for (lo1, hi1), (lo2, hi2) in zip(spans, spans[1:]):
        assert hi1 <= lo2 + 1e-12


def test_stopping_family_cap(luroth23):
    with pytest.raises(ResourceCapError) as err:
        stopping_words(luroth23, 12.0, cap=50)
    assert "cap" in str(err.value)


CANTOR = WeightedIFS((0, 1), (Similitude(1 / 3, 0.0), Similitude(1 / 3, 2 / 3)), (0.5, 0.5))


@pytest.mark.parametrize("t", [12.0, 16.0])
def test_stopping_family_cap_is_exact(luroth23, t):
    for ifs in (luroth23, CANTOR):
        size = len(stopping_words(ifs, t))
        assert len(stopping_words(ifs, t, cap=size)) == size
        with pytest.raises(ResourceCapError, match=f"has {size} words"):
            stopping_words(ifs, t, cap=size - 1)


NINETY = WeightedIFS((0, 1), (Similitude(0.9, 0.0), Similitude(0.05, 0.95)), (0.5, 0.5))


def test_min_states_never_exceeds_the_walk(luroth23):
    # The simplex volume bound that refuses a walk early is a lower bound
    # on the states the walk counts.
    cases = [(luroth23, float(t)) for t in np.linspace(0.25, 30.0, 120)]
    cases += [(CANTOR, 18.0), (NINETY, 40.0)]
    for ifs, t in cases:
        levels, _ = _stopping_states(ifs, t, DEFAULT_WORD_CAP)
        states = sum(len(ratios) for ratios, _ in levels)
        assert _min_states([-math.log(m.ratio) for m in ifs.maps], t) <= states


def test_single_map_family_is_one_word_at_any_depth():
    # The cap bounds the walk, ceil(10 / log 2) + 1 = 16 steps, not the one word.
    ifs = WeightedIFS((0,), (Similitude(0.5, 0.25),), (1.0,))
    fam = stopping_words(ifs, 10.0, cap=16)
    assert len(fam) == 1 and len(fam.words[0]) == 15
    assert mu_hat_cylinder(ifs, 3.0, 10.0, cap=16).cost == 1
    for call in (lambda: stopping_words(ifs, 10.0, cap=15),
                 lambda: mu_hat_cylinder(ifs, 3.0, 10.0, cap=15)):
        with pytest.raises(ResourceCapError, match="needs up to 16 steps, cap=15"):
            call()
    with pytest.raises(InputError):
        stopping_words(ifs, 10.0, cap=0)


@pytest.mark.parametrize("r,b,p,t", [
    (0.5, 0.25, 1.0, 10.0), (0.99, 0.0, 1.0, 3.0), (0.9, 0.05, 1.0, 20.0),
    (0.3, 0.7, 1.0 - 4e-13, 30.0), (0.7, 0.1, 1.0, 1e-3), (0.5, 0.5, 1.0, 800.0),
    # Float ties: ceil(t / -log r) is one above, and one below, the least n.
    (0.99, 0.0, 1.0, 16.653406509251905), (0.7, 0.1, 1.0, 52.787891702932406),
])
def test_single_map_word_follows_the_walk(r, b, p, t):
    ifs = WeightedIFS(("a",), (Similitude(r, b),), (p,))
    (word,) = stopping_words(ifs, t).words
    # The count rule: the least n with n * -log(r) >= t.
    ell = -math.log(r)
    assert len(word) == next(n for n in range(1, 10 ** 4) if n * ell >= t)
    # compose_word takes the running products of r and of p.
    ref = compose_word(ifs, word.symbols)
    assert word.ratio_product == pytest.approx(ref.ratio_product, rel=1e-15)
    assert word.weight_product == ref.weight_product
    assert word.intercept == pytest.approx(
        b * (1.0 - word.ratio_product) / (1.0 - r), rel=1e-12, abs=1e-300)


def test_single_map_long_word_without_a_level_walk():
    # About 3e5 symbols, found in closed form.
    ifs = WeightedIFS((0,), (Similitude(0.99999, 0.0),), (1.0,))
    (word,) = stopping_words(ifs, 3.0).words
    assert len(word) == math.ceil(3.0 / -math.log(0.99999))
    assert math.exp(-3.0) * 0.99999 < word.ratio_product <= math.exp(-3.0)
    assert word.intercept == 0.0 and word.weight_product == 1.0


@pytest.mark.parametrize("r,b,p,t", [
    (0.5, 0.25, 1.0, 10.0), (0.99, 0.01, 1.0 - 4e-13, 3.0), (1 / 3, 2 / 3, 1.0, 20.0),
    (0.5, 0.5, 1.0, 800.0), (0.999, 0.001, 1.0, 0.1), (0.9999999, 1e-7, 1.0 - 4e-13, 3.0),
])
def test_single_map_word_matches_high_precision(r, b, p, t):
    # The closed form against 50 digits over the same floats r, b and p;
    # r = 0.9999999 at t = 3 has about 3e7 symbols.
    ifs = WeightedIFS(("a",), (Similitude(r, b),), (p,))
    (word,) = stopping_words(ifs, t).words
    with mp.workdps(50):
        power = mpf(r) ** len(word)
        want = {"ratio_product": power, "intercept": mpf(b) * (1 - power) / (1 - mpf(r)),
                "weight_product": mpf(p) ** len(word)}
        for name, exact in want.items():
            got = getattr(word, name)
            assert abs(mpf(got) - exact) <= 4 * math.ulp(float(exact)), name


def test_single_map_word_past_float_underflow():
    # 2^-1155 is below the least subnormal; the count rule still stops at
    # the least n with n * log 2 >= 800.
    ifs = WeightedIFS(("a",), (Similitude(0.5, 0.5),), (1.0,))
    (word,) = stopping_words(ifs, 800.0).words
    assert len(word) == 1155 and word.ratio_product == 0.0 and word.intercept == 1.0


def test_family_size_matches_the_lattice_where_exp_underflows():
    # exp(-t) rounds to 0 at each of these t; long steps keep the lattice
    # under 6e3 count vectors.
    ifs = WeightedIFS((0, 1), (Similitude(1e-3, 0.0), Similitude(1e-4, 0.5)), (0.5, 0.5))
    for t in (745.5, 760.0, 800.0):
        assert mu_hat_cylinder(ifs, 1.0, t).cost == lattice_family_size([1e-3, 1e-4], t)


def test_stopping_rule_sums_s_correctly_rounded():
    # S(3, 2, 4) is t in math.fsum but one ulp below t summed left to
    # right, so the counts (3, 2, 4) are a family word only under fsum.
    r = (0.12105029093719787, 0.23445944682304004, 0.28906681370902465)
    maps = (Similitude(r[0], 0.0), Similitude(r[1], r[0]), Similitude(r[2], r[0] + r[1]))
    ifs = WeightedIFS((0, 1, 2), maps, (1 / 3, 1 / 3, 1 / 3))
    t = 14.199982571018941
    assert lattice_family_size(r, t) == 41709
    assert mu_hat_cylinder(ifs, 1.0, t).cost == 41709
    assert len(stopping_words(ifs, t)) == 41709


def test_single_map_walk_is_capped_before_its_first_step():
    # A ratio this close to 1 needs 3e7 steps to reach exp(-3); the bound
    # is checked before any of them, and the default cap still allows it.
    ifs = WeightedIFS((0,), (Similitude(0.9999999, 0.0),), (1.0,))
    steps = math.ceil(3.0 / -math.log(0.9999999)) + 1
    start = time.perf_counter()
    with pytest.raises(ResourceCapError, match=f"needs up to {steps} steps, cap=1000000"):
        stopping_words(ifs, 3.0, cap=1_000_000)
    assert time.perf_counter() - start < 0.5
    assert steps <= DEFAULT_WORD_CAP


@pytest.mark.parametrize("t, steps", [(1e200, r"\d{216}"), (1e300, "inf")])
def test_single_map_step_bound_beyond_any_cap(t, steps):
    # With a ratio of 1 - 2^-53, t / -log r is about 9e215 at t = 1e200
    # and overflows to inf at t = 1e300; both are refused, not rounded.
    ifs = WeightedIFS((0,), (Similitude(1 - 2 ** -53, 0.0),), (1.0,))
    with pytest.raises(ResourceCapError, match=f"needs up to {steps} steps, cap="):
        stopping_words(ifs, t)


def test_stopping_family_cap_checked_before_words_are_built(luroth23):
    # 252 527 words at t=20; the state walk that sizes the family holds a
    # few hundred entries, and no Word is built before the error.
    tracemalloc.start()
    try:
        with pytest.raises(ResourceCapError, match="has 252527 words"):
            stopping_words(luroth23, 20.0, cap=200_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2 ** 20


def test_stopping_walk_caps_entries_before_words(luroth23):
    # t=2: 4 states (12 entries) and 5 words; t=12: 70 states (210 entries)
    # and 1989 words.  The walk refuses on entries before words are counted.
    assert len(stopping_words(luroth23, 2.0, cap=12)) == 5
    with pytest.raises(ResourceCapError, match="needs more than cap=11 table entries"):
        stopping_words(luroth23, 2.0, cap=11)
    with pytest.raises(ResourceCapError, match="needs more than cap=209 table entries"):
        stopping_words(luroth23, 12.0, cap=209)
    with pytest.raises(ResourceCapError, match="has 1989 words, more than cap=210"):
        stopping_words(luroth23, 12.0, cap=210)


def test_stopping_walk_refuses_within_its_entries():
    # About 1e5 levels of up to 435 states: far more entries than the cap,
    # refused once the tables hold cap of them, at 8 B each plus one level.
    ifs = WeightedIFS((0, 1, 2), (Similitude(0.998, 0.0), Similitude(0.001, 0.998),
                                  Similitude(0.001, 0.999)), (0.5, 0.25, 0.25))
    tracemalloc.start()
    try:
        with pytest.raises(ResourceCapError, match="needs more than cap=200000 table entries"):
            stopping_words(ifs, 200.0, cap=200_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 200_000


def test_stopping_walk_depth_refused_before_the_walk(luroth23):
    # The walk keeps a state on each of its t / log 2 levels at least.
    start = time.perf_counter()
    with pytest.raises(ResourceCapError, match=r"needs up to \d{309} steps, cap="):
        stopping_words(luroth23, 1e308)
    with pytest.raises(ResourceCapError, match="needs up to 146 steps, cap=144"):
        mu_hat_cylinder(luroth23, 1.0, 100.0, cap=144)
    assert time.perf_counter() - start < 0.5


def test_stopping_family_rejects_bad_t(luroth23):
    with pytest.raises(InputError):
        stopping_words(luroth23, 0.0)
    with pytest.raises(InputError):
        stopping_words(luroth23, float("nan"))
