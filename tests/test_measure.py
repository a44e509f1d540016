import math
import time
import tracemalloc
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import selfsim.measure
from conftest import random_disjoint_ifs
from oracles import (
    compose_word, multiset_regularity, pairwise_diagonal_sweep, rowwise_diagonal_sweep)
from selfsim import (
    InputError,
    ResourceCapError,
    Similitude,
    WeightedIFS,
    diagonal_mass,
    interval_mass_bounds,
    regularity_scan,
)
from selfsim.cli import parse_spec
from selfsim.ifs import _refine
from selfsim.luroth import luroth_ifs, luroth_natural_ifs


@pytest.fixture(scope="module")
def luroth23():
    ifs, _ = luroth_natural_ifs((2, 3))
    return ifs


@pytest.fixture(scope="module")
def lebesgue():
    # Two half-scale maps tile [0,1]; the invariant measure is Lebesgue.
    return WeightedIFS(
        (0, 1), (Similitude(0.5, 0.0), Similitude(0.5, 0.5)), (0.5, 0.5))


def test_interval_mass_lebesgue_exact(lebesgue):
    assert interval_mass_bounds(lebesgue, (0.0, 0.25), 2) == (0.25, 0.25)
    assert interval_mass_bounds(lebesgue, (0.0, 1.0), 3) == (1.0, 1.0)
    lo, hi = interval_mass_bounds(lebesgue, (0.1, 0.35), 8)
    assert lo <= 0.25 <= hi
    assert hi - lo <= 2 * 2.0 ** -8 + 1e-12


def test_interval_mass_bounds_sandwich(luroth23):
    rng = np.random.default_rng(5)
    for _ in range(25):
        a = float(rng.uniform(0.0, 0.9))
        b = float(rng.uniform(a, 1.0))
        lo4, hi4 = interval_mass_bounds(luroth23, (a, b), 4)
        lo7, hi7 = interval_mass_bounds(luroth23, (a, b), 7)
        assert lo4 <= lo7 <= hi7 <= hi4 + 1e-15


def test_interval_mass_validation(luroth23):
    with pytest.raises(InputError):
        interval_mass_bounds(luroth23, (0.5, 0.2), 3)
    with pytest.raises(InputError):
        interval_mass_bounds(luroth23, (-0.5, 0.2), 3)
    with pytest.raises(InputError, match="depth"):
        interval_mass_bounds(luroth23, (0.2, 0.5), -1)
    with pytest.raises(ResourceCapError):
        # Boundary-chasing keeps the walk tiny, so only a minuscule cap trips.
        interval_mass_bounds(luroth23, (0.3, 0.7), 40, cap=5)


def test_regularity_scan_golden(luroth23):
    report = regularity_scan(luroth23, 6)
    assert report.alpha_hat == pytest.approx(0.6009668516136755, abs=1e-13)
    assert report.interval_constant == pytest.approx(5.87047310461706, rel=1e-12)
    assert len(report.rows) == 6
    # Natural weights equalize the mass exponent across every cylinder, so
    # the per-level exponent spread collapses.
    for _, lo_e, hi_e in report.rows:
        assert hi_e - lo_e <= 1e-12


def test_regularity_scan_bounds_masses():
    # alpha_hat must dominate the defining inequality on cylinders:
    # mass <= width^alpha, with no constant.
    rng = np.random.default_rng(29)
    for _ in range(50):
        ifs = random_disjoint_ifs(rng)
        alpha = regularity_scan(ifs, 3).alpha_hat
        for _ in range(20):
            syms = tuple(rng.integers(0, ifs.size, size=int(rng.integers(1, 9))).tolist())
            word = compose_word(ifs, syms)
            assert word.weight_product <= word.ratio_product ** alpha * (1 + 1e-12), syms


def test_regularity_alpha_clamped():
    rng = np.random.default_rng(17)
    for _ in range(10):
        ifs = random_disjoint_ifs(rng)
        report = regularity_scan(ifs, 4)
        assert 0.0 <= report.alpha_hat <= 1.0


def test_regularity_scan_matches_multiset_oracle():
    # With explicit weights the exponents differ across multisets; every
    # row is the exact extreme over the level's multisets, rounded once.
    rng = np.random.default_rng(23)
    for _ in range(300):
        ifs = random_disjoint_ifs(rng)
        depth = int(rng.integers(1, 12))
        report = regularity_scan(ifs, depth)
        rows, alpha_hat = multiset_regularity(ifs, depth)
        assert report.rows == rows
        assert report.alpha_hat == alpha_hat


def test_regularity_natural_weights_hit_the_moran_root():
    # Natural weights give every multiset the exponent s exactly, so
    # alpha_hat can differ from the Moran root by rounding only.
    for digits in combinations(range(2, 12), 3):
        ifs, s = luroth_natural_ifs(digits)
        for depth in (5, 30):
            alpha_hat = regularity_scan(ifs, depth).alpha_hat
            assert abs(alpha_hat - s) <= 3 * math.ulp(s), (digits, depth)


def test_regularity_cap_counts_rows(luroth23):
    assert len(regularity_scan(luroth23, 40, cap=40).rows) == 40
    with pytest.raises(ResourceCapError, match="needs 40 rows"):
        regularity_scan(luroth23, 40, cap=39)


def test_regularity_scan_is_linear_in_depth():
    # Levels 1..200 hold 70 058 750 symbol multisets; the scan visits 800 words.
    ifs = luroth_ifs((2, 3, 5, 7))
    start = time.perf_counter()
    report = regularity_scan(ifs, 200)
    assert time.perf_counter() - start < 0.05
    assert len(report.rows) == 200


def test_diagonal_mass_golden(lebesgue):
    lo, hi = diagonal_mass(lebesgue, 0.1, 6)
    assert lo == pytest.approx(0.16455078125, abs=1e-15)
    assert hi == pytest.approx(0.220703125, abs=1e-15)
    # Product Lebesgue mass of {|x-y| <= 0.1} is 2*0.1 - 0.1^2 = 0.19.
    assert lo <= 0.19 <= hi


def test_diagonal_mass_monotone(luroth23):
    pairs = [diagonal_mass(luroth23, d, 6) for d in (0.05, 0.1, 0.2)]
    for (lo1, hi1), (lo2, hi2) in zip(pairs, pairs[1:]):
        assert lo1 <= lo2 + 1e-15 and hi1 <= hi2 + 1e-15
    for lo, hi in pairs:
        assert 0.0 <= lo <= hi <= 1.0


def test_diagonal_mass_validation(luroth23):
    with pytest.raises(InputError):
        diagonal_mass(luroth23, -0.1, 4)
    with pytest.raises(ResourceCapError):
        diagonal_mass(luroth23, 0.1, 30, cap=1000)


def test_interval_mass_cap_is_exact(luroth23):
    # Count the nodes the walk builds: the root, then every child of each
    # cylinder that is partly inside the interval above the last level.
    a, b, depth = 0.3, 0.7, 9
    nodes = 1
    lo, hi = [0.0], [1.0]
    for _ in range(depth):
        partial = [(x, y) for x, y in zip(lo, hi) if min(y, b) > max(x, a)
                   and not (x >= a and y <= b)]
        nodes += luroth23.size * len(partial)
        lo = [x + (y - x) * m.translation for x, y in partial for m in luroth23.maps]
        hi = [x + (y - x) * (m.translation + m.ratio) for x, y in partial
              for m in luroth23.maps]
    assert interval_mass_bounds(luroth23, (a, b), depth, cap=nodes) == \
        interval_mass_bounds(luroth23, (a, b), depth)
    with pytest.raises(ResourceCapError, match=f"at least {nodes} nodes"):
        interval_mass_bounds(luroth23, (a, b), depth, cap=nodes - 1)


def test_diagonal_mass_pair_cap_is_exact(luroth23):
    delta, depth = 0.05, 6
    spans = sorted(w.interval for w in _level_words(luroth23, depth))
    # A cylinder pairs with itself and with every later one starting
    # within delta of its right end.
    pairs = sum(1 + sum(lo2 <= hi + delta for lo2, _ in spans[i + 1:])
                for i, (_, hi) in enumerate(spans))
    assert pairs > len(spans)
    assert diagonal_mass(luroth23, delta, depth, cap=pairs) == diagonal_mass(luroth23, delta, depth)
    with pytest.raises(ResourceCapError, match=f"needs {pairs} level-{depth} cylinder pairs"):
        diagonal_mass(luroth23, delta, depth, cap=pairs - 1)


def _sorted_level(ifs, depth):
    lo, width, mass = np.zeros(1), np.ones(1), np.ones(1)
    for _ in range(depth):
        lo, width, mass = _refine(ifs, lo, width, mass)
    order = np.argsort(lo, kind="stable")
    return lo[order], lo[order] + width[order], mass[order]


NINETY = '{"maps": [["9/10", "0"], ["1/20", "19/20"]]}'
CANTOR = '{"maps": [["1/3", "0"], ["1/3", "2/3"]]}'
# Overlapping maps with explicit weights: the sorted right ends are out of
# order, so a window whose end pairs lie in the strip need not lie in it
# whole.  A row takes its window sum only when the running maximum of the
# right ends allows it; with the window's last right end in its place,
# OVERLAP at delta 0.01 and NESTED fail the bit comparison with the pairwise
# sweep.  NESTED maps one cylinder inside another.
OVERLAP = ('{"maps": [["1/2", "0"], ["1/3", "1/4"], ["1/4", "3/4"]],'
           ' "weights": ["1/2", "1/4", "1/4"]}')
NESTED = ('{"maps": [["1/2", "0"], ["1/8", "1/8"], ["1/4", "3/4"]],'
          ' "weights": ["1/2", "1/4", "1/4"]}')


@pytest.mark.parametrize("spec,delta,depth,exact", [
    ('{"luroth": [2, 3]}', 1e-6, 16, True),   # the benchmark size, 1.76 M pairs
    (CANTOR, 0.1, 4, True),                   # the CLI contract case
    (CANTOR, 1.0, 4, True),                   # every window inside the strip
    ('{"luroth": [2, 3]}', 1e-9, 6, True),    # every window outside it
    ('{"luroth": [2, 3]}', 0.01, 6, False),   # windows inside, outside and across
    ('{"luroth": [2, 3]}', 0.01, 10, False),
    ('{"luroth": [2, 3]}', 1e-3, 14, False),
    ('{"luroth": [2, 3, 5, 7]}', 1e-3, 7, False),
    (NINETY, 0.3, 10, False),
    (NINETY, 0.5, 12, False),                 # long rows of pairs
    (OVERLAP, 0.01, 5, False),
    (OVERLAP, 1.0, 4, False),
    (NESTED, 0.05, 4, False),
])
def test_diagonal_sweep_matches_rowwise_loop(spec, delta, depth, exact, monkeypatch):
    ifs = parse_spec(spec).ifs
    lo, hi, mass = _sorted_level(ifs, depth)
    want = rowwise_diagonal_sweep(lo, hi, mass, delta)
    got = diagonal_mass(ifs, delta, depth)
    if exact:
        assert got == want
    else:
        ends = np.searchsorted(lo, hi + delta, side="right")
        pairs = int(np.maximum(ends - np.arange(len(lo)), 1).sum())
        tol = 4.0 * np.finfo(float).eps * pairs
        assert abs(got[0] - want[0]) <= tol and abs(got[1] - want[1]) <= tol
    # Window sums have the bits of the sweep over every pair.
    assert _same_bits(got, pairwise_diagonal_sweep(lo, hi, mass, delta))
    # Blocks take whole rows and carry the running sums, so their size
    # does not move a bit.
    monkeypatch.setattr(selfsim.measure, "_PAIR_ENTRIES", 97)
    assert _same_bits(diagonal_mass(ifs, delta, depth), got)


def _same_bits(a, b):
    return np.array_equal(np.array(a).view(np.uint64), np.array(b).view(np.uint64))


def _random_ifs(rng, overlapping):
    """A random system of two to four maps; overlapping ones get explicit weights."""
    if not overlapping:
        return random_disjoint_ifs(rng)
    k = int(rng.integers(2, 5))
    ratios = 0.1 + 0.6 * rng.random(k)
    maps = tuple(Similitude(float(r), float((1.0 - r) * rng.random())) for r in ratios)
    raw = 0.1 + rng.random(k)
    return WeightedIFS(tuple(range(k)), maps, tuple(float(w) for w in raw / raw.sum()))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), overlapping=st.booleans(),
       log_delta=st.floats(math.log(1e-5), math.log(0.5)), level=st.integers(1, 9),
       block=st.sampled_from([97, 1 << 16]))
def test_diagonal_window_sums_match_the_pairwise_sweep(seed, overlapping, log_delta,
                                                       level, block):
    rng = np.random.default_rng(seed)
    ifs = _random_ifs(rng, overlapping)
    # At most about 4000 cylinders, so that a wide strip stays small.
    depth = min(level, int(math.log(4096) / math.log(ifs.size)))
    delta = math.exp(log_delta)
    lo, hi, mass = _sorted_level(ifs, depth)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(selfsim.measure, "_PAIR_ENTRIES", block)
        got = diagonal_mass(ifs, delta, depth)
    assert _same_bits(got, pairwise_diagonal_sweep(lo, hi, mass, delta))


def test_diagonal_sweep_memory_is_blocked(luroth23):
    tracemalloc.start()
    try:
        diagonal_mass(luroth23, 1e-6, 16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20


def test_diagonal_sweep_peak_at_depth_16(luroth23):
    # The sorted left and right ends, the padded masses, the window ends,
    # the running maximum of the right ends and one block of at most 65 536
    # pairs peak at about 4.4 MiB; four more level arrays would pass 6 MiB.
    tracemalloc.start()
    try:
        diagonal_mass(luroth23, 1e-6, 16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2 ** 20


def _level_words(ifs, depth):
    return [compose_word(ifs, syms) for syms in product(ifs.symbols, repeat=depth)]
