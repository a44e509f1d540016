import math
import time
import tracemalloc
from itertools import combinations, product

import numpy as np
import pytest

import selfsim.measure
from conftest import random_disjoint_ifs
from oracles import multiset_regularity, rowwise_diagonal_sweep
from selfsim import (
    InputError,
    compose_word,
    ResourceCapError,
    Similitude,
    WeightedIFS,
    cylinder_mass,
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


def test_cylinder_mass_golden(luroth23):
    word = compose_word(luroth23, (2, 3))
    assert cylinder_mass(luroth23, word) == pytest.approx(
        0.22461970070983261, abs=1e-16)
    w2 = luroth23.weight_for(2)
    w3 = luroth23.weight_for(3)
    assert cylinder_mass(luroth23, word) == pytest.approx(w2 * w3, rel=1e-15)
    with pytest.raises(InputError):
        compose_word(luroth23, (2, 7))


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
    with pytest.raises(ResourceCapError):
        # Boundary-chasing keeps the walk tiny, so only a minuscule cap trips.
        interval_mass_bounds(luroth23, (0.3, 0.7), 40, cap=5)


def test_regularity_scan_golden(luroth23):
    report = regularity_scan(luroth23, 6)
    assert report.alpha_hat == pytest.approx(0.6009668516136755, abs=1e-13)
    assert report.prefactor == pytest.approx(1.0, abs=1e-12)
    assert report.interval_constant == pytest.approx(5.87047310461706, rel=1e-12)
    assert report.min_scale == pytest.approx(2.1433470507544566e-05, rel=1e-12)
    assert len(report.rows) == 6
    # Natural weights equalize the mass exponent across every cylinder, so
    # the per-level exponent spread collapses.
    for _, lo_e, hi_e in report.rows:
        assert hi_e - lo_e <= 1e-12


def test_regularity_scan_bounds_masses(luroth23):
    # The fitted constants must dominate the defining inequality on
    # cylinders: mass <= prefactor * width^alpha.
    report = regularity_scan(luroth23, 5)
    for syms in [(2,), (3,), (2, 3), (3, 3), (2, 2, 3)]:
        word = compose_word(luroth23, syms)
        mass = word.weight_product
        width = word.ratio_product
        assert mass <= report.prefactor * width ** report.alpha_hat * (1 + 1e-12)


def test_regularity_alpha_clamped():
    rng = np.random.default_rng(17)
    for _ in range(10):
        ifs = random_disjoint_ifs(rng)
        report = regularity_scan(ifs, 4)
        assert 0.0 <= report.alpha_hat <= 1.0


def test_regularity_scan_matches_multiset_oracle():
    # With explicit weights the exponents differ across multisets, and the
    # single-symbol words reproduce the full enumeration bit for bit.
    rng = np.random.default_rng(23)
    for _ in range(300):
        ifs = random_disjoint_ifs(rng)
        depth = int(rng.integers(1, 12))
        report = regularity_scan(ifs, depth)
        rows, alpha_hat, prefactor, min_scale = multiset_regularity(ifs, depth)
        assert report.rows == rows
        assert report.alpha_hat == alpha_hat
        assert report.prefactor == prefactor
        assert report.min_scale == min_scale


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


@pytest.mark.parametrize("spec,delta,depth,exact", [
    ('{"luroth": [2, 3]}', 1e-6, 16, True),   # the benchmark size, 1.76 M pairs
    (CANTOR, 0.1, 4, True),                   # the CLI contract case
    ('{"luroth": [2, 3]}', 0.01, 10, False),
    ('{"luroth": [2, 3]}', 1e-3, 14, False),
    ('{"luroth": [2, 3, 5, 7]}', 1e-3, 7, False),
    (NINETY, 0.3, 10, False),
    (NINETY, 0.5, 12, False),                 # long rows of pairs
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
    # Blocks take whole rows and carry the running sums, so their size
    # does not move a bit.
    monkeypatch.setattr(selfsim.measure, "_PAIR_ENTRIES", 97)
    assert diagonal_mass(ifs, delta, depth) == got


def test_diagonal_sweep_memory_is_blocked(luroth23):
    tracemalloc.start()
    try:
        diagonal_mass(luroth23, 1e-6, 16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20


def _level_words(ifs, depth):
    return [compose_word(ifs, syms) for syms in product(ifs.symbols, repeat=depth)]
