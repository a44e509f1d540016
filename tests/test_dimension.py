import math

import numpy as np
import pytest

from conftest import random_disjoint_ifs
from selfsim import (
    PreconditionError,
    Similitude,
    WeightedIFS,
    moran_value,
    natural_weights,
    solve_moran,
)
from selfsim.luroth import luroth_ifs

# Root of (1/2)^s + (1/6)^s = 1, frozen from a 200-step bisection plus
# Newton polish; the acceptance target carries a few more digits.
LUROTH23_DIM = 0.6009668516136755


def equal_map_ifs(n: int, m: int) -> WeightedIFS:
    # n maps of ratio 1/m with translations spread evenly across [0, 1-1/m];
    # disjoint whenever n <= m.
    step = (1.0 - 1.0 / m) / max(n - 1, 1)
    maps = tuple(Similitude(1.0 / m, k * step) for k in range(n))
    return WeightedIFS(tuple(range(n)), maps, tuple(1.0 / n for _ in range(n)))


def test_luroth23_dimension_golden():
    sol = solve_moran(luroth_ifs((2, 3)))
    assert abs(sol.s_star - LUROTH23_DIM) <= 1e-14
    assert sol.residual <= 1e-14
    assert moran_value(luroth_ifs((2, 3)), sol.s_star) == pytest.approx(
        1.0, abs=1e-13)


def test_closed_form_dimensions():
    cantor = WeightedIFS(
        (0, 1),
        (Similitude(1 / 3, 0.0), Similitude(1 / 3, 2 / 3)),
        (0.5, 0.5))
    assert abs(solve_moran(cantor).s_star - math.log(2) / math.log(3)) <= 1e-13
    for n, m in [(2, 4), (3, 5), (4, 7), (9, 10), (2, 3)]:
        sol = solve_moran(equal_map_ifs(n, m))
        assert abs(sol.s_star - math.log(n) / math.log(m)) <= 1e-13


def test_single_map_dimension_zero():
    ifs = WeightedIFS((0,), (Similitude(0.5, 0.5),), (1.0,))
    sol = solve_moran(ifs)
    assert sol.s_star == 0.0 and sol.residual == 0.0


def test_moran_preconditions():
    overlapping = WeightedIFS(
        (0, 1),
        (Similitude(0.5, 0.0), Similitude(2 / 3, 0.0)),
        (0.5, 0.5))
    with pytest.raises(PreconditionError) as err:
        solve_moran(overlapping)
    assert "disjointness" in str(err.value)
    # Three maps of ratio 1/3 + 6e-13 whose neighbours overlap by 9e-13,
    # within the disjointness tolerance, but whose total length
    # 1.0000000000018 exceeds 1.
    r = 1 / 3 + 0.6e-12
    crowded = WeightedIFS(
        (0, 1, 2),
        tuple(Similitude(r, t) for t in (0.0, r - 0.9e-12, 2 * r - 1.8e-12)),
        (1 / 3, 1 / 3, 1 / 3))
    with pytest.raises(PreconditionError, match="total level-1 length"):
        solve_moran(crowded)


def test_moran_value_validation():
    ifs = luroth_ifs((2, 3))
    with pytest.raises(Exception):
        moran_value(ifs, -0.1)
    with pytest.raises(Exception):
        moran_value(ifs, 1.5)


def test_natural_weights_golden():
    ifs = luroth_ifs((2, 3))
    sol = solve_moran(ifs)
    nat = natural_weights(ifs, sol.s_star)
    assert nat.weights == pytest.approx(
        (0.659311955892103, 0.340688044107897), abs=1e-14)
    assert math.fsum(nat.weights) == pytest.approx(1.0, abs=1e-12)
    # Natural weight of a map is its ratio raised to the dimension.
    for m, w in zip(nat.maps, nat.weights):
        assert w == pytest.approx(m.ratio ** sol.s_star, rel=1e-12)


def test_random_systems_solve_cleanly():
    rng = np.random.default_rng(101)
    for _ in range(40):
        ifs = random_disjoint_ifs(rng)
        sol = solve_moran(ifs)
        assert 0.0 < sol.s_star <= 1.0
        assert sol.residual <= 1e-14
        nat = natural_weights(ifs, sol.s_star)
        assert math.fsum(nat.weights) == pytest.approx(1.0, abs=1e-12)
