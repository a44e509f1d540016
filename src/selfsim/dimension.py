"""Similarity dimension: the Moran equation and its natural weights.

For ratios r_1..r_K the Moran value at s is sum(r_k^s).  With disjoint
level-1 intervals the value is strictly decreasing in s, starts at K and
is at most 1 at s = 1, so the similarity dimension is the unique root of
sum(r_k^s) = 1 in [0,1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InputError, InternalInvariantError, PreconditionError
from .ifs import WeightedIFS, _require_disjoint

# The solver refuses to return a root whose residual exceeds this.
MORAN_RESIDUAL_TOL = 1e-14


@dataclass(frozen=True)
class MoranSolution:
    """Root of the Moran equation with its certificate."""

    s_star: float
    residual: float
    iterations: int


def moran_value(ifs: WeightedIFS, s: float) -> float:
    """Sum of contraction ratios raised to the power s, for s in [0,1]."""
    if not (0.0 <= s <= 1.0):
        raise InputError(f"Moran exponent must lie in [0,1], got {s!r}")
    return math.fsum(m.ratio ** s for m in ifs.maps)


def _moran_slope(ifs: WeightedIFS, s: float) -> float:
    return math.fsum(m.ratio ** s * math.log(m.ratio) for m in ifs.maps)


def solve_moran(ifs: WeightedIFS) -> MoranSolution:
    """Solve sum(r^s) = 1 by bisection polished with Newton steps.

    Requires pairwise disjoint level-1 interiors, which forces the total
    level-1 length to stay at most 1.  A single-map system has dimension 0
    by convention.  The returned residual is |sum(r^s*) - 1|.
    """
    _require_disjoint(ifs)
    if moran_value(ifs, 1.0) > 1.0 + 1e-12:
        raise PreconditionError(
            f"total level-1 length {moran_value(ifs, 1.0)!r} exceeds 1")
    if ifs.size == 1:
        return MoranSolution(0.0, 0.0, 0)

    lo, hi = 0.0, 1.0
    iterations = 0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        iterations += 1
        if moran_value(ifs, mid) > 1.0:
            lo = mid
        else:
            hi = mid
    s = 0.5 * (lo + hi)
    for _ in range(5):
        iterations += 1
        s = min(1.0, max(0.0, s - (moran_value(ifs, s) - 1.0) / _moran_slope(ifs, s)))
    residual = abs(moran_value(ifs, s) - 1.0)
    if residual > MORAN_RESIDUAL_TOL:
        raise InternalInvariantError(
            f"Moran solver stalled: residual {residual!r} at s={s!r}")
    return MoranSolution(s, residual, iterations)


def natural_weights(ifs: WeightedIFS, s: float) -> WeightedIFS:
    """Reweight the system with weights proportional to ratio^s.

    At the Moran root the weights are r^s themselves; normalising by the
    Moran value makes the construction usable at any exponent in [0,1].
    """
    total = moran_value(ifs, s)
    return ifs.with_weights(tuple(m.ratio ** s / total for m in ifs.maps))
