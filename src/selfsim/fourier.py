"""Fourier transform of self-similar measures and decay-rate diagnostics.

The transform at frequency xi is the integral of exp(-2*pi*i*xi*x) against
the measure.  One evaluator computes it: a sum over the stopping
cylinders at scale exp(-t), folded over their symbol-count states, with
the explicit error bound pi*|xi|*exp(-t).  On top of it sit a
self-similarity residual, a dyadic maximum envelope, a log-log decay
fit, and the closed-form polylogarithmic decay exponent together with
its frequency threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, ResourceCapError
# stopping_words is unused here but stays importable under this name:
# bench/child.py wraps selfsim.fourier.stopping_words when tracing, and
# `--trace 1` fails with AttributeError without it.
from .ifs import (  # noqa: F401
    DEFAULT_WORD_CAP, WeightedIFS, _single_map_word, _stopping_states, stopping_words)

TWO_PI = 2.0 * math.pi

# Complex entries of one level array in a frequency block of the fold.
_FOLD_ENTRIES = 2_000_000


@dataclass(frozen=True)
class SpectralSample:
    """One transform value with an error bound that holds in exact arithmetic."""

    xi: float
    value: complex
    error_bound: float
    cost: int


@dataclass(frozen=True)
class EnvelopePoint:
    """Maximum modulus over one dyadic frequency block [x, 2x)."""

    x: float
    max_abs: float
    error_bound: float


@dataclass(frozen=True)
class DecayFit:
    """Least-squares fit of log(envelope) against log(log(frequency))."""

    beta_hat: float
    log_c: float
    window: tuple[float, float]
    residual_rms: float
    envelope: tuple[tuple[float, float], ...]


def _family_sums(
    ifs: WeightedIFS, t: float, xis: np.ndarray, cap: int,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Cylinder midpoint sums over the stopping family at every frequency.

    Returns the transform values sum_w p_w exp(-2*pi*i*xi*(c_w + r_w/2))
    at ``xis``, their midpoint-rule bounds pi*|xi|*exp(-t), and the family
    size; every Fourier output reads its values and bounds from here.  The
    sum is folded up the states of _stopping_states, deepest level first:

        V_s = sum_k p_k exp(-2*pi*i*xi*r_s*b_k) * V_{s+e_k}    (internal child)
            + sum_k p_k exp(-2*pi*i*xi*r_s*(b_k + r_k/2))      (child is a word)

    and the root value is the family sum.  Only two levels are live at a
    time, and frequencies are processed in blocks of at most
    _FOLD_ENTRIES entries per level.  The angles carry the sign of xi
    through exact negations only, so conjugate frequencies give exactly
    conjugate values.  Child products are formed out of place, as numpy
    rounds an in-place one-element complex product by another loop.  A
    single map's family is one word, whose term is taken directly.
    """
    xis = np.asarray(xis, dtype=float)
    if ifs.size == 1:
        _, ratio, lo, mass = _single_map_word(ifs, t, cap)
        values, words = mass * np.exp(1j * (-TWO_PI * (lo + 0.5 * ratio) * xis)), 1
    else:
        levels, words = _stopping_states(ifs, t, cap)
        rows = max(1, _FOLD_ENTRIES // max(len(ratio) for ratio, _ in levels))
        values = np.empty(len(xis), dtype=complex)
        for start in range(0, len(xis), rows):
            chunk = xis[start:start + rows]
            below = np.empty((0, len(chunk)), dtype=complex)
            for ratio, children in reversed(levels):
                angle = np.multiply.outer(-TWO_PI * ratio, chunk)
                here = np.zeros(angle.shape, dtype=complex)
                for k, (m, p) in enumerate(zip(ifs.maps, ifs.weights)):
                    child = children[:, k]
                    inner = child >= 0
                    shift = np.where(inner, m.translation, m.translation + 0.5 * m.ratio)
                    term = np.exp(1j * (angle * shift[:, None]))
                    term[inner] = term[inner] * below[child[inner]]
                    here += p * term
                below = here
            values[start:start + len(chunk)] = below[0]
    return values, math.pi * np.abs(xis) * math.exp(-t), words


def mu_hat_cylinder(
    ifs: WeightedIFS,
    xi: float,
    t: float,
    cap: int = DEFAULT_WORD_CAP,
) -> SpectralSample:
    """Evaluate the transform by collapsing each stopping cylinder to its midpoint.

    Every point of a cylinder sits within exp(-t) of the midpoint, and the
    phase exp(-2*pi*i*xi*x) has Lipschitz constant 2*pi*|xi|, so the
    returned bound pi*|xi|*exp(-t) dominates the error of the midpoint
    rule (using the half-width exp(-t)/2 per cylinder).  It does not count
    the float rounding of the phases, which exceeds it at depth.  The
    sample is, bit for bit, dyadic_scan's sample at the same xi and t.
    """
    values, bounds, words = _family_sums(ifs, t, np.array([float(xi)]), cap)
    return SpectralSample(
        xi=float(xi),
        value=complex(values[0]),
        error_bound=float(bounds[0]),
        cost=words,
    )


def self_similarity_residual(
    ifs: WeightedIFS,
    xi: float,
    t: float,
    cap: int = DEFAULT_WORD_CAP,
) -> float:
    """Distance between the transform and its one-step refinement.

    The measure equals the weight combination of its images under the
    level-1 maps, so the transform at xi must match the weighted sum of
    child transforms at ratio*xi twisted by the translation phases.  Both
    sides come from one fold over the same stopping states.  Only the
    distance |parent - weighted twisted children| is returned; the fold's
    error bounds are neither added to it nor returned beside it.
    """
    xis = np.array([xi] + [m.ratio * xi for m in ifs.maps], dtype=float)
    values, _, _ = _family_sums(ifs, t, xis, cap)
    combined = 0j
    for m, p, child in zip(ifs.maps, ifs.weights, values[1:]):
        phase = np.exp(-1j * TWO_PI * xi * m.translation)
        combined += p * complex(phase) * complex(child)
    return abs(complex(values[0]) - combined)


def dyadic_scan(
    ifs: WeightedIFS,
    xi_max: float,
    points_per_octave: int,
    t: float,
    cap: int = DEFAULT_WORD_CAP,
) -> tuple[tuple[SpectralSample, ...], tuple[EnvelopePoint, ...]]:
    """Evaluate the transform on a geometric grid and reduce to block maxima.

    Blocks start at the powers of two below ``xi_max``; inside the block
    [X, 2X) the grid points are X * 2^(j / points_per_octave).  Returns the
    samples in frequency order, each value and bound from one fold, and per
    block its largest modulus and bound.  The moduli are Python's abs, as
    np.abs can differ in the last bit and the envelope must match the
    samples.  ``xi_max`` must keep the phases 2*pi*xi*x finite, and the
    grid's blocks times ``points_per_octave``, an upper bound on its points,
    is checked against ``cap`` before any block is built.
    """
    if not (xi_max > 1.0 and math.isfinite(TWO_PI * xi_max)):
        raise InputError(
            f"frequency ceiling must exceed 1 and keep 2*pi*xi_max finite, got {xi_max!r}")
    if points_per_octave < 1:
        raise InputError(
            f"need at least one point per octave, got {points_per_octave!r}")
    octaves = 0
    while 2.0 ** octaves < xi_max:
        octaves += 1
    count = octaves * points_per_octave
    if count > cap:
        raise ResourceCapError(f"frequency grid needs up to {count} points, cap={cap}")
    starts = 2.0 ** np.arange(octaves)
    grid = np.multiply.outer(starts, 2.0 ** (np.arange(points_per_octave) / points_per_octave))
    xis = grid[grid <= xi_max]
    values, bounds, words = _family_sums(ifs, t, xis, cap)
    samples = tuple(map(SpectralSample, xis.tolist(), values.tolist(), bounds.tolist(),
                        [words] * len(xis)))
    # Only the last block can pass xi_max, so block k starts at sample k * points_per_octave.
    firsts = np.arange(octaves) * points_per_octave
    moduli = np.array([abs(s.value) for s in samples])
    envelope = tuple(map(EnvelopePoint, starts.tolist(),
                         np.maximum.reduceat(moduli, firsts).tolist(),
                         np.maximum.reduceat(bounds, firsts).tolist()))
    return samples, envelope


def decay_fit(envelope) -> DecayFit:
    """Fit max|transform| ~ C * (log X)^(-beta) on the dyadic envelope.

    Accepts EnvelopePoint sequences or (x, value) pairs.  Blocks with
    X < e^2 are dropped so log(log X) stays comfortably positive; at least
    4 usable blocks are required.  beta_hat is minus the least-squares
    slope of log(value) against log(log X).
    """
    points: list[tuple[float, float]] = []
    for item in envelope:
        if isinstance(item, EnvelopePoint):
            points.append((item.x, item.max_abs))
        else:
            x, v = item[0], item[1]
            points.append((float(x), float(v)))
    usable = [(x, v) for x, v in points if x >= math.exp(2.0) and v > 0.0]
    if len(usable) < 4:
        raise InputError(
            f"decay fit needs at least 4 blocks with X >= e^2 and positive "
            f"envelope, got {len(usable)}")
    lx = np.log(np.log([x for x, _ in usable]))
    ly = np.log([v for _, v in usable])
    mx = lx.mean()
    my = ly.mean()
    var = float(np.dot(lx - mx, lx - mx))
    slope = float(np.dot(lx - mx, ly - my)) / var
    intercept = my - slope * mx
    pred = intercept + slope * lx
    rms = float(np.sqrt(np.mean((ly - pred) ** 2)))
    return DecayFit(
        beta_hat=-slope,
        log_c=intercept,
        window=(usable[0][0], usable[-1][0]),
        residual_rms=rms,
        envelope=tuple(points),
    )


def _check_exponent_and_degree(alpha: float, l: float) -> None:
    if not (0.0 <= alpha <= 1.0):
        raise InputError(f"regularity exponent must lie in [0,1], got {alpha!r}")
    if not (l >= 2.0):
        raise InputError(f"auxiliary degree must be at least 2, got {l!r}")


def theoretical_beta(alpha: float, l: float) -> float:
    """Closed-form decay exponent alpha / (2 * (1 + 2*alpha) * (8*l - 7))."""
    _check_exponent_and_degree(alpha, l)
    return 0.5 * (alpha / (1.0 + 2.0 * alpha)) / (8.0 * l - 7.0)


def solve_t_of_xi(alpha: float, l: float, xi: float) -> float:
    """Invert xi = t^e * exp(t) for t > 1, e = (1+alpha)/((1+2*alpha)*(8l-7)).

    The left side is strictly increasing for t > 0, so the root is unique;
    it exists only when log|xi| > 1.  Bisection brackets the root and a few
    Newton steps polish it to full precision.
    """
    _check_exponent_and_degree(alpha, l)
    target = math.log(abs(xi)) if xi else -math.inf
    if not (target > 1.0):
        raise InputError(
            f"no threshold above 1 exists for |xi| = {abs(xi)!r}; need "
            "log|xi| > 1")
    expo = (1.0 + alpha) / ((1.0 + 2.0 * alpha) * (8.0 * l - 7.0))
    # g(t) = e*log(t) + t - log|xi| changes sign on [1, log|xi|].
    lo, hi = 1.0, target
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if expo * math.log(mid) + mid > target:
            hi = mid
        else:
            lo = mid
    root = 0.5 * (lo + hi)
    for _ in range(4):
        g = expo * math.log(root) + root - target
        root -= g / (expo / root + 1.0)
    return root
