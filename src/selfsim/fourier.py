"""Fourier transform of self-similar measures and decay-rate diagnostics.

The transform at frequency xi is the integral of exp(-2*pi*i*xi*x) against
the measure.  Two evaluators are provided: a certified sum over stopping
cylinders with an explicit error bound, and a Monte Carlo average over
random attractor points with a bias plus sampling bound.  On top of these
sit a dyadic maximum envelope, a log-log decay fit, and the closed-form
polylogarithmic decay exponent together with its frequency threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
# stopping_words is unused here but stays importable under this name:
# bench/child.py wraps selfsim.fourier.stopping_words when tracing, and
# `--trace 1` fails with AttributeError without it.
from .ifs import DEFAULT_WORD_CAP, WeightedIFS, _stopping_states, stopping_words  # noqa: F401

TWO_PI = 2.0 * math.pi

# Complex entries of one level array in a frequency block of the fold.
_FOLD_ENTRIES = 2_000_000


@dataclass(frozen=True)
class SpectralSample:
    """One evaluation of the transform with a certified error bound."""

    xi: float
    value: complex
    error_bound: float
    method: str
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
) -> tuple[np.ndarray, int]:
    """Cylinder midpoint sums over the stopping family at every frequency.

    Returns the transform values sum_w p_w exp(-2*pi*i*xi*(c_w + r_w/2))
    at ``xis`` and the family size.  The sum is folded up the states of
    _stopping_states, deepest level first:

        V_s = sum_k p_k exp(-2*pi*i*xi*r_s*b_k) * V_{s+e_k}    (internal child)
            + sum_k p_k exp(-2*pi*i*xi*r_s*(b_k + r_k/2))      (child is a word)

    and the root value is the family sum.  Only two levels are live at a
    time, and frequencies are processed in blocks of at most
    _FOLD_ENTRIES entries per level.  The angles carry the sign of xi
    through exact negations only, so conjugate frequencies give exactly
    conjugate values.
    """
    levels, words = _stopping_states(ifs, t, cap)
    xis = np.asarray(xis, dtype=float)
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
                word = child < 0
                inner = ~word
                term = np.empty_like(here)
                term[word] = np.exp(1j * (angle[word] * (m.translation + 0.5 * m.ratio)))
                term[inner] = np.exp(1j * (angle[inner] * m.translation)) * below[child[inner]]
                here += p * term
            below = here
        values[start:start + len(chunk)] = below[0]
    return values, words


def mu_hat_cylinder(
    ifs: WeightedIFS,
    xi: float,
    t: float,
    cap: int = DEFAULT_WORD_CAP,
) -> SpectralSample:
    """Evaluate the transform by collapsing each stopping cylinder to its midpoint.

    Every point of a cylinder sits within exp(-t) of the midpoint, and the
    phase exp(-2*pi*i*xi*x) has Lipschitz constant 2*pi*|xi|, so the
    returned bound pi*|xi|*exp(-t) dominates the true error (using the
    half-width exp(-t)/2 per cylinder).
    """
    values, words = _family_sums(ifs, t, np.array([float(xi)]), cap)
    return SpectralSample(
        xi=float(xi),
        value=complex(values[0]),
        error_bound=math.pi * abs(xi) * math.exp(-t),
        method="cylinder",
        cost=words,
    )


def mu_hat_monte_carlo(
    ifs: WeightedIFS,
    xi: float,
    samples: int,
    depth: int,
    seed: int,
) -> SpectralSample:
    """Estimate the transform by averaging over random depth-limited points.

    Points are driven from the interval midpoint by ``depth`` random maps
    drawn with the system's weights, so each lands within max_ratio^depth
    of an exactly distributed point; the error bound adds that phase bias
    to a 3/sqrt(samples) sampling term (about three standard deviations
    for a quantity of modulus at most 1).  Deterministic given the seed.
    """
    if samples < 1:
        raise InputError(f"need at least one sample, got {samples!r}")
    if depth < 1:
        raise InputError(f"depth must be at least 1, got {depth!r}")
    rng = np.random.default_rng(seed)
    ratios = np.array([m.ratio for m in ifs.maps])
    trans = np.array([m.translation for m in ifs.maps])
    probs = np.array(ifs.weights)
    probs = probs / probs.sum()
    x = np.full(samples, 0.5)
    for _ in range(depth):
        idx = rng.choice(ifs.size, size=samples, p=probs)
        x = ratios[idx] * x + trans[idx]
    value = complex(np.mean(np.exp((-1j * TWO_PI * xi) * x)))
    bias = math.pi * abs(xi) * ifs.max_ratio ** depth
    return SpectralSample(
        xi=float(xi),
        value=value,
        error_bound=bias + 3.0 / math.sqrt(samples),
        method="monte_carlo",
        cost=samples * depth,
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
    sides come from one fold over the same stopping states; the reported
    residual is bounded by the parent error bound plus the weighted child
    bounds.
    """
    xis = np.array([xi] + [m.ratio * xi for m in ifs.maps], dtype=float)
    values, _ = _family_sums(ifs, t, xis, cap)
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
    [X, 2X) the grid points are X * 2^(j / points_per_octave).  Each block
    reports its maximum modulus and the largest per-sample error bound.
    Every frequency is summed by one fold over the stopping states.
    ``xi_max`` must keep the phases 2*pi*xi*x finite.
    """
    if not (xi_max > 1.0 and math.isfinite(TWO_PI * xi_max)):
        raise InputError(
            f"frequency ceiling must exceed 1 and keep 2*pi*xi_max finite, got {xi_max!r}")
    if points_per_octave < 1:
        raise InputError(
            f"need at least one point per octave, got {points_per_octave!r}")
    blocks: list[tuple[float, np.ndarray]] = []
    k = 0
    while 2.0 ** k < xi_max:
        x = 2.0 ** k
        xis = x * 2.0 ** (np.arange(points_per_octave) / points_per_octave)
        xis = xis[xis <= xi_max]
        if len(xis):
            blocks.append((x, xis))
        k += 1
    values, words = _family_sums(
        ifs, t, np.concatenate([xis for _, xis in blocks]), cap)
    splits = np.cumsum([len(xis) for _, xis in blocks])[:-1]
    samples: list[SpectralSample] = []
    envelope: list[EnvelopePoint] = []
    for (x, xis), vals in zip(blocks, np.split(values, splits)):
        errs = math.pi * np.abs(xis) * math.exp(-t)
        block: list[SpectralSample] = [
            SpectralSample(float(xi), complex(v), float(e), "cylinder", words)
            for xi, v, e in zip(xis, vals, errs)
        ]
        samples.extend(block)
        # The block maximum is taken over the emitted sample values so the
        # envelope agrees with the samples bit for bit.
        envelope.append(EnvelopePoint(float(x), max(abs(s.value) for s in block),
                                      float(errs.max())))
    return tuple(samples), tuple(envelope)


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


def theoretical_beta(alpha: float, l: float) -> float:
    """Closed-form decay exponent alpha / (2 * (1 + 2*alpha) * (8*l - 7))."""
    if not (0.0 <= alpha <= 1.0):
        raise InputError(f"regularity exponent must lie in [0,1], got {alpha!r}")
    if not (l >= 2.0):
        raise InputError(f"auxiliary degree must be at least 2, got {l!r}")
    return alpha / (2.0 * (1.0 + 2.0 * alpha) * (8.0 * l - 7.0))


def solve_t_of_xi(alpha: float, l: float, xi: float) -> float:
    """Invert xi = t^e * exp(t) for t > 1, e = (1+alpha)/((1+2*alpha)*(8l-7)).

    The left side is strictly increasing for t > 0, so the root is unique;
    it exists only when log|xi| > 1.  Bisection brackets the root and a few
    Newton steps polish it to full precision.
    """
    if not (0.0 <= alpha <= 1.0):
        raise InputError(f"regularity exponent must lie in [0,1], got {alpha!r}")
    if not (l >= 2.0):
        raise InputError(f"auxiliary degree must be at least 2, got {l!r}")
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
