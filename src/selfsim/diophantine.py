"""Diophantine diagnostics for the log-contraction measure.

The auxiliary measure of a weighted system puts mass p_w at -log(r_w) for
each alphabet symbol.  Its Laplace transform on the imaginary axis detects
near-resonances: frequencies b where 1 - L(i*b) nearly vanishes.  The scan
here brackets the least gap in each dyadic block of b, to show how fast the
near-zeros decay relative to b^l: a weak diophantine property of the
location ratios.  The module also hosts continued fractions, a rationality
test for location ratios, and the closed-form linear-forms-in-logarithms
constants used by the integer-digit applications.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import InputError, ResourceCapError
from .ifs import DEFAULT_WORD_CAP, WeightedIFS

# Rationality detection for location ratios: certified denominators stay
# at or below this cap, with this residual tolerance.
LATTICE_DENOMINATOR_CAP = 10 ** 6
LATTICE_TOL = 1e-11

# Continued fractions stop once denominators pass this guard; beyond it a
# float carries no further usable quotients.
CF_DENOMINATOR_GUARD = 2 ** 50

# A partial quotient this large marks the remainder as zero at float
# precision, i.e. the expansion has effectively terminated.
HUGE_QUOTIENT = 10 ** 8

# Atom locations closer than this are merged.
ATOM_MERGE_TOL = 1e-12

# The resonance scan splits an interval while its lower bound on the squared
# gap is below (1 - SCAN_TOL)^2 times its block's least value, and evaluates
# at most SCAN_CHUNK centres in one array.
SCAN_TOL = 0.02
SCAN_CHUNK = 65536
_U = 2.0 ** -53  # unit roundoff of float64

@dataclass(frozen=True)
class AuxiliaryMeasure:
    """Purely atomic probability measure on the positive half-line.

    ``atoms`` holds (location, mass) pairs with strictly increasing
    locations and positive masses summing to 1.  ``sigma`` is the mean
    location.
    """

    atoms: tuple[tuple[float, float], ...]
    sigma: float

    @property
    def locations(self) -> tuple[float, ...]:
        return tuple(a for a, _ in self.atoms)

    @property
    def masses(self) -> tuple[float, ...]:
        return tuple(m for _, m in self.atoms)

    @property
    def max_location(self) -> float:
        return self.atoms[-1][0]

    def survival(self, z: float) -> float:
        """Mass strictly beyond z."""
        return math.fsum(m for loc, m in self.atoms if loc > z)


def auxiliary_measure(ifs: WeightedIFS) -> AuxiliaryMeasure:
    """Place each symbol's weight at its log contraction -log(ratio).

    Locations within ATOM_MERGE_TOL of each other are merged onto the
    smallest location of the run, accumulating their masses.
    """
    pairs = sorted((-math.log(m.ratio), w) for m, w in zip(ifs.maps, ifs.weights))
    merged: list[tuple[float, float]] = []
    for loc, w in pairs:
        if merged and loc - merged[-1][0] <= ATOM_MERGE_TOL:
            merged[-1] = (merged[-1][0], merged[-1][1] + w)
        else:
            merged.append((loc, w))
    sigma = math.fsum(loc * w for loc, w in merged)
    return AuxiliaryMeasure(tuple(merged), sigma)


def laplace_transform(lam: AuxiliaryMeasure, z: complex | np.ndarray) -> complex | np.ndarray:
    """Sum of mass * exp(-z * location) over the atoms.

    ``z`` is a point, which gives a complex, or an array of points, which
    gives a complex array of its shape.  The atoms are summed one at a
    time, in order and with no BLAS call, so a point equals its batch entry.
    """
    z = np.asarray(z, dtype=complex)
    values = sum(mass * np.exp(-z * loc) for loc, mass in lam.atoms)
    return complex(values) if np.ndim(z) == 0 else values


@dataclass(frozen=True)
class DiophantineReport:
    """Certified minimum of the resonance gap b -> |1 - L(i*b)| per dyadic block.

    ``rows`` holds one tuple (b, gap, scaled_gap, gap_lower, block_lo,
    block_hi) per block, blocks ascending, as weakly_diophantine_scan
    describes them; ``evaluations`` counts the points where the gap was
    evaluated, and ``classification`` is classify_lattice's verdict.
    """

    degree_l: float
    rows: tuple[tuple[float, float, float, float, float, float], ...]
    classification: str
    evaluations: int

    @property
    def lattice(self) -> bool:
        """True only for a certified lattice, as lattice_test gives it."""
        return self.classification == "lattice"

    @property
    def scan_min(self) -> float:
        return min(row[1] for row in self.rows)

    @property
    def scan_argmin(self) -> float:
        return min(self.rows, key=lambda row: row[1])[0]  # the first least gap's b

    @property
    def scan_min_lower(self) -> float:
        """A lower bound on the gap over all of [1, b_max]."""
        return min(row[3] for row in self.rows)


def _scaled_gap(b: float, gap: float, l: float) -> float:
    """b^l * gap, as exp(l*log(b) + log(gap)).

    b^l overflows floats long before the product does not matter, so the
    product is taken in log space, with libm's log and exp: inf from an
    exponent of 709 up, and 0 for a zero gap before any log is taken.
    """
    if gap == 0.0:
        return 0.0
    e = l * math.log(b) + math.log(gap)
    return math.inf if e >= 709.0 else math.exp(e)


def _gap_bounds(lam: AuxiliaryMeasure, b: np.ndarray, r: float,
                curvature: float) -> tuple[np.ndarray, np.ndarray]:
    """f = |1 - L(i*b)|^2 at the centres b, and a lower bound on f over b +- r.

    With g = 1 - L(i*b) = re + i*im and u = 2^-53, f = re^2 + im^2 and
    f' = 2*(re*re' + im*im').  On [c - r, c + r], f'' >= -M gives
    f >= f(c) - |f'(c)|*r - M*r^2/2 in exact arithmetic.  The computed
    values are corrected by an allowance:

    - Each phase c*l_j is one correctly rounded product, off by at most
      u*c*l_j; numpy's float64 cos and sin are taken to be within 4 ulp,
      8u.  With n atoms and the sums' rounding, re and im are each within
      e = u*(c*sigma + 2n + 10), and re' and im' within
      e' = u*(c*sum p*l^2 + (2n + 10)*sigma), where sum p*l^2 <= M/4.
    - So |f - f~| <= 2e*(|re| + |im| + e) and
      |f' - f~'| <= 2*(e'*(|re| + |im|) + e*(|re'| + |im'|) + 2e*e'),
      the latter times r.
    - 16u*(f + |f'|*r + M*r^2/2) covers the rounding of the squares, of
      the products and of the subtractions that form the bound.
    """
    re, im = np.ones_like(b), np.zeros_like(b)
    d_re, d_im = np.zeros_like(b), np.zeros_like(b)
    for loc, mass in lam.atoms:
        phase = b * loc
        cos, sin = np.cos(phase), np.sin(phase)
        re -= mass * cos
        im += mass * sin
        d_re += (mass * loc) * sin
        d_im += (mass * loc) * cos
    f = re * re + im * im
    drop = 2.0 * np.abs(re * d_re + im * d_im) * r + 0.5 * curvature * r * r
    terms = 2 * len(lam.atoms) + 10
    e = _U * (b * lam.sigma + terms)
    e_d = _U * (b * (curvature / 4.0) + terms * lam.sigma)
    size, d_size = np.abs(re) + np.abs(im), np.abs(d_re) + np.abs(d_im)
    allowance = (2.0 * e * (size + e) + 2.0 * r * (e_d * size + e * d_size + 2.0 * e * e_d)
                 + 16.0 * _U * (f + drop))
    return f, f - drop - allowance


def _block_minimum(lam: AuxiliaryMeasure, lo: float, hi: float, count: int,
                   curvature: float, spent: int, cap: int) -> tuple[float, float, int]:
    """(least-f centre, lower bound on f, evaluations) over the block [lo, hi].

    The block is cut into ``count`` equal intervals, each evaluated at its
    centre by _gap_bounds.  One whose lower bound is below (1 - SCAN_TOL)^2
    times the least f seen in the block is split in two; the least bound
    of the others bounds f over the block.  As centres are rounded, a
    radius is the half-width plus a slack: 4u*hi for the first centres
    (the rounding of the width, its multiple and the sum), u*hi more per
    split.  Splitting stops at float resolution, once the half-width is
    no more than the slack.  Intervals are evaluated SCAN_CHUNK at a time,
    newest first, so the least f falls early and few are alive at once.
    Evaluations are counted on from ``spent``, against ``cap``.
    """
    width = (hi - lo) / count
    threshold = (1.0 - SCAN_TOL) ** 2
    best, argmin, lower = math.inf, lo, math.inf
    for start in range(0, count, SCAN_CHUNK):
        index = np.arange(start, min(start + SCAN_CHUNK, count), dtype=float)
        pending = [(lo + (index + 0.5) * width, width / 2.0, 4.0 * _U * hi)]
        while pending:
            b, half, slack = pending.pop()
            if len(b) > SCAN_CHUNK:
                pending.append((b[SCAN_CHUNK:], half, slack))
                b = b[:SCAN_CHUNK]
            if spent + len(b) > cap:
                raise ResourceCapError(
                    f"resonance scan needs more than {cap} evaluations, cap={cap}")
            spent += len(b)
            f, bound = _gap_bounds(lam, b, half + slack, curvature)
            i = int(np.argmin(f))
            if f[i] < best:
                best, argmin = float(f[i]), float(b[i])
            split = (bound < threshold * best) & (half > slack)
            lower = min(lower, float(bound[~split].min(initial=math.inf)))
            if split.any():
                b = b[split]
                pending.append((np.concatenate((b - half / 2.0, b + half / 2.0)),
                                half / 2.0, slack + _U * hi))
    return argmin, lower, spent


def weakly_diophantine_scan(
    lam: AuxiliaryMeasure,
    l: float,
    b_max: float,
    cap: int = DEFAULT_WORD_CAP,
) -> DiophantineReport:
    """Certified minimum of the resonance gap in each dyadic block of [1, b_max].

    The blocks are [2^k, min(2^(k+1), b_max)] for 2^k < b_max, each
    searched by Shubert's branch and bound on f(b) = |1 - L(i*b)|^2 from
    intervals of width at most 1/sqrt(M) (_block_minimum).  A row holds
    the least-f point b, gap = |1 - laplace_transform(i*b)|, b^l * gap
    (_scaled_gap), gap_lower = sqrt of the bound on f, rounded down, and
    the block's ends.  The gap can only vanish in the lattice case, and
    classify_lattice's verdict comes with the rows.  The bound widens
    with b, as the phases b*l_j are rounded, and says little past 1e6.

    Every evaluation counts against ``cap``: the ceil((hi - lo)*sqrt(M))
    initial ones of all blocks are checked before any is made.
    """
    if not (l > 0.0 and math.isfinite(l)):
        raise InputError(f"power must be positive and finite, got {l!r}")
    if not (b_max > 1.0 and math.isfinite(b_max)):
        raise InputError(f"frequency ceiling must be finite and exceed 1, got {b_max!r}")
    # M >= |f''|, as f'' = 2|g'|^2 + 2 Re(conj(g) g'') for g = 1 - L(i*b), |g| <= 2,
    # |g'| <= sigma and |g''| <= sum p*l^2; the factor covers the sums' rounding.
    second = math.fsum(m * loc * loc for loc, m in lam.atoms)
    curvature = (2.0 * lam.sigma ** 2 + 4.0 * second) * (1.0 + 1e-12)
    blocks, lo = [], 1.0
    while lo < b_max:
        hi = min(2.0 * lo, b_max)
        # Clamped below 2^62 (far past any cap) so that the count stays finite.
        blocks.append((lo, hi, math.ceil(min((hi - lo) * math.sqrt(curvature), 2.0 ** 62))))
        lo *= 2.0
    initial = sum(count for _, _, count in blocks)
    if initial > cap:
        raise ResourceCapError(f"resonance scan needs at least {initial} evaluations, cap={cap}")
    rows, spent = [], 0
    for lo, hi, count in blocks:
        b, lower, spent = _block_minimum(lam, lo, hi, count, curvature, spent, cap)
        gap = abs(1.0 - laplace_transform(lam, 1j * b))
        gap_lower = math.nextafter(math.sqrt(lower), 0.0) if lower > 0.0 else 0.0
        rows.append((b, gap, _scaled_gap(b, gap, l), gap_lower, lo, hi))
    return DiophantineReport(float(l), tuple(rows), classify_lattice(lam), spent)


@dataclass(frozen=True)
class ContinuedFraction:
    """Partial quotients and convergents of a number in (0,1).

    ``terminating`` marks an expansion that ended because the input is a
    rational (exactly, or at float precision); ``precision_exhausted``
    marks a stop forced by the denominator guard before any such ending.
    """

    quotients: tuple[int, ...]
    convergents: tuple[tuple[int, int], ...]
    terminating: bool
    precision_exhausted: bool


def continued_fraction_expansion(theta: float, n: int) -> ContinuedFraction:
    """Exact continued fraction of the float's binary rational value.

    Up to ``n`` partial quotients of theta = [0; a1, a2, ...] are produced
    by integer Euclid steps on the exact fraction.  The expansion stops
    early with ``terminating`` when the remainder vanishes or a partial
    quotient reaches HUGE_QUOTIENT (the float is that convergent to
    machine precision), and with ``precision_exhausted`` when convergent
    denominators pass CF_DENOMINATOR_GUARD.
    """
    if not (0.0 < theta < 1.0):
        raise InputError(f"continued fractions expect theta in (0,1), got {theta!r}")
    if n < 1:
        raise InputError(f"need at least one quotient, got {n!r}")
    frac = Fraction(theta)
    num, den = frac.numerator, frac.denominator
    quotients: list[int] = []
    convergents: list[tuple[int, int]] = []
    p_prev, p_cur = 1, 0
    q_prev, q_cur = 0, 1
    terminating = False
    exhausted = False
    while len(quotients) < n:
        a = den // num
        rem = den - a * num
        if a >= HUGE_QUOTIENT:
            terminating = True
            break
        p_prev, p_cur = p_cur, a * p_cur + p_prev
        q_prev, q_cur = q_cur, a * q_cur + q_prev
        quotients.append(a)
        convergents.append((p_cur, q_cur))
        if rem == 0:
            terminating = True
            break
        if q_cur > CF_DENOMINATOR_GUARD:
            exhausted = True
            break
        num, den = rem, num
    return ContinuedFraction(tuple(quotients), tuple(convergents),
                             terminating, exhausted)


def classify_ratio(theta: float) -> str:
    """Classify a ratio in (0,1) as 'rational', 'irrational' or 'indeterminate'.

    Certified rational: the expansion terminates at a convergent with
    denominator at most LATTICE_DENOMINATOR_CAP matching theta within
    LATTICE_TOL.  Certified irrational: no convergent under the cap gets
    within LATTICE_TOL.  Anything between is indeterminate; a ratio can
    sit within 1e-12 of a modest fraction without being rational, so a
    close convergent without a terminating expansion proves nothing.
    """
    cf = continued_fraction_expansion(theta, 64)
    best_err = math.inf
    for p, q in cf.convergents:
        if q > LATTICE_DENOMINATOR_CAP:
            break
        best_err = min(best_err, abs(theta - p / q))
    if (cf.terminating and best_err <= LATTICE_TOL
            and cf.convergents[-1][1] <= LATTICE_DENOMINATOR_CAP):
        return "rational"
    if best_err <= LATTICE_TOL:
        return "indeterminate"
    return "irrational"


def classify_lattice(lam: AuxiliaryMeasure) -> str:
    """Tri-state lattice classification of the atom locations.

    The support lies on a lattice c*Z exactly when every pairwise ratio of
    locations is rational.  Returns 'lattice', 'non-lattice' or
    'indeterminate' (some ratio was too close to a fraction to refute but
    not certified rational).
    """
    locs = lam.locations
    saw_indeterminate = False
    for i in range(len(locs)):
        for j in range(i + 1, len(locs)):
            ratio = locs[i] / locs[j]
            verdict = classify_ratio(ratio)
            if verdict == "irrational":
                return "non-lattice"
            if verdict == "indeterminate":
                saw_indeterminate = True
    return "indeterminate" if saw_indeterminate else "lattice"


def lattice_test(lam: AuxiliaryMeasure) -> bool:
    """True only for a certified lattice; indeterminate counts as False."""
    return classify_lattice(lam) == "lattice"


def _check_digits(digits) -> tuple[int, ...]:
    """The digits as a tuple, each checked to be an integer at least 2.

    Every element is checked before the caller may hash or sort them, so
    a list or a string among the digits is an InputError, not a TypeError.
    """
    out = tuple(digits)
    if not out:
        raise InputError("need at least one digit")
    for d in out:
        if not isinstance(d, int) or isinstance(d, bool) or d < 2:
            raise InputError(f"digits must be integers at least 2, got {d!r}")
    return out


def _validate_digit_pair(a1: int, a2: int) -> None:
    _check_digits((a1, a2))
    if a1 == a2:
        raise InputError(f"digits must be distinct, got {a1!r} twice")


def _log_weights(a1: int, a2: int) -> tuple[float, float]:
    """W_i = log(a_i*(a_i-1)) of a checked pair of distinct digits."""
    _validate_digit_pair(a1, a2)
    return math.log(a1 * (a1 - 1)), math.log(a2 * (a2 - 1))


def matveev_degree(a1: int, a2: int) -> float:
    """Effective power from the two-logarithm lower bound for digits a1, a2.

    The value is 387072 * e^3 * (15.8 + 5.5*log 2) * log(a1*(a1-1)) *
    log(a2*(a2-1)) + 1; it exceeds 2 for every admissible pair.
    """
    w1, w2 = _log_weights(a1, a2)
    return 387072.0 * math.exp(3.0) * (15.8 + 5.5 * math.log(2.0)) * w1 * w2 + 1.0


def matveev_log_constant(a1: int, a2: int) -> float:
    """Log of the multiplicative constant paired with matveev_degree.

    With W_i = log(a_i*(a_i-1)) and l the degree, the constant is
    -log(W2) - (l - 1) * log(3*e*W1 / (2*W2)).  The second factor's sign
    follows the inner ratio, so the result is a large negative number when
    3*e*W1 exceeds 2*W2 and a large positive one otherwise.
    """
    w1, w2 = _log_weights(a1, a2)
    degree = matveev_degree(a1, a2)
    return -math.log(w2) - (degree - 1.0) * math.log(3.0 * math.e * w1 / (2.0 * w2))


def perfect_power_free(a: int) -> bool:
    """True when a*(a-1) is not a perfect power n^m with m >= 2, which is always.

    a and a-1 are coprime, so a*(a-1) = n^m would make each of them an
    m-th power itself; but two positive m-th powers never differ by 1.
    Only the digit is checked.
    """
    _check_digits((a,))
    return True
