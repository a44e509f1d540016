"""Diophantine diagnostics for the log-contraction measure.

The auxiliary measure of a weighted system puts mass p_w at -log(r_w) for
each alphabet symbol.  Its Laplace transform on the imaginary axis detects
near-resonances: frequencies b where 1 - L(i*b) nearly vanishes.  The scan
here tracks how fast those near-zeros decay relative to b^l, the quantity
that quantifies a weak diophantine property of the location ratios.  The
module also hosts continued fractions, a rationality test for location
ratios, and the closed-form linear-forms-in-logarithms constants used by
the integer-digit applications.
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


@dataclass(frozen=True, eq=False)
class DiophantineReport:
    """Scan of the resonance gap b -> |1 - L(i*b)| against the power b^l.

    ``rows`` is a read-only (n, 3) float array with columns b, gap and
    scaled = b^l * gap, b ascending.  ``classification`` is the
    classify_lattice verdict on the atom locations.
    """

    degree_l: float
    rows: np.ndarray
    classification: str

    @property
    def lattice(self) -> bool:
        """True only for a certified lattice, as lattice_test gives it."""
        return self.classification == "lattice"

    @property
    def scan_min(self) -> float:
        return float(self.rows[:, 1].min())

    @property
    def scan_argmin(self) -> float:
        return float(self.rows[np.argmin(self.rows[:, 1]), 0])


def _scaled_column(bs: np.ndarray, gaps: np.ndarray, l: float) -> np.ndarray:
    """b^l * gap of every (b, gap) pair, as a float array.

    b^l overflows floats long before the product does not matter, so the
    product is exp(l*log(b) + log(gap)), with numpy's float64 log and exp
    over the whole column: inf from an exponent of 709 up, and 0 for a zero
    gap, whatever l*log(b) is (it may overflow to inf, and inf + log(0) is
    nan).  Elementwise, so a row has the same bits alone as in a batch.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        e = l * np.log(bs) + np.log(gaps)
        scaled = np.exp(e)
    scaled[e >= 709.0] = math.inf
    scaled[gaps == 0.0] = 0.0
    return scaled


def weakly_diophantine_scan(
    lam: AuxiliaryMeasure,
    l: float,
    b_max: float,
    grid: int,
    cap: int = DEFAULT_WORD_CAP,
) -> DiophantineReport:
    """Tabulate the resonance gap and b^l times it over [1, b_max].

    A uniform grid is augmented near every candidate resonance
    b = 2*pi*k / location, the only frequencies where a single atom's
    phase returns to 1.  The gap can only vanish on the scan when the
    atom locations share a common multiple of 2*pi/b, the lattice case;
    classify_lattice's verdict is reported with the rows.  The candidate
    count, grid plus five per resonance, is checked against ``cap``
    before any array is built.

    The rows come back as one read-only (n, 3) float array [b, gap,
    scaled], b ascending.  The gaps are |1 - laplace_transform| at i*b and
    the scaled column is _scaled_column's b^l * gap, both elementwise in
    numpy, so a row has the same bits computed alone as in the batch.
    """
    if not (l > 0.0 and math.isfinite(l)):
        raise InputError(f"power must be positive and finite, got {l!r}")
    if not (b_max > 1.0 and math.isfinite(b_max)):
        raise InputError(f"frequency ceiling must be finite and exceed 1, got {b_max!r}")
    if grid < 2:
        raise InputError(f"grid must have at least 2 points, got {grid!r}")
    # k_hi is clamped below 2^62 (far past any cap) so that it stays finite.
    resonances = [(loc, max(1, math.ceil(loc / (2.0 * math.pi))),
                   math.floor(min(b_max * loc / (2.0 * math.pi), 2.0 ** 62)))
                  for loc in lam.locations]
    count = grid + 5 * sum(max(0, k_hi - k_lo + 1) for _, k_lo, k_hi in resonances)
    if count > cap:
        raise ResourceCapError(f"resonance scan needs {count} candidate rows, cap={cap}")
    spacing = (b_max - 1.0) / (grid - 1)
    candidates = [np.linspace(1.0, b_max, grid)]
    offsets = np.array([-1.0, -0.25, 0.0, 0.25, 1.0]) * spacing
    for loc, k_lo, k_hi in resonances:
        ks = np.arange(k_lo, k_hi + 1, dtype=float)
        centers = 2.0 * math.pi * ks / loc
        refined = (centers[:, None] + offsets[None, :]).ravel()
        candidates.append(refined[(refined >= 1.0) & (refined <= b_max)])
    # Sorted and deduplicated as np.unique would, which loads numpy.ma.
    bs = np.concatenate(candidates)
    bs.sort()
    bs = bs[np.concatenate(([True], bs[1:] != bs[:-1]))]
    gaps = np.abs(1.0 - laplace_transform(lam, 1j * bs))
    rows = np.column_stack((bs, gaps, _scaled_column(bs, gaps, l)))
    rows.flags.writeable = False
    return DiophantineReport(degree_l=float(l), rows=rows,
                             classification=classify_lattice(lam))


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
