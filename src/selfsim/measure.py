"""Mass queries against the self-similar measure of a weighted system.

The measure assigns each cylinder its word's weight product.  Interval
and diagonal masses are bracketed over cylinder families built level by
level with the one refinement step of the ifs module, so every family
composes the maps in refinement order (see Word).  The regularity scan
gives how cylinder mass scales with cylinder length, in closed form: the
exponent that controls interval masses up to a constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, ResourceCapError
from .ifs import (
    DEFAULT_WORD_CAP, WeightedIFS, _levels_over_cap, _refine, _require_disjoint)

# Most cylinder pairs held at once by the diagonal sweep.
_PAIR_ENTRIES = 1 << 16


def interval_mass_bounds(
    ifs: WeightedIFS,
    interval: tuple[float, float],
    depth: int,
    cap: int = DEFAULT_WORD_CAP,
) -> tuple[float, float]:
    """Bracket the measure of a closed subinterval of [0,1].

    The lower bound credits cylinders contained in the interval; the upper
    bound additionally counts every depth-limit cylinder whose interior
    meets the interval's interior.  Cylinders that merely touch at an
    endpoint are excluded from the upper bound, matching measures without
    atoms at cylinder endpoints; a single-map system concentrates mass at
    one point and may escape the bracket when that point is an endpoint.
    Deeper walks can only tighten the bracket.  Only cylinders partly
    inside the interval are refined; the nodes built, counted from the
    root, are checked against ``cap`` before each level is built.
    """
    a, b = float(interval[0]), float(interval[1])
    if not (a <= b):
        raise InputError(f"interval endpoints out of order: {interval!r}")
    if a < -1e-9 or b > 1.0 + 1e-9:
        raise InputError(f"interval {interval!r} is not inside [0,1]")
    if depth < 0:
        raise InputError(f"depth must be nonnegative, got {depth!r}")
    lower = 0.0
    lo, width, mass = np.zeros(1), np.ones(1), np.ones(1)
    nodes = 1
    for level in range(depth + 1):
        hi = lo + width
        meets = np.minimum(hi, b) - np.maximum(lo, a) > 0.0
        inside = meets & (lo >= a) & (hi <= b)
        partial = meets & ~inside
        lower += float(mass[inside].sum())
        if level == depth:
            break
        nodes += ifs.size * int(partial.sum())
        if nodes > cap:
            raise ResourceCapError(
                f"interval walk needs at least {nodes} nodes at depth {depth}, cap={cap}")
        lo, width, mass = _refine(ifs, lo[partial], width[partial], mass[partial])
    return (lower, lower + float(mass[partial].sum()))


@dataclass(frozen=True)
class RegularityReport:
    """Cylinder mass exponents, the same on every level.

    ``rows`` holds (level, min_exponent, max_exponent) for the exponent
    log(mass)/log(length) over all words of that level, and ``alpha_hat``
    is the smallest of them: every cylinder has mass <= length^alpha_hat.
    ``interval_constant`` = max(ratio^-alpha_hat) * alphabet size is
    offered as C in mass(I) <= C * length(I)^alpha_hat for intervals I,
    a bound that has no proof here.
    """

    depth: int
    alpha_hat: float
    rows: tuple[tuple[int, float, float], ...]
    interval_constant: float


def regularity_scan(
    ifs: WeightedIFS,
    depth: int,
    cap: int = DEFAULT_WORD_CAP,
) -> RegularityReport:
    """Cylinder mass exponents of levels 1..depth, in closed form.

    A word with symbol counts c has the exponent sum c_k log p_k over
    sum c_k log r_k, a mediant of the quotients log p_k / log r_k, whose
    denominators are all negative.  So on every level its min and max
    are the least and greatest of those K quotients, and the ``depth``
    rows, checked against ``cap`` first, share the two floats.  Both
    are taken as +0.0 where a weight of 1 makes them -0.0.
    """
    if depth < 1:
        raise InputError(f"scan depth must be at least 1, got {depth!r}")
    _require_disjoint(ifs)
    if depth > cap:
        raise ResourceCapError(f"regularity scan needs {depth} rows, cap={cap}")
    exponents = [math.log(w) / math.log(m.ratio) for m, w in zip(ifs.maps, ifs.weights)]
    alpha, top = min(exponents) + 0.0, max(exponents) + 0.0
    return RegularityReport(
        depth=depth,
        alpha_hat=alpha,
        rows=tuple((n, alpha, top) for n in range(1, depth + 1)),
        interval_constant=max(m.ratio ** -alpha for m in ifs.maps) * ifs.size,
    )


def _pair_sums(lo, hi, mass, delta: float, rows, ends) -> np.ndarray:
    """For each row i, the sum of mass[j] over the j of its window in the strip.

    Row i's window is i + 1 .. ends[i] - 1; its pairs are built as arrays
    in blocks of whole rows of at most _PAIR_ENTRIES pairs (a longer row
    alone), and each row is summed over its whole window, zeros included.
    A pair is in the strip when every point of one cylinder is within
    ``delta`` of every point of the other.
    """
    lengths = ends[rows] - rows - 1
    done = np.cumsum(lengths)
    sums = np.empty(len(rows))
    start = 0
    while start < len(rows):
        base = done[start] - lengths[start]
        stop = max(start + 1, int(np.searchsorted(done, base + _PAIR_ENTRIES, side="right")))
        i, n = rows[start:stop], lengths[start:stop]
        first = done[start:stop] - n - base
        left = np.repeat(i, n)
        right = np.arange(len(left)) - np.repeat(first - i - 1, n)
        in_strip = np.maximum(hi[right] - lo[left], hi[left] - lo[right]) <= delta
        sums[start:stop] = np.add.reduceat(mass[right] * in_strip, first)
        start = stop
    return sums


def _fold(total: float, terms: np.ndarray) -> float:
    """total + terms[0] + terms[1] + ..., added one after another."""
    return float(np.add.accumulate(np.concatenate(([total], terms)))[-1])


def diagonal_mass(
    ifs: WeightedIFS,
    delta: float,
    depth: int,
    cap: int = DEFAULT_WORD_CAP,
) -> tuple[float, float]:
    """Bracket the product-measure mass of the strip |x - y| <= delta.

    Level-``depth`` cylinder pairs are classified by interval distance:
    pairs whose intervals come within ``delta`` of each other feed the
    upper bound, pairs that satisfy the condition for every pair of their
    points feed the lower bound.  The cylinders are sorted by left end,
    one searchsorted finds the pairs within ``delta`` of each other, and
    their number is checked against ``cap`` before the sweep over them.

    Cylinder i pairs with the window i + 1 .. ends[i] - 1 of later
    cylinders, a contiguous run of the sorted masses, so one reduceat
    over ``mass`` gives every row's upper sum.  Every j of the window has
    lo[j] >= lo[i + 1] and hi[j] <= reach[ends[i] - 1], the running
    maximum of the right ends; rounding is monotone, so a row whose
    reach[ends[i] - 1] - lo[i] and hi[i] - lo[i + 1] are both within
    ``delta`` lies in the strip whole, and its lower sum is its upper
    sum.  Only the other rows build arrays of their pairs.  Each window
    is summed as one contiguous run either way, so the bits are those of
    a sweep over every pair.  Rows go in blocks of _PAIR_ENTRIES // 8,
    which keeps the block arrays below one block of pairs, and the row
    terms are added one after another in cylinder order; no BLAS
    reduction is involved, so the bits do not depend on the BLAS thread
    count.
    """
    if not (delta > 0.0):
        raise InputError(f"strip half-width must be positive, got {delta!r}")
    if depth < 1:
        raise InputError(f"depth must be at least 1, got {depth!r}")
    if _levels_over_cap(ifs.size, depth, cap):
        raise ResourceCapError(
            f"diagonal walk needs {ifs.size}^{depth} level-{depth} cylinders, cap={cap}")
    count = ifs.size ** depth
    lo, width, mass = np.zeros(1), np.ones(1), np.ones(1)
    for _ in range(depth):
        lo, width, mass = _refine(ifs, lo, width, mass)
    order = np.argsort(lo, kind="stable")
    lo = lo[order]
    hi = width[order]
    hi += lo
    # Windows are summed straight from ``mass``; the one trailing entry of
    # ``padded`` lets a window end at the last cylinder, and a block reads
    # only up to its last window end.
    padded = np.empty(count + 1)
    padded[count] = 0.0
    mass = mass.take(order, out=padded[:count], mode="clip")
    del width, order
    # Cylinder i comes within delta of cylinders i + 1 .. ends[i] - 1.
    shifted = hi + delta
    ends = np.searchsorted(lo, shifted, side="right")
    later = np.subtract(ends, np.arange(1, count + 1), out=shifted.view(np.int64))
    del shifted
    rows = np.flatnonzero(later > 0)
    pairs = count + int(later[rows].sum())
    del later
    if pairs > cap:
        raise ResourceCapError(
            f"diagonal walk needs {pairs} level-{depth} cylinder pairs, cap={cap}")
    # Diagonal pairs: both points in one cylinder, so distance <= width.
    upper = float(np.sum(mass * mass))
    lower = float(np.sum(mass[hi - lo <= delta] ** 2))
    reach = np.maximum.accumulate(hi)
    step = max(1, _PAIR_ENTRIES // 8)
    for start in range(0, len(rows), step):
        i = rows[start:start + step]
        bounds = np.empty(2 * len(i), dtype=np.intp)
        bounds[0::2], bounds[1::2] = i + 1, ends[i]
        whole = np.add.reduceat(padded[:bounds.max() + 1], bounds)[::2]
        slow = np.flatnonzero(~(np.maximum(reach[ends[i] - 1] - lo[i], hi[i] - lo[i + 1])
                                <= delta))
        part = whole.copy()
        part[slow] = _pair_sums(lo, hi, mass, delta, i[slow], ends)
        twice = 2.0 * mass[i]
        upper = _fold(upper, twice * whole)
        lower = _fold(lower, twice * part)
    return (lower, upper)
