"""Mass queries against the self-similar measure of a weighted system.

The measure assigns each cylinder its word's weight product.  Interval
and diagonal masses are bracketed over cylinder families built level by
level with the one refinement step of the ifs module, so every family
composes the maps in refinement order (see Word).  The regularity scan
measures how cylinder mass scales with cylinder length, which is the
exponent controlling interval masses up to an explicit constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, PreconditionError, ResourceCapError
from .ifs import DEFAULT_WORD_CAP, WeightedIFS, Word, _refine, validate_disjointness

# Most cylinder pairs held at once by the diagonal sweep.
_PAIR_ENTRIES = 1 << 18


def cylinder_mass(ifs: WeightedIFS, word: Word) -> float:
    """Mass of the word's cylinder: the product of its symbol weights."""
    for s in word.symbols:
        ifs.index(s)
    return word.weight_product


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
    """Observed cylinder mass exponents level by level.

    ``rows`` holds (level, min_exponent, max_exponent) for the exponent
    log(mass)/log(length) over all words of that level.  ``alpha_hat`` is
    the smallest deepest-level exponent clamped to [0,1]; cylinder masses
    then satisfy mass <= prefactor * length^alpha_hat over the scanned
    range, and interval masses inherit the same exponent up to the factor
    ``interval_constant`` = max(ratio^-alpha_hat) * alphabet size for
    intervals no shorter than ``min_scale``.  Each extreme is attained by
    a word repeating one symbol (see regularity_scan).
    """

    depth: int
    alpha_hat: float
    rows: tuple[tuple[int, float, float], ...]
    prefactor: float
    min_scale: float
    interval_constant: float


def regularity_scan(
    ifs: WeightedIFS,
    depth: int,
    cap: int = DEFAULT_WORD_CAP,
) -> RegularityReport:
    """Scan cylinder mass exponents down to the given level.

    A word with symbol counts c has the exponent sum c_k log p_k over
    sum c_k log r_k, a ratio of linear forms with a negative denominator.
    On one level (sum c = n) it takes its min and max at a vertex n*e_k,
    as does the linear log(mass) - alpha*log(length) that sets the
    prefactor, and the shortest cylinder repeats the smallest ratio.  So
    only the K single-symbol words of each level are evaluated, and the
    ``depth`` rows built are checked against ``cap`` first.
    """
    if depth < 1:
        raise InputError(f"scan depth must be at least 1, got {depth!r}")
    report = validate_disjointness(ifs)
    if not report:
        pairs = ", ".join(f"{a!r}/{b!r} by {d:.3g}" for a, b, d in report.overlaps)
        raise PreconditionError(f"level-1 intervals overlap beyond endpoints: {pairs}")
    if depth > cap:
        raise ResourceCapError(f"regularity scan needs {depth} rows, cap={cap}")
    logs = [(math.log(m.ratio), math.log(w)) for m, w in zip(ifs.maps, ifs.weights)]
    # (log length, log mass) of the single-symbol words n*e_k, level by level.
    vertices = [[(n * lr, n * lp) for lr, lp in logs] for n in range(1, depth + 1)]
    rows = tuple((n, min(lp / lr for lr, lp in level), max(lp / lr for lr, lp in level))
                 for n, level in enumerate(vertices, start=1))
    alpha_hat = min(1.0, max(0.0, rows[-1][1]))
    # Prefactor: largest mass / length^alpha_hat over the scan.
    prefactor = max(math.exp(lp - alpha_hat * lr) for level in vertices for lr, lp in level)
    interval_constant = max(m.ratio ** -alpha_hat for m in ifs.maps) * ifs.size
    return RegularityReport(
        depth=depth,
        alpha_hat=alpha_hat,
        rows=rows,
        prefactor=max(prefactor, 1.0),
        min_scale=math.exp(depth * min(lr for lr, _ in logs)),
        interval_constant=interval_constant,
    )


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
    The sweep takes whole rows of pairs in blocks and adds their terms in
    cylinder order; no BLAS reduction is involved, so the bits do not
    depend on the BLAS thread count.
    """
    if not (delta > 0.0):
        raise InputError(f"strip half-width must be positive, got {delta!r}")
    if depth < 1:
        raise InputError(f"depth must be at least 1, got {depth!r}")
    count = ifs.size ** depth
    if count > cap:
        raise ResourceCapError(
            f"diagonal walk needs {count} level-{depth} cylinders, cap={cap}")
    lo, width, mass = np.zeros(1), np.ones(1), np.ones(1)
    for _ in range(depth):
        lo, width, mass = _refine(ifs, lo, width, mass)
    order = np.argsort(lo, kind="stable")
    lo = lo[order]
    hi = lo + width[order]
    mass = mass[order]
    # Cylinder i comes within delta of cylinders i + 1 .. ends[i] - 1.
    ends = np.searchsorted(lo, hi + delta, side="right")
    later = ends - np.arange(1, count + 1)
    rows = np.flatnonzero(later > 0)
    lengths = later[rows]
    pairs = count + int(lengths.sum())
    if pairs > cap:
        raise ResourceCapError(
            f"diagonal walk needs {pairs} level-{depth} cylinder pairs, cap={cap}")
    # Diagonal pairs: both points in one cylinder, so distance <= width.
    upper = float(np.sum(mass * mass))
    lower = float(np.sum(mass[hi - lo <= delta] ** 2))
    done = np.cumsum(lengths)
    start = 0
    while start < len(rows):
        # Whole rows of at most _PAIR_ENTRIES pairs (a longer row alone).
        base = done[start] - lengths[start]
        stop = max(start + 1, int(np.searchsorted(done, base + _PAIR_ENTRIES, side="right")))
        i, n = rows[start:stop], lengths[start:stop]
        first = done[start:stop] - n - base
        left = np.repeat(i, n)
        right = np.arange(len(left)) - np.repeat(first - i - 1, n)
        m = mass[right]
        good = np.maximum(hi[right] - lo[left], hi[left] - lo[right]) <= delta
        twice = 2.0 * mass[i]
        # Row terms are added one after another, as a loop over rows would.
        upper = float(np.add.accumulate(
            np.concatenate(([upper], twice * np.add.reduceat(m, first))))[-1])
        lower = float(np.add.accumulate(
            np.concatenate(([lower], twice * np.add.reduceat(m * good, first))))[-1])
        start = stop
    return (lower, upper)
