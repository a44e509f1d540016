"""Independent reference computations used across the test modules.

Everything here is written against the plain mathematical definitions,
avoiding the code paths under test: breadth-first enumeration instead of
the library's depth-first stack, an infinite-product formula for the
Cantor transform, a binomial lattice recursion for overshoot laws, sine
and cosine integrals for the stationary overshoot limit, and exact
Fraction arithmetic for series values.  Four oracles are earlier
versions of library code kept as references: the overshoot sampler that
drew its steps with ``Generator.choice``, the row-by-row diagonal sweep,
the regularity scan over every symbol multiset, and the Fraction
refinement of Luroth cylinder intervals.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from itertools import combinations_with_replacement

import numpy as np
from scipy.special import sici


def bfs_stopping_words(ratios, threshold: float):
    """Level-by-level enumeration of the minimal words with product <= threshold.

    Returns a set of symbol-index tuples.  Words are expanded only while
    their ratio product is still above the threshold, so every emitted
    word is prefix-minimal by construction.
    """
    done = set()
    frontier = [((), 1.0)]
    while frontier:
        nxt = []
        for word, prod in frontier:
            for k, r in enumerate(ratios):
                child = word + (k,)
                p = prod * r
                if p <= threshold:
                    done.add(child)
                else:
                    nxt.append((child, p))
        frontier = nxt
    return done


def choice_overshoots(lam, t: float, seed: int, chunk_index: int,
                      count: int) -> np.ndarray:
    """Overshoots of one sample chunk, steps drawn by ``Generator.choice``.

    Each walker draws ceil(t / smallest step) + 2 steps from the chunk's
    Philox stream keyed by (seed, chunk index), rows in order, and
    reports where its running sum first reaches t.
    """
    locs = np.array(lam.locations)
    probs = np.array(lam.masses)
    probs = probs / probs.sum()
    # Enough steps that even all-smallest-step walks cross t.
    steps = int(math.ceil(t / float(locs.min()))) + 2
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, chunk_index], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    rows = max(1, (1 << 21) // steps)
    out = np.empty(count)
    # Row blocks read the same stream as one (count, steps) draw would.
    for start in range(0, count, rows):
        n = min(rows, count - start)
        sums = np.cumsum(locs[rng.choice(len(locs), size=(n, steps), p=probs)], axis=1)
        out[start:start + n] = sums[np.arange(n), np.argmax(sums >= t, axis=1)] - t
    return out


def rowwise_diagonal_sweep(lo, hi, mass, delta: float) -> tuple[float, float]:
    """Diagonal-strip bracket summed one cylinder at a time.

    ``lo``, ``hi`` and ``mass`` describe level cylinders sorted by left
    end.  Cylinder i is paired with every later cylinder that starts
    within ``delta`` of its right end; each pair adds twice its mass
    product to the upper bound, and to the lower bound when every pair of
    points is within ``delta``.  The sums run in cylinder order, and
    numpy sums stand where a BLAS dot product would split its reduction
    by thread count.
    """
    count = len(lo)
    ends = np.searchsorted(lo, hi + delta, side="right")
    later = ends - np.arange(1, count + 1)
    upper = float(np.sum(mass * mass))
    lower = float(np.sum(mass[hi - lo <= delta] ** 2))
    for i in np.flatnonzero(later > 0):
        sl = slice(i + 1, ends[i])
        upper += 2.0 * mass[i] * float(np.sum(mass[sl]))
        good = np.maximum(hi[sl] - lo[i], hi[i] - lo[sl]) <= delta
        lower += 2.0 * mass[i] * float(np.sum(mass[sl] * good))
    return (lower, upper)


def cantor_product_transform(xi: float, terms: int) -> tuple[complex, float]:
    """Transform of the middle-thirds measure as a finite product.

    One application of the scaling identity per level gives the factor
    (1 + exp(-2*pi*i*xi*2/3^n)) / 2; truncating after ``terms`` levels
    leaves a tail bounded by 2*pi*|xi|*3^{-terms}.
    """
    value = complex(1.0)
    for n in range(1, terms + 1):
        value *= 0.5 * (1.0 + cmath.exp(-2j * math.pi * xi * 2.0 * 3.0 ** (-n)))
    return value, 2.0 * math.pi * abs(xi) * 3.0 ** (-terms)


def overshoot_expectation_dp(locations, masses, t: float, g) -> complex:
    """Exact first-passage expectation for a two-atom random walk.

    The walk takes step locations[0] with probability masses[0] and
    locations[1] otherwise.  A state reached after i steps of the first
    kind and j of the second has position i*l1 + j*l2 and is visited with
    probability C(i+j, i) * p1^i * p2^j.  Summing the stopping transitions
    out of every sub-threshold state gives E[g(overshoot at level t)].
    """
    l1, l2 = locations
    p1, p2 = masses
    total = 0j
    i = 0
    while i * l1 < t:
        j = 0
        while i * l1 + j * l2 < t:
            pos = i * l1 + j * l2
            visit = math.comb(i + j, i) * (p1 ** i) * (p2 ** j)
            if pos + l1 >= t:
                total += visit * p1 * complex(g(pos + l1 - t))
            if pos + l2 >= t:
                total += visit * p2 * complex(g(pos + l2 - t))
            j += 1
        i += 1
    return total


def stationary_phase_expectation(locations, masses, s: float) -> complex:
    """Stationary overshoot expectation of z -> exp(-2*pi*i*s*exp(-z)), in closed form.

    The step X takes l_k = locations[k-1] with probability p_k =
    masses[k-1] for k = 1..K, with l_1 < ... < l_K and mean step sigma.
    The limiting overshoot law has density P(X > z) / sigma on z > 0, and
    the survival P(X > z) equals P_k = p_k + ... + p_K on [l_{k-1}, l_k)
    (l_0 = 0) and 0 beyond l_K, so

        E_inf = (1/sigma) * sum_k P_k * I(l_{k-1}, l_k).

    Substituting u = 2*pi*|s|*exp(-z) gives each segment integral exactly
    in the sine and cosine integrals:

        I(a, b) = integral_a^b exp(-2*pi*i*s*exp(-z)) dz = F(u(a)) - F(u(b)),
        F(u) = Ci(u) - i*Si(u),

    conjugated for s < 0; for s = 0 it is b - a.
    """
    sigma = math.fsum(loc * m for loc, m in zip(locations, masses))
    scale = 2.0 * math.pi * abs(s)

    def segment(a: float, b: float) -> complex:
        if scale == 0.0:
            return complex(b - a)
        si_a, ci_a = sici(scale * math.exp(-a))
        si_b, ci_b = sici(scale * math.exp(-b))
        value = complex(ci_a - ci_b, -(si_a - si_b))
        return value if s > 0 else value.conjugate()

    total = 0j
    prev = 0.0
    for k, loc in enumerate(locations):
        total += math.fsum(masses[k:]) * segment(prev, loc)
        prev = loc
    return total / sigma


def luroth_partial_sum(digits) -> tuple[Fraction, Fraction]:
    """Series value and tail factor for a finite digit block, exactly."""
    value = Fraction(0)
    scale = Fraction(1)
    for d in digits:
        value += scale / d
        scale /= d * (d - 1)
    return value, scale


def multiset_regularity(ifs, depth: int):
    """Regularity scan over every symbol multiset of levels 1..depth.

    A word's cylinder mass and length depend only on its symbol multiset,
    so each multiset stands for all its words.  Returns (rows, alpha_hat,
    prefactor, min_scale) as RegularityReport defines them, with every log
    sum taken by ``math.fsum``.
    """
    log_r = [math.log(m.ratio) for m in ifs.maps]
    log_p = [math.log(w) for w in ifs.weights]
    rows = []
    scanned = []
    min_scale = 1.0
    for level in range(1, depth + 1):
        lo_ratio = math.inf
        hi_ratio = -math.inf
        for combo in combinations_with_replacement(range(ifs.size), level):
            lr = math.fsum(log_r[k] for k in combo)
            lp = math.fsum(log_p[k] for k in combo)
            scanned.append((lr, lp))
            lo_ratio = min(lo_ratio, lp / lr)
            hi_ratio = max(hi_ratio, lp / lr)
            min_scale = min(min_scale, math.exp(lr))
        rows.append((level, lo_ratio, hi_ratio))
    alpha_hat = min(1.0, max(0.0, rows[-1][1]))
    prefactor = max(math.exp(lp - alpha_hat * lr) for lr, lp in scanned)
    return tuple(rows), alpha_hat, max(prefactor, 1.0), min_scale


def luroth_cylinders(digits, level: int) -> tuple[tuple[Fraction, Fraction], ...]:
    """Level cylinders of a Luroth digit set, pushed through the maps as Fractions.

    Digit d maps x to 1/d + x/(d*(d-1)); each cylinder (start, width) is
    refined by every digit in turn, and the intervals come back sorted.
    """
    maps = [(Fraction(1, d * (d - 1)), Fraction(1, d)) for d in sorted(set(digits))]
    cylinders = [(Fraction(0), Fraction(1))]
    for _ in range(level):
        cylinders = [(lo + width * b, width * r) for lo, width in cylinders for r, b in maps]
    return tuple(sorted((lo, lo + width) for lo, width in cylinders))
