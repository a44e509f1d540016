"""Independent reference computations used across the test modules.

Everything here is written against the plain mathematical definitions,
avoiding the code paths under test: breadth-first enumeration instead of
the library's depth-first stack, an infinite-product formula for the
Cantor transform, multinomial weights over count vectors for overshoot
laws, sine and cosine integrals for the stationary overshoot limit, exact
Fraction arithmetic for series values and for the mass exponents of
every symbol multiset, a sum of multinomial
coefficients over count vectors for stopping-family sizes, and exact
integer k-th roots for perfect powers.  The overshoot
sampler's panel stream is restated as a loop over walkers and their
runs.  Six oracles are earlier versions of library code kept as
references: compose_word, which composes a word in orbit order, the
row-by-row diagonal sweep and the blocked sweep over every cylinder
pair that followed it, the Fraction refinement of Luroth cylinder
intervals, the CSV rendering of a table row by row through csv.writer,
and the scaled resonance gap taken one row at a time.
"""

from __future__ import annotations

import bisect
import cmath
import csv
import io
import itertools
import math
from fractions import Fraction
from itertools import combinations_with_replacement

import numpy as np
from scipy.special import sici

from selfsim import Word


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


def compose_word(ifs, symbols):
    """Compose the maps named by ``symbols`` in orbit order.

    The first symbol's map is applied first, so later symbols act
    outermost: the word (a, b) composes to map_b after map_a, the order in
    which a trajectory visits the maps.  Cylinder families compose in the
    reverse, refinement order.  ratio_product and weight_product are
    running products in the word's order.
    """
    syms = tuple(symbols)
    ratio = 1.0
    intercept = 0.0
    weight = 1.0
    for s in syms:
        k = ifs.symbols.index(s)
        m = ifs.maps[k]
        ratio *= m.ratio
        intercept = m.ratio * intercept + m.translation
        weight *= ifs.weights[k]
    return Word(syms, ratio, weight, intercept)


def lattice_family_size(ratios, t: float) -> int:
    """Size of the stopping family at scale exp(-t), summed over count vectors.

    With l_k = -log r_k and S(n) = sum_k n_k * l_k summed by math.fsum,
    a word with symbol counts n is internal iff S(n) < t, and multinomial(n)
    words share the counts n.  The family size is therefore

        sum over n with S(n) < t of multinomial(n) * #{k : S(n + e_k) >= t},

    taken here in exact integers over the count vectors found by
    stepping up one coordinate at a time from 0.
    """
    ells = [-math.log(r) for r in ratios]

    def score(counts):
        return math.fsum(c * ell for c, ell in zip(counts, ells))

    def multinomial(counts):
        value, total = 1, 0
        for c in counts:
            total += c
            value *= math.comb(total, c)
        return value

    size = 0
    seen = {(0,) * len(ells)}
    todo = list(seen)
    while todo:
        counts = todo.pop()
        for k in range(len(ells)):
            up = counts[:k] + (counts[k] + 1,) + counts[k + 1:]
            if score(up) >= t:
                size += multinomial(counts)
            elif up not in seen:
                seen.add(up)
                todo.append(up)
    return size


def run_overshoots(lam, t: float, seed: int, chunk_index: int, count: int,
                   panel: int) -> np.ndarray:
    """Overshoots of one sample chunk, walked one walker and one run at a time.

    The chunk's PCG64DXSM stream, seeded by SeedSequence(seed mod 2^64,
    spawn_key=(chunk_index,)), yields one ``random((panel, live))`` block
    per round; column i holds the next ``panel`` runs of the i-th walker
    still below t, and the overshoots come out in the order the walkers
    cross, round by round.  d is the first atom of largest mass p_d, and
    X = log(u) / log(p_d) is formed from numpy's log of the whole block
    (libm's log differs in last bits).  A run is floor(X) steps of d
    closed by one step of the other atom of bisect_right(cuts, frac(X)),
    and a walker crosses in the first run whose end reaches t: at the
    first of its steps of d to reach t, found by stepping k = 1, 2, ...,
    or at its end.
    """
    locs = [float(v) for v in lam.locations]
    masses = [float(m) for m in lam.masses]
    d = masses.index(max(masses))
    step = locs[d]
    others = locs[:d] + locs[d + 1:]
    rest = list(itertools.accumulate(masses[:d] + masses[d + 1:]))
    log_p = np.log(masses[d]) if others else -0.0
    cuts = (np.log(1.0 - np.array(rest[:-1]) / rest[-1] * (1.0 - masses[d]))
            / log_p).tolist() if others else []
    rng = np.random.Generator(np.random.PCG64DXSM(
        np.random.SeedSequence(seed & 0xFFFFFFFFFFFFFFFF, spawn_key=(chunk_index,))))
    out = []
    live = [0.0] * count
    while live:
        with np.errstate(divide="ignore"):
            logs = np.log(rng.random((panel, len(live))))
        below = []
        for begin, row in zip(live, logs.T.tolist()):
            for log_u in row:
                x = log_u / log_p if log_p else math.inf
                heavy = math.floor(x) if x < math.inf else math.inf
                close = others[bisect.bisect_right(cuts, x - heavy)] if heavy < math.inf else 0.0
                last = begin + heavy * step
                end = last + close
                if end >= t:
                    if last >= t:
                        k = 1
                        while begin + k * step < t:
                            k += 1
                        end = begin + k * step
                    out.append(end - t)
                    break
                begin = end
            else:
                below.append(begin)
        live = below
    return np.array(out)


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


def pairwise_diagonal_sweep(lo, hi, mass, delta: float,
                            block: int = 1 << 16) -> tuple[float, float]:
    """Diagonal-strip bracket summed over arrays of every cylinder pair.

    The blocked sweep that ``diagonal_mass`` ran before it summed whole
    windows: ``lo``, ``hi`` and ``mass`` describe level cylinders sorted
    by left end, and every pair of a block of whole rows of at most
    ``block`` pairs (a longer row alone) is built and tested.  Each row
    term is its mass-weighted sum over its gathered window, the lower
    one with the pairs outside the strip zeroed, and the terms are added
    in cylinder order, so the bits are the ones ``diagonal_mass`` must
    give.
    """
    count = len(lo)
    ends = np.searchsorted(lo, hi + delta, side="right")
    later = ends - np.arange(1, count + 1)
    rows = np.flatnonzero(later > 0)
    lengths = later[rows]
    upper = float(np.sum(mass * mass))
    lower = float(np.sum(mass[hi - lo <= delta] ** 2))
    done = np.cumsum(lengths)
    start = 0
    while start < len(rows):
        base = done[start] - lengths[start]
        stop = max(start + 1, int(np.searchsorted(done, base + block, side="right")))
        i, n = rows[start:stop], lengths[start:stop]
        first = done[start:stop] - n - base
        left = np.repeat(i, n)
        right = np.arange(len(left)) - np.repeat(first - i - 1, n)
        m = mass[right]
        good = np.maximum(hi[right] - lo[left], hi[left] - lo[right]) <= delta
        twice = 2.0 * mass[i]
        upper = float(np.add.accumulate(
            np.concatenate(([upper], twice * np.add.reduceat(m, first))))[-1])
        lower = float(np.add.accumulate(
            np.concatenate(([lower], twice * np.add.reduceat(m * good, first))))[-1])
        start = stop
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


def overshoot_law(locations, masses, t: float) -> list[tuple[float, float]]:
    """Exact first-passage overshoot law of a K-atom random walk, as atoms.

    The walk takes step locations[k] with probability masses[k].  A state
    reached with n_k steps of kind k has position sum_k n_k * l_k,
    summed in atom order, and is visited with probability
    multinomial(n; n_1, ..., n_K) * prod_k p_k^n_k.  Each step out of a
    sub-threshold state that reaches t gives an atom (overshoot, visit *
    p_k).  States come in lexicographic order of their count vectors and
    steps in atom order, so with two atoms this is the binomial lattice
    of i steps of the first kind and j of the second.
    """
    locs, probs = list(locations), list(masses)
    law: list[tuple[float, float]] = []

    def visit(counts: list[int], pos: float) -> None:
        if len(counts) < len(locs):
            loc, n = locs[len(counts)], 0
            while pos + n * loc < t:
                visit(counts + [n], pos + n * loc)
                n += 1
            return
        weight = 1
        total = 0
        for n in counts:
            total += n
            weight *= math.comb(total, n)
        for n, p in zip(counts, probs):
            weight *= p ** n
        for loc, p in zip(locs, probs):
            if pos + loc >= t:
                law.append((pos + loc - t, weight * p))

    visit([], 0.0)
    return law


def overshoot_expectation_dp(locations, masses, t: float, g) -> complex:
    """Exact E[g(overshoot at level t)] of a K-atom random walk, from overshoot_law."""
    total = 0j
    for z, w in overshoot_law(locations, masses, t):
        total += w * complex(g(z))
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
    """Exact cylinder mass exponents over every symbol multiset of levels 1..depth.

    A word's cylinder mass and length depend only on its symbol multiset,
    so each multiset stands for all its words.  Its exponent is the
    Fraction sum of the float logs of its weights over that of the float
    logs of its ratios, with no rounding; each level's min and max are
    rounded once, by float().  Returns (rows, alpha_hat) as
    RegularityReport defines them.
    """
    logs = [Fraction(math.log(v)) for v in ifs.weights + tuple(m.ratio for m in ifs.maps)]
    # Float logs are dyadic: over their common denominator they are integers.
    scale = max(v.denominator for v in logs)
    log_p = [int(v * scale) for v in logs[:ifs.size]]
    log_r = [int(v * scale) for v in logs[ifs.size:]]
    rows = []
    for level in range(1, depth + 1):
        exponents = [Fraction(sum(log_p[k] for k in combo), sum(log_r[k] for k in combo))
                     for combo in combinations_with_replacement(range(ifs.size), level)]
        rows.append((level, float(min(exponents)), float(max(exponents))))
    return tuple(rows), min(lo for _, lo, _ in rows)


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


def csv_bytes(header, rows) -> bytes:
    """A CSV table as the CLI wrote it row by row through csv.writer.

    Floats are rendered with format(v, ".17g"), booleans as true/false,
    Fractions as "p/q" and anything else with str; lines end in CRLF.
    """
    def fmt(value):
        if isinstance(value, bool):
            return "true" if value else "false"
        if isinstance(value, float):
            return format(value, ".17g")
        if isinstance(value, Fraction):
            return f"{value.numerator}/{value.denominator}"
        return str(value)

    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in rows:
        writer.writerow([fmt(v) for v in row])
    return buf.getvalue().encode("utf-8")


def scaled_gap(b: float, gap: float, l: float) -> float:
    """b^l * gap of one scan row, taken on that row alone.

    b^l overflows floats long before the product does not matter, so the
    product is assembled in log space, exp(l*log(b) + log(gap)), with
    libm's log and exp: inf from an exponent of 709 up, and 0 for a zero
    gap before any log is taken.
    """
    if gap == 0.0:
        return 0.0
    e = l * math.log(b) + math.log(gap)
    if e >= 709.0:
        return math.inf
    return math.exp(e)


def integer_root(m: int, k: int) -> int:
    """floor(m ** (1/k)) for m >= 1, by integer Newton steps from above."""
    x = 1 << -(-m.bit_length() // k)
    while True:
        y = ((k - 1) * x + m // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def is_perfect_power(m: int) -> bool:
    """True when m = n^k for integers n >= 2 and k >= 2, trying every k.

    Every k up to the bit length of m is tried, since n >= 2 bounds k by it.
    """
    return any(integer_root(m, k) ** k == m for k in range(2, m.bit_length() + 1))
