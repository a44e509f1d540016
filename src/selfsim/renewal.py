"""Renewal-theoretic verification for the log-contraction walk.

A random walk with step law given by the auxiliary measure first crosses
a level t with some overshoot; for non-lattice step laws the overshoot
law stabilises as t grows, with limiting expectation
E_inf = integral(g * survival) / integral(survival) over the positive
half-line.  This module samples overshoots reproducibly, walking in runs
of the heaviest step with one uniform per run, drawn panel by panel for
the walkers still below t, and estimates the finite-level expectation
E_t = E[g(overshoot at level t)] by Monte Carlo.
Each chunk of walkers draws from its own PCG64DXSM stream, seeded by
SeedSequence(seed mod 2^64, spawn_key=(chunk index,)); chunks are
sampled on up to one thread each and folded in chunk order on the
calling thread, so no value depends on the thread count.  E_inf comes
from an adaptive 24-point Gauss-Legendre rule built from numpy
arithmetic at import.  E_t and E_inf agree only as t -> infinity, and
not monotonically: for steps whose Laplace transform L has 1 - L(z) with
zeros near the imaginary axis, |E_t - E_inf| can stay at several
hundredths for t in the tens and grow again later.  Averaged over levels
in (0, T], E_t is within 2 * max|g| * max step / T of E_inf.
"""

from __future__ import annotations

import math
import os
import warnings
from collections import deque
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .diophantine import AuxiliaryMeasure
from .errors import InputError, PreconditionError, ResourceCapError
from .ifs import DEFAULT_WORD_CAP

# Fixed Monte Carlo chunk; the sample stream is a pure function of
# (seed, chunk index), so totals do not depend on scheduling.  A slot's
# work arrays for one chunk hold about 1 MB.
_CHUNK = 1 << 14
# Runs drawn at a time by the walkers that have not crossed yet; at
# least 3, as the walkers that cross reuse three rows of a slot's ``runs``.
_PANEL = 3


@dataclass(frozen=True)
class PhaseTestFunction:
    """Smooth unimodular observable z -> exp(-2*pi*i*s*exp(-z)).

    Its derivative is bounded by 2*pi*|s|, so c1_bound dominates the
    supremum of |g| plus |g'|.  The strength must be finite.
    """

    s: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.s):
            raise InputError(f"phase strength must be finite, got {self.s!r}")

    def __call__(self, z: float) -> complex:
        return complex(np.exp(-2j * math.pi * self.s * math.exp(-z)))

    def apply_array(self, z: np.ndarray) -> np.ndarray:
        """exp(i * theta), theta the imaginary part of c * exp(-z).

        With c = -2j * pi * s, numpy's complex product c * w for real
        w = exp(-z) >= 0 has real part +-0 and imaginary part c.imag * w +
        c.real * 0, which fixes the sign of a zero theta; theta is worked
        out in one copy of ``z``.  exp(+-0 + i theta) is (cos theta, sin
        theta), so writing those two into the result gives the bits of
        np.exp(c * np.exp(-z)) at a fraction of its cost.
        """
        c = -2j * math.pi * self.s
        theta = np.array(z, dtype=float)
        np.negative(theta, out=theta)
        np.exp(theta, out=theta)
        np.multiply(theta, c.imag, out=theta)
        np.add(theta, c.real * 0.0, out=theta)
        out = np.empty(theta.shape, dtype=complex)
        np.cos(theta, out=out.real)
        np.sin(theta, out=out.imag)
        return out

    @property
    def c1_bound(self) -> float:
        return 1.0 + 2.0 * math.pi * abs(self.s)


def phase_test_function(s: float) -> PhaseTestFunction:
    """Test observable of strength s, vectorised over overshoot arrays."""
    return PhaseTestFunction(float(s))


@dataclass(frozen=True)
class RenewalResult:
    """Monte Carlo overshoot expectation next to its stationary limit.

    ``mc_estimate`` (with ``mc_stderr``) estimates the finite-level E_t at
    crossing level ``t``; ``limit_value`` is the stationary E_inf.  They
    agree only as t -> infinity, and not monotonically in t.
    """

    t: float
    mc_estimate: complex
    mc_stderr: float
    limit_value: complex
    n_samples: int
    seed: int
    lattice: bool


def _check_walk(lam: AuxiliaryMeasure, t: float, walkers: int, cap: int) -> None:
    """Reject a bad level, or a chunk whose uniforms could exceed ``cap``.

    A walker draws one uniform per run of steps of the heaviest atom d
    (see _chunk_overshoots), in panels of _PANEL runs.  Each run that ends
    below t closes with a step of another atom, of length at least l_c,
    the least location but d's; so the j runs before the crossing one
    have j * l_c < t, and the crossing run is at most the ceil(t / l_c)-th.
    Rounding up to whole panels, no walker draws more than ceil(t / l_c)
    + _PANEL - 1 uniforms; one more is allowed for the rounding of the
    float positions.  A single atom's run never closes, so its walkers
    draw one panel.  That bound times the walkers of one chunk bounds the
    uniforms of the chunk.
    """
    if not (t > 0.0 and math.isfinite(t)):
        raise InputError(f"crossing level must be positive and finite, got {t!r}")
    d = lam.masses.index(max(lam.masses))
    others = lam.locations[:d] + lam.locations[d + 1:]
    bound = t / min(others) if others else 0.0
    # Rounded only when finite: the bound overflows to inf for a huge t.
    uniforms = math.ceil(bound) + _PANEL if math.isfinite(bound) else bound
    draws = uniforms * min(walkers, _CHUNK)
    if draws > cap:
        raise ResourceCapError(
            f"renewal walk needs {uniforms} uniforms per walker, {draws} uniform draws "
            f"per chunk, cap={cap}")


class _Slot:
    """Work arrays of one chunk in flight, for up to ``size`` walkers.

    ``ends`` holds a row of positions carried into the panel and one row
    per run of the panel: the uniforms are drawn into those rows and
    become the run ends in place.  ``runs`` holds each run's steps of d,
    then the position after them, ``work`` serves one row at a time, and
    ``mask`` flags the walkers that crossed.  That is 65 bytes per walker
    (1.0 MB for a full chunk), allocated once by the calling thread:
    temporaries made on a worker would go to that thread's malloc arena,
    which keeps them after they are freed.
    """

    def __init__(self, size: int) -> None:
        self.ends = np.empty((_PANEL + 1) * size)
        self.runs = np.empty(_PANEL * size)
        self.work = np.empty(size)
        self.mask = np.empty(size, dtype=bool)


def _chunk_overshoots(
    lam: AuxiliaryMeasure,
    t: float,
    seed: int,
    chunk_index: int,
    count: int,
    slot: _Slot | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Overshoots of one chunk of walkers, keyed by (seed, chunk index).

    The chunk's uniforms come from a PCG64DXSM generator seeded by
    SeedSequence(seed mod 2^64, spawn_key=(chunk_index,)), numpy's
    construction for independent parallel streams.  A walker moves in
    runs of steps of the heaviest atom d (the first of largest mass
    p_d), each closed by one step of another atom.  Walkers below t take
    _PANEL runs per ``rng.random((_PANEL, live))`` panel, entry [j, i]
    being run j of live walker i, so none draws past the panel in which
    it crosses.  The overshoots fill ``out`` in the order the walkers
    cross: panel by panel, and by column within a panel.

    A uniform u gives X = log(u) / log(p_d), with numpy's float64 log of
    the whole panel: the run takes G = floor(X) steps of d, a geometric
    count, and u = 0 gives X = inf, a run that surely crosses.  For a
    single atom log(p_d) is taken as -0.0, so its one run never closes.
    The closing atom is the other atom of two; among K >= 3 it is the
    one that counts the cuts <= X - G, with cuts log(1 - C_c * (1 -
    p_d)) / log(p_d) for the cumulative masses C_c of the other atoms
    given that the step is not d, the last one excluded.  X is
    exponential and memoryless, so X - G is independent of G, with
    P(X - G <= f) = (1 - p_d^f) / (1 - p_d); each run takes one uniform
    whatever the law, which _check_walk bounds.

    A run from ``begin`` ends at (begin + G * l_d) + l_close, and a
    walker crosses t in the first run whose end reaches t: at
    begin + k * l_d for the least k >= 1 with that position >= t, if
    k <= G, and at the run's end otherwise.  k is counted up from
    ceil((t - begin) / l_d) - 1, at most twice.  The overshoot is that
    position minus t.  Every array but the two index lists of each
    panel lives in ``slot`` and ``out``, so a worker thread allocates
    little.  Indices are always in range; mode="clip" only keeps
    ``take`` from buffering its output.
    """
    slot = _Slot(count) if slot is None else slot
    out = np.empty(count) if out is None else out
    locs = np.array(lam.locations)
    masses = np.array(lam.masses)
    d = int(masses.argmax())
    l_d = float(locs[d])
    others = np.delete(locs, d)
    close = float(others[0]) if len(others) else 0.0
    log_p = np.log(masses[d]) if len(others) else -0.0
    cuts = []
    if len(others) > 1:
        rest = np.delete(masses, d).cumsum()
        cuts = (np.log(1.0 - rest[:-1] / rest[-1] * (1.0 - masses[d])) / log_p).tolist()
    rng = np.random.Generator(np.random.PCG64DXSM(
        np.random.SeedSequence(seed & 0xFFFFFFFFFFFFFFFF, spawn_key=(chunk_index,))))
    n, done = count, 0
    slot.ends[:n].fill(0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        while n:
            flat_ends, flat_runs = slot.ends[:(_PANEL + 1) * n], slot.runs[:_PANEL * n]
            ends, runs = flat_ends.reshape(_PANEL + 1, n), flat_runs.reshape(_PANEL, n)
            work, mask = slot.work[:n], slot.mask[:n]
            drawn = ends[1:]
            rng.random(out=drawn)
            np.log(drawn, out=drawn)
            np.divide(drawn, log_p, out=drawn)
            np.floor(drawn, out=runs)
            for j in range(1, _PANEL + 1):
                x, g = ends[j], runs[j - 1]
                if cuts:
                    np.subtract(x, g, out=x)
                    atom = work.view(np.intp)
                    np.greater_equal(x, cuts[0], out=atom)
                    for c in cuts[1:]:
                        np.add(atom, np.greater_equal(x, c, out=mask), out=atom)
                    others.take(atom, out=x, mode="clip")
                np.multiply(g, l_d, out=g)
                np.add(g, ends[j - 1], out=g)
                np.add(g, x if cuts else close, out=x)
            crossed = np.greater_equal(ends[-1], t, out=mask)
            hits = np.flatnonzero(crossed)
            keep = np.flatnonzero(np.logical_not(crossed, out=mask))
            m = len(hits)
            # The m crossing walkers' overshoots go to ``shot``, the next m
            # entries of ``out``, which serve as a work row until then.
            # Each one crosses in the run after those of its runs that end
            # below t; ``at`` indexes that run's start in ``flat_ends`` and
            # its position after the steps of d, ``after_d``, in ``runs``.
            shot, at, below = out[done:done + m], work.view(np.intp)[:m], mask[:m]
            at.fill(0)
            for j in range(1, _PANEL):
                np.less(ends[j].take(hits, out=shot, mode="clip"), t, out=below)
                np.add(at, below, out=at)
            np.multiply(at, n, out=at)
            np.add(at, hits, out=at)
            after_d = flat_runs.take(at, out=shot, mode="clip")
            # ``runs`` is read; its first 3m entries serve as work rows.
            begin, pt, k = (slot.runs[i * m:(i + 1) * m] for i in range(3))
            flat_ends.take(at, out=begin, mode="clip")
            # The least k with begin + k * l_d >= t: from ceil((t - begin)
            # / l_d) - 1, one up where the position falls short, twice.
            np.subtract(t, begin, out=k)
            np.divide(k, l_d, out=k)
            np.ceil(k, out=k)
            np.subtract(k, 1.0, out=k)
            for _ in range(2):
                np.multiply(k, l_d, out=pt)
                np.add(pt, begin, out=pt)
                np.add(k, np.less(pt, t, out=below), out=k)
            np.multiply(k, l_d, out=pt)
            np.add(pt, begin, out=pt)
            np.greater_equal(after_d, t, out=below)
            np.add(at, n, out=at)
            flat_ends.take(at, out=shot, mode="clip")
            np.copyto(shot, pt, where=below)
            np.subtract(shot, t, out=shot)
            done += m
            # The walkers below t move to the next panel's first row only
            # now, as a crossing run can start in row 0.
            n = len(keep)
            ends[-1].take(keep, out=slot.ends[:n], mode="clip")
            # Only these two lists are allocated per panel; none outlives it.
            del hits, keep
    return out


def sample_overshoot(
    lam: AuxiliaryMeasure, t: float, seed: int, cap: int = DEFAULT_WORD_CAP,
) -> float:
    """One overshoot of the level-t first crossing, deterministic in the seed.

    Its walk length is checked against ``cap`` before any draw.
    """
    _check_walk(lam, t, 1, cap)
    return float(_chunk_overshoots(lam, t, seed, 0, 1)[0])


def _available_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _run_chunks(
    lam: AuxiliaryMeasure,
    t: float,
    seed: int,
    n_samples: int,
    threads: int | None,
) -> Iterator[np.ndarray]:
    """Yield the overshoots of each chunk, in chunk order.

    Up to ``threads`` chunks, and no more than the available CPUs, are
    sampled at once, each on a thread pool worker with its own slot of
    work arrays; the caller consumes each chunk on its own thread.  A
    slot is free once its worker returns, so chunk i + workers is
    started as soon as chunk i's result is fetched, before chunk i is
    yielded: the workers keep sampling while the caller consumes.  Each
    chunk has its own output array, so up to workers + 1 of them, 128 KB
    each, are alive at once.  Each chunk's stream depends on (seed,
    chunk index) alone, so the overshoots do not depend on the worker
    count.
    """
    chunks = -(-n_samples // _CHUNK)
    workers = min(chunks, _available_cpus())
    if threads is not None:
        workers = min(workers, threads)
    slots = [_Slot(min(_CHUNK, n_samples)) for _ in range(workers)]
    # Imported here so that loading the CLI does not pay for it, and on this
    # thread: numpy.random loads on first use, and its module objects would
    # otherwise sit in a worker's malloc arena for the life of the process.
    from concurrent.futures import ThreadPoolExecutor

    import numpy.random  # noqa: F401

    def submit(index: int):
        # Sized on submission, so what is held before the first draw does
        # not grow with n_samples; the output array is allocated here, on
        # the calling thread.
        count = min(_CHUNK, n_samples - index * _CHUNK)
        return pool.submit(_chunk_overshoots, lam, t, seed, index, count,
                           slots[index % workers], np.empty(count))

    with ThreadPoolExecutor(workers) as pool:
        pending = deque(submit(index) for index in range(workers))
        for index in range(chunks):
            ready = [pending.popleft().result()]
            if index + workers < chunks:
                pending.append(submit(index + workers))
            # Popped into the yield, so that the caller holds the only
            # reference and may free the chunk as soon as it is done.
            yield ready.pop()


def _apply_observable(g, z: np.ndarray) -> np.ndarray:
    if hasattr(g, "apply_array"):
        return np.asarray(g.apply_array(z), dtype=complex)
    return np.array([complex(g(v)) for v in z.tolist()], dtype=complex)


def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1], n even.

    Newton's method on the three-term recurrence finds the positive roots
    of P_n, which are mirrored.  Each weight is the Christoffel number
    1 / sum_{k<n} (k + 1/2) P_k(x)^2, a sum of positive terms, moved to
    first order from the rounded node to the true root.  Only elementwise
    arithmetic is used, so no BLAS or LAPACK call can move a byte, and the
    guesses are rounded to 8 decimals so that a last-bit difference in
    libm's cos cannot change the path the iteration takes.
    """

    def newton_step(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """P_n(x) / P_n'(x), and the sum of (k + 1/2) P_k(x)^2 over k < n."""
        prev, cur = np.ones_like(x), x
        squares = 0.5 + 1.5 * x * x
        for j in range(2, n + 1):
            prev, cur = cur, ((2 * j - 1) * x * cur - (j - 1) * prev) / j
            if j < n:
                squares = squares + (j + 0.5) * cur * cur
        # (1 - x^2) P_n'(x) = n (P_{n-1}(x) - x P_n(x)).
        return cur * (1.0 - x) * (1.0 + x) / (n * (prev - x * cur)), squares

    x = np.array([round(math.cos(math.pi * (k - 0.25) / (n + 0.5)), 8)
                  for k in range(1, n // 2 + 1)])
    for _ in range(50):
        step = newton_step(x)[0]
        x = x - step
        if np.abs(step).max() < 1e-15:
            break
    # log w has slope -2x / (1 - x^2) at a root, and the root is x - step.
    step, squares = newton_step(x)
    w = (1.0 + 2.0 * x * step / ((1.0 - x) * (1.0 + x))) / squares
    return np.concatenate([-x, x[::-1]]), np.concatenate([w, w[::-1]])


_GL_NODES, _GL_WEIGHTS = _gauss_legendre(24)
# Absolute tolerance per unit of segment length (at least one unit).
_QUAD_TOL = 1e-13
# Most bisections of one segment.
_QUAD_LIMIT = 200


def _rule(g, a: float, b: float) -> complex:
    """The Gauss-Legendre rule on [a, b], g called point by point."""
    half = 0.5 * (b - a)
    z = (0.5 * (a + b)) + half * _GL_NODES
    vals = np.array([complex(g(v)) for v in z.tolist()])
    terms = _GL_WEIGHTS * vals
    return half * complex(math.fsum(terms.real), math.fsum(terms.imag))


def _segment_integral(g, a: float, b: float) -> complex:
    """Integral of g over [a, b] by adaptive bisection of the rule.

    An interval is accepted, as the sum of the rule on its two halves,
    when that sum and the rule on the whole interval agree to within its
    tolerance, which starts at _QUAD_TOL * max(1, b - a) and halves with
    each bisection.  After _QUAD_LIMIT bisections every interval left is
    accepted as the sum of its halves, and a RuntimeWarning names the
    summed disagreement of those that failed their tolerance.
    """
    parts: list[complex] = []
    pending = [(a, b, _rule(g, a, b), _QUAD_TOL * max(1.0, b - a))]
    bisections = 0
    error = 0.0
    while pending:
        lo, hi, whole, tol = pending.pop()
        mid = 0.5 * (lo + hi)
        left, right = _rule(g, lo, mid), _rule(g, mid, hi)
        diff = abs(whole - (left + right))
        if diff <= tol or bisections >= _QUAD_LIMIT:
            parts += (left, right)
            error += diff if diff > tol else 0.0
        else:
            bisections += 1
            pending += ((mid, hi, right, 0.5 * tol), (lo, mid, left, 0.5 * tol))
    if error:
        warnings.warn(
            f"renewal limit: {_QUAD_LIMIT} bisections on [{a!r}, {b!r}] left an "
            f"estimated error of {error:.3g}", RuntimeWarning, stacklevel=3)
    return complex(math.fsum(v.real for v in parts), math.fsum(v.imag for v in parts))


def renewal_limit(lam: AuxiliaryMeasure, g) -> complex:
    """Stationary overshoot expectation integral(g*p) / integral(p).

    p(z) is the survival function of the step law, a step function
    breaking at the atom locations, so both integrals are sums of segment
    integrals.  Each segment goes through one adaptive 24-point
    Gauss-Legendre rule that calls g point by point: intervals are
    bisected until the rule and its two halves agree to within
    1e-13 * max(1, segment length), the tolerance halving with each
    bisection.  A segment that needs more than 200 bisections (g
    discontinuous or oscillating too fast) gets its best value and a
    RuntimeWarning naming the estimated error.  The normaliser goes
    through the same arithmetic, so the constant observable yields
    exactly 1.
    """
    numerator = 0j
    denominator = 0j
    prev = 0.0
    for loc in lam.locations:
        # Survival is constant on [prev, loc); beyond the last atom it is 0.
        survival = lam.survival(prev)
        numerator += survival * _segment_integral(g, prev, loc)
        denominator += survival * _segment_integral(lambda z: 1.0, prev, loc)
        prev = loc
    return numerator / denominator


def renewal_expectation_mc(
    lam: AuxiliaryMeasure,
    g,
    t: float,
    n_samples: int,
    seed: int,
    cap: int = DEFAULT_WORD_CAP,
    threads: int | None = None,
) -> RenewalResult:
    """Monte Carlo estimate of E_t next to the stationary limit E_inf.

    ``mc_estimate`` estimates the finite-level expectation E_t of
    g(overshoot) at crossing level t; ``limit_value`` is E_inf from
    ``renewal_limit``.  The two agree only as t -> infinity, and not
    monotonically, so their difference at a finite t is bias as well as
    sampling error.

    Samples are generated in fixed-size chunks keyed by (seed, chunk
    index), so results are bit-reproducible for a given seed and sample
    count; within a chunk, the walkers below t draw one uniform per run
    of the heaviest step, panel by panel, until they cross t.  The
    standard error is sqrt(var(g) / n) with the scalar variance of the
    complex values.  A lattice step law never forgets its phase, so the
    estimate need not approach the limit there; that case is flagged on
    the result and raises a warning.

    No walker draws more than ceil(t / l_c) + 3 uniforms, l_c being the
    least step but the heaviest atom's (3 for a single atom); that count
    times the walkers of one chunk is checked against ``cap`` before any
    draw, so the work per chunk stays bounded and the chunk count grows
    linearly with ``n_samples``.

    Up to ``threads`` chunks, and never more than the CPUs this process
    may use (the default), are sampled at once on a thread pool, each
    with about 1.0 MB of work arrays; ``g`` is applied on the calling
    thread in chunk order, so the result is the same for every thread
    count and ``g`` need not be thread-safe.  Chunk i + workers is
    started as soon as chunk i is fetched, so the workers sample while
    ``g`` runs, and up to one overshoot array of 128 KB per worker, and
    one more, are alive at once.
    """
    if threads is not None and threads < 1:
        raise InputError(f"thread count must be at least 1, got {threads!r}")
    _check_walk(lam, t, n_samples, cap)
    if n_samples < 100:
        raise PreconditionError(f"need at least 100 samples, got {n_samples!r}")
    if lam.lattice:
        warnings.warn(
            "lattice step law: the overshoot expectation does not converge "
            "to the stationary limit", stacklevel=2)
    sums_re: list[float] = []
    sums_im: list[float] = []
    sums_sq: list[float] = []
    for z in _run_chunks(lam, t, seed, n_samples, threads):
        vals = _apply_observable(g, z)
        # The workers hold the next chunks' arrays already, so this one is
        # freed before the sums, and the squares take one temporary.
        del z
        sums_re.append(float(np.sum(vals.real)))
        sums_im.append(float(np.sum(vals.imag)))
        squares = vals.real ** 2
        squares += vals.imag ** 2
        sums_sq.append(float(np.sum(squares)))
        # Freed before the next chunk is awaited.
        del vals, squares
    mean = complex(math.fsum(sums_re) / n_samples, math.fsum(sums_im) / n_samples)
    variance = max(0.0, math.fsum(sums_sq) / n_samples - abs(mean) ** 2)
    stderr = math.sqrt(variance / n_samples)
    return RenewalResult(
        t=float(t),
        mc_estimate=mean,
        mc_stderr=stderr,
        limit_value=renewal_limit(lam, g),
        n_samples=int(n_samples),
        seed=int(seed),
        lattice=lam.lattice,
    )
