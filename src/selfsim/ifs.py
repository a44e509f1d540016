"""Iterated function systems of orientation-preserving similitudes on [0,1].

An instance is a finite alphabet of contractions x -> r*x + b together with
strictly positive probability weights.  Finite words over the alphabet
compose to affine maps whose images are the cylinder intervals.  Every
cylinder family is built level by level from one refinement step,
_refine.  The stopping family at scale exp(-t) is the prefix-free set of
minimal words w with S(w) = sum_k n_k(w) * l_k >= t, l_k = -log r_k, on
symbol counts n(w); _stopping_states decides it for the Fourier sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import compress
from operator import mul
from typing import Sequence

import numpy as np

from .errors import InputError, PreconditionError, ResourceCapError

# Interval overlaps up to this length are treated as endpoint touching.
DISJOINT_TOL = 1e-12

# Default ceiling on what one enumeration builds: words, cylinders, rows,
# or the table entries of the stopping walk (8 B each, so 400 MB here).
DEFAULT_WORD_CAP = 50_000_000


@dataclass(frozen=True)
class Similitude:
    """Contraction x -> ratio * x + translation mapping [0,1] into itself.

    Ratio and translation may be ints, floats or Fractions and are kept as
    correctly rounded floats; ``exact_ratio`` is the ratio's exact value (a
    float's binary value), which equality and hashing ignore.
    """

    ratio: float
    translation: float
    exact_ratio: Fraction = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        ratio, translation = float(self.ratio), float(self.translation)
        if not (0.0 < ratio < 1.0):
            raise InputError(
                f"contraction ratio must lie strictly between 0 and 1, got {ratio!r}")
        if translation < 0.0:
            raise InputError(f"translation must be nonnegative, got {translation!r}")
        if ratio + translation > 1.0 + DISJOINT_TOL:
            raise InputError(
                "map must send [0,1] into itself: ratio + translation = "
                f"{ratio + translation!r} exceeds 1")
        object.__setattr__(self, "exact_ratio", Fraction(self.ratio))
        object.__setattr__(self, "ratio", ratio)
        object.__setattr__(self, "translation", translation)

    def __call__(self, x: float) -> float:
        return self.ratio * x + self.translation

    @property
    def interval(self) -> tuple[float, float]:
        """Image of [0,1] under the map."""
        return (self.translation, self.translation + self.ratio)

    @property
    def fixed_point(self) -> float:
        return self.translation / (1.0 - self.ratio)


@dataclass(frozen=True)
class WeightedIFS:
    """Alphabet of similitudes with strictly positive weights summing to 1."""

    symbols: tuple
    maps: tuple[Similitude, ...]
    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.symbols:
            raise InputError("alphabet must be non-empty")
        if len(set(self.symbols)) != len(self.symbols):
            raise InputError(f"alphabet symbols must be distinct, got {self.symbols!r}")
        if len(self.maps) != len(self.symbols) or len(self.weights) != len(self.symbols):
            raise InputError("maps and weights must both match the alphabet length")
        if any(w <= 0.0 for w in self.weights):
            raise InputError("every weight must be strictly positive")
        total = math.fsum(self.weights)
        if abs(total - 1.0) > 1e-12:
            raise InputError(f"weights must sum to 1 within 1e-12, got {total!r}")

    @property
    def size(self) -> int:
        return len(self.symbols)

    @property
    def min_ratio(self) -> float:
        return min(m.ratio for m in self.maps)

    @property
    def max_ratio(self) -> float:
        return max(m.ratio for m in self.maps)

    def with_weights(self, weights: Sequence[float]) -> "WeightedIFS":
        return WeightedIFS(self.symbols, self.maps, tuple(float(w) for w in weights))


@dataclass(frozen=True)
class Word:
    """A finite word with the cylinder of its composed map and its products.

    The composed map is x -> ratio_product * x + intercept, so the word's
    cylinder is ``interval`` = [intercept, intercept + ratio_product].
    Words compose in refinement order: the first symbol acts outermost
    and each appended symbol subdivides the current cylinder.  A stopping
    family takes words by symbol counts, not by ratio_product.
    """

    symbols: tuple
    ratio_product: float
    weight_product: float
    intercept: float

    def __len__(self) -> int:
        return len(self.symbols)

    @property
    def interval(self) -> tuple[float, float]:
        """Image of [0,1] under the word's composed map."""
        return (self.intercept, self.intercept + self.ratio_product)


@dataclass(frozen=True)
class DisjointnessReport:
    """Outcome of the pairwise level-1 interval check."""

    ok: bool
    overlaps: tuple[tuple[object, object, float], ...]

    def __bool__(self) -> bool:
        return self.ok


def validate_disjointness(ifs: WeightedIFS) -> DisjointnessReport:
    """Check that level-1 cylinder interiors are pairwise disjoint.

    Endpoint touching (overlap length up to DISJOINT_TOL) is allowed.
    Offending pairs are reported with their overlap length.
    """
    bad = []
    intervals = [m.interval for m in ifs.maps]
    for i in range(len(intervals)):
        for j in range(i + 1, len(intervals)):
            lo = max(intervals[i][0], intervals[j][0])
            hi = min(intervals[i][1], intervals[j][1])
            if hi - lo > DISJOINT_TOL:
                bad.append((ifs.symbols[i], ifs.symbols[j], hi - lo))
    return DisjointnessReport(not bad, tuple(bad))


def _require_disjoint(ifs: WeightedIFS) -> None:
    """Raise PreconditionError, naming each overlap, unless the check passes."""
    report = validate_disjointness(ifs)
    if not report:
        pairs = ", ".join(f"{a!r}/{b!r} by {d:.3g}" for a, b, d in report.overlaps)
        raise PreconditionError(
            f"disjointness precondition violated, level-1 intervals overlap: {pairs}")


@dataclass(frozen=True)
class StoppingFamily:
    """Minimal words w with S(w) >= t, the stopping family at scale exp(-t).

    S(w) = sum_k n_k * l_k over w's symbol counts n, with l_k = -log r_k,
    so words with equal counts are all in the family or all internal.
    """

    t: float
    words: tuple[Word, ...]

    def __len__(self) -> int:
        return len(self.words)

    @property
    def total_weight(self) -> float:
        return math.fsum(w.weight_product for w in self.words)


def _check_stopping_args(ifs: WeightedIFS, t: float, cap: int) -> None:
    """Validate t and cap against the step bound t / -log(max_ratio).

    No internal node of the stopping tree has more than ceil(bound)
    symbols, so a walk takes at most ceil(bound) + 1 steps.
    ResourceCapError is raised iff that step bound exceeds ``cap``.  The
    bound is compared before it is rounded, since it can overflow to inf.
    """
    if not (t > 0.0 and math.isfinite(t)):
        raise InputError(f"stopping time must be positive and finite, got {t!r}")
    if cap < 1:
        raise InputError(f"word cap must be at least 1, got {cap!r}")
    bound = t / -math.log(ifs.max_ratio)
    if bound > cap - 1:
        steps = math.ceil(bound) + 1 if math.isfinite(bound) else bound
        raise ResourceCapError(
            f"stopping walk for t={t!r} needs up to {steps} steps, cap={cap}")


def _levels_over_cap(size: int, depth: int, cap: int) -> bool:
    """Whether a walk of ``depth`` levels of size**depth cylinders exceeds ``cap``.

    Each level is one refinement, so depth > cap is refused also for one
    map; with two or more, size**depth > cap once depth reaches cap's bit
    length, so the power is never formed for a huge depth.
    """
    return depth > cap or size ** min(depth, cap.bit_length()) > cap


def _single_map_word(ifs: WeightedIFS, t: float, cap: int) -> tuple[int, float, float, float]:
    """The one word of a single-map system's stopping family at scale exp(-t).

    Returns its length, ratio product, cylinder start and mass.  With one
    map the count vector is the length n, so the stopping rule of
    _stopping_states, S(n) = n * l >= t with l = -log r, picks the least
    such n, found from ceil(t / l) by at most one step either way.  The
    word is then a closed form: ratio r**n, start b * (1 - r**n) / (1 - r)
    and mass p**n.  The cap bounds n, checked by _check_stopping_args.
    """
    _check_stopping_args(ifs, t, cap)
    (m,), (p,) = ifs.maps, ifs.weights
    ell = -math.log(m.ratio)
    n = math.ceil(t / ell)
    if (n - 1) * ell >= t:
        n -= 1
    elif n * ell < t:
        n += 1
    ratio = m.ratio ** n
    return n, ratio, m.translation * (1.0 - ratio) / (1.0 - m.ratio), p ** n


def _min_states(ells: Sequence[float], t: float) -> float:
    """A lower bound on the count vectors n >= 0 with sum_k n_k * l_k < t.

    Every real x >= 0 with S(x) = sum_k x_k * l_k < t lies in the unit
    cube of n = floor(x), and S(n) <= S(x) < t, so these cubes cover the
    simplex {x >= 0 : S(x) < t} of volume t**K / (K! * prod_k l_k).  The
    volume is formed in logarithms (capped at exp(709), far past any cap,
    so it cannot overflow) and shrunk by a relative 1e-9, more than the
    rounding of the logarithms and of the walk's S can move it.
    """
    k = len(ells)
    log_volume = k * math.log(t) - math.lgamma(k + 1) - math.fsum(map(math.log, ells))
    return math.exp(min(log_volume, 709.0)) * (1.0 - 1e-9)


def _stopping_states(
    ifs: WeightedIFS, t: float, cap: int,
) -> tuple[list[tuple[np.ndarray, np.ndarray]], int]:
    """Internal nodes of the stopping tree at scale exp(-t), merged by symbol counts.

    A word with symbol counts n is internal iff S(n) = sum_k n_k * l_k < t
    (l_k = -log r_k; S is the math.fsum of the rounded products n_k * l_k,
    the same on every interpreter), so one state stands for the
    multinomial(n) tree nodes with counts n.  States are discovered level
    by level (word length).  Level n is returned as (ratios, children): the
    ratio product of each state with n symbols, as its first parent's
    running product, and for each map k the index of the child state at
    level n + 1, or -1 where the child is a family word.  The second value
    is the family size, counted exactly from the tree nodes on each state.

    The cap counts what the walk keeps: K + 1 table entries per state, its
    ratio product and its K child indices.  ResourceCapError is raised iff
    the states need more than ``cap`` entries, at the latest K states
    after the count passes it, so the tables stay near 8 * cap bytes
    however many words the family has.  When K + 1 times _min_states
    already exceeds ``cap``, it is raised before the walk starts.
    """
    _check_stopping_args(ifs, t, cap)
    ratios = [m.ratio for m in ifs.maps]
    ells = [-math.log(r) for r in ratios]
    if (ifs.size + 1) * _min_states(ells, t) > cap:
        raise ResourceCapError(
            f"stopping walk for t={t!r} needs more than cap={cap} table entries: "
            f"at least {_min_states(ells, t):.4g} states of {ifs.size + 1} entries each")
    levels: list[tuple[np.ndarray, np.ndarray]] = []
    # Symbol counts -> [index in level, ratio product, tree nodes].
    frontier: dict[tuple[int, ...], list] = {(0,) * ifs.size: [0, 1.0, 1]}
    entries = ifs.size + 1
    words = 0
    while frontier:
        below: dict[tuple[int, ...], list] = {}
        children = np.full((len(frontier), ifs.size), -1, dtype=np.intp)
        for i, (counts, (_, ratio, nodes)) in enumerate(frontier.items()):
            if entries > cap:
                raise ResourceCapError(
                    f"stopping walk for t={t!r} needs more than cap={cap} table entries")
            for k, r_k in enumerate(ratios):
                key = counts[:k] + (counts[k] + 1,) + counts[k + 1:]
                entry = below.get(key)
                if entry is None:
                    if math.fsum(map(mul, key, ells)) >= t:
                        words += nodes
                        continue
                    entry = below[key] = [len(below), ratio * r_k, 0]
                    entries += ifs.size + 1
                entry[2] += nodes
                children[i, k] = entry[0]
        levels.append((np.array([e[1] for e in frontier.values()]), children))
        frontier = below
    return levels, words


def _refine(
    ifs: WeightedIFS, lo: np.ndarray, width: np.ndarray, mass: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Children of the cylinders [lo, lo + width] with the given masses.

    Child k of a cylinder is its image under map k, composed in refinement
    order: lo + width * b_k, width * r_k and mass * p_k.  The children come
    parent by parent, in alphabet order within a parent, as flat arrays
    (lo, width, mass), so refining the level-n words in lexicographic order
    gives the level-(n + 1) words in lexicographic order.
    """
    b = np.array([m.translation for m in ifs.maps])
    r = np.array([m.ratio for m in ifs.maps])
    return ((lo[:, None] + width[:, None] * b).ravel(), np.outer(width, r).ravel(),
            np.outer(mass, ifs.weights).ravel())


def stopping_words(ifs: WeightedIFS, t: float, cap: int = DEFAULT_WORD_CAP) -> StoppingFamily:
    """Enumerate the minimal words w with S(w) >= t (see StoppingFamily).

    The family is the one _stopping_states decides from symbol counts: a
    child of an internal node is a word exactly when its state table marks
    it so, and its ratio product is the table's product ratio[state] * r_k.
    The family is therefore prefix-free, carries total weight 1, its ratio
    products lie in (min_ratio * exp(-t), exp(-t)] up to rounding, and its
    size equals mu_hat_cylinder's ``cost`` at every t, also where exp(-t)
    underflows.  Words come out in level order: by length, and
    lexicographically in the alphabet order within one length.

    The affine data of each word composes the maps in refinement order
    (see Word), so the family's cylinders are nested below their prefixes
    and pairwise disjoint up to endpoints, which is what the measure
    decomposition over the family requires.  The cap bounds the state
    walk as _stopping_states says, and then the words: ResourceCapError
    is raised when the family has more than ``cap`` words, before any
    word is built.  A single map's one word is the closed form of
    _single_map_word, and the cap bounds its ceil(t / -log r) + 1 steps.
    """
    if ifs.size == 1:
        n, ratio, lo, mass = _single_map_word(ifs, t, cap)
        return StoppingFamily(t, (Word(ifs.symbols * n, ratio, mass, lo),))
    levels, words = _stopping_states(ifs, t, cap)
    if words > cap:
        raise ResourceCapError(
            f"stopping family for t={t!r} has {words} words, more than cap={cap}")
    out: list[Word] = []
    # The internal nodes of one level: state index, symbols, cylinder start, mass.
    state = np.zeros(1, dtype=np.intp)
    syms: list[tuple] = [()]
    lo, mass = np.zeros(1), np.ones(1)
    for ratio, children in levels:
        lo, width, mass = _refine(ifs, lo, ratio[state], mass)
        state = children[state].ravel()
        syms = [s + (a,) for s in syms for a in ifs.symbols]
        word = state < 0
        out.extend(map(Word, compress(syms, word), width[word].tolist(),
                       mass[word].tolist(), lo[word].tolist()))
        inner = ~word
        state, lo, mass = state[inner], lo[inner], mass[inner]
        syms = list(compress(syms, inner))
    return StoppingFamily(t, tuple(out))
