"""Restricted-digit Luroth systems and their closed-form decay exponents.

The Luroth map sends a digit d >= 2 to the contraction
x -> 1/d + x / (d*(d-1)), whose image is the interval (1/d, 1/(d-1)]
once the half-open convention is fixed.  A finite digit set therefore
defines a weighted system on [0,1] whose attractor carries the numbers
with all Luroth digits in the set.  Digit arithmetic here is exact over
the integers, so encoding and decoding round-trip at any depth.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

from .dimension import natural_weights, solve_moran
from .diophantine import _check_digits, matveev_degree
from .errors import DigitLimitError, InputError, ResourceCapError
from .fourier import theoretical_beta
from .ifs import DEFAULT_WORD_CAP, Similitude, WeightedIFS, _levels_over_cap

# CPython's default int-to-str digit limit, the figure's rule wherever the
# interpreter sets none (Python 3.10, or a limit of 0).
_DEFAULT_STR_DIGITS = 4300

# Most cylinders in one block of the figure: a rendered row holds about
# 500 B of Python ints and tuples, so a block holds about 1 MB.
_FIGURE_BLOCK = 2048


@dataclass(frozen=True)
class LurothDigits:
    """A finite prefix of a Luroth digit expansion; every digit is >= 2."""

    digits: tuple[int, ...]
    terminating: bool

    def __post_init__(self) -> None:
        _check_digits(self.digits)

    def __len__(self) -> int:
        return len(self.digits)


def _digit_set(digits: Iterable[int]) -> tuple[int, ...]:
    return tuple(sorted(set(_check_digits(digits))))


def luroth_ifs(digits: Iterable[int]) -> WeightedIFS:
    """Weighted system whose maps are the Luroth contractions of the digits.

    Digit d contributes ratio 1/(d*(d-1)) and translation 1/d, each the
    correctly rounded float of the exact quotient; the map keeps the exact
    ratio as well.  The weights are uniform; ``with_weights`` reweights the
    system.  Level-1 intervals share only endpoints, so the system always
    passes the disjointness check.  A digit whose ratio rounds to 0 is an
    InputError.
    """
    ds = _digit_set(digits)
    maps = tuple(Similitude(Fraction(1, d * (d - 1)), Fraction(1, d)) for d in ds)
    return WeightedIFS(ds, maps, tuple(1.0 / len(ds) for _ in ds))


def luroth_natural_ifs(digits: Iterable[int]) -> tuple[WeightedIFS, float]:
    """Luroth system reweighted to its similarity dimension's natural weights."""
    base = luroth_ifs(digits)
    sol = solve_moran(base)
    return natural_weights(base, sol.s_star), sol.s_star


def luroth_encode(x, n: int) -> LurothDigits:
    """First ``n`` Luroth digits of a number in (0, 1].

    The digit of z is the unique d with 1/d < z <= 1/(d-1), and the next
    iterate is d*(d-1)*z - (d-1).  Arithmetic is exact over the rationals
    (floats convert exactly), the iterate stays in (0, 1], and the
    expansion of a positive number never terminates, so exactly ``n``
    digits are always produced.
    """
    if n < 1:
        raise InputError(f"need at least one digit, got {n!r}")
    try:
        z = Fraction(x)
    except (TypeError, ValueError) as exc:
        raise InputError(f"cannot interpret {x!r} as an exact number") from exc
    if not (0 < z <= 1):
        raise InputError(f"Luroth encoding expects x in (0,1], got {x!r}")
    num, den = z.numerator, z.denominator
    digits = []
    for _ in range(n):
        d = den // num + 1
        digits.append(d)
        # z <- d*(d-1)*z - (d-1), kept as num/den without reducing.
        num = d * (d - 1) * num - (d - 1) * den
    return LurothDigits(tuple(digits), False)


def _refine_cylinder(a: int, w: int, d: int) -> tuple[int, int]:
    """The cylinder [A/W, (A+1)/W] refined by digit d, as integers (A', W').

    Digit d maps it onto 1/d + [A, A+1]/(d*(d-1)*W), so A' = (d-1)*(d*A+1)
    and W' = d*(d-1)*W.  From (0, 1), a digit block's cylinder starts at
    the block's series value A/W and has width 1/W.
    """
    return (d - 1) * (d * a + 1), d * (d - 1) * w


def luroth_decode(digits, exact: bool = False):
    """Number with the given Luroth digit prefix, plus a tail width bound.

    Returns (value, tail): ``value`` decodes the prefix followed by all
    tail contributions set to zero, and every number sharing the prefix
    lies within ``tail`` above it: the prefix cylinder is [A/W, (A+1)/W]
    (_refine_cylinder).  Exact rationals are returned when ``exact`` is
    set, correctly rounded floats otherwise.
    """
    seq = _check_digits(digits.digits if isinstance(digits, LurothDigits) else digits)
    a, w = 0, 1
    for d in seq:
        a, w = _refine_cylinder(a, w, d)
    if exact:
        return Fraction(a, w), Fraction(1, w)
    return a / w, 1 / w


def _figure_cylinders(digits: Iterable[int], level: int, cap: int) -> Iterator[list]:
    """Level-``level`` cylinders [A/W, (A+1)/W] of the digits, as sorted blocks of pairs (A, W).

    Each word's image of [0,1] is refined as in _refine_cylinder; the maps
    increase and larger digits lie further left, so refining by descending
    digits keeps the cylinders sorted.  A block is the subtree of the
    K^b <= _FIGURE_BLOCK cylinders under one prefix of length level - b,
    and the prefixes come in that same descending-digit order, so the
    blocks, one after another, are the sorted cylinders, and only one
    block is held at a time.  The reduced denominators q1, q2 of an
    interval's ends satisfy q1 * q2 >= W, so the word repeating the
    largest digit d has an end with a denominator of at least
    (d * (d - 1)) ** (level / 2).  When that bound has more digits than
    the interpreter's int-to-str limit (4300, CPython's default, where the
    interpreter sets none), InputError is raised, as are a bad digit set or
    level and ResourceCapError, by this call, before any cylinder is built;
    it returns a generator of the blocks.
    """
    ds = _digit_set(digits)
    if level < 1:
        raise InputError(f"level must be at least 1, got {level!r}")
    if _levels_over_cap(len(ds), level, cap):
        raise ResourceCapError(f"level {level} needs {len(ds)}^{level} intervals, cap={cap}")
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)() or _DEFAULT_STR_DIGITS
    if level * math.log10(ds[-1] * (ds[-1] - 1)) > 2 * limit + 1:
        raise InputError(
            f"level {level} has an interval end with more than {limit} digits, "
            f"the int-to-str digit limit")
    # _refine_cylinder inlined, with each digit's factors formed once.
    factors = [(d, d - 1, d * (d - 1)) for d in reversed(ds)]
    depth = 1
    while depth < level and len(ds) ** (depth + 1) <= _FIGURE_BLOCK:
        depth += 1

    def blocks():
        for prefix in itertools.product(factors, repeat=level - depth):
            a, w = 0, 1
            for d, m, q in prefix:
                a, w = m * (d * a + 1), q * w
            block = [(a, w)]
            for _ in range(depth):
                block = [(m * (d * a + 1), q * w) for a, w in block for d, m, q in factors]
            yield block

    return blocks()


def _figure_csv(blocks: Iterable[list]) -> Iterator[bytes]:
    """The luroth-figure rows of sorted cylinder blocks (A, W), as CSV bytes a block at a time.

    A cylinder [A/W, (A+1)/W] is the row "index,p/q,r/s" with both ends
    reduced by math.gcd, the bytes of the Fraction pair (a right end of 1
    reads "1/1"); each block is rendered with one bytes %-format, so no
    Fraction is built.  An end with more digits than the int-to-str limit
    is refused with DigitLimitError, as cli._fmt refuses it.
    """
    gcd, start = math.gcd, 0
    for cylinders in blocks:
        cells = []
        for i, (a, w) in enumerate(cylinders, start):
            g, h = gcd(a, w), gcd(a + 1, w)
            cells += (i, a // g, w // g, (a + 1) // h, w // h)
        start += len(cylinders)
        # Freed before the next block is built, so one block is alive at a time.
        del cylinders
        try:
            block = b"%d,%d/%d,%d/%d\r\n" * (len(cells) // 5) % tuple(cells)
        except ValueError as exc:
            raise DigitLimitError() from exc
        yield block


def figure_intervals(digits: Iterable[int], level: int,
                     cap: int = DEFAULT_WORD_CAP) -> tuple[tuple[Fraction, Fraction], ...]:
    """Exact level-``level`` intervals [A/W, (A+1)/W] of _figure_cylinders, sorted."""
    return tuple((Fraction(a, w), Fraction(a + 1, w))
                 for block in _figure_cylinders(digits, level, cap) for a, w in block)


def _two_smallest(digits: Iterable[int]) -> tuple[int, int]:
    ds = _digit_set(digits)
    if len(ds) < 2:
        raise InputError("need at least two digits")
    return ds[0], ds[1]


def beta_theorem4(digits: Iterable[int]) -> float:
    """Headline polylogarithmic decay exponent for a Luroth digit set.

    With s the similarity dimension and a1 < a2 the two smallest digits,
    the exponent is (s / (1 + 2*s)) * 1e-10 / (log(a1) * log(a2) + 1).
    """
    a1, a2 = _two_smallest(digits)
    _, dim = luroth_natural_ifs(digits)
    return (dim / (1.0 + 2.0 * dim)) * 1e-10 / (math.log(a1) * math.log(a2) + 1.0)


def beta_prop10(digits: Iterable[int]) -> float:
    """Sharper decay exponent from the two-logarithm bound.

    theoretical_beta at the similarity dimension s and the matveev_degree
    l of the two smallest digits: s / (2 * (1 + 2*s) * (8*l - 7)).
    """
    a1, a2 = _two_smallest(digits)
    _, dim = luroth_natural_ifs(digits)
    return theoretical_beta(dim, matveev_degree(a1, a2))
