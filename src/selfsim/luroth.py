"""Restricted-digit Luroth systems and their closed-form decay exponents.

The Luroth map sends a digit d >= 2 to the contraction
x -> 1/d + x / (d*(d-1)), whose image is the interval (1/d, 1/(d-1)]
once the half-open convention is fixed.  A finite digit set therefore
defines a weighted system on [0,1] whose attractor carries the numbers
with all Luroth digits in the set.  Digit arithmetic here is exact over
the rationals, so encoding and decoding round-trip at any depth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .dimension import natural_weights, solve_moran
from .diophantine import _check_digits, matveev_degree
from .errors import InputError, ResourceCapError
from .ifs import DEFAULT_WORD_CAP, Similitude, WeightedIFS


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


def luroth_ifs(digits: Iterable[int], weights: Sequence[float] | None = None) -> WeightedIFS:
    """Weighted system whose maps are the Luroth contractions of the digits.

    Digit d contributes ratio 1/(d*(d-1)) and translation 1/d, each the
    correctly rounded float of the exact quotient.  Weights default to
    uniform; level-1 intervals share only endpoints, so the system always
    passes the disjointness check.  A digit whose ratio rounds to 0 is an
    InputError.
    """
    ds = _digit_set(digits)
    maps = tuple(Similitude(1 / (d * (d - 1)), 1 / d) for d in ds)
    if weights is None:
        weights = tuple(1.0 / len(ds) for _ in ds)
    return WeightedIFS(ds, maps, tuple(weights))


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


def luroth_decode(digits, exact: bool = False):
    """Number with the given Luroth digit prefix, plus a tail width bound.

    Returns (value, tail): ``value`` decodes the prefix followed by all
    tail contributions set to zero, and every number sharing the prefix
    lies within ``tail`` above it (the width of the prefix cylinder).
    Exact rationals are returned when ``exact`` is set, floats otherwise.
    """
    seq = _check_digits(digits.digits if isinstance(digits, LurothDigits) else digits)
    value = Fraction(0)
    scale = Fraction(1)
    for d in seq:
        value += scale * Fraction(1, d)
        scale /= d * (d - 1)
    if exact:
        return value, scale
    return float(value), float(scale)


def figure_intervals(
    digits: Iterable[int],
    level: int,
    cap: int = DEFAULT_WORD_CAP,
) -> tuple[tuple[Fraction, Fraction], ...]:
    """Exact level-``level`` cylinder intervals of the digit system.

    Every word of the given length contributes the rational interval
    obtained by pushing [0,1] through its maps; intervals are returned
    sorted by left endpoint.
    """
    ds = _digit_set(digits)
    if level < 1:
        raise InputError(f"level must be at least 1, got {level!r}")
    total = len(ds) ** level
    if total > cap:
        raise ResourceCapError(f"level {level} needs {total} intervals, cap={cap}")
    maps = [(Fraction(1, d * (d - 1)), Fraction(1, d)) for d in ds]
    # (start, width) of each cylinder, refined one level at a time.
    cylinders = [(Fraction(0), Fraction(1))]
    for _ in range(level):
        cylinders = [(lo + width * b, width * r) for lo, width in cylinders for r, b in maps]
    return tuple(sorted((lo, lo + width) for lo, width in cylinders))


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

    Equals s / (2 * (1 + 2*s) * (8*l - 7)) with l the matveev_degree of
    the two smallest digits, written here via that degree so both code
    paths share one constant.
    """
    a1, a2 = _two_smallest(digits)
    _, dim = luroth_natural_ifs(digits)
    denominator = 8.0 * matveev_degree(a1, a2) - 7.0
    return 0.5 * (dim / (1.0 + 2.0 * dim)) / denominator
