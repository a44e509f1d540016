"""Float tables rendered to the exact CSV bytes of "%.17g", in numpy.

The 17 significant digits of a finite x != 0 are N = |x| * 10**(16 - E)
rounded half to even, E = floor(log10|x|), with 10**16 <= N < 10**17; %g
then writes them in fixed notation for -4 <= E < 17 and as d.ddd...e+XX
otherwise, with trailing zeros after the point dropped, and the point
too when nothing follows it.  FloatCells builds those bytes a block of
cells at a time: N comes from a Dekker two-product of |x| with
10**(16 - E) held as a double-double (hi, lo), exact up to about 1e-14,
its digits are spelled through a 4-digit lookup table, and each cell is
laid out in a NUL-padded 32-byte slot whose padding is dropped at the
end.  A cell is certified by this fast path when |x| lies in
(FAST_MIN, FAST_MAX), where no partial product overflows or underflows,
the product's fraction is more than TIE_MARGIN from 1/2, and
10**16 < N < 10**17 (which also catches an E that log10 rounded to the
wrong side of a power of ten).  Every other cell (zero, inf, nan, a
subnormal, a near tie, an exact power of ten) is written by "%.17g"
itself, so every cell has the bytes of b"%.17g" % cell.

The module is imported on the first float table, so commands that write
none never compile it.
"""

from __future__ import annotations

import functools
from fractions import Fraction

import numpy as np

FAST_MIN, FAST_MAX = 1e-280, 1e280
TIE_MARGIN = 1e-9
# Layout classes: one per exponent E in [_EXP_MIN, _EXP_MAX], then whole
# texts (inf, nan and the zeros) and cells left to "%.17g".
_EXP_MIN, _EXP_MAX = -300, 300
_INF, _NAN, _ZERO, _NEG_ZERO, _SLOW = range(_EXP_MAX - _EXP_MIN + 1, _EXP_MAX - _EXP_MIN + 6)
_SPLIT = 134217729.0  # 2**27 + 1, Dekker's splitting factor
_ZEROS = np.uint64(0x3030303030303030)  # eight "0" bytes
_S8, _S16, _S32, _S48, _S56 = (np.uint64(s) for s in (8, 16, 32, 48, 56))
_WORD = 0xFFFFFFFFFFFFFFFF
_COMMA = np.uint64(ord(",") << 40)  # byte 29 of a cell
_CRLF = np.uint64(0x0A0D << 40)  # bytes 29 and 30


def _word(text: bytes, at: int = 0) -> int:
    """``text`` as the bytes of a little-endian integer, from byte ``at`` on."""
    return int.from_bytes(text, "little") << (8 * at)


@functools.cache
def _layout() -> tuple[np.ndarray, np.ndarray]:
    """The digit and class tables of the float renderer, built on first use.

    ``quads[q]`` spells q < 10000 as four ASCII digits in a little-endian
    word; ``quads[10000 + q]`` spells them with trailing zeros as NUL.
    ``classes[:, c]`` holds, for layout class c, the byte mask of the
    digits before the point (words 0-2 of the 17-digit run), the point
    just after them (words 3-5), the sign-and-prefix word (6) and the
    exponent word (7).  A cell is 32 bytes: sign and prefix in bytes 0-5,
    the run with its point in 6-23, the exponent in 24-28 and the
    separator in 29-30; the rest is NUL.
    """
    quad = np.arange(10000, dtype=np.uint64)
    digits = [quad // 1000, quad // 100 % 10, quad // 10 % 10, quad % 10]
    full = np.zeros_like(quad)
    stripped = np.zeros_like(quad)
    kept = np.zeros(len(quad), dtype=bool)
    for i in (3, 2, 1, 0):
        char = (digits[i] + np.uint64(48)) << np.uint64(8 * i)
        full |= char
        kept |= digits[i] != 0
        stripped |= np.where(kept, char, np.uint64(0))
    quads = np.concatenate([full, stripped])
    classes = np.zeros((8, _SLOW + 1), dtype=np.uint64)
    for e in range(_EXP_MIN, _EXP_MAX + 1):
        # %g: fixed notation for -4 <= E < 17, else d.ddd with an exponent.
        whole, prefix, suffix = 1, b"", b"e%+03d" % e
        if 0 <= e < 17:
            whole, suffix = e + 1, b""
        elif -4 <= e < 0:
            whole, prefix, suffix = 0, b"0." + b"0" * (-e - 1), b""
        mask = (1 << (8 * whole)) - 1
        point = ord(".") << (8 * whole) if 0 < whole < 17 else 0
        for k in range(3):
            classes[k, e - _EXP_MIN] = (mask >> (64 * k)) & _WORD
            classes[3 + k, e - _EXP_MIN] = (point >> (64 * k)) & _WORD
        classes[6, e - _EXP_MIN] = _word(prefix, 1)
        classes[7, e - _EXP_MIN] = _word(suffix)
    # The sign byte, set where x < 0, adds the "-" of -inf; nan is never
    # below 0 and %g writes it unsigned; -0.0 has a class of its own.
    for c, text in ((_INF, b"inf"), (_NAN, b"nan"), (_ZERO, b"0"), (_NEG_ZERO, b"-0")):
        classes[6, c] = _word(text, 0 if c == _NEG_ZERO else 1)
    quads.setflags(write=False)
    classes.setflags(write=False)
    return quads, classes


class FloatCells:
    """Work arrays that render blocks of a float64 table to "%.17g" CSV bytes.

    Sized once for ``cells`` cells (a block's rows times the columns), so
    a table of any length reuses them.  The powers 10**(16 - E) are
    computed exactly from Fractions the first time a block holds E.  Each
    cell is laid out in its 32-byte slot (see _layout), and the NUL
    padding is dropped once per block.  Indices passed to ``take`` are in
    range; mode="clip" only keeps it from buffering its output.
    """

    def __init__(self, cells: int) -> None:
        # Per exponent: hi, lo, and hi split in two halves for Dekker.
        self.powers = np.full((4, _EXP_MAX - _EXP_MIN + 1), np.nan)
        self.floats = np.empty((10, cells))
        self.ints = np.empty((5, cells), dtype=np.int64)
        self.words = np.empty((7, cells), dtype=np.uint64)
        self.flags = np.empty((2, cells), dtype=bool)
        self.out = np.empty((cells, 4), dtype=np.uint64)

    def render(self, block: np.ndarray) -> bytes:
        """The CSV lines of ``block``, each cell as b"%.17g" % cell."""
        rows, columns = block.shape
        x = np.ascontiguousarray(block, dtype=np.float64).reshape(rows * columns)
        cls = self._certify(x)
        self._spell(len(x))
        return self._lay_out(x, cls, rows, columns)

    def _powers_of(self, cls: np.ndarray) -> None:
        """hi, lo and hi's two halves of 10**(16 - E), per cell, into floats[4:8]."""
        out = self.floats[4:8, :len(cls)]
        self.powers.take(cls, axis=1, out=out, mode="clip")
        missing = np.isnan(out[0])
        if missing.any():
            # Not np.unique, which loads numpy.ma.
            for c in sorted(set(cls[missing].tolist())):
                power = Fraction(10) ** (16 - (c + _EXP_MIN))
                hi = float(power)
                high = hi * _SPLIT - (hi * _SPLIT - hi)
                self.powers[:, c] = hi, float(power - Fraction(hi)), high, hi - high
            self.powers.take(cls, axis=1, out=out, mode="clip")

    def _certify(self, x: np.ndarray) -> np.ndarray:
        """Each cell's layout class, and N in ints[1] where the fast path holds (else 0)."""
        m = len(x)
        a, p, r, t, hi, lo, hh, hl, ah, al = self.floats[:, :m]
        cls, n, q = self.ints[0, :m], self.ints[1, :m], self.ints[4, :m]
        fast, flag = self.flags[:, :m]
        # E from a = |x|, with a = 1 where |x| is out of the fast range.
        np.abs(x, out=a)
        np.greater(a, FAST_MIN, out=fast)
        fast &= np.less(a, FAST_MAX, out=flag)
        np.copyto(a, 1.0, where=np.logical_not(fast, out=flag))
        np.floor(np.log10(a, out=t), out=t)
        np.copyto(cls, t, casting="unsafe")
        cls -= _EXP_MIN
        self._powers_of(cls)
        # p + e = a * hi exactly (Dekker's product, a split as ah + al),
        # and r = e + a * lo.
        np.multiply(a, hi, out=p)
        np.multiply(a, _SPLIT, out=ah)
        np.subtract(ah, a, out=al)
        ah -= al
        np.subtract(a, ah, out=al)
        np.multiply(ah, hh, out=r)
        r -= p
        r += np.multiply(ah, hl, out=t)
        r += np.multiply(al, hh, out=t)
        r += np.multiply(al, hl, out=t)
        r += np.multiply(a, lo, out=t)
        # N = p + rint(r) in integers: p >= 2**53, an integer, wherever N
        # can pass the range check.  r's fraction must be clear of 1/2.
        np.rint(r, out=t)
        np.copyto(n, p, casting="unsafe")
        np.copyto(q, t, casting="unsafe")
        n += q
        r -= t
        np.abs(np.subtract(np.abs(r, out=r), 0.5, out=r), out=r)
        fast &= np.greater(r, TIE_MARGIN, out=flag)
        fast &= np.greater(n, 10 ** 16, out=flag)
        fast &= np.less(n, 10 ** 17, out=flag)
        if not fast.all():
            np.logical_not(fast, out=flag)
            np.copyto(n, 0, where=flag)
            np.copyto(cls, _SLOW, where=flag)
            np.copyto(cls, _INF, where=np.isinf(x, out=flag))
            np.copyto(cls, _NAN, where=np.isnan(x, out=flag))
            np.copyto(cls, _ZERO, where=np.equal(x, 0.0, out=flag))
            flag &= np.signbit(x)
            np.copyto(cls, _NEG_ZERO, where=flag)
        return cls

    def _quad(self, digits: np.ndarray, stripped: np.ndarray) -> np.ndarray:
        """The word of each 4-digit group, with trailing zeros as NUL where ``stripped``."""
        quads, _ = _layout()
        index = np.multiply(stripped, 10000, out=self.ints[1, :len(digits)])
        index += digits
        return quads.take(index, out=self.words[6, :len(digits)], mode="clip")

    def _spell(self, m: int) -> None:
        """N's 17 digits (in ints[1]) as words: 8 in x0, 8 in x1 and 1 in x2.

        N = top * 10**9 + mid * 10 + last, and each 8-digit part is two
        4-digit groups.  Going from the last digit back, a group is spelled
        with its trailing zeros as NUL while every digit after it is 0, so
        N = 0 spells no digit at all.
        """
        x0, x1, x2 = self.words[:3, :m]
        _, n, top, mid, quad = self.ints[:, :m]
        zero, flag = self.flags[:, :m]
        np.floor_divide(n, 10 ** 9, out=top)
        n -= np.multiply(top, 10 ** 9, out=quad)
        np.floor_divide(n, 10, out=mid)
        n -= np.multiply(mid, 10, out=quad)
        np.equal(n, 0, out=zero)
        n += ord("0")
        np.copyto(n, 0, where=zero)
        np.copyto(x2, n, casting="unsafe")
        for word, part in ((x1, mid), (x0, top)):
            np.floor_divide(part, 10000, out=quad)
            part -= np.multiply(quad, 10000, out=n)
            np.left_shift(self._quad(part, zero), _S32, out=word)
            zero &= np.equal(part, 0, out=flag)
            word |= self._quad(quad, zero)
            zero &= np.equal(quad, 0, out=flag)

    def _lay_out(self, x: np.ndarray, cls: np.ndarray, rows: int, columns: int) -> bytes:
        """Cells from the digit words and their classes, NUL padding dropped."""
        _, classes = _layout()
        m = len(x)
        x0, x1, x2, l0, l1, l2, w = self.words[:, :m]
        flag = self.flags[1, :m]
        # The digits before the point move to l (zeros restored, since only
        # trailing zeros are dropped); the fraction stays in x.
        for k, (xk, lk) in enumerate(((x0, l0), (x1, l1), (x2, l2))):
            classes[k].take(cls, out=w, mode="clip")
            np.bitwise_and(xk, w, out=lk)
            xk ^= lk
            lk |= np.bitwise_and(w, _ZEROS, out=w)
        # The point, where a fraction digit is left, then the fraction one
        # byte up, past it.
        np.bitwise_or(x0, x1, out=w)
        np.not_equal(np.bitwise_or(w, x2, out=w), 0, out=flag)
        for k, lk in enumerate((l0, l1, l2)):
            lk |= np.multiply(classes[3 + k].take(cls, out=w, mode="clip"), flag, out=w)
        l2 |= np.left_shift(x2, _S8, out=w)
        l2 |= np.right_shift(x1, _S56, out=w)
        l1 |= np.left_shift(x1, _S8, out=w)
        l1 |= np.right_shift(x0, _S56, out=w)
        l0 |= np.left_shift(x0, _S8, out=w)
        # Sign and prefix, then the run from byte 6, the exponent and the separators.
        cells = self.out[:m]
        classes[6].take(cls, out=cells[:, 0], mode="clip")
        cells[:, 0] |= np.multiply(np.less(x, 0.0, out=flag), np.uint64(ord("-")), out=w)
        cells[:, 0] |= np.left_shift(l0, _S48, out=w)
        np.right_shift(l0, _S16, out=cells[:, 1])
        cells[:, 1] |= np.left_shift(l1, _S48, out=w)
        np.right_shift(l1, _S16, out=cells[:, 2])
        cells[:, 2] |= np.left_shift(l2, _S48, out=w)
        classes[7].take(cls, out=cells[:, 3], mode="clip")
        table = cells.reshape(rows, columns, 4)
        table[:, :-1, 3] |= _COMMA
        table[:, -1, 3] |= _CRLF
        slow = np.flatnonzero(np.equal(cls, _SLOW, out=flag))
        if len(slow):
            text = b"".join([(b"%.17g" % v).ljust(24, b"\0") for v in x[slow].tolist()])
            cells[slow, :3] = np.frombuffer(text, dtype="<u8").reshape(-1, 3)
        return cells.astype("<u8", copy=False).tobytes().translate(None, b"\0")
