"""The luroth-figure table rendered from integer cylinders.

A cylinder [A/W, (A+1)/W] of a Luroth digit set is the row
"index,p/q,r/s" with both ends reduced, the bytes of the Fraction pair
(a right end of 1 reads "1/1").  FigureRows reduces each end with
math.gcd and renders a block of rows with one bytes %-format, so no
Fraction is built.

The module is imported by luroth-figure alone, so no other command
compiles it.
"""

from __future__ import annotations

import math

from .errors import DigitLimitError


class FigureRows:
    """The rows of the luroth-figure table over sorted cylinders (A, W)."""

    def __init__(self, cylinders: list[tuple[int, int]]) -> None:
        self.cylinders = cylinders

    def __len__(self) -> int:
        return len(self.cylinders)

    def csv_blocks(self, block_rows: int):
        """The CSV bytes of the rows, ``block_rows`` rows at a time.

        An end with more digits than the int-to-str limit is refused with
        DigitLimitError, as cli._fmt refuses it.
        """
        gcd, cylinders = math.gcd, self.cylinders
        for start in range(0, len(cylinders), block_rows):
            cells = []
            for i, (a, w) in enumerate(cylinders[start:start + block_rows], start):
                g, h = gcd(a, w), gcd(a + 1, w)
                cells += (i, a // g, w // g, (a + 1) // h, w // h)
            try:
                block = b"%d,%d/%d,%d/%d\r\n" * (len(cells) // 5) % tuple(cells)
            except ValueError as exc:
                raise DigitLimitError() from exc
            yield block
