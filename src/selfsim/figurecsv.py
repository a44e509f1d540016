"""The luroth-figure table rendered from integer cylinders.

A cylinder [A/W, (A+1)/W] of a Luroth digit set is the row
"index,p/q,r/s" with both ends reduced, the bytes of the Fraction pair
(a right end of 1 reads "1/1").  FigureRows reduces each end with
math.gcd and renders each block of cylinders with one bytes %-format,
so no Fraction is built.

The module is imported by luroth-figure alone, so no other command
compiles it.
"""

from __future__ import annotations

import math

from .errors import DigitLimitError


class FigureRows:
    """The rows of the luroth-figure table over sized blocks of sorted cylinders (A, W).

    The blocks are consumed as they are rendered, so the rows are written once.
    """

    def __init__(self, cylinders) -> None:
        self.cylinders = cylinders

    def __len__(self) -> int:
        return len(self.cylinders)

    def csv_blocks(self):
        """The CSV bytes of the rows, one block of cylinders at a time.

        An end with more digits than the int-to-str limit is refused with
        DigitLimitError, as cli._fmt refuses it.
        """
        gcd, start = math.gcd, 0
        for cylinders in self.cylinders:
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
