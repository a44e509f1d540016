"""Exception taxonomy shared by the library and the command-line front end.

Every exception carries an ``exit_status`` so the CLI can map failures to
process return codes without inspecting types at each call site:

* 2: the input was malformed or violated a documented precondition,
* 3: an enumeration would exceed its configured resource cap,
* 4: an internal consistency check failed (a bug, not a user error).
"""

import sys


class SelfsimError(Exception):
    """Base class for all library errors."""

    exit_status = 4


class InputError(SelfsimError):
    """Malformed or out-of-range user input."""

    exit_status = 2


class DigitLimitError(InputError):
    """An exact integer has more digits than Python 3.11+ converts to a string."""

    def __init__(self) -> None:
        super().__init__(
            f"an exact value has more than {sys.get_int_max_str_digits()} digits, "
            "the limit for integer string conversion")


class PreconditionError(InputError):
    """A documented mathematical precondition does not hold for the input."""

    exit_status = 2


class ResourceCapError(SelfsimError):
    """An enumeration was abandoned because it would exceed its cap."""

    exit_status = 3


class InternalInvariantError(SelfsimError):
    """A computed result failed an internal consistency check."""

    exit_status = 4
