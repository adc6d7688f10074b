"""Exception taxonomy shared across the package.

The CLI maps these onto exit codes: UsageError -> 2, ResourceCapError -> 3,
VerificationError -> 1. It maps a MemoryError to 3 as well.
"""

import math


def count_text(x: int) -> str:
    """A positive int for a message: its digits, or its order of magnitude
    where Python refuses to convert that many digits to text."""
    try:
        return str(x)
    except ValueError:
        return f"(about 10^{math.floor(math.log10(x))})"


class UsageError(ValueError):
    """A precondition on user-supplied input was violated."""


class ResourceCapError(RuntimeError):
    """A configured vertex/state cap was exceeded; the message names the cap."""


class VerificationError(AssertionError):
    """An internal check of a mathematically guaranteed property failed.

    Raised only for properties that are theorems given correct code, so a
    VerificationError always indicates an implementation bug.
    """
