"""Exact rational scalars.

All coefficients in this package are arbitrary-precision rationals; no
floating point is used anywhere.  ``Rat`` is ``fractions.Fraction``: it
normalizes to lowest terms with a positive denominator and prints as
``"p/q"`` (or ``"p"`` for integers), which is the wire format used by the
map-document serializer.  Products and compositions of series accumulate
Python ints (numerators over a common denominator) and build a rational
only where a coefficient is read (see ``series``).  The two text
conversions below turn the ``ValueError`` of Python's int-string digit
limit into a short error that names the limit.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction as Rat

from .errors import OutputTooLarge

ZERO = Rat(0)
ONE = Rat(1)


def rat_from_str(text: str) -> Rat:
    """Parse an exact rational from ``"p"`` or ``"p/q"`` (signed, ASCII
    digits), checked before any number is built, so ``"1e100000000"``
    fails at once instead of building 10^(10^8).  An error echoes at most
    a short prefix of `text`."""
    stripped = text.strip()
    if not re.fullmatch(r"[+-]?[0-9]+(/[0-9]+)?", stripped):
        raise ValueError(f"invalid rational literal {_excerpt(text)}")
    try:
        return Rat(stripped)
    except ZeroDivisionError:
        raise ValueError(f"invalid rational literal {_excerpt(text)}") from None
    except ValueError:  # a numerator or denominator past the digit limit
        raise ValueError(
            f"rational literal {_excerpt(text)} has more digits than Python "
            f"converts ({sys.get_int_max_str_digits()}-digit limit)"
        ) from None


def _excerpt(text: str, limit: int = 40) -> str:
    """`text` quoted, or its first `limit` characters and its length."""
    if len(text) <= limit:
        return repr(text)
    return f"{text[:limit]!r}... ({len(text)} characters)"


def rat_to_str(value) -> str:
    """``"p"`` or ``"p/q"``, or OutputTooLarge past Python's digit limit."""
    try:
        return str(value)
    except ValueError:
        raise OutputTooLarge(
            "a coefficient has more digits than Python converts to text "
            f"({sys.get_int_max_str_digits()}-digit limit)"
        ) from None
