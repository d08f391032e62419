"""Exact rational helpers shared by the rest of the package.

Every quantity in this package is a rational number with integer
numerator and denominator; nothing is ever rounded.  The heavy lifting
is done by :class:`fractions.Fraction`, which already stores values
reduced with a positive denominator and compares exactly.  This module
adds the few pieces Fraction does not ship: the fractional part and
the canonical ``numerator/denominator`` text form used by the CLI and
the export files.
"""

from __future__ import annotations

import math
from fractions import Fraction

__all__ = ["frac", "format_rational"]


def frac(q: Fraction | int) -> Fraction:
    """Fractional part ``q - floor(q)`` of a non-negative rational.

    The result is in [0, 1).  Negative input is rejected rather than
    wrapped: callers in this package only ever take fractional parts of
    products speed * time with time >= 0, so a negative argument is a
    bug upstream.
    """
    q = Fraction(q)
    if q < 0:
        raise ValueError(f"frac expects a non-negative rational, got {q}")
    return q - math.floor(q)


def format_rational(q: Fraction | int) -> str:
    """Render a rational as ``numerator/denominator``, integers included.

    Integers come out as ``n/1`` so that every serialized rational has
    the same shape, which ``Fraction`` reads back.  Both types carry a
    reduced numerator and a positive denominator, so nothing is rebuilt.
    """
    return f"{q.numerator}/{q.denominator}"
