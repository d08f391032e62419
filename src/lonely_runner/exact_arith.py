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
import re
from fractions import Fraction

__all__ = ["frac", "parse_rational", "format_rational"]

_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:/\d+)?$")


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


def parse_rational(text: str) -> Fraction:
    """Parse ``"p/q"`` or a bare integer ``"p"`` into a reduced Fraction.

    Only those two forms are accepted; in particular decimal strings
    are rejected so that no value can sneak in unreduced or inexact.
    """
    s = text.strip()
    if not _RATIONAL_RE.match(s):
        raise ValueError(f"not a rational literal: {text!r}")
    if "/" in s:
        num, den = s.split("/")
        if int(den) == 0:
            raise ValueError(f"zero denominator: {text!r}")
        return Fraction(int(num), int(den))
    return Fraction(int(s))


def format_rational(q: Fraction | int) -> str:
    """Render a rational as ``numerator/denominator``, integers included.

    Integers come out as ``n/1`` so that every serialized rational has
    the same shape; :func:`parse_rational` accepts both forms.
    """
    q = Fraction(q)
    return f"{q.numerator}/{q.denominator}"
