"""Speed vectors: validated tuples of distinct positive integer speeds.

A speed vector is a tuple sorted in strictly decreasing order, so
``n[0]`` is the fastest runner and ``n[-1]`` the slowest; it equals
the plain tuple of its speeds and is written as a JSON list.
Ties are rejected: two runners with equal speeds keep a constant gap,
so duplicates would silently change the problem being decided.
:func:`normalize` additionally collapses duplicates and divides out the
common factor, which yields the canonical representative of the
scale-invariance class (speeds c*n and n have the same suitable times
up to the substitution t -> t/c).

:func:`format_rational` is the one text form of a rational that the
CLI and the export files print.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable

__all__ = ["SpeedVector", "new_speed_vector", "normalize", "format_rational"]


class SpeedVector(tuple):
    """Distinct positive integer speeds in strictly decreasing order, as a tuple."""

    __slots__ = ()

    def __new__(cls, speeds: Iterable[int]) -> SpeedVector:
        self = super().__new__(cls, speeds)
        if len(self) == 0:
            raise ValueError("speed vector must not be empty")
        for s in self:
            if s < 1:
                raise ValueError(f"speeds must be positive integers, got {s}")
        for a, b in zip(self, self[1:]):
            if a == b:
                raise ValueError(f"duplicate speed {a}")
            if a < b:
                raise ValueError("speeds must be strictly decreasing")
        return self

    @property
    def k(self) -> int:
        """Number of runners besides the stationary one."""
        return len(self)

    def __str__(self) -> str:
        return "(" + ",".join(str(s) for s in self) + ")"


def new_speed_vector(values: Iterable[int]) -> SpeedVector:
    """Sort descending and validate.

    Accepts speeds in any order; rejects empty input, non-positive
    entries, and duplicates with distinct messages.
    """
    return SpeedVector(tuple(sorted(values, reverse=True)))


def normalize(values: Iterable[int]) -> SpeedVector:
    """Canonical representative: positive entries, deduped, gcd divided out.

    Non-positive entries are dropped; at least one positive value must
    remain.  The result always has gcd 1.
    """
    kept = sorted({v for v in values if v >= 1}, reverse=True)
    if not kept:
        raise ValueError("normalize needs at least one positive value")
    g = math.gcd(*kept)
    return SpeedVector(tuple(v // g for v in kept))


def format_rational(q: Fraction | int) -> str:
    """Render a rational as ``numerator/denominator``, integers included.

    Integers come out as ``n/1`` so that every serialized rational has
    the same shape, which ``Fraction`` reads back.  Both types carry a
    reduced numerator and a positive denominator, so nothing is rebuilt.
    """
    return f"{q.numerator}/{q.denominator}"
