"""Speed vectors: validated tuples of distinct positive integer speeds.

A speed vector takes its speeds in any order and stores them sorted
in strictly decreasing order, so ``n[0]`` is the fastest runner and
``n[-1]`` the slowest; it equals the plain tuple of its speeds and is
written as a JSON list.  Ties are rejected: two runners with equal
speeds keep a constant gap, so duplicates would silently change the
problem being decided.  :func:`normalize` divides out the common
factor, which yields the canonical representative of the
scale-invariance class (speeds c*n and n have the same suitable times
up to the substitution t -> t/c).
"""

from __future__ import annotations

import math
from typing import Iterable

__all__ = ["SpeedVector", "normalize"]


class SpeedVector(tuple):
    """Distinct positive integer speeds in strictly decreasing order, as a tuple."""

    __slots__ = ()

    def __new__(cls, speeds: Iterable[int]) -> SpeedVector:
        if type(speeds) is cls:  # checked when it was made, and immutable
            return speeds
        speeds = [*speeds]
        try:
            speeds = sorted(speeds, reverse=True)
        except TypeError:
            pass  # some speed is not an int; the checks below name the first one that is not a positive int
        self = super().__new__(cls, speeds)
        if len(self) == 0:
            raise ValueError("speed vector must not be empty")
        for s in self:
            if not isinstance(s, int) or isinstance(s, bool) or s < 1:
                raise ValueError(f"speeds must be positive integers, got {s}")
        for a, b in zip(self, self[1:]):
            if a == b:
                raise ValueError(f"duplicate speed {a}")
        return self

    @property
    def k(self) -> int:
        """Number of runners besides the stationary one."""
        return len(self)

    def __str__(self) -> str:
        return "(" + ",".join(str(s) for s in self) + ")"


def normalize(n: Iterable[int]) -> SpeedVector:
    """The speeds n, in any order, divided by their gcd, so the result has gcd 1.

    Invalid speeds raise ValueError, as SpeedVector does.
    """
    n = SpeedVector(n)
    g = math.gcd(*n)
    return SpeedVector(s // g for s in n)
