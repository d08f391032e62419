"""Dyadic time-grid search for suitable times.

The grid for a vector with largest speed n_1 has denominator
D = 2^e (k+1) n_1 where e is the smallest integer with 2^(e-1) >= n_1.
The search asks for the minimal numerator m >= 1 such that m/D is a
suitable time.  Grid lemma: a suitable interval [lo, hi] with lo < hi
holds a grid point, as its ends are a/((k+1) s) and c/((k+1) s') for
speeds s and s', so hi - lo >= 1/((k+1) s s') >= 1/((k+1) n_1^2) >= 2/D.
So the search never walks past the first such interval, and the open
question, whether m exists for every coprime instance, is left to the
*tight* ones, whose suitable set holds no interval of positive length.

Implementation: instead of testing m = 1, 2, ... one by one, walk the
suitable intervals in ascending order (the oracle's bad-arc sweep) and
take the first grid numerator at or after each interval start.  That
yields the same minimal m as the literal ascending loop, and the walk
stops at the first interval that holds a grid point.  The walk is
:func:`_grid_hit`, which takes any iterator of join intervals: the
census feeds it the join it already opened for the earliest time, so
one join serves both.

Restricting to the lower half of the grid (m <= ceil(D/2)) never
changes the answer: t = 1 is never suitable, so a minimal hit with
m/D > 1/2 would reflect to the suitable time 1 - m/D < 1/2, and the
grid is symmetric (D - m is a grid numerator), contradicting
minimality.

The search returns m alone; the grid time is m / dyadic_denominator(n).
:func:`find_dyadic_time` reads its speeds through SpeedVector, so it
refuses invalid ones and takes them in any order.  The grid formulas
read n as a descending tuple of distinct positive speeds: a
SpeedVector, or the tuple the census decodes from a mask.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from . import oracle
from .model import SpeedVector

__all__ = ["dyadic_exponent", "dyadic_denominator", "find_dyadic_time"]


def dyadic_exponent(n: Sequence[int]) -> int:
    """Smallest e with 2^(e-1) >= n_1."""
    return (n[0] - 1).bit_length() + 1


def dyadic_denominator(n: Sequence[int]) -> int:
    """Grid denominator 2^e (k+1) n_1 with e = dyadic_exponent(n)."""
    return (1 << dyadic_exponent(n)) * (len(n) + 1) * n[0]


def _grid_hit(intervals: Iterable[tuple[int, int, int, int]], den: int) -> int | None:
    """First grid numerator m with m/den in one of the join's intervals, else None."""
    for lo_num, lo_den, hi_num, hi_den in intervals:
        # Smallest m with m/den >= lo; intervals lie inside (0, 1), so
        # 1 <= m_lo <= den.
        m_lo = -((-lo_num * den) // lo_den)
        if m_lo <= (hi_num * den) // hi_den:
            return m_lo
    return None


def find_dyadic_time(n: Iterable[int]) -> int | None:
    """Minimal m in [1, D] with m/D suitable, or None when no grid time is.

    The minimal m, when there is one, is at most ceil(D/2).  Invalid
    speeds raise ValueError, as SpeedVector does.
    """
    n = SpeedVector(n)
    return _grid_hit(oracle._leapfrog(n), dyadic_denominator(n))
