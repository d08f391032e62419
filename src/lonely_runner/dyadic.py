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

Implementation: instead of testing m = 1, 2, ... one by one,
:func:`find_dyadic_time` walks the suitable intervals in ascending
order (the oracle's bad-arc sweep) and takes the first grid numerator
at or after each interval start.  That yields the same minimal m as
the literal ascending loop, and the walk stops at the first interval
that holds a grid point.  The census takes that numerator from its
first interval itself, and calls :func:`find_dyadic_time` only when
that interval is a single point off the grid.

The sweep yields only the intervals that start at or before 1/2, and
that is enough: the grid is symmetric (D - m is a grid numerator) and
so is the suitable set (t -> 1 - t), so a suitable m/D > 1/2 has the
suitable mirror (D - m)/D < 1/2, which one of those intervals holds.
The minimal m is therefore found there, and m <= ceil(D/2).

The search returns m alone; the grid time is m / dyadic_denominator(n).
D depends on n_1 and k alone, so the census reads it through
dyadic_denominator once per pair.  All three public functions read
their speeds through SpeedVector, so they refuse invalid ones and take
them in any order.
"""

from __future__ import annotations

from typing import Iterable

from . import oracle
from .model import SpeedVector

__all__ = ["dyadic_exponent", "dyadic_denominator", "find_dyadic_time"]


def dyadic_exponent(n: Iterable[int]) -> int:
    """Smallest e with 2^(e-1) >= n_1, the fastest of the speeds n."""
    return (SpeedVector(n)[0] - 1).bit_length() + 1


def dyadic_denominator(n: Iterable[int]) -> int:
    """Grid denominator 2^e (k+1) n_1 with e = dyadic_exponent(n)."""
    n = SpeedVector(n)
    return (1 << dyadic_exponent(n)) * (len(n) + 1) * n[0]


def find_dyadic_time(n: Iterable[int]) -> int | None:
    """Minimal m in [1, D] with m/D suitable, or None when no grid time is.

    The minimal m, when there is one, is at most ceil(D/2).  Invalid
    speeds raise ValueError, as SpeedVector does.
    """
    n = SpeedVector(n)
    den = dyadic_denominator(n)
    for lo_num, lo_den, hi_num, hi_den in oracle._sweep(n):
        # Smallest m with m/den >= lo; the intervals start in (0, 1/2],
        # so 1 <= m_lo <= ceil(den/2).
        m_lo = -((-lo_num * den) // lo_den)
        if m_lo <= (hi_num * den) // hi_den:
            return m_lo
    return None
