"""Exact decision oracle for lonely runner instances.

For speeds n_1 > ... > n_k, a time t is *suitable* when every product
n_i * t keeps distance at least 1/(k+1) from the nearest integer, i.e.
frac(n_i * t) lies in the closed interval [1/(k+1), k/(k+1)].  A speed
vector is an *instance* when some suitable time exists; by periodicity
it then exists in (0, 1).

The suitable set is computed exactly.  Runner i alone admits the arcs
[(m + 1/(k+1)) / n_i, (m + k/(k+1)) / n_i], m = 0..n_i-1, whose
endpoints are integers over (k+1) n_i.  They are intersected by a
leapfrog join (Veldhuizen, *Leapfrog Triejoin*, ICDT 2014): each runner
in turn either accepts the current time t or seeks to the start of its
arc floor(n_i t), or of the next arc when t is past the window, in O(1)
because its arcs form an arithmetic progression.  When all k accept t
in a row, [t, earliest of their arc ends] is suitable, and the join
resumes at the next arc of the runner whose arc ended first.  Times are
integer pairs compared by cross-multiplication, memory is O(k), and a
caller that needs only the first interval stops there.

The set is symmetric under t -> 1 - t: frac(s (1 - t)) = 1 - frac(s t)
and the window [1/(k+1), k/(k+1)] is symmetric.  So the whole set is
built from the join's lower half: ``_suitable_quads`` joins only until
an interval reaches 1/2, keeps the intervals before it as reduced
integers, checks that the interval holding 1/2 (if any) is its own
mirror, and then emits the mirror images of the lower half in reverse.
A set that starts after 1/2, or whose middle interval is not its own
mirror, is an internal error.  ``suitable_set`` returns the result as a
list of plain (lo, hi) ``Fraction`` pairs, sorted and disjoint by
construction; ``check`` streams it without building them.  That order
is not re-checked at run time; the tests compare the list with an
independent intersection of the per-runner arc lists.
"""

from __future__ import annotations

import math
from array import array
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .model import SpeedVector

__all__ = [
    "suitable_set",
    "is_instance",
    "earliest_suitable_time",
    "is_suitable",
    "lattice_witness_from_time",
]

# The suitable set has at most sum(n) intervals, since distinct intervals
# end at distinct arc ends; a larger sum is refused before any work, which
# bounds the output and the lower half ``_suitable_quads`` keeps (32 bytes
# an interval).
_MAX_SUITABLE_ARCS = 1 << 20
# The join's work grows like k * sum(n), at 0.1-0.25 us a step, so the set
# of (1, ..., 1000) would take over a minute; 2^23 steps take about 2 s.
# The two bounds keep every denominator (k+1) s <= k sum(n) + sum(n) below
# 2^24, so the kept half fits in signed 64-bit integers.  The worst case
# they admit is k = 1 at sum(n) = 2^20: ``check 1048576`` has 2^20
# intervals and, on a 2-vCPU VM under CPython 3.11.7, runs 2.9 s, peaks
# at 33 MB ``ru_maxrss`` (16 MB of it the interpreter) and prints 36 MB.
_MAX_JOIN_STEPS = 1 << 23


def _leapfrog(speeds: Sequence[int]) -> Iterator[tuple[int, int, int, int]]:
    """Suitable intervals in ascending order, as (lo_num, lo_den, hi_num, hi_den).

    Each denominator is (k+1) s for a speed s.  Slowest runner first: its seeks jump furthest.
    """
    speeds = sorted(speeds)
    k = len(speeds)
    kp1 = k + 1
    a, b = 0, 1  # the current time t = a/b; no runner accepts t = 0
    i = accepted = 0
    while True:
        s = speeds[i]
        m, r = divmod(s * a, b)  # frac(s t) = r/b
        r *= kp1
        if r < b or r > k * b:
            # Seek to the start of arc m, or of arc m + 1 past the window.
            if r >= b:
                m += 1
            if m >= s:
                return
            a, b = m * kp1 + 1, kp1 * s
            hi_num, hi_den, holder = a + k - 1, b, i  # earliest arc end of the accepting runners
            accepted = 1
        else:
            num, den = m * kp1 + k, kp1 * s
            if not accepted or num * hi_den < hi_num * den:
                hi_num, hi_den, holder = num, den, i
            accepted += 1
        if accepted == k:
            yield a, b, hi_num, hi_den
            # Nothing is suitable before the holder's next arc starts.
            a, b, i, accepted = hi_num + 2, hi_den, holder, 0
            if a >= b:
                return
        else:
            i = i + 1 if i + 1 < k else 0


def _suitable_quads(n: SpeedVector) -> Iterator[tuple[int, int, int, int]]:
    """The suitable set of n in ascending order, as reduced (lo_num, lo_den, hi_num, hi_den).

    Joins only up to the interval that reaches 1/2 and mirrors the rest
    (see the module docstring).  A mirrored endpoint (d - c)/d has the
    same gcd as c/d, so each endpoint costs one gcd.  The limits are
    checked, and refused with ValueError, before the join starts.
    """
    if sum(n) > _MAX_SUITABLE_ARCS:
        raise ValueError(f"{n} may have {sum(n)} suitable intervals, over the limit {_MAX_SUITABLE_ARCS}")
    if n.k * sum(n) > _MAX_JOIN_STEPS:
        raise ValueError(f"{n} may take {n.k * sum(n)} join steps, over the limit {_MAX_JOIN_STEPS}")
    gcd = math.gcd
    lower = array("q")
    middle = None
    for a, b, c, d in _leapfrog(n):
        if 2 * a > b:  # past 1/2: the mirror of a kept interval, unless none was kept
            if not lower:
                raise RuntimeError(f"suitable set of {n} lost reflection symmetry: it starts after 1/2")
            break
        g, h = gcd(a, b), gcd(c, d)
        quad = a // g, b // g, c // h, d // h
        if 2 * c >= d:  # holds 1/2
            if a * d + b * c != b * d:
                raise RuntimeError(
                    f"suitable set of {n} lost reflection symmetry: [{a}/{b}, {c}/{d}] holds 1/2 "
                    "but is not its own mirror"
                )
            middle = quad
            break
        lower.extend(quad)
        yield quad
    if middle is not None:
        yield middle
    for i in range(len(lower) - 4, -1, -4):
        a, b, c, d = lower[i : i + 4]
        yield d - c, d, b - a, b


def suitable_set(n: Iterable[int]) -> list[tuple[Fraction, Fraction]]:
    """All suitable times for the speeds n, as exact closed intervals (lo, hi) inside (0, 1).

    The pairs are sorted and disjoint: 0 < lo <= hi < next lo, and the
    last hi < 1.  Invalid speeds raise ValueError, as SpeedVector does.
    """
    return [(Fraction(a, b), Fraction(c, d)) for a, b, c, d in _suitable_quads(SpeedVector(n))]


def is_instance(n: Iterable[int]) -> bool:
    """True when some suitable time exists for the speeds n, in any order.

    Invalid speeds raise ValueError, as SpeedVector does.
    """
    return next(_leapfrog(SpeedVector(n)), None) is not None


def earliest_suitable_time(n: Iterable[int]) -> Fraction | None:
    """Smallest suitable time for the speeds n, in any order; None when none exists.

    Invalid speeds raise ValueError, as SpeedVector does.
    """
    first = next(_leapfrog(SpeedVector(n)), None)
    return None if first is None else Fraction(first[0], first[1])


def is_suitable(n: Iterable[int], t: Fraction | int) -> bool:
    """Definitional check: frac(n_i * t) in [1/(k+1), k/(k+1)] for every speed n_i.

    Deliberately independent of the interval machinery so the two can
    cross-validate each other.  Invalid speeds raise ValueError, as
    SpeedVector does.  A float t is refused: its binary value is not the
    number it prints.
    """
    n = SpeedVector(n)
    if not isinstance(t, (int, Fraction)) or isinstance(t, bool):
        raise ValueError(f"time must be an int or a Fraction, got {t!r}")
    if t < 0:
        raise ValueError(f"time must be non-negative, got {t}")
    k = n.k
    lo = Fraction(1, k + 1)
    hi = Fraction(k, k + 1)
    return all(lo <= s * t % 1 <= hi for s in n)


def lattice_witness_from_time(n: Iterable[int], t: Fraction | int) -> tuple[int, ...]:
    """Integer point (floor(n_1 t), ..., floor(n_k t)) for a suitable t, n_1 the fastest.

    For suitable t this point lies in the runner polyhedron, which is
    the lattice-point form of the same instance question.  Unsuitable
    times are rejected, and so are inexact ones and invalid speeds (see
    is_suitable).
    """
    n = SpeedVector(n)
    if not is_suitable(n, t):
        raise ValueError(f"{t} is not a suitable time for {n}")
    return tuple(math.floor(s * t) for s in n)
