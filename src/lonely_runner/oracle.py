"""Exact decision oracle for lonely runner instances.

For speeds n_1 > ... > n_k, a time t is *suitable* when every product
n_i * t keeps distance at least 1/(k+1) from the nearest integer, i.e.
frac(n_i * t) lies in the closed interval [1/(k+1), k/(k+1)].  A speed
vector is an *instance* when some suitable time exists; by periodicity
it then exists in (0, 1).

The suitable set is computed exactly.  Runner j is too close to the
start only on its *bad arcs*, the open intervals
((m (k+1) - 1) / D_j, (m (k+1) + 1) / D_j), m = 0, 1, ..., where
D_j = (k+1) n_j; the suitable set is what their union leaves of (0, 1).
One sweep finds it.  A heap holds each runner's next bad arc, ordered
by start, and ``cur`` is the furthest arc end reached so far.  When the
earliest start is at or after ``cur``, [cur, start] is suitable (a single
point when the two are equal).  A popped arc that ends after ``cur``
moves ``cur``; one that ends at or before it sends its runner straight
to its first arc that ends after ``cur``, in O(1) because the arcs form
an arithmetic progression.  The sweep stops once ``cur`` would pass
1/2, so it yields the intervals that start at or before 1/2, the last
of them the one holding 1/2 if there is one.  Every pop moves one
runner forward by at least one arc that ends by 1/2, so the sweep takes
at most sum(n)/2 pops, and the first interval takes a few pops even at
speeds near 10^18.

The heap is ordered by an exact integer key, floor(t 2^P) with
P = bit_length((k+1) n_1^2).  Two distinct arc endpoints x / ((k+1) n_a) and
y / ((k+1) n_b) differ by at least 1 / ((k+1) n_a n_b) > 2^-P, so
distinct times get distinct keys and equal times get equal keys.  The
keys have about twice the digits of n_1 however many runners there are;
a common denominator such as (k+1) lcm(n) would grow with the digits of
all of them.  Memory is O(k), and a caller that needs only the first
interval stops there.

The set is symmetric under t -> 1 - t: frac(s (1 - t)) = 1 - frac(s t)
and the window [1/(k+1), k/(k+1)] is symmetric.  So every question
about it is answered by the part in (0, 1/2], which is why the sweep
stops there.  ``_suitable_quads`` builds the whole set from that half:
it keeps the intervals before 1/2 as reduced integers, checks that the
interval holding 1/2 (if any) is its own mirror, and then emits the
mirror images of the kept ones in reverse.  An interval that starts
after 1/2, or a middle interval that is not its own mirror, is an
internal error.  ``suitable_set`` returns the result as a list of
plain (lo, hi) ``Fraction`` pairs, sorted and disjoint by construction;
``check`` streams it without building them.  That order is not
re-checked at run time; the tests compare the list with an independent
intersection of the per-runner arc lists.
"""

from __future__ import annotations

import math
from array import array
from fractions import Fraction
from heapq import heapify, heapreplace
from typing import Iterable, Iterator, Sequence

from .model import SpeedVector

__all__ = [
    "suitable_set",
    "earliest_suitable_time",
    "is_suitable",
    "lattice_witness_from_time",
]

# The suitable set has at most sum(n) intervals, since distinct intervals
# end at distinct arc ends, and the sweep finds its half in at most
# sum(n)/2 heap pops.  A larger sum is refused before any work, which
# bounds the output, the time and the lower half ``_suitable_quads`` keeps
# (32 bytes an interval).  Distinct speeds with sum(n) <= 2^20 number k <= 1447, so every
# denominator (k+1) s < 1448 * 2^20 < 2^31 fits the kept half's signed
# 64-bit integers.  The worst case the bound admits is k = 1 at
# sum(n) = 2^20: ``check 1048576`` has 2^20 intervals and, on a 2-vCPU VM
# under CPython 3.11.7, runs 1.9-3.3 s, peaks at 33 MB ``ru_maxrss`` (16 MB
# of it the interpreter) and prints 36 MB.
_MAX_SUITABLE_ARCS = 1 << 20


def _sweep(speeds: Sequence[int]) -> Iterator[tuple[int, int, int, int]]:
    """Suitable intervals that start at or before 1/2, as (lo_num, lo_den, hi_num, hi_den).

    The bad-arc sweep of the module docstring, over speeds in descending
    order.  Each denominator is (k+1) s for a speed s: lo ends a bad arc,
    hi starts the next one.
    """
    kp1 = len(speeds) + 1
    p = (kp1 * speeds[0] * speeds[0]).bit_length()
    # The furthest arc end is lo_num / lo_den, with key cur: at first the
    # end of the slowest runner's arc 0.
    lo_num, lo_den = 1, kp1 * speeds[-1]
    cur = (1 << p) // lo_den
    # A heap entry is (key of the start, start numerator, D) of a runner's bad arc, from arc 1.
    heap = [(((kp1 - 1) << p) // (kp1 * s), kp1 - 1, kp1 * s) for s in speeds]
    heapify(heap)
    while True:
        key, num, den = heap[0]
        if key >= cur:
            yield lo_num, lo_den, num, den
        num += 2  # the arc's end
        end = (num << p) // den
        if end > cur:
            if 2 * num > den:  # past 1/2, where the mirror image begins
                return
            cur, lo_num, lo_den = end, num, den
            num += kp1 - 2
        else:
            # Seek: the first arc m with (m (k+1) + 1) / den > cur.
            num = -(-(lo_num * den // lo_den) // kp1) * kp1 - 1
        heapreplace(heap, ((num << p) // den, num, den))


def _suitable_quads(n: SpeedVector) -> Iterator[tuple[int, int, int, int]]:
    """The suitable set of n in ascending order, as reduced (lo_num, lo_den, hi_num, hi_den).

    Yields the sweep's half and then the mirror images of the intervals
    before 1/2 (see the module docstring).  A mirrored endpoint (d - c)/d
    has the same gcd as c/d, so each endpoint costs one gcd.  The limit
    is checked, and refused with ValueError, before the sweep starts.
    """
    if sum(n) > _MAX_SUITABLE_ARCS:
        raise ValueError(f"{n} may have {sum(n)} suitable intervals, over the limit {_MAX_SUITABLE_ARCS}")
    gcd = math.gcd
    lower = array("q")
    for a, b, c, d in _sweep(n):
        g, h = gcd(a, b), gcd(c, d)
        quad = a // g, b // g, c // h, d // h
        if 2 * c < d:
            lower.extend(quad)
        elif a * d + b * c != b * d:
            raise RuntimeError(
                f"suitable set of {n} lost reflection symmetry: [{a}/{b}, {c}/{d}] does not end "
                "before 1/2 and is not its own mirror"
            )
        yield quad
    for i in range(len(lower) - 4, -1, -4):
        a, b, c, d = lower[i : i + 4]
        yield d - c, d, b - a, b


def suitable_set(n: Iterable[int]) -> list[tuple[Fraction, Fraction]]:
    """All suitable times for the speeds n, as exact closed intervals (lo, hi) inside (0, 1).

    The pairs are sorted and disjoint: 0 < lo <= hi < next lo, and the
    last hi < 1.  Invalid speeds raise ValueError, as SpeedVector does.
    """
    return [(Fraction(a, b), Fraction(c, d)) for a, b, c, d in _suitable_quads(SpeedVector(n))]


def earliest_suitable_time(n: Iterable[int]) -> Fraction | None:
    """Smallest suitable time for the speeds n, in any order; None when none exists.

    Invalid speeds raise ValueError, as SpeedVector does.
    """
    first = next(_sweep(SpeedVector(n)), None)
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
