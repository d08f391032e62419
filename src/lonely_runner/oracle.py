"""Exact decision oracle for lonely runner instances.

For speeds n_1 > ... > n_k, a time t is *suitable* when every product
n_i * t keeps distance at least 1/(k+1) from the nearest integer, i.e.
frac(n_i * t) lies in the closed interval [1/(k+1), k/(k+1)].  A speed
vector is an *instance* when some suitable time exists; by periodicity
it then exists in (0, 1).

The suitable set is computed exactly.  Runner i alone admits the times
[(m + 1/(k+1)) / n_i, (m + k/(k+1)) / n_i] for m = 0..n_i-1, and every
endpoint is a multiple of 1/((k+1) n_i).  Scaling by the common
denominator D = (k+1) * lcm(n) therefore turns the whole computation
into integer arithmetic: each runner contributes a sorted list of
integer-endpoint arcs, and the k lists are intersected pairwise with a
two-pointer sweep.  Endpoints become reduced Fractions only at the API
boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .exact_arith import format_rational, frac
from .model import SpeedVector

__all__ = [
    "TimeInterval",
    "SuitabilitySet",
    "runner_intervals",
    "scaled_suitable_set",
    "suitable_set",
    "is_instance",
    "earliest_suitable_time",
    "is_suitable",
    "reflect_time",
    "half_period_witness",
    "lattice_witness_from_time",
]

_HALF = Fraction(1, 2)


@dataclass(frozen=True)
class TimeInterval:
    """Closed interval of times inside [0, 1]."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self) -> None:
        if not 0 <= self.lo <= self.hi <= 1:
            raise ValueError(f"bad time interval [{self.lo}, {self.hi}]")

    def __contains__(self, t: Fraction) -> bool:
        return self.lo <= t <= self.hi

    @property
    def length(self) -> Fraction:
        return self.hi - self.lo


@dataclass(frozen=True)
class SuitabilitySet:
    """Sorted, pairwise disjoint closed intervals of suitable times."""

    intervals: tuple[TimeInterval, ...]

    def __post_init__(self) -> None:
        prev = None
        for iv in self.intervals:
            if prev is not None and iv.lo <= prev:
                raise ValueError("intervals must be sorted and disjoint")
            prev = iv.hi

    @property
    def is_empty(self) -> bool:
        return not self.intervals

    def earliest(self) -> Fraction | None:
        return self.intervals[0].lo if self.intervals else None

    def contains(self, t: Fraction) -> bool:
        return any(t in iv for iv in self.intervals)

    def total_length(self) -> Fraction:
        return sum((iv.length for iv in self.intervals), Fraction(0))

    def to_json(self) -> list[list[str]]:
        """JSON form: array of two-element rational-string arrays."""
        return [[format_rational(iv.lo), format_rational(iv.hi)] for iv in self.intervals]


def runner_intervals(speed: int, k: int) -> tuple[TimeInterval, ...]:
    """Times in (0, 1) at which one runner of the given speed is clear.

    With k runners in play the clearance threshold is 1/(k+1), so a
    runner of this speed is clear on the `speed` arcs
    [(m + 1/(k+1))/speed, (m + k/(k+1))/speed], m = 0..speed-1.
    """
    if speed < 1:
        raise ValueError(f"speed must be a positive integer, got {speed}")
    if k < 1:
        raise ValueError(f"k must be a positive integer, got {k}")
    den = (k + 1) * speed
    return tuple(
        TimeInterval(Fraction(m * (k + 1) + 1, den), Fraction(m * (k + 1) + k, den))
        for m in range(speed)
    )


def _intersect(a: list[tuple[int, int]], b: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Intersection of two sorted lists of strictly separated closed arcs."""
    out: list[tuple[int, int]] = []
    i = j = 0
    while i < len(a) and j < len(b):
        lo = a[i][0] if a[i][0] >= b[j][0] else b[j][0]
        hi = a[i][1] if a[i][1] <= b[j][1] else b[j][1]
        if lo <= hi:
            out.append((lo, hi))
        if a[i][1] < b[j][1]:
            i += 1
        else:
            j += 1
    return out


def scaled_suitable_set(n: SpeedVector) -> tuple[int, list[tuple[int, int]]]:
    """Suitable set as integer endpoint pairs over denominator (k+1)*lcm(n).

    This is the internal representation: [lo, hi] stands for the time
    interval [lo/D, hi/D] with D the returned denominator.  Exposed so
    that grid searches can stay in integer arithmetic.
    """
    speeds = n.speeds
    k = len(speeds)
    big_l = math.lcm(*speeds)
    kp1 = k + 1
    denominator = kp1 * big_l
    result: list[tuple[int, int]] | None = None
    # Slowest runner first: it contributes the fewest arcs, which keeps
    # the intermediate intersections small.
    for s in sorted(speeds):
        step = big_l // s
        arcs = [((m * kp1 + 1) * step, (m * kp1 + k) * step) for m in range(s)]
        result = arcs if result is None else _intersect(result, arcs)
        if not result:
            return denominator, []
    assert result is not None
    return denominator, result


def suitable_set(n: SpeedVector) -> SuitabilitySet:
    """All suitable times for n, as exact closed intervals inside (0, 1)."""
    den, arcs = scaled_suitable_set(n)
    return SuitabilitySet(
        tuple(TimeInterval(Fraction(lo, den), Fraction(hi, den)) for lo, hi in arcs)
    )


def is_instance(n: SpeedVector) -> bool:
    """True when some suitable time exists for n."""
    _, arcs = scaled_suitable_set(n)
    return bool(arcs)


def earliest_suitable_time(n: SpeedVector) -> Fraction | None:
    """Smallest suitable time, or None when no suitable time exists."""
    den, arcs = scaled_suitable_set(n)
    return Fraction(arcs[0][0], den) if arcs else None


def is_suitable(n: SpeedVector, t: Fraction | int) -> bool:
    """Definitional check: frac(n_i * t) in [1/(k+1), k/(k+1)] for every i.

    Deliberately independent of the interval machinery so the two can
    cross-validate each other.
    """
    t = Fraction(t)
    if t < 0:
        raise ValueError(f"time must be non-negative, got {t}")
    k = n.k
    lo = Fraction(1, k + 1)
    hi = Fraction(k, k + 1)
    return all(lo <= frac(s * t) <= hi for s in n)


def reflect_time(t: Fraction | int) -> Fraction:
    """Mirror t -> 1 - t inside [0, 1].

    Suitability is preserved: frac(s * (1 - t)) = 1 - frac(s * t)
    whenever s * t is not an integer, and the window [1/(k+1), k/(k+1)]
    is symmetric about 1/2.
    """
    t = Fraction(t)
    if not 0 <= t <= 1:
        raise ValueError(f"reflect_time expects t in [0, 1], got {t}")
    return 1 - t


def half_period_witness(n: SpeedVector) -> Fraction | None:
    """A suitable time <= 1/2, or None when n is not an instance.

    The suitable set is symmetric under t -> 1 - t, so a nonempty set
    always reaches into [0, 1/2]; the earliest suitable time is such a
    witness.
    """
    return _checked_half_period(n, earliest_suitable_time(n))


def _checked_half_period(n: SpeedVector, earliest: Fraction | None) -> Fraction | None:
    """The earliest suitable time of n, checked to be at most 1/2."""
    if earliest is not None and earliest > _HALF:
        # A nonempty symmetric closed set cannot start after 1/2.
        raise RuntimeError(f"suitable set of {n} lost reflection symmetry")
    return earliest


def lattice_witness_from_time(n: SpeedVector, t: Fraction | int) -> tuple[int, ...]:
    """Integer point (floor(n_1 t), ..., floor(n_k t)) for a suitable t.

    For suitable t this point lies in the runner polyhedron, which is
    the lattice-point form of the same instance question.  Unsuitable
    times are rejected.
    """
    t = Fraction(t)
    if not is_suitable(n, t):
        raise ValueError(f"{t} is not a suitable time for {n}")
    return tuple(math.floor(s * t) for s in n)
