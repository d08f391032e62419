"""Census sweep over all speed subsets of {1..N}.

Bitmask i (1 <= i < 2^N) encodes the subset whose bit j-1 means speed
j; decoding a mask yields the descending speed tuple, which the oracle's
bad-arc sweep takes as it is.  The per-vector loop runs once over the
masks in ascending order and counts the vectors that the exact oracle
or the dyadic grid search decides.  One sweep per vector serves both:
the start of its first interval is the earliest suitable time, and the
dyadic grid walk resumes the same iterator from there.  When :func:`sweep`
writes a record file, the same loop hands it one record per vector,
which also carries the vector's coprimality and rule triple.

Every summary takes its total, coprime and rule counts from a closed
form, and a rules-only summary visits no vector.  The rules read only
the extremes (n_1, n_2, n_3, n_k) and k, so each pattern of extremes
is counted once with the number of ways to choose the speeds between
n_3 and n_k.  The number of coprime subsets has a closed form by Mobius
inversion over the common divisor (subsets of {1..N} with gcd
divisible by d are in bijection with subsets of {1..N/d}), which is
what :func:`coprime_count_moebius` computes.  The rules are
homogeneous in the speeds, so their coprime counts go through the same
inversion.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import os
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Iterator, NamedTuple

from . import dyadic, oracle
from .classify import _rules
from .model import format_rational

__all__ = [
    "EnumerationSummary",
    "VectorRecord",
    "coprime_count_moebius",
    "sweep",
]

_MAX_SWEEP = 32
_MAX_MOEBIUS = 62  # 2^62 subsets still fit comfortably in a machine word
_BITS = ("0", "1")  # a record's bool columns, indexed by the bool


def _moebius(count: Callable[[int], int], limit: int) -> int:
    """Mobius inversion sum_d mu(d) count(limit // d) over d = 1..limit.

    mu comes from its defining sum: mu(d) over the divisors d of j adds
    up to 1 for j = 1 and to 0 for every j > 1.
    """
    mu = [0, 1] + [0] * (limit - 1)
    for d in range(1, limit + 1):
        for multiple in range(2 * d, limit + 1, d):
            mu[multiple] -= mu[d]
    return sum(mu[d] * count(limit // d) for d in range(1, limit + 1))


def coprime_count_moebius(max_speed: int) -> int:
    """Number of nonempty subsets of {1..max_speed} with gcd 1.

    Closed form sum_d mu(d) (2^floor(max_speed/d) - 1); no enumeration.
    """
    if not 1 <= max_speed <= _MAX_MOEBIUS:
        raise ValueError(f"max_speed must be in [1, {_MAX_MOEBIUS}], got {max_speed}")
    return _moebius(lambda m: (1 << m) - 1, max_speed)


@dataclass(frozen=True)
class EnumerationSummary:
    """Aggregate counts of one sweep.

    ``vars(summary)`` is its JSON form, which ``EnumerationSummary(**obj)``
    reads back.
    """

    max_speed: int
    total_vectors: int
    coprime_vectors: int
    thm1_count: int
    thm2_count: int
    slow_fast_count: int
    any_rule_count: int
    oracle_instance_count: int | None
    dyadic_verified_count: int | None


class VectorRecord(NamedTuple):
    """Per-vector row of a census record file; ``_fields`` is the CSV header."""

    speeds: tuple[int, ...]
    k: int
    coprime: bool
    thm1: bool
    thm2: bool
    slow_fast: bool
    any_rule: bool
    is_instance: bool | None
    earliest_time: Fraction | None
    dyadic_m: int | None

    def to_csv_row(self) -> list[str]:
        speeds, k, coprime, thm1, thm2, slow_fast, any_rule, is_instance, earliest, dyadic_m = self
        return [
            ";".join(map(str, speeds)),
            str(k),
            _BITS[coprime],
            _BITS[thm1],
            _BITS[thm2],
            _BITS[slow_fast],
            _BITS[any_rule],
            "" if is_instance is None else _BITS[is_instance],
            "" if earliest is None else format_rational(earliest),
            "" if dyadic_m is None else str(dyadic_m),
        ]


def _decode(mask: int) -> tuple[int, ...]:
    """Descending speed tuple of a subset bitmask (bit j-1 <-> speed j)."""
    speeds = []
    while mask:
        low = mask & -mask
        speeds.append(low.bit_length())
        mask ^= low
    speeds.reverse()
    return tuple(speeds)


def _census(
    max_speed: int,
    require_coprime: bool,
    with_oracle: bool,
    with_dyadic: bool,
    write: Callable[[VectorRecord], object] | None,
) -> EnumerationSummary:
    """The one per-vector loop, over every mask in ascending order.

    Counts oracle instances and dyadic hits, and hands ``write`` a
    VectorRecord per classified vector when it is given.  Returns the
    closed-form summary of :func:`_rule_census` with those two counts.
    """
    gcd, sweep_arcs, grid_hit, denominator = math.gcd, oracle._sweep, dyadic._grid_hit, dyadic.dyadic_denominator
    join = with_oracle or with_dyadic
    first = is_instance = earliest = dyadic_m = None  # reassigned per vector only when their pass is on
    oracle_ct = dyadic_ct = 0
    for mask in range(1, 1 << max_speed):
        speeds = _decode(mask)
        coprime = gcd(*speeds) == 1
        if require_coprime and not coprime:
            continue
        if join:
            joined = sweep_arcs(speeds)
            first = next(joined, None)
            if first is not None:
                oracle_ct += 1
            if with_dyadic:
                dyadic_m = None if first is None else grid_hit(itertools.chain((first,), joined), denominator(speeds))
                if dyadic_m is not None:
                    dyadic_ct += 1
        if write is not None:
            k = len(speeds)
            rules = _rules(speeds[0], speeds[min(1, k - 1)], speeds[min(2, k - 1)], speeds[-1], k)
            if with_oracle:
                is_instance = first is not None
                earliest = Fraction(first[0], first[1]) if is_instance else None
            write(VectorRecord(speeds, k, coprime, *rules, any(rules), is_instance, earliest, dyadic_m))
    summary = _rule_census(max_speed, require_coprime)
    return replace(
        summary,
        oracle_instance_count=oracle_ct if with_oracle else None,
        dyadic_verified_count=dyadic_ct if with_dyadic else None,
    )


def _patterns(n1: int, binom: list[list[int]]) -> Iterator[tuple[int, int, int, int, int]]:
    """(n2, n3, nk, k, weight) for the subsets of {1..n1} with top speed n1.

    Subsets of one to three speeds are listed one by one (a missing n_2
    or n_3 repeats n_k, as :func:`evaluate_rules` reads it); one of
    k >= 4 speeds is listed by its extremes, weighted by
    C(n3 - nk - 1, k - 4), the number of ways to choose the k - 4
    speeds strictly between n_3 and n_k.
    """
    yield n1, n1, n1, 1, 1
    for n2 in range(1, n1):
        yield n2, n2, n2, 2, 1
        for n3 in range(1, n2):
            yield n2, n3, n3, 3, 1
            for nk in range(1, n3):
                for middle, weight in enumerate(binom[n3 - nk - 1]):
                    yield n2, n3, nk, middle + 4, weight


def _rule_census(max_speed: int, require_coprime: bool) -> EnumerationSummary:
    """The rules-only summary of :func:`sweep` in closed form, visiting no vector.

    Running totals over the top speed give the counts F(m) =
    (thm1, thm2, slow_fast, any_rule) over the subsets of {1..m} for
    every m at once.  The rules are homogeneous in the speeds, so a
    subset with gcd d fires the rules of the subset divided by d, and
    the coprime counts are sum_d mu(d) F(max_speed // d).
    """
    binom = [[math.comb(gap, j) for j in range(gap + 1)] for gap in range(max_speed)]
    prefix = [(0, 0, 0, 0)]
    for n1 in range(1, max_speed + 1):
        thm1_ct, thm2_ct, slow_ct, any_ct = prefix[-1]
        for n2, n3, nk, k, weight in _patterns(n1, binom):
            thm1, thm2, slow_fast = _rules(n1, n2, n3, nk, k)
            if thm1:
                thm1_ct += weight
            if thm2:
                thm2_ct += weight
            if slow_fast:
                slow_ct += weight
            if thm1 or thm2 or slow_fast:
                any_ct += weight
        prefix.append((thm1_ct, thm2_ct, slow_ct, any_ct))
    counts = prefix[max_speed]
    if require_coprime:
        counts = [_moebius(column.__getitem__, max_speed) for column in zip(*prefix)]
    total, coprime = (1 << max_speed) - 1, coprime_count_moebius(max_speed)
    return EnumerationSummary(max_speed, total, coprime, *counts, None, None)


def sweep(
    max_speed: int,
    *,
    require_coprime: bool = False,
    with_oracle: bool = False,
    with_dyadic: bool = False,
    out: str | os.PathLike | None = None,
    fmt: str = "csv",
) -> EnumerationSummary:
    """Enumerate all nonempty subsets of {1..max_speed} and aggregate.

    ``require_coprime`` restricts classification (and the optional
    oracle and dyadic passes) to coprime vectors; total and coprime
    counts always cover the whole range.  Those and the rule counts
    come from the closed form; only the oracle and dyadic counts visit
    the vectors, in the per-vector loop.  Given ``out``, the same loop
    also writes one record per classified vector, masks ascending, to
    that file as ``fmt`` (csv or json).  Both arguments are checked
    before the file is opened.
    """
    if not 1 <= max_speed <= _MAX_SWEEP:
        raise ValueError(f"max_speed must be in [1, {_MAX_SWEEP}], got {max_speed}")
    if fmt not in ("csv", "json"):
        raise ValueError(f"format must be 'csv' or 'json', got {fmt!r}")
    if out is None:
        if with_oracle or with_dyadic:
            return _census(max_speed, require_coprime, with_oracle, with_dyadic, None)
        return _rule_census(max_speed, require_coprime)
    try:
        with open(out, "w", newline="") as handle:
            if fmt == "json":
                handle.write("[")
                separators = itertools.chain([""], itertools.repeat(",\n"))

                def write(record: VectorRecord) -> None:
                    handle.write(next(separators) + json.dumps(record._asdict(), default=format_rational))
            else:
                rows = csv.writer(handle)
                rows.writerow(VectorRecord._fields)

                def write(record: VectorRecord) -> None:
                    rows.writerow(record.to_csv_row())

            summary = _census(max_speed, require_coprime, with_oracle, with_dyadic, write)
            if fmt == "json":
                handle.write("]\n")
    except OSError as exc:
        raise OSError(f"cannot write {out}: {exc}") from exc
    return summary
