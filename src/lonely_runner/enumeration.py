"""Census sweep over all speed subsets of {1..N}.

Bitmask i (1 <= i < 2^N) encodes the subset whose bit j-1 means speed
j.  The per-vector loop walks the subsets once in ascending mask order,
as a high half (the speeds above N // 2) outside and a low half inside.
What a vector's record reads of its speeds (their text, gcd, count
and extremes) comes from a table over the 2^(N//2) low halves
and from values computed once per high half, so no row builds its speed
tuple.  The loop counts the vectors that the exact oracle or the dyadic
grid search decides, and decides them from a table of witness times
built once per k (see :func:`_witnesses`): the first entry whose speed
mask holds the vector's is its earliest suitable time, and that time
gives the dyadic hit too on the grid denominator D, read through
:func:`dyadic.dyadic_denominator` once per fastest speed and count,
save for the few vectors whose first suitable interval is a single
point off the grid, which fall back to :func:`dyadic.find_dyadic_time`.
When :func:`sweep` writes a record file, the same loop formats one
record per vector, which also carries the vector's coprimality and
rule verdicts, and writes the records of each high half as one chunk.  Each format is a row of data in
``_FORMATS``: its header and footer, the text before each field, and its
tokens for false and true, the empty value, the quote around a time and
the separators.  So both formats take one path: a record is one
f-string that interleaves that text with values the loop already holds,
the speeds as the high half's text joined to the low half's and the
earliest time as the table's reduced fraction.  It has the bytes
``csv.writer`` and ``json.dumps`` would give.

Every summary takes its total, coprime and rule counts from a closed
form.  A rules-only summary visits no vector: each rule is a threshold
in one speed, and binomial sums over (n_k, k, n_1) count the subsets
that fire it (see :func:`_rule_census`).  The number of coprime subsets has a
closed form by Mobius inversion over the common divisor (subsets of
{1..N} with gcd divisible by d are in bijection with subsets of
{1..N/d}), which is what :func:`coprime_count_moebius` computes.  The
rules are homogeneous in the speeds, so their coprime counts go through
the same inversion.

N has three limits, each checked before any work and before a record
file is opened: N <= 62 for the rules-only summary, N <= 32 for the
per-vector loop without a record file, and N <= 24 with one, in both
modes, which is the budget of 2^24 records (about 1 GB of CSV or
3.6 GB of JSON).
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass, replace
from typing import Callable

from . import dyadic
from .classify import _rules

__all__ = [
    "EnumerationSummary",
    "coprime_count_moebius",
    "sweep",
]

_MAX_SWEEP = 32
_MAX_MOEBIUS = 62  # 2^62 subsets still fit comfortably in a machine word
# The record budget.  Rows average 51 bytes in CSV and 207 in JSON at N = 20 and grow with N, so a file
# of 2^24 records is about 1 GB of CSV or 3.6 GB of JSON.  It is the bound N <= 24 in both modes: at N = 24
# the 2^24 - 1 records and the 16,772,858 coprime ones fit, and at N = 25 the 33,550,058 coprime ones do not.
_MAX_RECORDS = 1 << 24
_FIELDS = tuple("speeds k coprime thm1 thm2 slow_fast any_rule is_instance earliest_time dyadic_m".split())
_KEYS = [f'"{name}": ' for name in _FIELDS]
# Per record format: its header and footer, the text before each field and after the last, (false, true),
# the empty value, the quote around a time, and the separators between speeds and between records.
# CSV rows end in \r\n, as csv.writer ends them.
_FORMATS = {
    "csv": (",".join(_FIELDS) + "\r\n", "", ("", *[","] * 9, "\r\n"), "01", "", "", ";", ""),
    "json": ("[", "]\n", ("{" + _KEYS[0] + "[", "], " + _KEYS[1], *[", " + key for key in _KEYS[2:]], "}"),
             ("false", "true"), "null", '"', ", ", ",\n"),
}


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


def _check_max_speed(max_speed: int, limit: int) -> None:
    """ValueError unless max_speed is an int, not a bool, in [1, limit]."""
    if not isinstance(max_speed, int) or isinstance(max_speed, bool):
        raise ValueError(f"max_speed must be an int, got {max_speed!r}")
    if not 1 <= max_speed <= limit:
        raise ValueError(f"max_speed must be in [1, {limit}], got {max_speed}")


def coprime_count_moebius(max_speed: int) -> int:
    """Number of nonempty subsets of {1..max_speed} with gcd 1.

    Closed form sum_d mu(d) (2^floor(max_speed/d) - 1); no enumeration.
    """
    _check_max_speed(max_speed, _MAX_MOEBIUS)
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


def _witnesses(max_speed: int, k: int) -> list[tuple[int, int, int, int]]:
    """Candidate earliest times of k speeds from {1..max_speed}, ascending, as (a, b, fit, tight).

    The candidates are the bad-arc ends a/b = (m (k+1) + 1) / ((k+1) s)
    of the oracle module docstring, for every speed s <= max_speed, with
    a/b <= 1/2, reduced.  Bit s-1 of ``fit`` is set when a/b suits
    speed s, that is (k+1) min(r, b - r) >= b with r = s a mod b; bit
    s-1 of ``tight`` when the good window of s ends at a/b, that is
    (k+1) r = k b, so that s enters a bad arc just after a/b.

    For a vector of k such speeds with mask ``mask``, the first entry
    with ``mask & fit == mask`` is its earliest suitable time, and no
    such entry means it is no instance.  Proof: every such entry is a
    suitable time, by the definition alone.  The suitable set is a
    union of closed intervals, each of which starts where a bad arc of
    one of the vector's speeds ends, and it is symmetric under
    t -> 1 - t, so an earliest suitable time, if there is one, is such
    an arc end at most 1/2, and it is in the list.  An entry is dropped
    when its ``fit`` has fewer than k bits, or lies inside the ``fit``
    of an earlier kept entry: no k-speed mask can then match it first.
    """
    kp1, gcd = k + 1, math.gcd
    ends = set()
    for s in range(1, max_speed + 1):
        for m in range(1, kp1 * s // 2 + 1, kp1):
            g = gcd(m, kp1 * s)
            ends.add((m // g, kp1 * s // g))
    # Every denominator divides (k+1) s for some s, so a/b ranks as the integer a (scale / b).
    scale = kp1 * math.lcm(*range(1, max_speed + 1))
    kept = []
    for a, b in sorted(ends, key=lambda end: end[0] * (scale // end[1])):
        fit = tight = 0
        for s in range(max_speed, 0, -1):
            r = s * a % b
            fit = fit << 1 | (kp1 * min(r, b - r) >= b)
            tight = tight << 1 | (kp1 * r == k * b)
        if fit.bit_count() >= k and all(fit & earlier != fit for _, _, earlier, _ in kept):
            kept.append((a, b, fit, tight))
    return kept


def _speeds(mask: int) -> tuple[int, ...]:
    """The speeds j for the set bits j - 1 of mask, descending.

    Built from a list, so the tuple is made at its size: ``tuple()`` of
    a generator resizes a guess, which strands a block per call on the
    interpreter's tuple free lists.
    """
    return (*[j for j in range(mask.bit_length(), 0, -1) if mask >> j - 1 & 1],)


def _census(
    max_speed: int,
    require_coprime: bool,
    with_oracle: bool,
    with_dyadic: bool,
    write: Callable[[str], object] | None,
    fmt: str,
) -> EnumerationSummary:
    """The one per-vector loop, over every nonempty subset in ascending mask order.

    Counts oracle instances and dyadic hits, and hands ``write`` one
    chunk of records per high half (below) when it is given, each record
    after the first preceded by the record separator of ``fmt``.  The
    loop unpacks the row ``_FORMATS[fmt]`` once, so both formats share
    the one f-string that builds a record.  Returns the closed-form
    summary of :func:`_rule_census` with those two counts.

    The mask splits at bit h = max_speed // 2 into a low half, speeds
    1..h, and a high half, the rest, and the loop runs ``for hi: for
    lo:``, which keeps the masks ascending.  A vector's speeds are the
    high half's followed by the low half's, so what a record reads of
    them is the two halves' values joined: its speed text, its gcd, its
    size k, its slowest speed and its fastest three (all, unpadded, if it
    has fewer), which :func:`classify._rules` reads for the rule fields.
    Each is tabled once over the 2^h low halves and computed once per
    high half, and the grid denominator D, which reads n_1 and k alone,
    is tabled by them through :func:`dyadic.dyadic_denominator` on the
    k speeds n_1, n_1 - 1, ..., so a row builds no speed tuple; only the
    dyadic fallback below builds one.

    The verdict and the earliest time a/b come from the first match in
    the vector's table of :func:`_witnesses`, which every mode scans:
    each k's table is empty when neither pass is on, and a record's
    oracle fields stay empty without the oracle.  Each high half first
    keeps, for each k, the entries whose ``fit`` holds its bits, so a row
    scans only those and tests its low bits alone.  Every grid point
    below a/b is unsuitable, so the dyadic hit is m = ceil(a D / b) when
    m/D is suitable.  It is when no speed of the vector is tight at a/b:
    the first suitable interval then has positive length, and the grid
    lemma of the dyadic module puts m/D <= 1/2 inside it.  It is when
    a D / b is an integer, m/D then being a/b itself.  Otherwise the
    interval is the single point a/b, off the grid, and
    :func:`dyadic.find_dyadic_time` searches from the start; at N = 14
    that happens for 43 of the 16,383 vectors.
    """
    gcd, denominator = math.gcd, dyadic.dyadic_denominator
    _, _, (t0, t1, t2, t3, t4, t5, t6, t7, t8, t9, end), bits, missing, quote, comma, joiner = _FORMATS[fmt]
    tables = [[]] + [_witnesses(max_speed, k) if with_oracle or with_dyadic else [] for k in range(1, max_speed + 1)]
    half = max_speed // 2
    low = range(1 << half)
    low_gcd = [gcd(*_speeds(lo)) for lo in low]
    low_k = [lo.bit_count() for lo in low]
    # The grid denominator D by fastest speed n_1 = s and size k, which the k speeds s, s - 1, ... share.
    grid = [[0] + [denominator(range(s, s - k, -1)) for k in range(1, s + 1)] for s in range(max_speed + 1)]
    if write is not None:
        low_tail = [comma + comma.join(map(str, _speeds(lo))) if lo else "" for lo in low]
        # A vector's fastest speeds are its high half's when that has three, else the high half's and these.
        low_top = [_speeds(lo)[:3] for lo in low]
        low_last = [(lo & -lo).bit_length() for lo in low]
    separator = ""
    oracle_ct = dyadic_ct = 0
    for hi in range(1 << max_speed - half):
        high = _speeds(hi << half)
        hi_k, hi_gcd, hi_top, hi_bits = len(high), gcd(*high), high[0] if high else 0, hi << half
        scans = [[entry for entry in tables[hi_k + j] if entry[2] >> half & hi == hi] for j in range(half + 1)]
        if write is not None:
            prefix, texts = (comma.join(map(str, high)), low_tail) if hi else ("", [t[len(comma) :] for t in low_tail])
            hi_last = high[-1] if high else 0
        rows = []
        for lo in low[not hi :]:  # hi = lo = 0 is the empty set
            coprime = gcd(hi_gcd, low_gcd[lo]) == 1
            if require_coprime and not coprime:
                continue
            j = low_k[lo]
            k = hi_k + j
            for a, b, fit, tight in scans[j]:
                if lo & fit == lo:
                    break
            else:
                a = None
            oracle_ct += a is not None
            dyadic_m = None
            if with_dyadic and a is not None:
                den = grid[hi_top or lo.bit_length()][k]
                dyadic_m = -(-a * den // b)
                if (hi_bits | lo) & tight and dyadic_m * b != a * den:
                    dyadic_m = dyadic.find_dyadic_time(_speeds(hi_bits | lo))
                dyadic_ct += dyadic_m is not None
            if write is not None:
                top = high if hi_k >= 3 else high + low_top[lo]
                thm1, thm2, slow_fast, any_rule = _rules(top, low_last[lo] or hi_last, k)
                is_instance = bits[a is not None] if with_oracle else missing
                earliest = f"{quote}{a}/{b}{quote}" if with_oracle and a is not None else missing
                hit = missing if dyadic_m is None else dyadic_m
                rows.append(
                    f"{t0}{prefix}{texts[lo]}{t1}{k}{t2}{bits[coprime]}{t3}{bits[thm1]}{t4}{bits[thm2]}{t5}"
                    f"{bits[slow_fast]}{t6}{bits[any_rule]}{t7}{is_instance}{t8}{earliest}{t9}{hit}{end}"
                )
        if rows:
            write(separator + joiner.join(rows))
            separator = joiner
    summary = _rule_census(max_speed, require_coprime)
    return replace(
        summary,
        oracle_instance_count=oracle_ct if with_oracle else None,
        dyadic_verified_count=dyadic_ct if with_dyadic else None,
    )


def _rule_census(max_speed: int, require_coprime: bool) -> EnumerationSummary:
    """The rules-only summary of :func:`sweep` in closed form, visiting no vector.

    Each rule of :func:`classify._rules` is a threshold in at most one
    speed besides n_1, n_k and k:

    * slow_fast is n_1 <= k n_k;
    * thm2 is n_2 <= k n_k and M, where M is
      n_k <= n_1 mod ((k+1) n_k) <= k n_k;
    * thm1 (k >= 4) is n_3 <= T(n_2) = floor(k n_k n_2 / (n_2 + (k+1) n_k)),
      its inequality n_2 (k n_k - n_3) >= (k+1) n_3 n_k solved for n_3.

    By the hockey-stick identity, the subsets of k >= 2 speeds with top
    n_1 and bottom n_k number C(n_1 - n_k - 1, k - 2); those among them
    with n_2 <= U number C(U - n_k, k - 2); those with second speed n_2
    and n_3 <= U number C(U - n_k, k - 3), where C(x, j) = 0 for x < j.
    For each (n_k, k), the prefix P(n) = sum over n_2 <= n of
    C(min(T(n_2), n_2 - 1) - n_k, k - 3) gives thm1's count P(n_1 - 1)
    at every n_1, in O(N^3) in all.  slow_fast implies thm2 and M.
    Without slow_fast, thm2 fires on the subsets with n_2 <= k n_k if M
    holds, so any_rule adds thm1's count over n_2 > k n_k,
    P(n_1 - 1) - P(k n_k), to thm2's; if M fails, any_rule is thm1.

    Running totals over the top speed give the counts F(m) =
    (thm1, thm2, slow_fast, any_rule) over the subsets of {1..m} for
    every m at once.  The rules are homogeneous in the speeds, so a
    subset with gcd d fires the rules of the subset divided by d, and
    the coprime counts are sum_d mu(d) F(max_speed // d).
    """
    comb = math.comb
    # Counts over the subsets with top speed n1; the one-speed subset {n1} fires slow_fast alone.
    thm1_at, thm2_at = [0] * (max_speed + 1), [0] * (max_speed + 1)
    slow_at = [0] + [1] * max_speed
    any_at = list(slow_at)
    for nk in range(1, max_speed):
        for k in range(2, max_speed - nk + 2):
            width, window = k * nk, (k + 1) * nk
            thm1_upto = [0] * max_speed  # P(n) for n < max_speed; 0 for k < 4
            if k >= 4:
                total = 0
                for n2 in range(nk + 1, max_speed):
                    top3 = min(width * n2 // (n2 + window), n2 - 1) - nk
                    if top3 >= k - 3:
                        total += comb(top3, k - 3)
                    thm1_upto[n2] = total
            for n1 in range(nk + k - 1, max_speed + 1):
                every = comb(n1 - nk - 1, k - 2)
                thm1 = thm1_upto[n1 - 1]
                thm1_at[n1] += thm1
                if n1 <= width:
                    slow_at[n1] += every
                    thm2_at[n1] += every
                    any_at[n1] += every
                elif nk <= n1 % window <= width:
                    thm2 = comb(width - nk, k - 2)
                    thm2_at[n1] += thm2
                    any_at[n1] += thm2 + thm1 - thm1_upto[width]
                else:
                    any_at[n1] += thm1
    columns = [list(itertools.accumulate(column)) for column in (thm1_at, thm2_at, slow_at, any_at)]
    if require_coprime:
        counts = [_moebius(column.__getitem__, max_speed) for column in columns]
    else:
        counts = [column[max_speed] for column in columns]
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
    that file as ``fmt`` (csv or json).  ``max_speed`` may be up to 62
    for the rules-only summary, which visits no vector, up to 32 when
    the loop runs without ``out``, and up to 24 with it, in both modes,
    which is the budget of 2^24 records.  It is checked first, then the
    format, both before any work and before the file is opened.
    """
    rules_only = out is None and not (with_oracle or with_dyadic)
    limit = _MAX_MOEBIUS if rules_only else _MAX_SWEEP if out is None else _MAX_RECORDS.bit_length() - 1
    _check_max_speed(max_speed, limit)
    if not isinstance(fmt, str) or fmt not in _FORMATS:
        raise ValueError(f"format must be {' or '.join(map(repr, _FORMATS))}, got {fmt!r}")
    if rules_only:
        return _rule_census(max_speed, require_coprime)
    if out is None:
        return _census(max_speed, require_coprime, with_oracle, with_dyadic, None, fmt)
    header, footer, *_ = _FORMATS[fmt]
    try:
        with open(out, "w", newline="") as handle:
            handle.write(header)
            summary = _census(max_speed, require_coprime, with_oracle, with_dyadic, handle.write, fmt)
            handle.write(footer)
    except OSError as exc:
        raise OSError(f"cannot write {out}: {exc}") from exc
    return summary
