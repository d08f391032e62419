"""Brute-force reference computations shared by the test suite.

Everything here is deliberately dumb and definitional so that the
library's faster algorithms have something independent to disagree
with.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from typing import Iterator, Sequence

import lonely_runner
from lonely_runner.classify import classify
from lonely_runner.dyadic import find_dyadic_time
from lonely_runner.enumeration import EnumerationSummary, _census
from lonely_runner.model import SpeedVector
from lonely_runner.oracle import earliest_suitable_time, is_suitable
from lonely_runner.polyhedron import HalfPlane, contains, q_geometry

__all__ = [
    "descending_subsets",
    "coprime_count_brute",
    "census_records",
    "record_tally",
    "reference_record_file",
    "reference_witnesses",
    "grid_denominator",
    "scaled_suitable_set",
    "suitability_probe_points",
    "brute_dyadic_m",
    "certify_first_intervals",
    "p1_window",
    "q_integer_point",
    "zero_pad",
    "brute_integer_points_in_region",
    "halfplane_vertices",
    "project",
    "support_bounds",
    "width",
    "translate_invariance_check",
    "child_env",
    "fresh_peak",
]


def descending_subsets(max_speed: int, min_size: int = 1) -> Iterator[tuple[int, ...]]:
    """All nonempty subsets of {1..max_speed} as descending speed tuples."""
    values = range(max_speed, 0, -1)
    for size in range(min_size, max_speed + 1):
        yield from itertools.combinations(values, size)


def coprime_count_brute(max_speed: int) -> int:
    """Count coprime subsets by taking the gcd of every single subset."""
    return sum(1 for s in descending_subsets(max_speed) if math.gcd(*s) == 1)


def census_records(
    max_speed: int, require_coprime: bool = False, with_oracle: bool = False, with_dyadic: bool = False
) -> list[dict]:
    """The per-vector loop's JSON record file, read back with json.loads."""
    chunks = []
    _census(max_speed, require_coprime, with_oracle, with_dyadic, chunks.append, "json")
    return json.loads("".join(chunks))


def record_tally(max_speed: int, require_coprime: bool = False) -> EnumerationSummary:
    """The rules-only summary of a sweep, summed from the record columns vector by vector.

    The library counts this summary in closed form; the records come
    from the per-vector loop, which runs gcd and the rules on each mask.
    """
    coprime = thm1 = thm2 = slow_fast = any_rule = 0
    for record in census_records(max_speed, require_coprime):
        coprime += record["coprime"]
        thm1 += record["thm1"]
        thm2 += record["thm2"]
        slow_fast += record["slow_fast"]
        any_rule += record["any_rule"]
    total = (1 << max_speed) - 1
    return EnumerationSummary(max_speed, total, coprime, thm1, thm2, slow_fast, any_rule, None, None)


def reference_record_file(
    max_speed: int, require_coprime: bool, with_oracle: bool, with_dyadic: bool, fmt: str
) -> bytes:
    """The bytes ``sweep(..., out=path, fmt=fmt)`` writes, from the public verdict functions.

    Every subset in ascending bitmask order, each record a dict of typed
    values that ``csv.writer`` or ``json.dumps`` (rationals through
    ``_rational``) serializes.  Shares no formatting code with the
    library's writer.
    """
    records = []
    for mask in range(1, 1 << max_speed):
        speeds = tuple(s for s in range(max_speed, 0, -1) if mask >> (s - 1) & 1)
        coprime = math.gcd(*speeds) == 1
        if require_coprime and not coprime:
            continue
        report = classify(speeds)
        thm1, thm2, slow_fast = report.thm1, report.thm2, report.slow_fast
        earliest = earliest_suitable_time(speeds) if with_oracle else None
        records.append(
            {
                "speeds": list(speeds),
                "k": len(speeds),
                "coprime": coprime,
                "thm1": thm1,
                "thm2": thm2,
                "slow_fast": slow_fast,
                "any_rule": thm1 or thm2 or slow_fast,
                "is_instance": earliest is not None if with_oracle else None,
                "earliest_time": earliest,
                "dyadic_m": find_dyadic_time(speeds) if with_dyadic else None,
            }
        )
    if fmt == "json":
        return ("[" + ",\n".join(json.dumps(r, default=_rational) for r in records) + "]\n").encode()
    text = io.StringIO(newline="")
    writer = csv.writer(text)
    writer.writerow(records[0].keys())
    writer.writerows(map(_csv_cell, r.values()) for r in records)
    return text.getvalue().encode()


def _csv_cell(value: list[int] | bool | int | Fraction | None) -> str | int:
    """A record value as the CSV file writes it: speeds joined by ';', bools as 0/1, None empty."""
    if isinstance(value, list):
        return ";".join(map(str, value))
    if isinstance(value, Fraction):
        return _rational(value)
    return "" if value is None else int(value)


def _rational(q: Fraction) -> str:
    """A rational as the record files write it: numerator/denominator, reduced."""
    return f"{q.numerator}/{q.denominator}"


def reference_witnesses(max_speed: int, k: int) -> list[tuple[int, int, int, int]]:
    """The witness table of ``enumeration._witnesses``, from ``Fraction`` arithmetic alone.

    The bad-arc ends m / ((k+1) s), m = 1 mod k+1, up to 1/2 are sorted
    as rationals.  Speed s suits t when s t is at least 1/(k+1) from
    every integer, and is tight when s t sits k/(k+1) past one.  An end
    is kept when its fit has k speeds or more and no earlier kept fit
    holds it.
    """
    kp1 = k + 1
    ends = {Fraction(m, kp1 * s) for s in range(1, max_speed + 1) for m in range(1, kp1 * s // 2 + 1, kp1)}
    kept: list[tuple[int, int, int, int]] = []
    for t in sorted(ends):
        phases = [s * t % 1 for s in range(1, max_speed + 1)]
        fit = sum(1 << i for i, phase in enumerate(phases) if min(phase, 1 - phase) >= Fraction(1, kp1))
        tight = sum(1 << i for i, phase in enumerate(phases) if phase == Fraction(k, kp1))
        if fit.bit_count() >= k and not any(fit & earlier == fit for _, _, earlier, _ in kept):
            kept.append((t.numerator, t.denominator, fit, tight))
    return kept


def grid_denominator(n: SpeedVector) -> int:
    """Common denominator (k+1) * lcm(n) of all suitability endpoints."""
    return (n.k + 1) * math.lcm(*n)


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
    """Suitable set as integer arcs [lo, hi] over D = (k+1) * lcm(n).

    An oracle independent of the library's bad-arc sweep: every
    runner's arcs are materialised over the common denominator D and
    the k lists are intersected pairwise with a two-pointer sweep.
    Memory grows with sum(n), so keep speeds small.
    """
    k = n.k
    big_l = math.lcm(*n)
    kp1 = k + 1
    denominator = kp1 * big_l
    result: list[tuple[int, int]] | None = None
    for s in sorted(n):
        step = big_l // s
        arcs = [((m * kp1 + 1) * step, (m * kp1 + k) * step) for m in range(s)]
        result = arcs if result is None else _intersect(result, arcs)
        if not result:
            return denominator, []
    assert result is not None
    return denominator, result


def suitability_probe_points(n: SpeedVector) -> list[Fraction]:
    """Grid points j/D and all midpoints between them, D = (k+1)*lcm(n).

    Every endpoint of the suitable set lies on the grid {j/D}, so the
    set restricted to an open gap between adjacent grid points is
    either the whole gap or nothing.  Agreement with the definitional
    test on these 2D+1 probes therefore pins the set down exactly.
    """
    den = grid_denominator(n)
    points = []
    for j in range(den + 1):
        points.append(Fraction(j, den))
        if j < den:
            points.append(Fraction(2 * j + 1, 2 * den))
    return points


def brute_dyadic_m(n: SpeedVector, den: int, limit: int) -> int | None:
    """Literal ascending search for the minimal suitable grid numerator."""
    for m in range(1, limit + 1):
        if is_suitable(n, Fraction(m, den)):
            return m
    return None


def _furthest_arc_end(n: SpeedVector, t: Fraction) -> Fraction | None:
    """Furthest end of the runners' bad arcs that hold [t, t + eps), or None when none does.

    With x = s t and m = floor(x + 1/(k+1)), arc m of the runner of
    speed s, ((m - 1/(k+1)) / s, (m + 1/(k+1)) / s), holds it when
    x < m + 1/(k+1).
    """
    margin = Fraction(1, n.k + 1)
    ends = []
    for s in n:
        x = s * t
        end = math.floor(x + margin) + margin  # m + 1/(k+1), in units of 1/s
        if x < end:
            ends.append(end / s)
    return max(ends, default=None)


def certify_first_intervals(n: SpeedVector, intervals: Sequence[tuple[Fraction, Fraction]]) -> None:
    """Check by the definition that the (lo, hi) pairs are the first suitable intervals of n.

    Shares no code with the library's sweep.  From 0 and from each hi,
    a walk moves t to the furthest end of the bad arcs that hold
    [t, t + eps) until it reaches the next lo: every time it passes is
    inside a bad arc, every point it lands on short of lo must be
    unsuitable, and it must land exactly on lo.  Inside an interval, lo
    is suitable and no runner's next bad arc, which starts at
    (floor(s lo) + k/(k+1)) / s, starts before hi.  A walk that cannot
    start from hi would mean the interval goes on past it.
    """
    k, t = n.k, Fraction(0)
    for lo, hi in intervals:
        assert t < lo <= hi < 1, (n, t, lo, hi)
        t = _furthest_arc_end(n, t)
        while t is not None and t < lo:
            assert not is_suitable(n, t), f"{n}: {t} is suitable, before {lo}"
            t = _furthest_arc_end(n, t)
        assert t == lo, f"{n}: the walk from the previous interval reaches {t}, not {lo}"
        assert is_suitable(n, lo), (n, lo)
        assert all((math.floor(s * lo) + Fraction(k, k + 1)) / s >= hi for s in n), (n, lo, hi)
        t = hi


def fraction_contains(n: SpeedVector, x: Sequence[Fraction | int]) -> bool:
    """Membership of x in P(n), with each pair's bounds built as the Fractions the definition writes."""
    k = n.k
    for i in range(k):
        for j in range(i + 1, k):
            g = n[j] * x[i] - n[i] * x[j]
            if not Fraction(n[i] - k * n[j], k + 1) <= g <= Fraction(k * n[i] - n[j], k + 1):
                return False
    return True


def zero_pad(n: SpeedVector, p: Sequence[int]) -> tuple[int, ...]:
    """The point p of a window on the first coordinates, padded with zeros to dimension k."""
    return tuple(p) + (0,) * (n.k - len(p))


def p1_window(n: SpeedVector) -> tuple[Fraction, Fraction]:
    """The one-coordinate window (lo, hi) of P(n) on x_1, in the paper's closed form; k >= 2.

    Its points zero-pad into P(n) when n_2 <= k n_k.
    """
    k, n1, n2, nk = n.k, n[0], n[1], n[-1]
    return Fraction(n1 - k * nk, (k + 1) * nk), Fraction(k * n1 - n2, (k + 1) * n2)


def q_integer_point(n: SpeedVector) -> tuple[int, int] | None:
    """Integer point (x1, x2) of Q minimizing (x2, x1) lexicographically, or None.

    Scans the integer x2 levels between the x2 bounds of Q's half-planes;
    on each level the half-planes with a1 != 0 bound x1.  The scan stops
    at the first hit, so it is quick at any speed where Q is wide.
    """
    hps = q_geometry(n).halfplanes
    for x2 in range(math.ceil(-hps[2].b), math.floor(hps[3].b) + 1):
        lo = max((h.b - h.a2 * x2) / h.a1 for h in hps if h.a1 < 0)
        hi = min((h.b - h.a2 * x2) / h.a1 for h in hps if h.a1 > 0)
        if math.ceil(lo) <= hi:
            return math.ceil(lo), x2
    return None


def halfplane_lhs(h: HalfPlane, x1: Fraction | int, x2: Fraction | int) -> Fraction:
    """Left-hand side a1*x1 + a2*x2 of the constraint h, at (x1, x2)."""
    return h.a1 * x1 + h.a2 * x2


def brute_integer_points_in_region(halfplanes, x1_range, x2_range) -> list[tuple[int, int]]:
    """All integer points of a half-plane region inside a search box."""
    hits = []
    for x2 in x2_range:
        for x1 in x1_range:
            if all(halfplane_lhs(h, x1, x2) <= h.b for h in halfplanes):
                hits.append((x1, x2))
    return hits


def halfplane_vertices(hps: Sequence[HalfPlane]) -> set[tuple[Fraction, Fraction]]:
    """Vertices of a half-plane region: the feasible crossings of its boundary lines.

    Each pair of boundary lines that is not parallel is solved by
    Cramer's rule, and the crossing is kept when it satisfies every
    constraint.  A feasible point on two independent tight constraints
    is a vertex, and every vertex is one.
    """
    points = set()
    for g, h in itertools.combinations(hps, 2):
        det = g.a1 * h.a2 - g.a2 * h.a1
        if det == 0:
            continue
        x1 = (g.b * h.a2 - g.a2 * h.b) / det
        x2 = (g.a1 * h.b - g.b * h.a1) / det
        if all(halfplane_lhs(c, x1, x2) <= c.b for c in hps):
            points.add((x1, x2))
    return points


def project(
    hps: Sequence[HalfPlane], direction: tuple[Fraction, Fraction]
) -> tuple[bool, Fraction | None, Fraction | None]:
    """(feasible, lo, hi) of <direction, x> over the region; None = unbounded.

    Fourier-Motzkin elimination in rotated coordinates u = <d, x>,
    w = <d_perp, x>: each constraint becomes p*u + q*w <= r, the w
    variable is eliminated by pairing opposite-sign q rows, and the
    surviving one-variable rows give the exact projection interval.
    An independent second path to the vertices of the library's clip.
    """
    d1, d2 = Fraction(direction[0]), Fraction(direction[1])
    if d1 == 0 and d2 == 0:
        raise ValueError("direction must be nonzero")
    norm = d1 * d1 + d2 * d2
    direct: list[tuple[Fraction, Fraction]] = []  # rows p*u <= r
    uppers: list[tuple[Fraction, Fraction, Fraction]] = []  # q > 0
    lowers: list[tuple[Fraction, Fraction, Fraction]] = []  # q < 0
    for hp in hps:
        p = hp.a1 * d1 + hp.a2 * d2
        q = hp.a2 * d1 - hp.a1 * d2
        r = hp.b * norm
        if q == 0:
            direct.append((p, r))
        elif q > 0:
            uppers.append((p, q, r))
        else:
            lowers.append((p, q, r))
    for pi, qi, ri in uppers:
        for pj, qj, rj in lowers:
            # (r_j - p_j u)/q_j <= (r_i - p_i u)/q_i, multiplied by q_i*q_j < 0
            direct.append((pj * qi - pi * qj, rj * qi - ri * qj))
    lo: Fraction | None = None
    hi: Fraction | None = None
    for p, r in direct:
        if p == 0:
            if r < 0:
                return False, None, None
        elif p > 0:
            bound = r / p
            if hi is None or bound < hi:
                hi = bound
        else:
            bound = r / p
            if lo is None or bound > lo:
                lo = bound
    if lo is not None and hi is not None and lo > hi:
        return False, None, None
    return True, lo, hi


def support_bounds(
    hps: Sequence[HalfPlane], direction: tuple[Fraction | int, Fraction | int]
) -> tuple[Fraction | None, Fraction | None]:
    """Exact (min, max) of <direction, x> over the region; None = unbounded.

    Raises ValueError when the region is empty.
    """
    feasible, lo, hi = project(hps, (Fraction(direction[0]), Fraction(direction[1])))
    if not feasible:
        raise ValueError("empty region")
    return lo, hi


def width(hps: Sequence[HalfPlane], direction: tuple[Fraction | int, Fraction | int]) -> Fraction:
    """Width max <d, x> - min <d, x> of the region along a direction."""
    lo, hi = support_bounds(hps, direction)
    if lo is None or hi is None:
        raise ValueError("region is unbounded along this direction")
    return hi - lo


def _contains_translated(n: SpeedVector, y: Sequence[int], v: Sequence[int]) -> bool:
    """Membership of y in the translated polyhedron P(n) + v.

    Evaluated against shifted bounds rather than by subtracting v from
    y, so the translation arithmetic is independent of ``contains``.
    """
    k = n.k
    for i in range(k):
        for j in range(i + 1, k):
            g = n[j] * y[i] - n[i] * y[j]
            shift = n[j] * v[i] - n[i] * v[j]
            if not (
                Fraction(n[i] - k * n[j], k + 1) + shift
                <= g
                <= Fraction(k * n[i] - n[j], k + 1) + shift
            ):
                return False
    return True


def translate_invariance_check(n: SpeedVector, v: Sequence[int], box: int) -> bool:
    """Lattice counts of P(n) in a box and of P(n)+v in the shifted box agree.

    Translation by an integer vector bijects the lattice, so this holds
    on every input; what it checks is that ``contains`` agrees with the
    constraint arithmetic written out a second way.  Keep k and box
    small: it visits (2 box + 1)^k points twice.
    """
    rng = range(-box, box + 1)
    count_orig = sum(1 for x in itertools.product(rng, repeat=n.k) if contains(n, x))
    count_shifted = 0
    for x in itertools.product(rng, repeat=n.k):
        y = tuple(xi + vi for xi, vi in zip(x, v))
        count_shifted += _contains_translated(n, y, v)
    return count_orig == count_shifted


def child_env() -> dict[str, str]:
    """Environment for a subprocess that imports the same package as this process."""
    env = dict(os.environ)
    package_root = str(Path(lonely_runner.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return env


def fresh_peak(setup: str, call: str) -> int:
    """Peak bytes that tracemalloc traces while the code ``call`` runs, after ``setup``, in a fresh interpreter.

    A peak taken in the test process depends on what earlier tests left in
    the interpreter's caches and free lists; a new process reads the same
    peak in the suite as alone.
    """
    program = f"import tracemalloc\n{setup}\ntracemalloc.start()\n{call}\nprint(tracemalloc.get_traced_memory()[1])\n"
    proc = subprocess.run([sys.executable, "-c", program], capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout)
