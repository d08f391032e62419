import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import brute_dyadic_m, descending_subsets, scaled_suitable_set
from lonely_runner import dyadic, oracle
from lonely_runner.dyadic import dyadic_denominator, dyadic_exponent, find_dyadic_time
from lonely_runner.model import SpeedVector
from lonely_runner.oracle import is_suitable

F = Fraction


@pytest.mark.parametrize(
    "n1,expected",
    [(1, 1), (2, 2), (3, 3), (4, 3), (5, 4), (8, 4), (9, 5), (17, 6), (32, 6), (33, 7)],
)
def test_dyadic_exponent(n1, expected):
    n = SpeedVector((n1,))
    e = dyadic_exponent(n)
    assert e == expected
    # Definition: smallest e with 2^(e-1) >= n_1.
    assert 2 ** (e - 1) >= n1
    assert e == 1 or 2 ** (e - 2) < n1


def test_dyadic_denominator_frozen():
    assert dyadic_denominator(SpeedVector([4, 3, 2])) == 128
    assert dyadic_denominator(SpeedVector([1])) == 4
    assert dyadic_denominator(SpeedVector([5, 1])) == 240


def test_find_dyadic_frozen():
    assert find_dyadic_time(SpeedVector([4, 3, 2])) == 16  # 16/128 = 1/8
    assert find_dyadic_time(SpeedVector([1])) == 2  # 2/4 = 1/2
    assert find_dyadic_time(SpeedVector([5, 1])) == 80  # 80/240 = 1/3


@pytest.mark.parametrize("speeds", sorted(descending_subsets(7)) + [(9, 5, 2), (11, 7, 3, 2)])
def test_find_matches_literal_ascending_loop(speeds):
    n = SpeedVector(speeds)
    den = dyadic_denominator(n)
    m = find_dyadic_time(n)
    assert m == brute_dyadic_m(n, den, den)
    if m is not None:
        assert is_suitable(n, F(m, den))


@pytest.mark.parametrize("speeds", sorted(descending_subsets(9)))
def test_half_range_gives_identical_result(speeds):
    # The minimal hit lies in the lower half of the grid, m <= ceil(D/2)
    # (the reflection argument in the dyadic module docstring), so a
    # search cut off there would return the same witness.
    n = SpeedVector(speeds)
    m = find_dyadic_time(n)
    assert m is not None
    assert m <= (dyadic_denominator(n) + 1) // 2


def test_grid_lemma_on_small_subsets():
    # Every suitable interval of positive length holds a grid point, so
    # the minimal m is never past the first one (dyadic module docstring).
    # The intervals come from the arc lists, not from the search's join.
    for speeds in descending_subsets(14):
        n = SpeedVector(speeds)
        den = dyadic_denominator(n)
        arc_den, arcs = scaled_suitable_set(n)
        wide = [(lo, hi) for lo, hi in arcs if lo < hi]
        for lo, hi in wide:
            # The first grid numerator at or above lo/arc_den is at most hi/arc_den.
            assert -(-lo * den // arc_den) * arc_den <= hi * den, speeds
        m = find_dyadic_time(n)
        assert m is not None, speeds
        if wide:
            assert m * arc_den <= wide[0][1] * den, speeds


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 10**9), min_size=1, max_size=7, unique=True))
def test_grid_lemma_at_huge_speeds(speeds):
    n = SpeedVector(speeds)
    den = dyadic_denominator(n)
    for lo_num, lo_den, hi_num, hi_den in itertools.islice(oracle._sweep(n), 50):
        lo, hi = F(lo_num, lo_den), F(hi_num, hi_den)
        if lo < hi:
            assert math.ceil(lo * den) <= hi * den
            m = find_dyadic_time(n)
            assert m is not None and F(m, den) <= hi
            break


def test_tight_coprime_vectors_up_to_12():
    # Tight: the suitable set holds no interval of positive length.  The
    # sporadic three are the tight instances of Goddyn and Wong
    # (Integers 6, 2006), which no code here derives.
    tight = set()
    for speeds in descending_subsets(12):
        if math.gcd(*speeds) == 1:
            _, arcs = scaled_suitable_set(SpeedVector(speeds))
            if arcs and all(lo == hi for lo, hi in arcs):
                tight.add(speeds)
    sporadic = {(7, 4, 3, 1), (9, 5, 4, 3, 1), (12, 7, 5, 4, 3, 2, 1)}
    assert tight == {tuple(range(k, 0, -1)) for k in range(1, 13)} | sporadic


def test_none_when_no_arc_reaches_the_grid(monkeypatch):
    # Real non-instances do not exist at this scale, so the None branch
    # is driven synthetically: an empty suitable set, then a set whose
    # only arc sits in the upper half of the grid.
    n = SpeedVector([4, 3, 2])
    monkeypatch.setattr(oracle, "_sweep", lambda speeds: iter([]))
    assert dyadic.find_dyadic_time(n) is None
    monkeypatch.setattr(oracle, "_sweep", lambda speeds: iter([(40, 48, 41, 48)]))
    assert dyadic.find_dyadic_time(n) is not None
