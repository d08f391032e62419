import json
import math
import re
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lonely_runner import cli
from lonely_runner.model import SpeedVector, normalize


def test_speed_vector_basics():
    n = SpeedVector((4, 3, 2))
    assert n.k == 3
    assert len(n) == 3
    assert list(n) == [4, 3, 2]
    assert n[0] == 4 and n[2] == 2
    assert str(n) == "(4,3,2)"
    assert isinstance(n, tuple)
    assert json.dumps(n) == "[4, 3, 2]"
    assert cli._text(n) == str(n)


def test_speed_vector_accepts_any_order():
    assert SpeedVector([2, 16, 17, 7, 6, 5, 4]) == (17, 16, 7, 6, 5, 4, 2)
    assert SpeedVector({1, 3, 2}) == (3, 2, 1)
    assert SpeedVector(s for s in (1, 2)) == (2, 1)
    assert SpeedVector((4, 3, 2)) == (4, 3, 2)


def test_speed_vector_of_a_speed_vector_is_itself():
    # Checked when made and immutable, so the library functions that read
    # their speeds through SpeedVector pay nothing for one.
    n = SpeedVector((4, 3, 2))
    assert SpeedVector(n) is n


def test_speed_vector_rejects_empty():
    with pytest.raises(ValueError, match="empty"):
        SpeedVector(())


@pytest.mark.parametrize("bad", [0, -3])
def test_speed_vector_rejects_nonpositive(bad):
    for speeds in ((5, bad), (bad, 5)):
        with pytest.raises(ValueError, match=f"positive integers, got {bad}$"):
            SpeedVector(speeds)


@pytest.mark.parametrize("speeds", [[Fraction(3, 2)], [True, 3], [2.5, 1], [1, "a"], [None, 1], [3, 2 + 0j]])
def test_speed_vector_rejects_non_integer_speeds(speeds):
    # Suitable times have period 1 only for integer speeds; a bool is not a speed.  Speeds
    # that do not compare are named as well, though they cannot be sorted first, also when
    # they come as a one-shot iterator that a failed sort would use up.
    bad = next(s for s in speeds if type(s) is not int)
    for given_speeds in (speeds, iter(speeds)):
        with pytest.raises(ValueError, match=f"positive integers, got {re.escape(str(bad))}$"):
            SpeedVector(given_speeds)


def test_speed_vector_names_the_largest_nonpositive_speed():
    # The speeds are sorted before they are checked, in any input order.
    for speeds in ((5, 0, -3), (-3, 5, 0), (0, -3, 5)):
        with pytest.raises(ValueError, match="got 0$"):
            SpeedVector(speeds)


def test_speed_vector_rejects_duplicates():
    with pytest.raises(ValueError, match="duplicate speed 3"):
        SpeedVector((3, 3, 1))


def test_new_speed_vector_still_rejects_duplicates():
    # Sorting the input first must not hide a repeated speed.
    with pytest.raises(ValueError, match="duplicate speed 3"):
        SpeedVector([3, 1, 3])


def test_normalize_divides_gcd():
    assert normalize(SpeedVector([4, 2])) == (2, 1)
    assert normalize(SpeedVector([12, 8, 4])) == (3, 2, 1)
    assert normalize(SpeedVector([5])) == (1,)
    assert normalize(SpeedVector([3, 2])) == (3, 2)


@given(st.sets(st.integers(min_value=1, max_value=60), min_size=1), st.integers(min_value=1, max_value=50))
def test_normalize_is_canonical(speeds, c):
    n = normalize(SpeedVector(speeds))
    assert math.gcd(*n) == 1
    assert isinstance(n, SpeedVector)
    # Idempotent: normalizing a normalized vector changes nothing.
    assert normalize(n) == n
    # Scale-invariant: c * n normalizes to the same vector.
    assert normalize(SpeedVector(c * s for s in speeds)) == n


def test_normalize_reads_speeds_through_speed_vector():
    # Any order comes out sorted, and invalid speeds raise as SpeedVector does.
    assert normalize([2, 6, 4]) == (3, 2, 1)
    for speeds, message in [
        ([0], "positive integers, got 0"),
        ([True, 2], "positive integers, got True"),
        ([2, 2], "duplicate speed 2"),
        ([], "empty"),
    ]:
        with pytest.raises(ValueError, match=message):
            normalize(speeds)


def test_text_of_a_rational_always_has_denominator():
    assert cli._text(Fraction(3, 4)) == "3/4"
    assert cli._text(Fraction(2)) == "2/1"
    assert cli._text(Fraction(-1, 2)) == "-1/2"
    assert cli._text(Fraction(2, 4)) == "1/2"


@given(st.fractions(max_denominator=10**6))
def test_parse_format_roundtrip(q):
    assert Fraction(cli._text(q)) == q
