import json
import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lonely_runner import cli
from lonely_runner.model import SpeedVector, format_rational, new_speed_vector, normalize


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


def test_speed_vector_rejects_empty():
    with pytest.raises(ValueError, match="empty"):
        SpeedVector(())


@pytest.mark.parametrize("bad", [0, -3])
def test_speed_vector_rejects_nonpositive(bad):
    with pytest.raises(ValueError, match="positive"):
        SpeedVector((5, bad))


def test_speed_vector_rejects_duplicates():
    with pytest.raises(ValueError, match="duplicate speed 3"):
        SpeedVector((3, 3, 1))


def test_speed_vector_rejects_increasing():
    with pytest.raises(ValueError, match="strictly decreasing"):
        SpeedVector((2, 3))


def test_new_speed_vector_sorts():
    assert new_speed_vector([2, 16, 17, 7, 6, 5, 4]) == (17, 16, 7, 6, 5, 4, 2)


def test_new_speed_vector_still_rejects_duplicates():
    with pytest.raises(ValueError, match="duplicate"):
        new_speed_vector([3, 1, 3])


def test_normalize_dedupes_and_divides_gcd():
    assert normalize([6, 6, 3]) == (2, 1)
    assert normalize([4, 2]) == (2, 1)
    assert normalize([6, 0, -2, 3]) == (2, 1)
    assert normalize([5]) == (1,)


def test_normalize_needs_a_positive_value():
    with pytest.raises(ValueError, match="positive"):
        normalize([0, -1])


@given(st.lists(st.integers(min_value=-5, max_value=60), min_size=1).filter(lambda v: any(x >= 1 for x in v)))
def test_normalize_is_canonical(values):
    n = normalize(values)
    assert math.gcd(*n) == 1
    assert all(a > b for a, b in zip(n, n[1:]))
    assert all(s >= 1 for s in n)
    # Idempotent: normalizing a normalized vector changes nothing.
    assert normalize(n) == n


def test_format_rational_always_has_denominator():
    assert format_rational(Fraction(3, 4)) == "3/4"
    assert format_rational(2) == "2/1"
    assert format_rational(Fraction(-1, 2)) == "-1/2"
    assert format_rational(Fraction(2, 4)) == "1/2"


@given(st.fractions(max_denominator=10**6))
def test_parse_format_roundtrip(q):
    assert Fraction(format_rational(q)) == q
