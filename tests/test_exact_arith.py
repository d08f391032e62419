import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lonely_runner.exact_arith import format_rational, frac

rationals = st.fractions(max_denominator=10**6)
nonneg_rationals = st.fractions(min_value=0, max_denominator=10**6)


def test_frac_known_values():
    assert frac(Fraction(7, 3)) == Fraction(1, 3)
    assert frac(5) == 0
    assert frac(Fraction(0)) == 0
    assert frac(Fraction(15, 16)) == Fraction(15, 16)


def test_frac_rejects_negative():
    with pytest.raises(ValueError, match="non-negative"):
        frac(Fraction(-1, 2))


@given(nonneg_rationals)
def test_frac_is_fractional_part(q):
    f = frac(q)
    assert 0 <= f < 1
    assert (q - f).denominator == 1
    assert q - f == math.floor(q)


def test_format_rational_always_has_denominator():
    assert format_rational(Fraction(3, 4)) == "3/4"
    assert format_rational(2) == "2/1"
    assert format_rational(Fraction(-1, 2)) == "-1/2"
    assert format_rational(Fraction(2, 4)) == "1/2"


@given(rationals)
def test_parse_format_roundtrip(q):
    assert Fraction(format_rational(q)) == q
