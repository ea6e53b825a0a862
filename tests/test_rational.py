from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from ndcheck import (
    EXACT,
    IrrationalDistance,
    approx_num,
    exact_sqrt,
    format_scalar,
    is_rational_square,
    parse_scalar,
)
import ndcheck.rational
from ndcheck.rational import MAX_SCALAR_EXPONENT, MAX_SCALAR_LENGTH


def test_parse_forms():
    assert parse_scalar("3/4") == Fraction(3, 4)
    assert parse_scalar("7") == Fraction(7)
    assert parse_scalar("0.5") == Fraction(1, 2)
    assert parse_scalar("1e-9") == Fraction(1, 10**9)
    assert parse_scalar("-2/3") == Fraction(-2, 3)


@pytest.mark.parametrize("bad", ["", "3/0", "x", "1/2/3"])
def test_parse_rejects(bad):
    with pytest.raises(ValueError):
        parse_scalar(bad)


def test_parse_bounds_the_exponent():
    assert parse_scalar(f"1e-{MAX_SCALAR_EXPONENT}") == Fraction(1, 10**MAX_SCALAR_EXPONENT)
    assert parse_scalar("25e+0000000001") == Fraction(250)
    too_large = ["1e1001", "2.5E-1001", "1e+00001001", "1e999999999", "1e" + "9" * 5000]
    for text in too_large:
        with pytest.raises(ValueError, match="exponent beyond 1000 in magnitude"):
            parse_scalar(text)


def test_parse_bounds_the_length(monkeypatch):
    assert parse_scalar("0" * (MAX_SCALAR_LENGTH - 1) + "7") == 7

    def never_built(*args):
        raise AssertionError("an over-long scalar reached Fraction")

    monkeypatch.setattr(ndcheck.rational, "Fraction", never_built)
    for text in ["0" * MAX_SCALAR_LENGTH + "7", "1" * 5000, "1/" + "3" * 5000]:
        with pytest.raises(ValueError) as caught:
            parse_scalar(text)
        assert str(caught.value) == f"invalid scalar: {len(text)} characters, over 1000"


@given(st.fractions())
def test_format_parse_round_trip(x):
    assert parse_scalar(format_scalar(x)) == x


def test_exact_sqrt():
    assert exact_sqrt(Fraction(25)) == 5
    assert exact_sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert exact_sqrt(Fraction(0)) == 0
    with pytest.raises(IrrationalDistance):
        exact_sqrt(Fraction(2))
    assert is_rational_square(Fraction(49, 16))
    assert not is_rational_square(Fraction(3))


@given(st.fractions(min_value=0, max_value=1000))
def test_exact_sqrt_squares(x):
    assert exact_sqrt(x * x) == x


def test_numeric_contexts():
    assert EXACT.eq(Fraction(1, 3), Fraction(1, 3))
    assert not EXACT.eq(Fraction(1, 3), Fraction(1, 3) + Fraction(1, 10**12))
    loose = approx_num(Fraction(1, 1000))
    assert loose.eq(Fraction(1, 3), Fraction(1, 3) + Fraction(1, 10**4))
    assert not loose.eq(Fraction(1, 3), Fraction(1, 3) + Fraction(1, 100))
    assert loose.le(Fraction(1) + Fraction(1, 10**4), Fraction(1))
    assert not loose.le(Fraction(1) + Fraction(1, 100), Fraction(1))
    with pytest.raises(ValueError):
        approx_num(Fraction(-1))
