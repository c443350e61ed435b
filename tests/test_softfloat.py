"""Tests for rounding to fixed-precision binary floating point."""

from __future__ import annotations

from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from btseq.softfloat import round_ratio, to_fraction


def round_float(value, precision: int) -> Fraction:
    """The rational value rounded to a precision-bit significand, ties to
    even, as an exact Fraction."""
    value = Fraction(value)
    return to_fraction(round_ratio(value.numerator, value.denominator, precision))


def fractions(max_num=10**12, max_den=10**12):
    return st.fractions(
        min_value=-max_num, max_value=max_num, max_denominator=max_den
    )


def significand(value: Fraction) -> int:
    """The odd part of a nonzero dyadic value's magnitude."""
    num, den = abs(value.numerator), value.denominator
    assert den & (den - 1) == 0, "not dyadic"
    return num >> ((num & -num).bit_length() - 1)


class TestRounding:
    def test_zero(self):
        z = round_float(0, 7)
        assert z == 0
        assert isinstance(z, Fraction)

    def test_exact_values_survive(self):
        x = round_float(Fraction(3, 4), 10)
        assert x == Fraction(3, 4)

    def test_half_even_ties_at_three_bits(self):
        # 3 significant bits: 9 = 0b1001 is halfway between 8 and 10; even wins
        assert round_float(9, 3) == 8
        assert round_float(11, 3) == 12
        assert round_float(Fraction(15, 4), 3) == 4

    def test_binade_carry(self):
        # rounding up out of the top of the significand lands on the next power
        assert round_float(Fraction(255, 128), 7) == 2

    @given(fractions(), st.integers(2, 80))
    def test_relative_error_bound(self, value, precision):
        x = round_float(value, precision)
        if value == 0:
            assert x == 0
        else:
            assert abs(x - value) / abs(value) <= Fraction(1, 2**precision)

    @given(fractions(), st.integers(2, 60))
    def test_significand_width(self, value, precision):
        x = round_float(value, precision)
        if value != 0:
            assert significand(x).bit_length() <= precision


class TestArithmetic:
    def test_operator_round_trip(self):
        a = round_float(Fraction(1, 3), 53)
        b = round_float(Fraction(1, 7), 53)
        assert round_float(a + b, 53) == 1 / 3 + 1 / 7
        assert round_float(a - b, 53) == 1 / 3 - 1 / 7
        assert round_float(a * b, 53) == (1 / 3) * (1 / 7)
        assert round_float(a / b, 53) == (1 / 3) / (1 / 7)

    def test_int_and_fraction_operands_coerce(self):
        # ints and Fractions round alike; the recurrences pass both
        assert round_float(2**30 + 1, 24) == 2**30
        assert round_float(Fraction(5, 8) * 4, 24) == Fraction(5, 2)
        assert round_float(Fraction(5, 8) + Fraction(3, 8), 24) == 1

    @given(fractions(10**6, 10**6), fractions(10**6, 10**6))
    def test_matches_float64(self, x, y):
        # at 53 bits every operation must agree with the platform double
        a = round_float(x, 53)
        b = round_float(y, 53)
        assert a == Fraction(float(x))
        assert round_float(a + b, 53) == float(x) + float(y)
        assert round_float(a - b, 53) == float(x) - float(y)
        assert round_float(a * b, 53) == float(x) * float(y)
        if y != 0:
            assert round_float(a / b, 53) == float(x) / float(y)

    @given(fractions(10**9, 10**9), fractions(10**9, 10**9), st.integers(4, 64))
    def test_single_rounding_per_op(self, x, y, precision):
        a = round_float(x, precision)
        b = round_float(y, precision)
        exact = a + b
        got = round_float(exact, precision)
        if exact == 0:
            assert got == 0
        else:
            assert abs(got - exact) / abs(exact) <= Fraction(1, 2**precision)
