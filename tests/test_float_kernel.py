"""The fixed-precision recurrences on integer significands, against their
Fraction forms.

The oracles below are the Fraction implementations the integer kernel
replaced: every operand and result is an exact Fraction rounded by a
Fraction round_float. Nothing in them calls softfloat.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from btseq.recurrences import bernoulli_float_unstable, scaled_bernoulli_stable
from btseq.softfloat import add, div, mul, round_ratio, to_fraction

PRECISIONS = [24, 30, 53, 56, 57, 64, 80, 100]
SIZES = [0, 1, 2, 5, 40, 60]


def oracle_round_float(value, precision):
    """The Fraction nearest value with a precision-bit significand, ties to
    even, computed on the Fraction itself."""
    value = Fraction(value)
    num, den = abs(value.numerator), value.denominator
    shift = num.bit_length() - den.bit_length() - precision
    if shift < 0:
        num <<= -shift
    else:
        den <<= shift
    if num >= den << precision:
        den <<= 1
        shift += 1
    q, r = divmod(num, den)
    if 2 * r > den or (2 * r == den and q & 1):
        q += 1
    rounded = Fraction(q << shift) if shift >= 0 else Fraction(q, 1 << -shift)
    return -rounded if value < 0 else rounded


def oracle_unstable(n, precision):
    rnd = partial(oracle_round_float, precision=precision)
    values = [Fraction(1), Fraction(-1, 2)]
    for k in range(2, n + 1):
        if k % 2:
            values.append(Fraction(0))
            continue
        size = rnd(k + 1)
        acc = rnd(values[0] + rnd(values[1] * size))
        for j in range(2, k, 2):
            acc = rnd(acc + rnd(values[j] * rnd(math.comb(k + 1, j))))
        values.append(-rnd(acc / size))
    return values


def oracle_stable(n, precision):
    rnd = partial(oracle_round_float, precision=precision)
    divisors = [rnd(math.factorial(2 * d + 1) * 4**d) for d in range(n + 1)]
    values = []
    for k in range(n + 1):
        acc = rnd(Fraction(1, math.factorial(2 * k) * 4**k))
        for j in range(k):
            acc = rnd(acc - rnd(values[j] / divisors[k - j]))
        values.append(acc)
    return values


@pytest.mark.parametrize("precision", PRECISIONS)
@pytest.mark.parametrize("n", SIZES)
def test_unstable_matches_its_fraction_form(n, precision):
    if n < 1:
        with pytest.raises(ValueError):
            bernoulli_float_unstable(n, precision)
        return
    assert bernoulli_float_unstable(n, precision) == oracle_unstable(n, precision)


@pytest.mark.parametrize("precision", PRECISIONS)
@pytest.mark.parametrize("n", SIZES)
def test_stable_matches_its_fraction_form(n, precision):
    assert scaled_bernoulli_stable(n, precision) == oracle_stable(n, precision)


def rationals(bits=200):
    return st.tuples(
        st.integers(-(2**bits), 2**bits), st.integers(1, 2**bits), st.integers(-80, 80)
    )


def floats(precision_bits=64):
    """Integer pairs (q, e) with |q| < 2**precision_bits."""
    bound = 2**precision_bits - 1
    return st.tuples(st.integers(-bound, bound), st.integers(-120, 120))


class TestIntegerCore:
    @given(rationals(), st.integers(1, 100))
    def test_round_ratio_matches_the_oracle(self, ratio, precision):
        num, den, exp = ratio
        exact = Fraction(num, den) * Fraction(2) ** exp
        q, e = round_ratio(num, den, precision, exp)
        # a carry out of the top bit leaves q = +-2**precision
        assert abs(q) <= 1 << precision or (q, e) == (num, exp)
        assert to_fraction((q, e)) == oracle_round_float(exact, precision)

    @given(st.integers(-(2**12), 2**12), st.integers(1, 8), st.integers(1, 6))
    def test_ties_go_to_even_at_narrow_widths(self, num, den, precision):
        assert to_fraction(round_ratio(num, den, precision)) == oracle_round_float(
            Fraction(num, den), precision
        )

    @given(floats(), floats(), st.integers(2, 100))
    def test_operations_round_their_exact_results(self, x, y, precision):
        a, b = to_fraction(x), to_fraction(y)
        assert to_fraction(add(x, y, precision)) == oracle_round_float(a + b, precision)
        assert to_fraction(mul(x, y, precision)) == oracle_round_float(a * b, precision)
        if y[0] > 0:
            assert to_fraction(div(x, y, precision)) == oracle_round_float(
                a / b, precision
            )
