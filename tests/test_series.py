"""Tests for truncated-series reciprocals and the series Bernoulli route."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from btseq.intops import IntegrityError
from btseq.recurrences import akiyama_tanigawa_bernoulli
from btseq.series import (
    bernoulli_via_series,
    check_reciprocal,
    series_reciprocal,
)


def back_substitution_reciprocal(a: tuple[Fraction, ...], order: int) -> list[Fraction]:
    """Independent oracle: solve the triangular system one coefficient at a time."""
    b = [Fraction(1) / a[0]]
    for m in range(1, order):
        acc = Fraction(0)
        for j in range(1, m + 1):
            if j < len(a):
                acc += a[j] * b[m - j]
        b.append(-acc / a[0])
    return b


def series(min_order=1, max_order=12):
    small = st.fractions(min_value=-5, max_value=5, max_denominator=6)
    nonzero = small.filter(lambda q: q != 0)
    return st.builds(
        lambda head, tail: (head, *tail),
        nonzero,
        st.lists(small, min_size=min_order - 1, max_size=max_order - 1),
    )


class TestSeriesReciprocal:
    def test_constant_series(self):
        out = series_reciprocal((Fraction(2),), 1)
        assert out == (Fraction(1, 2),)
        assert len(out) == 1

    def test_geometric_series(self):
        a = (Fraction(1), Fraction(-1), Fraction(0), Fraction(0))
        out = series_reciprocal(a, 4)
        assert out == (Fraction(1),) * 4

    def test_exp_quotient_prefix(self):
        a = (Fraction(1), Fraction(1, 2), Fraction(1, 6))
        out = series_reciprocal(a, 3)
        assert out == (Fraction(1), Fraction(-1, 2), Fraction(1, 12))

    def test_order_may_exceed_input_length(self):
        a = (Fraction(1), Fraction(-1))
        out = series_reciprocal(a, 6)
        assert out == (Fraction(1),) * 6

    @pytest.mark.parametrize("order", [1, 2, 3, 7, 16, 33, 64])
    def test_matches_back_substitution(self, order):
        coeffs = tuple(Fraction((-1) ** j, j + 2) for j in range(order))
        a = (Fraction(1, 2),) + coeffs[1:]
        got = series_reciprocal(a, order)
        assert list(got) == back_substitution_reciprocal(a, order)

    @given(series(), st.integers(1, 16))
    def test_random_series_match_back_substitution(self, a, order):
        got = series_reciprocal(a, order)
        assert list(got) == back_substitution_reciprocal(a, order)

    def test_rejects_zero_constant_term(self):
        with pytest.raises(ValueError):
            series_reciprocal((Fraction(0), Fraction(1)), 2)

    def test_rejects_empty_series(self):
        with pytest.raises(ValueError):
            series_reciprocal((), 2)

    def test_rejects_nonpositive_order(self):
        with pytest.raises(ValueError):
            series_reciprocal((Fraction(1),), 0)


class TestCheckReciprocal:
    def test_accepts_true_reciprocal(self):
        a = (Fraction(1), Fraction(1))
        check_reciprocal(a, (Fraction(1), Fraction(-1), Fraction(1)))

    def test_rejects_corrupted_coefficient(self):
        a = (Fraction(1), Fraction(1))
        with pytest.raises(IntegrityError):
            check_reciprocal(a, (Fraction(1), Fraction(-1), Fraction(2)))

    def test_rejects_wrong_constant(self):
        a = (Fraction(1),)
        with pytest.raises(IntegrityError):
            check_reciprocal(a, (Fraction(2),))

    def test_rejects_empty_reciprocal(self):
        with pytest.raises(ValueError):
            check_reciprocal((Fraction(1),), ())


class TestBernoulliViaSeries:
    def test_small_cases(self):
        assert bernoulli_via_series(0) == [Fraction(1)]
        assert bernoulli_via_series(2) == [
            Fraction(1),
            Fraction(-1, 2),
            Fraction(1, 6),
        ]

    def test_matches_triangle_route(self):
        assert bernoulli_via_series(25) == akiyama_tanigawa_bernoulli(25)

    def test_odd_entries_zero(self):
        values = bernoulli_via_series(21)
        assert all(values[m] == 0 for m in range(3, 22, 2))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            bernoulli_via_series(-1)
