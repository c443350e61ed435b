"""Tests for truncated-series reciprocals and the series Bernoulli route."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from btseq.intops import IntegrityError
from btseq.recurrences import (
    akiyama_tanigawa_bernoulli,
    bernoulli_from_tangent,
    tangent_numbers,
)
from btseq.series import (
    _convolve,
    bernoulli_via_series,
    check_reciprocal,
    series_reciprocal,
)


def schoolbook(a, b, order: int) -> list[int]:
    """Independent oracle: the truncated product by the double loop."""
    out = [0] * order
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            if i + j < order:
                out[i + j] += ai * bj
    return out


def back_substitution_reciprocal(a, order: int) -> list[Fraction]:
    """Independent oracle: solve the triangular system one coefficient at a time."""
    b = [Fraction(1) / a[0]]
    for m in range(1, order):
        acc = Fraction(0)
        for j in range(1, m + 1):
            if j < len(a):
                acc += a[j] * b[m - j]
        b.append(-acc / a[0])
    return b


def scaled_oracle(a, order: int) -> list[int]:
    """a[0]**order / a modulo z**order: every denominator divides a[0]**order."""
    scale = a[0] ** order
    scaled = [scale * q for q in back_substitution_reciprocal(a, order)]
    assert all(q.denominator == 1 for q in scaled)
    return [int(q) for q in scaled]


signed = st.integers(-(2**200), 2**200)


def series(min_order=1, max_order=12):
    small = st.integers(min_value=-5, max_value=5)
    nonzero = small.filter(lambda q: q != 0)
    return st.builds(
        lambda head, tail: (head, *tail),
        nonzero,
        st.lists(small, min_size=min_order - 1, max_size=max_order - 1),
    )


class TestConvolve:
    @given(st.lists(signed, max_size=20), st.lists(signed, max_size=20), st.integers(1, 45))
    def test_matches_schoolbook(self, a, b, order):
        assert _convolve(a, b, order) == schoolbook(a, b, order)

    @given(
        st.integers(1, 10**60),
        st.integers(1, 16),
        st.sampled_from([1, -1]),
        st.sampled_from([1, -1]),
        st.booleans(),
    )
    def test_coefficients_at_the_slot_bound(self, top, length, sign_a, sign_b, alternate):
        # every term of the middle coefficient has one sign, so it reaches
        # max|a| * max|b| * min(len) exactly
        a = [sign_a * top * (-1) ** (j * alternate) for j in range(length)]
        b = [sign_b * top * (-1) ** (j * alternate) for j in range(length)]
        order = 2 * length - 1
        got = _convolve(a, b, order)
        assert abs(got[length - 1]) == top * top * length
        assert got == schoolbook(a, b, order)

    @given(st.lists(signed, min_size=1, max_size=8), st.integers(1, 2**200))
    def test_negative_top_coefficient(self, a, top):
        # the packed value of b, and of the product, is negative
        b = a + [-top]
        order = len(a) + len(b) - 1
        got = _convolve(a, b, order)
        assert got == schoolbook(a, b, order)

    def test_negative_packed_product(self):
        assert _convolve([3, -7], [2, 5], 3) == [6, 1, -35]
        assert _convolve([-1], [-1], 1) == [1]

    @given(signed, signed, st.integers(1, 5))
    def test_one_coefficient_inputs(self, x, y, order):
        assert _convolve([x], [y], order) == [x * y] + [0] * (order - 1)

    @given(st.lists(signed, min_size=1, max_size=6), st.lists(signed, min_size=1, max_size=6))
    def test_order_past_the_product_length(self, a, b):
        order = len(a) + len(b) + 5
        got = _convolve(a, b, order)
        assert got == schoolbook(a, b, order)
        assert got[len(a) + len(b) - 1 :] == [0] * 6

    def test_empty_and_zero_inputs(self):
        assert _convolve([], [1, 2], 3) == [0, 0, 0]
        assert _convolve([0, 0], [0], 2) == [0, 0]

    def test_wide_slots(self):
        # slots wider than the 4300-digit int-to-str limit
        a = [10**5000 + 1, -(10**4999)]
        b = [-(10**4500), 3]
        assert _convolve(a, b, 3) == schoolbook(a, b, 3)


class TestSeriesReciprocal:
    def test_constant_series(self):
        out = series_reciprocal((2,), 1, 2)
        assert out == (1,)
        assert len(out) == 1

    def test_geometric_series(self):
        out = series_reciprocal((1, -1, 0, 0), 4, 1)
        assert out == (1,) * 4

    def test_exp_quotient_prefix(self):
        # 6 (exp(z) - 1)/z = 6 + 3z + z**2; its reciprocal times 72 is
        # 72 (1/6) (1 - z/2 + z**2/12)
        out = series_reciprocal((6, 3, 1), 3, 72)
        assert out == (12, -6, 1)

    def test_order_may_exceed_input_length(self):
        out = series_reciprocal((1, -1), 6, 1)
        assert out == (1,) * 6

    @pytest.mark.parametrize("order", [1, 2, 3, 7, 16, 33, 64])
    def test_matches_back_substitution(self, order):
        a = (2,) + tuple((-1) ** j * (j + 2) for j in range(1, order))
        got = series_reciprocal(a, order, a[0] ** order)
        assert list(got) == scaled_oracle(a, order)

    @given(series(), st.integers(1, 16))
    def test_random_series_match_back_substitution(self, a, order):
        got = series_reciprocal(a, order, a[0] ** order)
        assert list(got) == scaled_oracle(a, order)

    @pytest.mark.parametrize("order", [2, 5, 16])
    def test_wrong_scale_raises(self, order):
        a = (3, 1, 4, 1, 5)
        with pytest.raises(IntegrityError):
            series_reciprocal(a, order, 3 ** (order - 1))

    def test_rejects_zero_constant_term(self):
        with pytest.raises(ValueError):
            series_reciprocal((0, 1), 2, 1)

    def test_rejects_empty_series(self):
        with pytest.raises(ValueError):
            series_reciprocal((), 2, 1)

    def test_rejects_nonpositive_order(self):
        with pytest.raises(ValueError):
            series_reciprocal((1,), 0, 1)

    def test_rejects_zero_scale(self):
        with pytest.raises(ValueError):
            series_reciprocal((1,), 1, 0)


class TestCheckReciprocal:
    def test_accepts_true_reciprocal(self):
        check_reciprocal((1, 1), (1, -1, 1), 1)
        check_reciprocal((2, 2), (3, -3, 3), 6)

    def test_rejects_corrupted_coefficient(self):
        with pytest.raises(IntegrityError):
            check_reciprocal((1, 1), (1, -1, 2), 1)

    @given(series(min_order=2), st.data())
    def test_any_corrupted_coefficient_fails(self, a, data):
        order = len(a)
        b = list(series_reciprocal(a, order, a[0] ** order))
        j = data.draw(st.integers(0, order - 1))
        b[j] += data.draw(st.integers(1, 10**30) | st.integers(-(10**30), -1))
        with pytest.raises(IntegrityError):
            check_reciprocal(a, b, a[0] ** order)

    def test_rejects_wrong_constant(self):
        with pytest.raises(IntegrityError):
            check_reciprocal((1,), (2,), 1)

    def test_rejects_empty_reciprocal(self):
        with pytest.raises(ValueError):
            check_reciprocal((1,), (), 1)


class TestBernoulliViaSeries:
    def test_small_cases(self):
        assert bernoulli_via_series(0) == [Fraction(1)]
        assert bernoulli_via_series(1) == [Fraction(1), Fraction(-1, 2)]
        assert bernoulli_via_series(2) == [
            Fraction(1),
            Fraction(-1, 2),
            Fraction(1, 6),
        ]

    def test_matches_triangle_route(self):
        assert bernoulli_via_series(25) == akiyama_tanigawa_bernoulli(25)

    @pytest.mark.parametrize("n", [3, 4, 17, 600])
    def test_matches_tangent_route(self, n):
        tangent, _ = tangent_numbers(n // 2 + 1)
        assert bernoulli_via_series(n) == bernoulli_from_tangent(tangent)[: n + 1]

    def test_odd_entries_zero(self):
        values = bernoulli_via_series(21)
        assert all(values[m] == 0 for m in range(3, 22, 2))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            bernoulli_via_series(-1)
