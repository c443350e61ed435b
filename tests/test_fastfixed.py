"""Tests for the packed fixed-point tangent and secant engines."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

from btseq.fastfixed import (
    _scaled_series,
    fast_secant_numbers,
    fast_tangent_numbers,
    least_half_block_bits,
    packed_secant_value,
    packed_tangent_params,
    quotient_rounding_distance,
)
from btseq.intops import IntegrityError
from btseq.recurrences import secant_numbers, tangent_numbers


class TestBlockWidth:
    @pytest.mark.parametrize("n,expected", [(1, 0), (2, 2), (3, 5), (10, 34)])
    def test_values(self, n, expected):
        assert least_half_block_bits(n) == expected

    @pytest.mark.parametrize("n", [2, 3, 7, 20, 65])
    def test_least_property(self, n):
        p = least_half_block_bits(n)
        assert 2**p >= n**n
        assert 2 ** (p - 1) < n**n

    def test_rejects_n_zero(self):
        with pytest.raises(ValueError):
            least_half_block_bits(0)


class TestScaledSeries:
    def test_n2_by_hand(self):
        # p = 2; sin: 3!*(4!/1! * 2**(2p) - 4!/3!) = 6*(24*16 - 4) = 2280
        # cos: 4!/0! * 2**(2p) - 4!/2! = 384 - 12 = 372
        params = packed_tangent_params(2)
        assert params.half_block_bits == 2
        assert params.sin_scaled == 2280
        assert params.cos_scaled == 372

    def test_n2_packed_by_hand(self):
        # V = round(2280 * 2**(2p) / 372) = round(36480/372) = round(98.06) = 98
        params = packed_tangent_params(2)
        assert params.packed == 98

    @pytest.mark.parametrize("n", [2, 3, 5, 12, 30])
    def test_cos_tracks_exact_cosine(self, n):
        # the scaled cos is cos(2**-p) truncated to n terms, scaled up by
        # (2n)! * 2**((2n-2)p); the true value is just under the scale
        params = packed_tangent_params(n)
        scale = math.factorial(2 * n) * 2 ** ((2 * n - 2) * params.half_block_bits)
        assert 0 < params.cos_scaled <= scale
        assert Fraction(params.cos_scaled, scale) > Fraction(9, 10)

    def test_explicit_block_width_override(self):
        default = packed_tangent_params(4)
        wider = packed_tangent_params(4, default.half_block_bits + 3)
        assert wider.half_block_bits == default.half_block_bits + 3
        assert wider.sin_scaled != default.sin_scaled

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            packed_tangent_params(1)


def scaled_series_by_one_shift_per_term(n, p, terms, first):
    """The quadratic reference build: shift the running total once per term."""
    total = 0
    ratio = math.factorial(2 * n)
    for k in range(terms):
        total = (total << (2 * p)) + (-ratio if k % 2 else ratio)
        ratio //= (2 * k + first + 1) * (2 * k + first + 2)
    return total


@pytest.mark.parametrize("n", range(2, 61))
def test_scaled_series_matches_the_shift_per_term_build(n):
    p = least_half_block_bits(n)
    for first in (0, 1):
        for terms in (n, n + 1):
            expected = scaled_series_by_one_shift_per_term(n, p, terms, first)
            assert _scaled_series(n, p, terms, first) == expected, (first, terms)


class TestFastTangent:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 8, 16, 33, 64])
    def test_matches_row_engine(self, n):
        assert fast_tangent_numbers(n) == tangent_numbers(n)[0]

    @pytest.mark.parametrize("n", [2, 5, 17, 32])
    def test_wider_blocks_change_nothing(self, n):
        p = least_half_block_bits(n)
        reference = fast_tangent_numbers(n)
        assert fast_tangent_numbers(n, p + 1) == reference
        assert fast_tangent_numbers(n, p + 7) == reference

    def test_rejects_n_zero(self):
        with pytest.raises(ValueError):
            fast_tangent_numbers(0)


class TestFastSecant:
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 8, 16, 33, 48])
    def test_matches_row_engine(self, n):
        assert fast_secant_numbers(n) == secant_numbers(n)[0]

    def test_n2_packed_by_hand(self):
        # cos with the extra term: 24*2**(4p) - 12*2**(2p) + 1 = 6144-192+1
        # = 5953; V = round(24*24*2**(8p)/5953) = round(37748736/5953) = 6341
        assert _scaled_series(2, 2, 3, 0) == 5953
        assert packed_secant_value(2) == 6341

    @pytest.mark.parametrize("n", [2, 3, 5, 12, 24])
    def test_block_sizes(self, n):
        p = least_half_block_bits(n)
        packed = packed_secant_value(n)
        f2n = math.factorial(2 * n)
        # the top block holds exactly (2n)!, which may exceed 2p bits
        assert packed >> (2 * n * p) == f2n
        # every other scaled secant fits its 2p-bit block with room to spare
        low = packed & ((1 << (2 * n * p)) - 1)
        secants = secant_numbers(n)[0]
        for k in range(1, n + 1):
            block = (low >> (2 * (n - k) * p)) & ((1 << (2 * p)) - 1)
            assert block == f2n // math.factorial(2 * k) * secants[k]
            assert block <= f2n // 2 < 2 ** (2 * p)

    @pytest.mark.parametrize("n", [2, 6, 20])
    def test_wider_blocks_change_nothing(self, n):
        p = least_half_block_bits(n)
        reference = fast_secant_numbers(n)
        assert fast_secant_numbers(n, p + 1) == reference

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            fast_secant_numbers(-1)


def audited_distance(n):
    return Fraction(*quotient_rounding_distance(packed_tangent_params(n)))


class TestQuotientAudit:
    def test_n2_exact_distance(self):
        # 36480/372 = 98 + 24/372, so the rounded quotient sits 2/31 away
        assert audited_distance(2) == Fraction(2, 31)

    @pytest.mark.parametrize("n", list(range(2, 41)))
    def test_distance_under_budget(self, n):
        assert audited_distance(n) < Fraction(12, 100)

    @pytest.mark.parametrize("n", list(range(2, 41)))
    def test_integer_distance_matches_fraction(self, n):
        params = packed_tangent_params(n)
        shift = (2 * n - 2) * params.half_block_bits
        ratio = Fraction(params.sin_scaled << shift, params.cos_scaled)
        d, den = quotient_rounding_distance(params)
        assert den == params.cos_scaled
        assert Fraction(d, den) == abs(ratio - params.packed)


class TestRecursiveDivisionSize:
    """At n = 300 the big division is 2.96 Mbit by 1.48 Mbit, so it runs
    the recursive divmod several levels deep."""

    def test_tangent_matches_row_engine(self):
        assert fast_tangent_numbers(300) == tangent_numbers(300)[0]

    def test_secant_matches_row_engine(self):
        assert fast_secant_numbers(300) == secant_numbers(300)[0]

    def test_distance_under_budget(self):
        d, den = quotient_rounding_distance(packed_tangent_params(300))
        assert 100 * d < 12 * den


class TestTopBlockGuard:
    """The top block is known in advance, (2n-1)! or (2n)!, so a quotient
    that is wrong only there must raise rather than return 2 as T_1 or S_0."""

    def test_doubled_tangent_top_block_raises(self, double_top_block):
        double_top_block(6, 11, 6)
        with pytest.raises(IntegrityError):
            fast_tangent_numbers(6)

    def test_doubled_secant_top_block_raises(self, double_top_block):
        double_top_block(6, 12, 7)
        with pytest.raises(IntegrityError):
            fast_secant_numbers(6)
