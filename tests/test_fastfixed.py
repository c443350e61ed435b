"""Tests for the packed fixed-point tangent and secant engines."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

import btseq.fastfixed as fastfixed
from btseq.fastfixed import (
    _scaled_series,
    fast_secant_numbers,
    fast_tangent_numbers,
    least_half_block_bits,
    packed_secant_params,
    packed_tangent_params,
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
        assert params.num == 2280
        assert params.den == 372
        assert (params.top, params.shift) == (3, 4)  # top block 3!, shift (2n-2)p

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
        assert 0 < params.den <= scale
        assert Fraction(params.den, scale) > Fraction(9, 10)

    def test_explicit_block_width_override(self):
        default = packed_tangent_params(4)
        wider = packed_tangent_params(4, default.half_block_bits + 3)
        assert wider.half_block_bits == default.half_block_bits + 3
        assert wider.num != default.num

    def test_rejects_small_n(self):
        for build in packed_tangent_params, packed_secant_params:
            with pytest.raises(ValueError):
                build(1)


class TestBadWidths:
    """A width below least_half_block_bits(n) is outside the packing proof:
    both families refuse it as a bad argument before dividing, not as an
    IntegrityError of the reader or a negative shift count."""

    @pytest.fixture(autouse=True)
    def no_division(self, monkeypatch):
        def divided(num, den):
            raise AssertionError("divided at a refused width")

        monkeypatch.setattr(fastfixed, "round_nearest_div", divided)

    @pytest.mark.parametrize("p", [-1, 0, 3])
    @pytest.mark.parametrize(
        "engine",
        [
            fast_tangent_numbers,
            fast_secant_numbers,
            packed_tangent_params,
            packed_secant_params,
        ],
    )
    def test_narrow_width_is_a_usage_error(self, engine, p):
        assert least_half_block_bits(5) == 12
        with pytest.raises(ValueError, match="half_block_bits must be at least 12"):
            engine(5, p)


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
        q = packed_secant_params(2)
        assert (q.top, q.num, q.den, q.shift) == (4, 576, 5953, 16)
        assert q.packed == 6341

    @pytest.mark.parametrize("n", [2, 3, 5, 12, 24])
    def test_block_sizes(self, n):
        p = least_half_block_bits(n)
        packed = packed_secant_params(n).packed
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
    q = packed_tangent_params(n)
    return Fraction(q.distance, q.den)


def multiplied_back(q):
    """The oracle for q.distance: den |ratio - packed| = |num 2**shift - packed den|,
    by one multiply of the quotient by its divisor."""
    return abs((q.num << q.shift) - q.packed * q.den)


class TestQuotientAudit:
    def test_n2_exact_distance(self):
        # 36480/372 = 98 + 24/372, so the rounded quotient sits 2/31 away
        assert audited_distance(2) == Fraction(2, 31)

    @pytest.mark.parametrize("n", list(range(2, 41)))
    def test_distance_under_budget(self, n):
        assert audited_distance(n) < Fraction(12, 100)

    # every n to 150, cross_engine's largest n, and a recursive division
    @pytest.mark.parametrize("n", [*range(2, 151), 188, 300])
    def test_integer_distance_matches_fraction(self, n):
        for q in packed_tangent_params(n), packed_secant_params(n):
            assert q.distance == multiplied_back(q)

    def test_secant_n2_exact_distance(self):
        # 576 * 2**16 = 6341 * 5953 + 763: the 0.1281 that the tangent's
        # 0.12 budget would not cover
        q = packed_secant_params(2)
        assert Fraction(q.distance, q.den) == Fraction(763, 5953)
        assert 0.1281 < q.distance / q.den < 0.1282

    def test_secant_distance_under_a_quarter(self):
        for n in range(2, 151):
            q = packed_secant_params(n)
            assert 4 * q.distance < q.den, n


class TestRecursiveDivisionSize:
    """At n = 300 the big division is 2.96 Mbit by 1.48 Mbit, so it runs
    the recursive divmod several levels deep."""

    def test_tangent_matches_row_engine(self):
        assert fast_tangent_numbers(300) == tangent_numbers(300)[0]

    def test_secant_matches_row_engine(self):
        assert fast_secant_numbers(300) == secant_numbers(300)[0]

    def test_distance_under_budget(self):
        q = packed_tangent_params(300)
        assert 100 * q.distance < 12 * q.den


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
