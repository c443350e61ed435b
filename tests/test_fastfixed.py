"""Tests for the packed fixed-point tangent and secant engines."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

import btseq.fastfixed as fastfixed
from btseq.checks import full_verification
from btseq.fastfixed import (
    _scaled_series,
    fast_secant_numbers,
    fast_tangent_numbers,
    least_half_block_bits,
    packed_secant_params,
    packed_tangent_params,
    read_blocks,
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

    def test_rejects_small_n(self):
        with pytest.raises(ValueError, match="^n must be >= 1$"):
            packed_tangent_params(0)
        with pytest.raises(ValueError, match="^n must be >= 0$"):
            packed_secant_params(-1)


class TestBelowTwo:
    """Below n = 2 the packed engines take n = 2's width, p = 2, and the
    same one division and reader as at every larger n."""

    @pytest.mark.parametrize(
        "build,n,record,values",
        [
            # (num, den, packed, distance): 2/2 = 1 and 1/1 = 1 exactly, and
            # 4 * 2**8 = 33 * 31 + 1 puts S_1 = 1 in the one 4-bit block
            (packed_tangent_params, 1, (2, 2, 1, 0), [1]),
            (packed_secant_params, 0, (1, 1, 1, 0), [1]),
            (packed_secant_params, 1, (4, 31, 33, 1), [1, 1]),
        ],
    )
    def test_records_by_hand(self, build, n, record, values):
        q = build(n)
        assert q.half_block_bits == 2
        assert (q.num, q.den, q.packed, q.distance) == record
        assert read_blocks(q) == values

    @pytest.mark.parametrize(
        "engine,n,values",
        [
            (fast_tangent_numbers, 1, [1]),
            (fast_secant_numbers, 0, [1]),
            (fast_secant_numbers, 1, [1, 1]),
        ],
    )
    def test_engine_divides_once(self, monkeypatch, engine, n, values):
        divisions = []
        original = fastfixed.round_nearest_div

        def counted(num, den):
            divisions.append((num, den))
            return original(num, den)

        monkeypatch.setattr(fastfixed, "round_nearest_div", counted)
        assert engine(n) == values
        assert len(divisions) == 1


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
    def test_wider_blocks_change_nothing(self, widen_blocks, n):
        reference = fast_tangent_numbers(n)
        for wider in 1, 7:
            widen_blocks(wider)
            p = packed_tangent_params(n).half_block_bits
            assert p == least_half_block_bits(n) + wider
            assert fast_tangent_numbers(n) == reference

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
    def test_wider_blocks_change_nothing(self, widen_blocks, n):
        reference = fast_secant_numbers(n)
        widen_blocks(1)
        assert packed_secant_params(n).half_block_bits == least_half_block_bits(n) + 1
        assert fast_secant_numbers(n) == reference

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


class TestRoundingBudgetGuard:
    """fast_tangent_numbers refuses a quotient whose exact distance reaches
    ROUNDING_BUDGET, at every block width, and accepts one just below it."""

    @pytest.fixture
    def distance(self, monkeypatch):
        """distance(f) makes each packed tangent record's distance f(den)."""
        original = fastfixed.packed_tangent_params

        def apply(f):
            def params(n):
                q = original(n)
                return q._replace(distance=f(q.den))

            monkeypatch.setattr(fastfixed, "packed_tangent_params", params)

        return apply

    @pytest.mark.parametrize("n", [2, 5, 40])
    @pytest.mark.parametrize("wider", [0, 1, 7])
    def test_refuses_at_the_budget(self, distance, widen_blocks, n, wider):
        widen_blocks(wider)
        top, bottom = fastfixed.ROUNDING_BUDGET.as_integer_ratio()
        distance(lambda den: (top * den - 1) // bottom)  # just below
        assert fast_tangent_numbers(n) == tangent_numbers(n)[0]
        distance(lambda den: -(-top * den // bottom))  # the least at or above
        with pytest.raises(IntegrityError, match=f"over budget at n = {n}$"):
            fast_tangent_numbers(n)

    def test_budget_is_the_documented_one(self):
        assert fastfixed.ROUNDING_BUDGET == Fraction(12, 100)


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


class TestLowestBlock:
    """The lowest block's factorial ratio is 1, so the reader cannot see an
    error there: it reads back as T_n or S_n off by the same amount, and
    the cross-check against the in-place engine must catch it."""

    @pytest.mark.parametrize(
        "params,exact,check,witness",
        [
            (
                "packed_tangent_params",
                tangent_numbers,
                "tangent: in-place vs packed-division",
                "position 5: a 19-bit value != a 19-bit value",
            ),
            (
                "packed_secant_params",
                secant_numbers,
                "secant: in-place vs packed-division",
                "position 6: a 22-bit value != a 22-bit value",
            ),
        ],
    )
    def test_off_by_one_is_read_and_fails_the_cross_check(
        self, monkeypatch, params, exact, check, witness
    ):
        original = getattr(fastfixed, params)
        for n in 2, 5, 30:
            q = original(n)
            for off in 1, -1:
                values = exact(n)[0]
                values[-1] += off
                assert fastfixed.read_blocks(q._replace(packed=q.packed + off)) == values

        def one_high(n):
            q = original(n)
            return q._replace(packed=q.packed + 1)

        monkeypatch.setattr(fastfixed, params, one_high)
        report = full_verification(6)
        assert [(c.name, c.witness) for c in report.checks if not c.passed] == [
            (check, witness)
        ]
