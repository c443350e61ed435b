"""Tests for the exact integer helper operations."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from btseq import intops
from btseq.fastfixed import packed_tangent_params, read_blocks
from btseq.intops import (
    _DIV_CUTOFF_BITS,
    IntegrityError,
    _divmod,
    exact_div,
    round_nearest_div,
)


class TestRoundNearestDiv:
    def test_examples(self):
        # (quotient, distance |num - quotient * den|)
        assert round_nearest_div(7, 2) == (4, 1)      # ties round up
        assert round_nearest_div(5, 2) == (3, 1)
        assert round_nearest_div(4, 2) == (2, 0)
        assert round_nearest_div(0, 3) == (0, 0)
        assert round_nearest_div(2, 3) == (1, 1)
        assert round_nearest_div(1, 3) == (0, 1)

    @given(st.integers(0, 10**30), st.integers(1, 10**15))
    def test_nearest_property(self, num, den):
        q, d = round_nearest_div(num, den)
        assert q in (num // den, num // den + 1)
        assert abs(q * den - num) * 2 <= den
        assert d == abs(num - q * den)
        assert 2 * d <= den
        # the tie goes away from zero
        if abs(q * den - num) * 2 == den:
            assert q == num // den + 1

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            round_nearest_div(1, 0)
        with pytest.raises(ValueError):
            round_nearest_div(-1, 2)


CUTOFF = _DIV_CUTOFF_BITS
# both sides of the builtin cutoff, odd and even lengths, and divisors that
# take the recursion one level (cutoff + 1, 2x cutoff) and three levels deep
DIVISOR_BITS = [
    CUTOFF - 1, CUTOFF, CUTOFF + 1,
    2 * CUTOFF - 1, 2 * CUTOFF, 2 * CUTOFF + 1,
    8 * CUTOFF, 8 * CUTOFF + 1,
]
NUMERATOR_KINDS = ["zero", "below", "multiple", "multiple - 1", "wide"]


class TestRecursiveDivmod:
    """_divmod must equal the builtin divmod at sizes where it recurses.

    Operands of thousands of bits are built from a drawn Random, because
    hypothesis cannot draw integers that wide directly.
    """

    @given(
        st.sampled_from(DIVISOR_BITS),
        st.sampled_from(NUMERATOR_KINDS),
        st.randoms(use_true_random=False),
    )
    def test_matches_builtin(self, bits, kind, rng):
        den = rng.getrandbits(bits) | (1 << (bits - 1))
        if kind == "zero":
            num = 0
        elif kind == "below":
            num = rng.randrange(den)
        elif kind == "wide":
            num = rng.getrandbits(rng.randint(bits, 4 * bits))
        else:
            num = (rng.getrandbits(rng.randint(1, 3 * bits)) | 1) * den
            if kind == "multiple - 1":
                num -= 1
        assert _divmod(num, den) == divmod(num, den)

    @given(st.sampled_from(DIVISOR_BITS), st.integers(0, 4 * 8 * CUTOFF))
    def test_all_ones_divisor(self, bits, k):
        # den = 2**m - 1 and num = den * 2**k - 1 make the top half of a
        # partial remainder equal the divisor's top half, and make the
        # quotient estimate too large, so the correction loop runs
        den = (1 << bits) - 1
        num = den * (1 << k) - 1
        assert _divmod(num, den) == divmod(num, den)

    @given(st.sampled_from(DIVISOR_BITS), st.randoms(use_true_random=False))
    def test_large_tie_rounds_up(self, bits, rng):
        den = (rng.getrandbits(bits) | (1 << (bits - 1))) & ~1
        q = rng.getrandbits(bits)
        assert round_nearest_div(q * den + den // 2, den) == (q + 1, den // 2)
        assert round_nearest_div(q * den + den // 2 - 1, den) == (q, den // 2 - 1)

    @given(st.sampled_from(DIVISOR_BITS), st.randoms(use_true_random=False))
    def test_large_exact_div(self, bits, rng):
        den = rng.getrandbits(bits) | (1 << (bits - 1))
        q = rng.getrandbits(2 * bits)
        assert exact_div(q * den, den) == q
        with pytest.raises(IntegrityError):
            exact_div(q * den + 1, den)

    def test_round_nearest_div_rejects_bad_remainder(self, monkeypatch):
        def off_by_one(num, den):
            q, r = divmod(num, den)
            return q - 1, r + den

        monkeypatch.setattr(intops, "_divmod", off_by_one)
        with pytest.raises(IntegrityError):
            round_nearest_div(7, 2)


class TestExactDiv:
    def test_examples(self):
        assert exact_div(84, 7) == 12
        assert exact_div(0, 5) == 0

    @given(st.integers(-10**20, 10**20), st.integers(1, 10**10))
    def test_inverse_of_multiplication(self, q, den):
        assert exact_div(q * den, den) == q

    def test_remainder_raises(self):
        with pytest.raises(IntegrityError):
            exact_div(85, 7)

    def test_rejects_nonpositive_divisor(self):
        for den in 0, -7:
            with pytest.raises(ValueError):
                exact_div(84, den)

    @pytest.fixture
    def quotient_one_high(self, monkeypatch):
        """Make _divmod return (q + 1, 0) wherever the true pair is (q, 0):
        a zero remainder, so only the audit of q can see it. Called after
        any quotient the test needs is built."""

        def patch():
            original = intops._divmod

            def one_high(num, den):
                q, r = original(num, den)
                return (q + 1, r) if r == 0 else (q, r)

            monkeypatch.setattr(intops, "_divmod", one_high)

        return patch

    def test_wrong_quotient_with_zero_remainder_raises(self, quotient_one_high):
        quotient_one_high()
        with pytest.raises(IntegrityError, match=r"mod 2\*\*61 - 1"):
            exact_div(84, 7)

    def test_read_blocks_rejects_every_block_one_high(self, quotient_one_high):
        quotient = packed_tangent_params(6)  # a correct quotient
        quotient_one_high()
        with pytest.raises(IntegrityError, match=r"mod 2\*\*61 - 1"):
            read_blocks(quotient)
