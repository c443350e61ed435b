"""Tests for truncated-series reciprocals and the series Bernoulli route."""

from __future__ import annotations

import math
from contextlib import contextmanager
from decimal import (
    MAX_EMAX,
    MAX_PREC,
    MIN_EMIN,
    Context,
    Decimal,
    Inexact,
    InvalidOperation,
    Rounded,
    getcontext,
    localcontext,
)
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import btseq.series as series_module
from btseq.intops import IntegrityError
from btseq.recurrences import (
    akiyama_tanigawa_bernoulli,
    bernoulli_from_tangent,
    tangent_numbers,
)
from btseq.series import bernoulli_via_series

# Exact decimal arithmetic for the oracles: any rounding raises.
EXACT = Context(
    prec=MAX_PREC,
    Emax=MAX_EMAX,
    Emin=MIN_EMIN,
    traps=[Inexact, Rounded, InvalidOperation],
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


def unit_reciprocal(a, order: int, scale: int) -> list[int]:
    """Independent oracle: scale/a by back substitution in integers, for
    a[0] in (1, -1), where 1/a[0] = a[0]."""
    b = [scale * a[0]]
    for m in range(1, order):
        b.append(-a[0] * sum(a[j] * b[m - j] for j in range(1, min(m, len(a) - 1) + 1)))
    return b


def pack(coeffs, width: int) -> Decimal:
    """The signed decimal sum of coeffs[j] * 10**(width * j)."""
    zero = "0" * width
    pos, neg = [], []
    for c in reversed(coeffs):
        digits = str(Decimal(abs(c))).zfill(width)
        pos.append(digits if c > 0 else zero)
        neg.append(digits if c < 0 else zero)
    return EXACT.subtract(Decimal("".join(pos)), Decimal("".join(neg)))


def check_reciprocal(a, b, scale: int) -> None:
    """Oracle: verify sum_j a_j b_{m-j} = scale * [m == 0] for every m below
    len(b), or raise IntegrityError.

    Below len(b), every coefficient of a * b - scale is at most
    bound = sum|a_j| max|b| + |scale| < 10**width in magnitude, so the
    packed difference is a multiple of 10**(len(b) width) only if all of
    them are 0, and one product decides. The slots stay digits(a_0) wider
    than the division's: for a wrong b_0, a_0 b_0 - scale reaches a_0 max|b|.
    """
    if not b:
        raise ValueError("reciprocal must have at least one coefficient")
    a = a[: len(b)] or (0,)
    bound = sum(map(abs, a)) * max(map(abs, b)) + abs(scale)
    # 10**width >= 2**bits > bound, as log10(2) < 0.30103
    width = bound.bit_length() * 30103 // 100000 + 1
    rest = EXACT.fma(pack(a, width), pack(b, width), -scale)
    if rest and not str(rest).endswith("0" * (len(b) * width)):
        raise IntegrityError("series reciprocal violates its convolution identity")


ENGINE_RECIPROCAL = series_module._reciprocal  # as the engine has it


@pytest.fixture(autouse=True, scope="module")
def oracle_checks_every_reciprocal():
    """Every reciprocal made in this module, directly or by
    bernoulli_via_series, must pass check_reciprocal before it is used: off
    the engine's precondition (e integral) no wrong integers pass both its
    own audit and the identity. Tests call series_module._reciprocal, so
    that they reach the checked one."""

    def checked(a, order, scale):
        e = ENGINE_RECIPROCAL(a, order, scale)
        check_reciprocal(a, e, scale)
        return e

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(series_module, "_reciprocal", checked)
        yield


def accepts(a, b, scale: int) -> bool:
    """Whether check_reciprocal passes, rather than raising IntegrityError."""
    try:
        check_reciprocal(a, b, scale)
    except IntegrityError:
        return False
    return True


def identity_holds(a, b, scale: int) -> bool:
    """The schoolbook verdict that check_reciprocal must reproduce."""
    return schoolbook(a, b, len(b)) == [scale] + [0] * (len(b) - 1)


def nearest_by_long_division(num: Decimal, den: Decimal) -> Decimal:
    """Independent oracle: floor((2 num + den) / (2 den)), the integer
    nearest to num/den, by libmpdec's exact long division."""
    return EXACT.divide_int(EXACT.fma(num, 2, den), EXACT.multiply(den, 2))


def sinh_series(order: int) -> tuple[list[int], int]:
    """The series bernoulli_via_series inverts at K = order terms, and its
    scale: a_k = (2K-1)!/(2k+1)!, scale = a_0 (2K-2)! lcm(1..2K-1)."""
    top = math.factorial(2 * order - 1)
    a = [top // math.factorial(2 * k + 1) for k in range(order)]
    return a, top * math.factorial(2 * order - 2) * math.lcm(*range(1, 2 * order))


@lru_cache(maxsize=None)
def tangent_route() -> list[Fraction]:
    """B_0..B_602 by the in-place tangent row, independent of the series."""
    return bernoulli_from_tangent(tangent_numbers(301)[0])


class Level(NamedTuple):
    num: Decimal
    den: Decimal
    prec: int
    z: Decimal


class Division(NamedTuple):
    num: Decimal
    den: Decimal
    value: Decimal
    levels: list[Level]  # the Newton levels, innermost (the seed) first


@contextmanager
def recording():
    """Record every quotient that _reciprocal rounds, with each _quotient
    call (one per Newton level) made for it."""
    divisions: list[Division] = []
    levels: list[Level] = []
    nearest, quotient = series_module._nearest_quotient, series_module._quotient

    def spy_quotient(num, den, prec):
        z = quotient(num, den, prec)
        levels.append(Level(num, den, prec, z))
        return z

    def spy_nearest(num, den):
        start = len(levels)
        value = nearest(num, den)
        divisions.append(Division(num, den, value, levels[start:]))
        return value

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(series_module, "_quotient", spy_quotient)
        patch.setattr(series_module, "_nearest_quotient", spy_nearest)
        yield divisions


def assert_newton_bounds(division: Division) -> None:
    """Every level keeps its bound, decided exactly: |num - den z| <=
    12 * 10**-prec * num at each level, and the unrounded top-level estimate
    z lies within 1/4 of num/den."""
    num, den, value, levels = division
    assert value.as_tuple().exponent == 0
    for level in levels:
        miss = EXACT.fma(level.den, level.z, level.num.copy_negate()).copy_abs()
        assert EXACT.scaleb(miss, level.prec) <= EXACT.multiply(level.num, 12)
    top = levels[-1]
    assert (top.num, top.den) == (num, den)
    miss = EXACT.fma(den, top.z, num.copy_negate()).copy_abs()
    assert EXACT.multiply(miss, 4) < den


def assert_newton_quotient(division: Division) -> None:
    """The Newton bounds hold and V is the long-division oracle's."""
    assert_newton_bounds(division)
    assert division.value == nearest_by_long_division(division.num, division.den)


signed = st.integers(-(2**200), 2**200)
wide = st.integers(-(2**2000), 2**2000)
unit = st.sampled_from([1, -1])


def series(min_order=1, max_order=12):
    small = st.integers(min_value=-5, max_value=5)
    nonzero = small.filter(lambda q: q != 0)
    return st.builds(
        lambda head, tail: (head, *tail),
        nonzero,
        st.lists(small, min_size=min_order - 1, max_size=max_order - 1),
    )


class TestConvolve:
    """The truncated convolution identity, decided by check_reciprocal in one
    packed product, against the schoolbook product."""

    @given(
        st.lists(signed, max_size=20),
        st.lists(signed, min_size=1, max_size=20),
        signed,
        st.booleans(),
    )
    def test_matches_schoolbook(self, a, b, scale, true_scale):
        # with the product's own constant only the higher terms can fail
        if true_scale:
            scale = schoolbook(a, b, 1)[0]
        assert accepts(a, b, scale) == identity_holds(a, b, scale)

    @given(
        st.integers(1, 10**60),
        st.integers(1, 16),
        unit,
        unit,
        st.booleans(),
        st.booleans(),
    )
    def test_coefficients_at_the_slot_bound(
        self, top, length, sign_a, sign_b, alternate, negate_scale
    ):
        # every term of the last coefficient has one sign, so it reaches
        # max|a| * max|b| * len(b) exactly
        a = [sign_a * top * (-1) ** (j * alternate) for j in range(length)]
        b = [sign_b * top * (-1) ** (j * alternate) for j in range(length)]
        product = schoolbook(a, b, length)
        assert abs(product[-1]) == top * top * length
        scale = -product[0] if negate_scale else product[0]
        assert accepts(a, b, scale) == identity_holds(a, b, scale)

    @given(st.lists(signed, min_size=1, max_size=8), st.integers(1, 2**200), signed)
    def test_negative_top_coefficient(self, a, top, scale):
        # the packed value of b, and of the product, is negative
        b = a + [-top]
        assert accepts(a, b, scale) == identity_holds(a, b, scale)
        assert accepts(a, b, a[0] * a[0]) == identity_holds(a, b, a[0] * a[0])

    def test_negative_packed_product(self):
        check_reciprocal((-1,), (-1,), 1)
        # 1/(1 + z) = 1 - z + z**2 - z**3 + ...
        check_reciprocal((1, 1), (1, -1, 1, -1), 1)
        # (z - 1)(-1 - z - z**2) = 1 - z**3
        check_reciprocal((-1, 1), (-1, -1, -1), 1)
        with pytest.raises(IntegrityError):
            check_reciprocal((3, -7), (2, 5), 6)

    @given(signed, signed, signed)
    def test_one_coefficient_inputs(self, x, y, tail):
        assert accepts([x], [y], x * y)
        assert not accepts([x], [y], x * y + 1)
        # only a[:len(b)] enters the identity
        assert accepts([x, tail], [y], x * y)

    @given(signed, signed, st.integers(1, 12), st.integers(0, 6))
    def test_order_past_the_product_length(self, x, y, order, extra):
        # trailing zeros of b carry the window past every nonzero product term
        check_reciprocal([x], [y] + [0] * order, x * y)
        # 1/(1 - z) = 1 + z + z**2 + ..., and terms of a past len(b) are ignored
        check_reciprocal((1, -1), (1,) * order, 1)
        check_reciprocal((1, -1, *range(7, 7 + extra)), (1,) * min(order, 2), 1)

    def test_empty_and_zero_inputs(self):
        # an empty a is the zero series: its product is scale only for scale 0
        check_reciprocal((), (1, 2), 0)
        with pytest.raises(IntegrityError):
            check_reciprocal((), (1, 2), 1)
        check_reciprocal((0, 0), (0,), 0)
        with pytest.raises(IntegrityError):
            check_reciprocal((0, 0), (0,), 1)

    def test_wide_slots(self):
        # coefficients past the 4300-digit int-to-str limit
        a = (1, 10**5000 + 1, -(10**4999))
        b = unit_reciprocal(a, 4, -(10**4500))
        check_reciprocal(a, b, -(10**4500))
        b[3] += 1
        with pytest.raises(IntegrityError):
            check_reciprocal(a, b, -(10**4500))


class TestSeriesReciprocal:
    def test_constant_series(self):
        out = series_module._reciprocal((2,), 1, 2)
        assert out == (1,)
        assert len(out) == 1

    def test_geometric_series(self):
        out = series_module._reciprocal((1, -1, 0, 0), 4, 1)
        assert out == (1,) * 4

    def test_exp_quotient_prefix(self):
        # 6 (exp(z) - 1)/z = 6 + 3z + z**2; its reciprocal times 72 is
        # 72 (1/6) (1 - z/2 + z**2/12)
        out = series_module._reciprocal((6, 3, 1), 3, 72)
        assert out == (12, -6, 1)

    def test_order_may_exceed_input_length(self):
        out = series_module._reciprocal((1, -1), 6, 1)
        assert out == (1,) * 6

    @pytest.mark.parametrize("order", [1, 2, 3, 7, 16, 33, 64])
    def test_matches_back_substitution(self, order):
        a = (2,) + tuple((-1) ** j * (j + 2) for j in range(1, order))
        got = series_module._reciprocal(a, order, a[0] ** order)
        assert list(got) == scaled_oracle(a, order)

    @given(series(), st.integers(1, 16))
    def test_random_series_match_back_substitution(self, a, order):
        got = series_module._reciprocal(a, order, a[0] ** order)
        assert list(got) == scaled_oracle(a, order)

    @pytest.mark.parametrize("order", [2, 5, 16])
    def test_wrong_scale_raises(self, order):
        # 3**(order-1) leaves e fractional, off _reciprocal's precondition:
        # whatever integers it reads there, none passes the identity
        a = (3, 1, 4, 1, 5)
        with pytest.raises(IntegrityError):
            series_module._reciprocal(a, order, 3 ** (order - 1))

    def test_geometrically_growing_reciprocal(self):
        # 1/(1 - 10**40 z) = sum 10**(40j) z**j, so sigma/alpha sets the radix
        out = series_module._reciprocal((1, -(10**40)), 40, 1)
        assert out == tuple(10 ** (40 * j) for j in range(40))

    def test_negative_constant_term_and_scale(self):
        a = (-3, 1, 4, -1, 5)
        scale = -(3**7)
        expected = [scale * q for q in back_substitution_reciprocal(a, 7)]
        assert list(series_module._reciprocal(a, 7, scale)) == expected
        assert series_module._reciprocal((-2,), 1, -6) == (3,)

    @given(unit, st.lists(signed, max_size=10), st.integers(1, 14), signed)
    def test_large_signed_coefficients(self, head, tail, order, scale):
        a = (head, *tail)
        scale = scale or 1
        assert list(series_module._reciprocal(a, order, scale)) == unit_reciprocal(
            a, order, scale
        )

    @pytest.mark.parametrize(
        "a,order,scale",
        [
            ((3,), 1, 1),
            ((-7, 2), 3, 5),
            # the audit passes the integers read here: (0, 0, -1, -1) and
            # (0, 0, 0, 0), for e_0 = scale/a_0 is no integer
            ((-4 * 10**15, 4 * 10**15, 90), 4, 4 * 10**9),
            ((4 * 10**13, -4 * 10**11, -2000, 0, 800), 4, -40000),
        ],
    )
    def test_scale_below_the_constant_term_raises(self, a, order, scale):
        # |scale| < |a_0| leaves e_0 fractional, off _reciprocal's precondition
        with pytest.raises(IntegrityError):
            series_module._reciprocal(a, order, scale)

    def test_rejects_zero_constant_term(self):
        with pytest.raises(ValueError):
            series_module._reciprocal((0, 1), 2, 1)

    def test_rejects_empty_series(self):
        with pytest.raises(ValueError):
            series_module._reciprocal((), 2, 1)

    def test_rejects_nonpositive_order(self):
        with pytest.raises(ValueError):
            series_module._reciprocal((1,), 0, 1)

    def test_rejects_zero_scale(self):
        with pytest.raises(ValueError):
            series_module._reciprocal((1,), 1, 0)


class TestNewtonQuotient:
    """The Newton quotient against libmpdec's long division, which computed
    V before it; the check_reciprocal identity test runs on every result."""

    @pytest.mark.parametrize(
        "order,doublings",
        [(2, 0), (8, 0), (10, 1), (16, 2), (40, 5), (76, 7), (150, 10), (301, 12)],
    )
    def test_sinh_series(self, order, doublings):
        with recording() as divisions:
            bernoulli_via_series(2 * order - 2)
        (division,) = divisions
        assert len(division.levels) == doublings + 1
        assert_newton_quotient(division)

    # verify -n N runs order N + 1 (N in 50..56, 72..78, 128..129); bernoulli
    # -n m --algorithm all runs order m//2 + 1 (m in 235..265, 305..335)
    @pytest.mark.parametrize("order", [51, 57, 73, 79, 118, 129, 130, 133, 153, 168])
    def test_orders_the_benchmark_workloads_reach(self, order):
        with recording() as divisions:
            bernoulli_via_series(2 * order - 2)
        assert_newton_quotient(divisions[0])

    @given(
        unit,
        st.integers(2**1000, 2**2000),
        st.lists(wide, max_size=5),
        st.integers(2, 8),
        signed,
        st.booleans(),
    )
    def test_wide_signed_series(self, head, big, tail, order, scale, negate):
        a = (head, -big if negate else big, *tail)
        scale = scale or 1
        with recording() as divisions:
            got = series_module._reciprocal(a, order, scale)
        assert list(got) == unit_reciprocal(a, order, scale)
        (division,) = divisions
        # the packed divisor is past the seed, so Newton doubles at least once
        assert division.den.adjusted() + 1 > series_module._SEED
        assert len(division.levels) >= 2
        assert_newton_quotient(division)

    @given(st.integers(1, 2**3000), st.integers(1, 2**2000), st.integers(0, 400))
    def test_any_quotient_is_estimated_within_a_quarter(self, n, d, shift):
        # num/den need not lie near an integer: the bound holds regardless
        num, den = EXACT.scaleb(Decimal(n), shift), Decimal(d)
        with recording() as divisions:
            value = series_module._nearest_quotient(num, den)
        assert_newton_bounds(divisions[0])
        expected = nearest_by_long_division(num, den)
        # within 3/8 of an integer, the estimate (within 3/25) rounds to it
        miss = EXACT.fma(expected, den, num.copy_negate()).copy_abs()
        if EXACT.multiply(miss, 8) < EXACT.multiply(den, 3):
            assert value == expected
        assert EXACT.subtract(value, expected).copy_abs() <= 1

    def test_fractional_scale_raises_past_the_seed(self, monkeypatch):
        # one more than the true scale leaves e_0 = scale/a_0 fractional,
        # off _reciprocal's precondition: past the seed, no wrong integers
        # pass the audit and the identity
        a, scale = sinh_series(76)
        levels = []
        quotient = series_module._quotient

        def counted(num, den, prec):
            levels.append(prec)
            return quotient(num, den, prec)

        monkeypatch.setattr(series_module, "_quotient", counted)
        with pytest.raises(IntegrityError):
            series_module._reciprocal(a, 76, scale + 1)
        assert len(levels) >= 6

    def test_ignores_the_thread_context(self):
        tangent, _ = tangent_numbers(301)
        expected = bernoulli_from_tangent(tangent)[:601]
        with localcontext() as context:
            context.prec = 3
            context.traps[Inexact] = context.traps[Rounded] = True
            before = repr(context)
            got = bernoulli_via_series(600)
            assert getcontext() is context
            assert repr(context) == before
        assert got == expected


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
        b = list(series_module._reciprocal(a, order, a[0] ** order))
        j = data.draw(st.integers(0, order - 1))
        b[j] += data.draw(st.integers(1, 10**30) | st.integers(-(10**30), -1))
        with pytest.raises(IntegrityError):
            check_reciprocal(a, b, a[0] ** order)

    @given(unit, st.lists(signed, max_size=12), st.integers(1, 16), signed, st.data())
    def test_accepts_exactly_the_true_reciprocal(self, head, tail, order, scale, data):
        a = (head, *tail)
        b = unit_reciprocal(a, order, scale)
        assert accepts(a, b, scale)
        j = data.draw(st.integers(0, order - 1))
        b[j] += data.draw(st.sampled_from([1, -1, 10**50, -(10**50)]))
        assert not accepts(a, b, scale)

    def test_scale_counts_toward_the_slot_width(self):
        # max|a| max|b| len(b) = 2 alone gives one-digit slots, in which
        # (0, 1) packs to 10 and the wrong scale 10 would cancel it
        assert not accepts((1,), (0, 1), 10)
        assert not accepts((1,), (0, 0, 1), 100)

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

    # every m to 200, then verify_sweep's top (2 * 129), the top of
    # cross_engine's window (335), and past both
    @pytest.mark.parametrize("n", [*range(201), 258, 335, 400, 600])
    def test_matches_tangent_route(self, n):
        with recording() as divisions:
            got = bernoulli_via_series(n)
        assert got == tangent_route()[: n + 1]
        # the audit's bound holds on the one division: 7 |num - V den| < den
        ((num, den, value, _),) = divisions
        distance = EXACT.fma(value, den, num.copy_negate()).copy_abs()
        assert EXACT.multiply(distance, 7) < den

    def test_odd_entries_zero(self):
        values = bernoulli_via_series(21)
        assert all(values[m] == 0 for m in range(3, 22, 2))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            bernoulli_via_series(-1)


class TestDistanceAudit:
    """bernoulli_via_series's one quotient V, audited by its exact distance
    from num/den at the division's own width: 7 |num - V den| < den."""

    @settings(deadline=None, max_examples=60)
    @given(st.integers(0, 300), st.sampled_from([1, -1]), st.data())
    def test_one_slot_off_raises(self, m, sign, data):
        # V +- R**j changes one slot of the packed reciprocal by one
        terms = m // 2 + 1
        j = data.draw(st.integers(0, terms - 1))
        nearest = series_module._nearest_quotient

        def shifted(num, den):
            # num = |scale| R**(2K-2), so its exponent is (2K-2) width
            width = num.as_tuple().exponent // max(2 * terms - 2, 1)
            return EXACT.fma(sign, EXACT.scaleb(1, width * j), nearest(num, den))

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(series_module, "_nearest_quotient", shifted)
            with pytest.raises(IntegrityError, match="not the packed reciprocal"):
                bernoulli_via_series(m)

    @pytest.mark.parametrize("m", [0, 1, 2, 3, 10, 150, 258, 400])
    def test_the_scale_leaves_every_coefficient_integral(self, m, monkeypatch):
        # _reciprocal's precondition, for the one scale it is given: back
        # substitution of scale/a divides exactly at every index
        calls = []
        reciprocal = series_module._reciprocal

        def spy(a, order, scale):
            calls.append((tuple(a), order, scale))
            return reciprocal(a, order, scale)

        monkeypatch.setattr(series_module, "_reciprocal", spy)
        bernoulli_via_series(m)
        ((a, order, scale),) = calls
        assert (list(a), scale) == sinh_series(order)
        e = []
        for k in range(order):
            rest = scale * (k == 0) - sum(a[j] * e[k - j] for j in range(1, k + 1))
            quotient, remainder = divmod(rest, a[0])
            assert remainder == 0
            e.append(quotient)

    def test_only_bernoulli_via_series_is_public(self):
        # no public caller can hand the reciprocal a scale of its own
        public = [
            name
            for name, value in vars(series_module).items()
            if not name.startswith("_")
            and getattr(value, "__module__", None) == series_module.__name__
        ]
        assert public == ["bernoulli_via_series"]
