"""Tests for the verification layer."""

from __future__ import annotations

import errno
import gc
import itertools
import json
import math
import os
import threading
from collections import Counter
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import btseq.checks as checks
import btseq.engines as engines
import btseq.fastfixed as fastfixed
import btseq.intops as intops
from btseq.checks import (
    cross_check,
    full_verification,
    pi_bounds,
    stability_contrast,
    von_staudt_clausen,
)
from btseq.cli import run_cli
from btseq.fastfixed import packed_tangent_params
from btseq.intops import IntegrityError
from btseq.recurrences import bernoulli_from_tangent, tangent_numbers

# the engines behind the labelled entries that share no run: verify runs
# them in a forked child from n = checks._FORK_FROM on, the two secant
# engines only from n = checks._SPLIT_FROM on
SECANTS = ("secant_numbers", "fast_secant_numbers")
AKIYAMA = "akiyama_tanigawa_bernoulli"
UNSHARED = (*SECANTS, AKIYAMA, "bernoulli_via_series")


class TwoArgError(Exception):
    """Built from two arguments, so pickle cannot rebuild it from its args."""

    def __init__(self, what, m):
        super().__init__(f"{what} at {m}")


class LambdaError(Exception):
    """Holds a lambda, so pickle cannot write it."""

    def __init__(self, message):
        super().__init__(message)
        self.hook = lambda: None


def cpus(monkeypatch, count):
    """Make os.sched_getaffinity report `count` CPUs."""
    reported = set(range(count))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: reported, raising=False)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# 64 decimal digits, so the literal itself is good to ~2**-212
PI_REFERENCE = Fraction(
    "3.1415926535897932384626433832795028841971693993751058209749445923"
)
# pi truncated to 100 decimals, so PI_100 < pi < PI_100 + 10**-100 (~2**-332)
PI_100 = Fraction(
    "3.1415926535897932384626433832795028841971693993751058209749445923"
    "078164062862089986280348253421170679"
)


def machin_fraction_bounds(bits):
    """The reference bracket: both Machin arctangent series in Fraction
    arithmetic, each bracketed by its partial sum and first omitted term,
    with both ends rounded outward onto the grid 2**-(bits + 8)."""
    grid = bits + 8
    threshold = Fraction(1, 1 << grid)

    def atan_inv_bounds(x):
        total, k, power = Fraction(0), 0, x  # power = x**(2k+1)
        while (term := Fraction(1, (2 * k + 1) * power)) >= threshold:
            total += -term if k % 2 else term
            k, power = k + 1, power * x * x
        if k % 2:  # first omitted term is negative, so total sits above
            return total - term, total
        return total, total + term

    lo5, hi5 = atan_inv_bounds(5)
    lo239, hi239 = atan_inv_bounds(239)
    lo, hi = 16 * lo5 - 4 * hi239, 16 * hi5 - 4 * lo239
    lo_steps = (lo.numerator << grid) // lo.denominator  # floor
    hi_steps = -((-hi.numerator << grid) // hi.denominator)  # ceiling
    return lo_steps, hi_steps, grid


def pi_fractions(bits=256):
    lo, hi, shift = pi_bounds(bits)
    return Fraction(lo, 1 << shift), Fraction(hi, 1 << shift)


def zeta_enclosure(n, values):
    """The zeta family's bracket on |B_2n| (2 pi)**(2n) / (2 (2n)!), from
    values = [B_0..B_2m] with m >= n, at the pi precision verify uses at n."""
    pi = pi_bounds(checks._zeta_pi_bits(n))
    enclosures = checks._zeta_enclosures(values[4::2], pi)
    lo_num, hi_num, den = next(itertools.islice(enclosures, n - 2, None))
    return Fraction(lo_num, den), Fraction(hi_num, den)


@pytest.fixture(scope="module")
def bernoulli_600():
    """[B_0..B_600], shared by the witness tests."""
    return bernoulli_from_tangent(tangent_numbers(300)[0])


def zeta_result(values, index, value):
    """The zeta family's result at size n = index/2 with B_index replaced by
    value, from the enclosure stream and _first_miss as verify runs them."""
    n = index // 2
    values = values[: index + 1]
    values[index] = value
    pi = pi_bounds(checks._zeta_pi_bits(n))
    enclosures = checks._zeta_enclosures(values[4::2], pi)
    zeta = (checks._zeta_miss(k, *ends) for k, ends in enumerate(enclosures, start=2))
    return checks._first_miss("zeta ratio enclosure", zeta)


def rounding_budget_bounds(last):
    """(n, closed-form rounding bound at size n) for n = 2..last."""
    return enumerate(itertools.islice(checks._rounding_budget_bounds(), last - 1), 2)


# Predicates that von Staudt-Clausen, the zeta enclosure and the closed-form
# rounding budget already decide, so verify runs no family for them;
# TestImpliedFamilies checks each implication against these oracles.


def fermat_oracle(m, b):
    """The Fermat family: den(b) factors over the primes up to m+1, and each
    odd one divides 2**m - 1."""
    rest = b.denominator
    for p in checks._primes_to(m + 1):
        if rest % p == 0:
            if p != 2 and ((1 << m) - 1) % p:
                return False
            while rest % p == 0:
                rest //= p
    return rest == 1


def coefficient_oracle(tangent):
    """The coefficient-bound family, one verdict per k = 1..n: whether
    T_k / (2k-1)! <= (2/pi)**(2k-2) with pi the upper end of pi_bounds(),
    decided on the exact power of that end."""
    _, hi, shift = pi_bounds()
    verdicts, factorial, power = [], 1, 1  # (2k-1)!, hi**(2k-2)
    for k, t in enumerate(tangent, start=1):
        if k > 1:
            factorial *= (2 * k - 2) * (2 * k - 1)
            power *= hi * hi
        verdicts.append(t * power <= factorial << (2 * k - 2) * (shift + 1))
    return verdicts


def bit_gap_oracle(tangent, bernoulli):
    """The bit-gap family at n = len(tangent) >= 2: the bit lengths of T_n
    and of the integer part of B_2n differ by 4n up to 16 lg n."""
    n = len(tangent)
    gap = tangent[-1].bit_length() - int(abs(bernoulli[2 * n])).bit_length()
    return abs(gap - 4 * n) <= 16 * math.log2(n)


def staudt_passes(m, b):
    try:
        von_staudt_clausen(m, b)
    except IntegrityError:
        return False
    return True


def zeta_verdicts(tangent):
    """Whether the zeta family passes at each k = 2..n on the tangent route
    of the row [T_1..T_n], at the pi precision verify uses at n."""
    pi = pi_bounds(checks._zeta_pi_bits(len(tangent)))
    enclosures = checks._zeta_enclosures(bernoulli_from_tangent(tangent)[4::2], pi)
    return [checks._zeta_miss(k, *ends) is None for k, ends in enumerate(enclosures, 2)]


@lru_cache(maxsize=None)
def zeta_passing_range(k, n):
    """(least, largest) T_k whose tangent route B_2k passes the zeta family,
    at the pi precision verify uses at n. With |B_2k| = k T_k / (2**(2k-1)
    (4**k - 1)), the exact enclosure |B_2k| (2 pi)**(2k) / (2 (2k)!) on both
    pi bounds must lie inside (1, 1 + 2**(1-2k)); the short one only widens
    it, and an index it misses is decided on the exact one."""
    lo, hi, shift = pi_bounds(checks._zeta_pi_bits(n))
    scale = Fraction((4**k - 1) * math.factorial(2 * k) << (2 * k + 2 * k * shift), k)
    low = scale / (2 * lo) ** (2 * k)
    high = scale * (1 + Fraction(2, 4**k)) / (2 * hi) ** (2 * k)
    return math.floor(low) + 1, math.ceil(high) - 1


def staudt_step(k):
    """The step between the T_k whose tangent routes pass von Staudt-Clausen:
    B_2k = +-k T_k / D with D = 2**(2k-1) (4**k - 1), and two values of B_2k
    both pass iff they differ by an integer."""
    d = (1 << (2 * k - 1)) * (4**k - 1)
    return d // math.gcd(k, d)


def passing_values(k, n, true):
    """(least, largest) positive T_k whose tangent route passes both von
    Staudt-Clausen and the zeta family at the pi precision verify uses at n,
    given the true T_k."""
    least, largest = zeta_passing_range(k, n)
    step = staudt_step(k)
    up, down = (least - true) // -step * -step, (largest - true) // step * step
    return true + up, true + down


def growth_oracle(tangent):
    """The growth-rate family on [T_1..T_n]: the bit length of T_n is within
    20 percent of 2n lg n once n >= 50; below that there is no check."""
    n = len(tangent)
    if n < 50:
        return True
    return 0.8 <= tangent[-1].bit_length() / (2 * n * math.log2(n)) <= 1.2


def lg_growth_floor(n):
    """lg of A = 2 (2n-1)! (4**n - 1) / pi**(2n), which a zeta pass keeps
    below |T_n| (and 9/8 A above it)."""
    lg_factorial = math.lgamma(2 * n) / math.log(2)
    return 1 + lg_factorial + math.log2(4**n - 1) - 2 * n * math.log2(math.pi)


def tail_oracle(n, tangent):
    """The tail-audit family at n: the exact Fraction sum over
    T_(n+1)..T_(n+5), with its 3 percent allowance, lies in (0, 1/10)."""
    p = fastfixed.least_half_block_bits(n)
    explicit = Fraction(0)
    ratio = 1  # (2k-1)!/(2n-1)!
    for k in range(n + 1, n + 6):
        ratio *= (2 * k - 2) * (2 * k - 1)
        explicit += Fraction(tangent[k - 1], ratio << (2 * (k - n) * p))
    return 0 < explicit and explicit * Fraction(103, 100) < Fraction(1, 10)


class TestPiBounds:
    def test_encloses_reference_digits(self):
        lo, hi = pi_fractions()
        assert lo < hi
        assert abs(lo - PI_REFERENCE) < Fraction(1, 10**62)
        assert abs(hi - PI_REFERENCE) < Fraction(1, 10**62)

    def test_default_width(self):
        lo, hi = pi_fractions()
        assert hi - lo < Fraction(1, 2**256)

    def test_narrower_request(self):
        lo, hi = pi_fractions(64)
        assert lo < PI_REFERENCE < hi
        assert hi - lo < Fraction(1, 2**64)

    @pytest.mark.parametrize("bits", range(1, 300))
    def test_dyadic_enclosure(self, bits):
        lo_steps, hi_steps, shift = pi_bounds(bits)
        assert shift == bits + 8
        assert hi_steps - lo_steps <= 2  # grid steps; 2**-bits is 2**8 of them
        lo, hi = pi_fractions(bits)
        assert lo < PI_100 and PI_100 + Fraction(1, 10**100) < hi

    def test_reference_keeps_its_contract(self):
        lo, hi, shift = machin_fraction_bounds(283)
        assert shift == 291 and hi - lo < 1 << 8
        assert Fraction(lo, 1 << shift) < PI_100
        assert PI_100 + Fraction(1, 10**100) < Fraction(hi, 1 << shift)

    @pytest.mark.parametrize("bits", [500, 1026, 2020, 4000])
    def test_overlaps_the_fraction_reference(self, bits):
        lo, hi, shift = pi_bounds(bits)
        ref_lo, ref_hi, ref_shift = machin_fraction_bounds(bits)
        assert shift == ref_shift
        assert max(lo, ref_lo) < min(hi, ref_hi)
        assert hi - lo <= 2

    def test_builds_no_fraction(self, monkeypatch):
        monkeypatch.setattr(checks, "Fraction", None)  # any use would raise
        assert checks.pi_bounds.__wrapped__(100)[2] == 108


class TestCrossCheck:
    @pytest.mark.parametrize("n", [1, 5, 20])
    def test_engines_agree(self, n):
        report = cross_check(n)
        assert report.n == n
        assert len(report.checks) == 6
        assert report.all_pass

    def test_mismatch_reports_position(self, monkeypatch):
        monkeypatch.setattr(engines, "fast_tangent_numbers", lambda n: [1] * n)
        report = checks.cross_check(4)
        failed = [c for c in report.checks if not c.passed]
        assert len(failed) == 1
        assert "position 1" in failed[0].witness

    def test_length_mismatch_reported(self, monkeypatch):
        monkeypatch.setattr(engines, "fast_secant_numbers", lambda n: [1])
        report = checks.cross_check(3)
        failed = [c for c in report.checks if not c.passed]
        assert failed == [
            checks.CheckResult(
                "secant: in-place vs packed-division", False, "lengths differ: 4 != 1"
            )
        ]

    def test_mismatch_past_digit_limit_gives_bit_lengths(self, monkeypatch):
        # 10**5000 has too many digits for str(); the witness must not need it
        big = 10**5000
        monkeypatch.setattr(engines, "tangent_numbers", lambda n: ([1, big], None))
        monkeypatch.setattr(engines, "fast_tangent_numbers", lambda n: [1, big + 1])
        result = cross_check(2).checks[0]
        assert result.name == "tangent: in-place vs packed-division"
        assert not result.passed
        assert result.witness == "position 1: a 16610-bit value != a 16610-bit value"

    def test_fraction_mismatch_gives_numerator_and_denominator_bits(
        self, monkeypatch
    ):
        big = Fraction(10**5000 + 1, 7)
        sixth = [Fraction(1, 6)]
        monkeypatch.setattr(engines, "bernoulli_from_tangent", lambda t: sixth)
        monkeypatch.setattr(engines, "akiyama_tanigawa_bernoulli", lambda n: [big])
        result = cross_check(1).checks[4]
        assert result.name == "bernoulli: tangent route vs akiyama-tanigawa"
        assert result.witness == "position 0: a 1/3-bit value != a 16610/3-bit value"

    def test_rejects_n_zero(self):
        with pytest.raises(ValueError):
            cross_check(0)


class TestVonStaudtClausen:
    def test_known_integers(self):
        assert von_staudt_clausen(2, Fraction(1, 6)) == 1
        assert von_staudt_clausen(12, Fraction(-691, 2730)) == 1
        assert von_staudt_clausen(14, Fraction(7, 6)) == 2

    def test_sweep_is_integral(self):
        values = bernoulli_from_tangent(tangent_numbers(30)[0])
        for m in range(2, 61, 2):
            von_staudt_clausen(m, values[m])

    def test_integers_match_the_fraction_sum(self):
        values = bernoulli_from_tangent(tangent_numbers(200)[0])
        for m in range(2, 401, 2):
            primes = [
                p
                for p in range(2, m + 2)
                if m % (p - 1) == 0 and all(p % d for d in range(2, math.isqrt(p) + 1))
            ]
            total = values[m] + sum(Fraction(1, p) for p in primes)
            assert total.denominator == 1
            assert von_staudt_clausen(m, values[m]) == total.numerator

    def test_wrong_value_raises(self):
        with pytest.raises(IntegrityError):
            von_staudt_clausen(4, Fraction(1, 6))

    def test_wrong_numerator_over_the_prime_product_raises(self):
        # den = 30 is right for B_4; 1/30 + 1/2 + 1/3 + 1/5 = 16/15 is not whole
        with pytest.raises(IntegrityError) as info:
            von_staudt_clausen(4, Fraction(1, 30))
        assert "is a 5/4-bit non-integer" in str(info.value)

    def test_non_integer_past_digit_limit_gives_bit_lengths(self):
        with pytest.raises(IntegrityError) as info:
            von_staudt_clausen(4, Fraction(10**5000 + 1, 7))
        assert "is a 16615/8-bit non-integer" in str(info.value)

    def test_large_wrong_value_fails_verify(self, capsys, monkeypatch):
        def skewed(tangent):
            values = bernoulli_from_tangent(tangent)
            values[4] = Fraction(10**5000 + 1, 7)
            return values

        monkeypatch.setattr(engines, "bernoulli_from_tangent", skewed)
        code = run_cli(["verify", "-n", "5"])
        lines = capsys.readouterr().out.splitlines()
        assert code == 2
        assert any(
            line.startswith("FAIL von staudt-clausen denominators  [index 4: ")
            for line in lines
        )

    def test_rejects_odd_index(self):
        with pytest.raises(ValueError):
            von_staudt_clausen(7, Fraction(1))

    def test_one_sieve_per_power_of_two(self):
        # verify -n 129 reads B_2..B_258; the sieves run to 4, 8, ..., 512
        checks._primes_to.cache_clear()
        assert full_verification(129).all_pass
        assert checks._primes_to.cache_info().currsize <= (259).bit_length()


class TestZetaRatio:
    def test_zeta_four(self):
        lo, hi = zeta_enclosure(2, bernoulli_from_tangent(tangent_numbers(2)[0]))
        assert lo < hi
        assert float(lo) == float(hi) == 1.0823232337111381  # zeta(4) = pi**4 / 90

    def test_enclosure_tightens(self):
        values = bernoulli_from_tangent(tangent_numbers(25)[0])
        previous = None
        for n in range(2, 26):
            lo, hi = zeta_enclosure(n, values)
            assert 1 < lo < hi < 1 + Fraction(2) ** (1 - 2 * n)
            if previous is not None:
                assert hi < previous
            previous = hi

    def test_deep_enclosure_width(self):
        values = bernoulli_from_tangent(tangent_numbers(20)[0])
        _, hi = zeta_enclosure(20, values)
        assert hi - 1 < Fraction(1, 2**39)

    @pytest.mark.parametrize(
        "sign,side", [(1, "upper end is not below"), (-2, "lower end is not above")]
    )
    def test_failure_names_the_end_that_missed(self, monkeypatch, sign, side):
        # zeta(60) is about 1 + 2**-60: B_60 scaled by 1 + 2**-58 puts the
        # ratio near 1 + 5 * 2**-60, past 1 + 2**-59; by 1 - 2**-57 it puts
        # it near 1 - 7 * 2**-60, below 1
        k = 30

        def skewed(tangent):
            values = bernoulli_from_tangent(tangent)
            values[2 * k] *= 1 + sign * Fraction(4, 2 ** (2 * k))
            return values

        monkeypatch.setattr(engines, "bernoulli_from_tangent", skewed)
        report = full_verification(32)
        zeta = [c for c in report.checks if c.name == "zeta ratio enclosure"]
        assert not zeta[0].passed
        assert zeta[0].witness.startswith(f"index {2 * k}: {side}")
        assert "missed by 2**(-" in zeta[0].witness
        assert "1.0, 1.0" not in zeta[0].witness

    @pytest.mark.parametrize(
        "index,factor,witness",
        [
            (
                60,
                1 + Fraction(1, 2**58),
                "index 60: upper end is not below 1 + 2**(-59), missed by 2**(-58.42)",
            ),
            (
                60,
                1 - Fraction(1, 2**57),
                "index 60: lower end is not above 1, missed by 2**(-57.19)",
            ),
            (
                400,
                1 + Fraction(1, 2**399),
                "index 400: upper end is not below 1 + 2**(-399), missed by 2**(-400.00)",
            ),
            (
                400,
                1 - Fraction(1, 2**398),
                "index 400: lower end is not above 1, missed by 2**(-398.42)",
            ),
            (
                600,
                1 + Fraction(1, 2**598),
                "index 600: upper end is not below 1 + 2**(-599), missed by 2**(-598.42)",
            ),
        ],
    )
    def test_full_witness(self, bernoulli_600, index, factor, witness):
        # B_index scaled up past 1 + 2**(1-index), or down below 1
        result = zeta_result(bernoulli_600, index, bernoulli_600[index] * factor)
        assert result == checks.CheckResult("zeta ratio enclosure", False, witness)

    @pytest.mark.parametrize(
        "end,witness",
        [
            (0, "lower end is not above 1, it meets the bound exactly"),
            (1, "upper end is not below 1 + 2**(-59), it meets the bound exactly"),
        ],
    )
    def test_witness_when_an_end_meets_its_bound(self, bernoulli_600, end, witness):
        # B_60 chosen so that one end of the exact enclosure, with exact
        # powers of the pi bounds, lands on its bound; B_60 is negative
        lo, hi, shift = pi_bounds(checks._zeta_pi_bits(30))
        target = (1, 1 + Fraction(1, 2**59))[end]
        scale = 2 * math.factorial(60) << (60 * shift)
        value = -target * Fraction(scale, (2 * (lo, hi)[end]) ** 60)
        assert zeta_result(bernoulli_600, 60, value) == checks.CheckResult(
            "zeta ratio enclosure", False, f"index 60: {witness}"
        )

    @pytest.mark.parametrize(
        "index,bits", [(4, "1.06"), (32, "1.00"), (200, "1.00"), (600, "1.00")]
    )
    def test_wrong_sign_fails_the_lower_end(self, bernoulli_600, index, bits):
        # -B_2k puts the ratio near -zeta(2k), so the lower end misses 1 by
        # about 1 + zeta(2k): 1 + zeta(4) is 2**1.06
        result = zeta_result(bernoulli_600, index, -bernoulli_600[index])
        witness = f"index {index}: lower end is not above 1, missed by 2**({bits})"
        assert result == checks.CheckResult("zeta ratio enclosure", False, witness)

    def test_builds_no_fraction(self, bernoulli_600, monkeypatch):
        monkeypatch.setattr(checks, "Fraction", None)  # any use would raise
        enclosures = checks._zeta_enclosures(bernoulli_600[4:61:2], pi_bounds())
        assert len(list(enclosures)) == 29

    @pytest.mark.parametrize("n", [120, 300])
    def test_short_enclosure_contains_the_exact_one(self, bernoulli_600, n):
        # at the pi precision verify uses at n, every index k <= n is
        # decided on short powers that widen each end by under 2**(-2k-8)
        lo, hi, shift = pi = pi_bounds(checks._zeta_pi_bits(n))
        enclosures = checks._zeta_enclosures(bernoulli_600[4 : 2 * n + 1 : 2], pi)
        factorial, lo_power, hi_power = 2, 4 * lo * lo, 4 * hi * hi  # at k = 1
        for k, (lo_num, hi_num, den) in enumerate(enclosures, start=2):
            factorial *= (2 * k - 1) * (2 * k)
            lo_power, hi_power = lo_power * 4 * lo * lo, hi_power * 4 * hi * hi
            b = bernoulli_600[2 * k]
            exact_den = 2 * factorial * b.denominator << (2 * k * shift)
            exact_lo = abs(b.numerator) * lo_power * den
            exact_hi = abs(b.numerator) * hi_power * den
            # each end over the product den * exact_den
            short_lo, short_hi = lo_num * exact_den, hi_num * exact_den
            assert short_lo < exact_lo < exact_hi < short_hi, k
            assert (exact_lo - short_lo) << (2 * k + 8) <= exact_lo, k
            assert (short_hi - exact_hi) << (2 * k + 8) <= exact_hi, k
        assert k == n

    @pytest.mark.parametrize("n", [128, 200])
    def test_enclosure_decided_past_256_bits(self, n):
        # the gap to either end is about 2**(-2n), beyond a 256-bit pi
        lo, hi = zeta_enclosure(n, bernoulli_from_tangent(tangent_numbers(n)[0]))
        assert 1 < lo < hi < 1 + Fraction(2) ** (1 - 2 * n)


def mutated_values(least, largest, true):
    """A T_k to try: the true one, one at or just past either end of the
    range that passes the zeta family, one inside it, or any up to 4x."""
    return st.one_of(
        st.just(true),
        st.sampled_from([least - 1, least, largest, largest + 1]),
        st.integers(least, largest),
        st.integers(0, 4 * largest),
    )


class TestImpliedFamilies:
    """Five facts verify runs no family for: von Staudt-Clausen decides the
    Fermat predicate; the zeta enclosure decides the coefficient bound at
    k >= 2, the bit gap and the growth rate; and the zeta enclosure, which
    also pins the sign of T_k from k = 2, with the closed-form rounding
    budget decides the tail audit. T_1 is read by the cross-check alone."""

    def test_fermat_implied_at_every_index_to_600(self, bernoulli_600):
        # von Staudt-Clausen passing pins den(b) to one product of primes,
        # which B_m and B_m +- 1 share
        for m in range(2, 601, 2):
            for b in (bernoulli_600[m], bernoulli_600[m] + 1, bernoulli_600[m] - 1):
                assert staudt_passes(m, b), m
                assert fermat_oracle(m, b), m

    @given(
        st.integers(1, 300),
        st.sampled_from(["prime", "plus", "minus", "random"]),
        st.sampled_from(checks._primes_to(1000)),
        st.integers(-(2**200), 2**200),
        st.integers(1, 2**64),
    )
    def test_fermat_implied_on_mutated_values(
        self, bernoulli_600, half, mutation, prime, num, den
    ):
        m = 2 * half
        b = bernoulli_600[m]
        b = {
            "prime": Fraction(b.numerator, b.denominator * prime),
            "plus": b + 1,
            "minus": b - 1,
            "random": Fraction(num, den),
        }[mutation]
        if staudt_passes(m, b):
            assert fermat_oracle(m, b)

    @pytest.mark.parametrize("n", [2, 3, 10, 50, 129, 300])
    def test_largest_zeta_passing_value_clears_the_coefficient_bound(self, n):
        # the largest T_n the zeta family passes, and 3/16 more (a quarter
        # bit), is still under (2n-1)! (2/pi)**(2n-2)
        tangent = tangent_numbers(n)[0]
        _, largest = zeta_passing_range(n, n)
        tangent[-1] = largest + 1
        assert zeta_verdicts(tangent)[-1:] == [False]
        tangent[-1] = largest
        assert all(zeta_verdicts(tangent))
        assert all(coefficient_oracle(tangent))
        assert bit_gap_oracle(tangent, bernoulli_from_tangent(tangent))
        tangent[-1] = largest * 19 // 16
        assert all(coefficient_oracle(tangent))

    @pytest.mark.parametrize("n", [40, 129])
    @pytest.mark.parametrize("end", [0, 1])
    def test_coefficient_bound_implied_on_extreme_rows(self, n, end):
        # every T_k, k >= 2, at the least or the largest value zeta passes
        tangent = [1] + [zeta_passing_range(k, n)[end] for k in range(2, n + 1)]
        assert all(zeta_verdicts(tangent))
        assert all(coefficient_oracle(tangent))

    @settings(deadline=None)
    @given(st.data())
    def test_coefficient_bound_implied_on_mutated_rows(self, data):
        n = data.draw(st.integers(2, 40))
        tangent = tangent_numbers(n)[0]
        for k in range(2, n + 1):
            least, largest = zeta_passing_range(k, n)
            tangent[k - 1] = data.draw(mutated_values(least, largest, tangent[k - 1]))
        zeta, coefficient = zeta_verdicts(tangent), coefficient_oracle(tangent)
        for k, passed in enumerate(zeta, start=2):
            assert coefficient[k - 1] or not passed, k

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_bit_gap_implied_wherever_b_is_below_one(self, n):
        # |B_2n| < 1 only for n <= 6: try every T_n that zeta passes
        tangent = tangent_numbers(n)[0]
        least, largest = zeta_passing_range(n, n)
        assert least <= tangent[-1] <= largest
        for t in range(least - 1, largest + 2):
            tangent[-1] = t
            if zeta_verdicts(tangent)[-1]:
                assert bit_gap_oracle(tangent, bernoulli_from_tangent(tangent)), t
            else:
                assert t in (least - 1, largest + 1)

    @given(st.integers(2, 300), st.data())
    def test_bit_gap_holds_for_any_value_once_b_is_whole(self, n, data):
        # |gap - 4n| < lg n + 3 whenever |B_2n| >= 1, whatever T_n is
        t = data.draw(st.integers(1, 1 << (3 * n * n.bit_length())))
        tangent = [1] * (n - 1) + [t]
        bernoulli = bernoulli_from_tangent(tangent)
        if abs(bernoulli[2 * n]) >= 1:
            assert bit_gap_oracle(tangent, bernoulli)

    @settings(deadline=None, max_examples=50)
    @given(st.integers(2, 150), st.data())
    def test_bit_gap_implied_on_mutated_values(self, n, data):
        tangent = tangent_numbers(n)[0]
        least, largest = zeta_passing_range(n, n)
        tangent[-1] = data.draw(mutated_values(least, largest, tangent[-1]))
        if zeta_verdicts(tangent)[-1]:
            assert bit_gap_oracle(tangent, bernoulli_from_tangent(tangent))

    @pytest.mark.parametrize("n", [50, 129, 300])
    def test_zeta_passing_ends_pass_the_growth_rate(self, n):
        tangent = tangent_numbers(n)[0]
        least, largest = zeta_passing_range(n, n)
        for t in (least, largest):
            tangent[-1] = t
            assert zeta_verdicts(tangent)[-1]
            assert growth_oracle(tangent)

    def test_true_rows_pass_the_growth_rate_to_1200(self):
        row = tangent_numbers(1200)[0]
        for n in range(50, 1201):
            assert growth_oracle(row[:n]), n

    def test_growth_rate_margins(self):
        # a zeta pass puts lg|T_n| between lg A and lg A + lg(9/8); the bit
        # length is at most one more
        assert 2.46 < lg_growth_floor(50) - 1.6 * 50 * math.log2(50) < 2.47
        low = [lg_growth_floor(n) - 1.6 * n * math.log2(n) for n in range(18, 5001)]
        assert all(a < b for a, b in zip(low, low[1:]))  # grows from n = 18
        for n in range(50, 5001):
            assert 2.4 * n * math.log2(n) - lg_growth_floor(n) - 1 > 220, n

    @settings(deadline=None, max_examples=30)
    @given(st.integers(50, 300), st.data())
    def test_growth_rate_implied_on_mutated_values(self, n, data):
        tangent = tangent_numbers(n)[0]
        least, largest = zeta_passing_range(n, n)
        tangent[-1] = data.draw(mutated_values(least, largest, tangent[-1]))
        if zeta_verdicts(tangent)[-1]:
            assert growth_oracle(tangent)

    def test_rounding_budget_leaves_the_tail_audit_room(self):
        # the audited sum is under 9/8 of the tail, which the closed form
        # bounds; with its 3 percent allowance it must stay under 1/10
        for n, (num, den) in rounding_budget_bounds(600):
            assert 103 * 9 * num < 10 * 8 * den, n

    @pytest.mark.parametrize("last", [40, 129])
    @pytest.mark.parametrize("end", [0, 1])
    def test_tail_audit_implied_on_extreme_rows(self, last, end):
        # every T_k, k >= 2, at the least or the largest positive value that
        # passes von Staudt-Clausen and zeta; the audited sum grows with each
        true = tangent_numbers(last)[0]
        ends = (passing_values(k, last, true[k - 1]) for k in range(2, last + 1))
        row = [1] + [pair[end] for pair in ends]
        bernoulli = bernoulli_from_tangent(row)
        assert all(staudt_passes(m, bernoulli[m]) for m in range(2, 2 * last + 1, 2))
        assert all(zeta_verdicts(row))
        assert all(tail_oracle(n, row) for n in range(2, last - 4))

    @settings(deadline=None, max_examples=50)
    @given(st.data())
    def test_tail_audit_implied_on_mutated_rows(self, data):
        # each T_k, k >= 2, drawn from the positive values that pass von
        # Staudt-Clausen and zeta: the true one, either end, or any between
        last = data.draw(st.integers(7, 60))
        row = tangent_numbers(last)[0]
        for k in range(2, last + 1):
            least, largest = passing_values(k, last, row[k - 1])
            step = staudt_step(k)
            between = st.integers(0, (largest - least) // step)
            row[k - 1] = data.draw(
                st.one_of(
                    st.sampled_from([row[k - 1], least, largest]),
                    between.map(lambda j: least + j * step),  # drawn at once
                )
            )
        bernoulli = bernoulli_from_tangent(row)
        assert all(staudt_passes(m, bernoulli[m]) for m in range(2, 2 * last + 1, 2))
        assert all(zeta_verdicts(row))
        assert all(tail_oracle(n, row) for n in range(2, last - 4))

    def test_raised_entry_fails_the_tail_oracle(self):
        # T_36 (293 bits) raised to 393 bits puts the n = 35 tail, whose first
        # term is T_36 / (70 * 71 * 2**360), far above 1/10
        row = tangent_numbers(40)[0]
        assert all(tail_oracle(n, row) for n in range(2, 36))
        row[35] <<= 100
        assert not tail_oracle(35, row)

    def test_zeta_rejects_a_negative_entry_staudt_passes(self, capsys, monkeypatch):
        # a negative T_k passes von Staudt-Clausen when some -T whose
        # absolute value lies in the zeta range is congruent to T_k modulo
        # the staudt step; the first such k is 16
        true = tangent_numbers(40)[0]

        def negative(k):
            least, largest = zeta_passing_range(k, 40)
            step = staudt_step(k)
            rest = true[k - 1] % step  # the least such value at or above -largest
            t = rest - (largest + rest) // step * step
            return t if t <= -least else None

        assert [negative(k) for k in range(2, 16)] == [None] * 14
        row = list(true)
        row[15] = negative(16)
        bernoulli = bernoulli_from_tangent(row)
        assert all(staudt_passes(m, bernoulli[m]) for m in range(2, 81, 2))
        assert [k for k, ok in enumerate(zeta_verdicts(row), start=2) if not ok] == [16]
        # the old tail audit sees it only where T_16 leads the sum
        assert [n for n in range(2, 36) if not tail_oracle(n, row)] == [15]
        # verify rejects it through the zeta family as well as the cross-check
        monkeypatch.setattr(engines, "tangent_numbers", lambda n: (row[:n], None))
        code = run_cli(["verify", "-n", "40"])
        lines = capsys.readouterr().out.splitlines()
        assert code == 2
        failed = "FAIL tangent: in-place vs packed-division  [position 15:"
        assert lines[0].startswith(failed)
        assert "PASS von staudt-clausen denominators" in lines
        zeta = "index 32: lower end is not above 1, missed by 2**(1.00)"
        assert f"FAIL zeta ratio enclosure  [{zeta}]" in lines

    def test_wrong_first_tangent_number_fails_the_cross_check(
        self, capsys, monkeypatch
    ):
        # T_1 = 7 makes B_2 = 7/6, which von Staudt-Clausen accepts
        # (7/6 + 1/2 + 1/3 = 2); the zeta family starts at B_4
        original = engines.tangent_numbers

        def wrong_first(n, *args):
            values, counters = original(n, *args)
            values[0] = 7
            return values, counters

        monkeypatch.setattr(engines, "tangent_numbers", wrong_first)
        code = run_cli(["verify", "-n", "40"])
        lines = capsys.readouterr().out.splitlines()
        assert code == 2
        assert lines[1].startswith("FAIL tangent: in-place vs triangle  [position 0:")
        assert "PASS von staudt-clausen denominators" in lines
        assert "PASS zeta ratio enclosure" in lines


class TestSizeChecks:
    """The oracles of the size families verify no longer runs (coefficient
    bound, bit gap, growth rate), held to known verdicts, so the
    implication tests in TestImpliedFamilies cannot pass on an oracle that
    accepts everything."""

    def test_fifty_terms(self):
        assert growth_oracle(tangent_numbers(50)[0])

    def test_single_term(self):
        # below n = 50 there is no growth-rate check
        assert growth_oracle([1])

    def test_coefficient_bound_spot_value(self):
        # the k = 4 instance of the bound: 272 * pi**6 <= 7! * 4**3
        _, pi_hi = pi_fractions()
        assert 272 * pi_hi**6 <= 5040 * 64

    def test_true_values_pass_the_coefficient_bound(self):
        assert all(coefficient_oracle(tangent_numbers(300)[0]))

    def test_doubled_value_fails_the_coefficient_bound(self):
        # T_k / (2k-1)! sits near 8/pi**2 = 0.81 of (2/pi)**(2k-2), so a
        # doubled T_150 breaks the bound at its own index
        tangent = tangent_numbers(150)[0]
        tangent[-1] *= 2
        assert coefficient_oracle(tangent) == [True] * 149 + [False]

    def test_largest_value_under_the_bound_passes(self):
        # T_50 raised to the largest integer the bound allows passes; one
        # more fails
        tangent = tangent_numbers(50)[0]
        _, hi, shift = pi_bounds()
        tangent[-1] = (math.factorial(99) << (98 * (shift + 1))) // hi**98
        assert all(coefficient_oracle(tangent))
        tangent[-1] += 1
        assert coefficient_oracle(tangent) == [True] * 49 + [False]

    @pytest.mark.parametrize("n,num,den", [(2, 3, 2), (300, 5, 4)])
    def test_raised_last_value_fails_the_coefficient_bound(self, n, num, den):
        # T_2 / 3! is 0.28 bits under (2/pi)**2 and T_300 / 599! is 0.30
        # bits under (2/pi)**598: T_2 * 3/2 and T_300 * 5/4 both break it
        tangent = tangent_numbers(n)[0]
        tangent[-1] = tangent[-1] * num // den
        assert coefficient_oracle(tangent) == [True] * (n - 1) + [False]

    def test_scaled_bernoulli_fails_the_bit_gap(self):
        # B_100 raised by 2**200 closes the 4n-bit gap to T_50 almost to 0
        tangent = tangent_numbers(50)[0]
        bernoulli = bernoulli_from_tangent(tangent)
        assert bit_gap_oracle(tangent, bernoulli)
        bernoulli[100] *= 2**200
        assert not bit_gap_oracle(tangent, bernoulli)
        assert growth_oracle(tangent)

    @pytest.mark.parametrize(
        "t_50", [lambda t: t << 400, lambda t: 1], ids=["inflated", "shrunk"]
    )
    def test_resized_last_value_fails_the_growth_rate(self, t_50):
        # bit length over 2n lg n goes from 0.80 to 1.51, or to 0.002
        tangent = tangent_numbers(50)[0]
        bernoulli = bernoulli_from_tangent(tangent)
        tangent[-1] = t_50(tangent[-1])
        assert not bit_gap_oracle(tangent, bernoulli)
        assert not growth_oracle(tangent)


class TestFermatDenominator:
    """The Fermat oracle passes true values and rejects denominators that
    no B_m can have."""

    def test_true_bernoulli_values_pass(self):
        values = bernoulli_from_tangent(tangent_numbers(15)[0])
        for m in range(2, 31, 2):
            assert fermat_oracle(m, values[m])

    def test_prime_outside_mersenne_fails(self):
        # 5 does not divide 2**6 - 1 = 63, so den 5 cannot appear in B_6
        assert not fermat_oracle(6, Fraction(1, 5))

    def test_large_prime_cofactor_fails(self):
        assert not fermat_oracle(6, Fraction(1, 2 * 1009))


class TestStabilityContrast:
    def test_double_precision(self):
        results = stability_contrast(53)
        assert len(results) == 3
        assert all(c.passed for c in results)

    def test_forty_bits(self):
        results = stability_contrast(40)
        assert len(results) == 3
        assert all(c.passed for c in results)

    @pytest.mark.parametrize("precision,count", [(24, 3), (56, 3), (57, 2)])
    def test_precision_boundaries(self, precision, count):
        # 24 is the least precision the CLI takes; 57 is the first without
        # the breakdown check
        results = stability_contrast(precision)
        assert len(results) == count
        assert all(c.passed for c in results)

    def test_wide_precision_drops_breakdown_check(self):
        results = stability_contrast(100)
        assert len(results) == 2
        assert all(c.passed for c in results)

    def test_rejects_thin_precision(self):
        with pytest.raises(ValueError):
            stability_contrast(16)

    def test_doubled_unstable_values_fail_the_low_accuracy_check(self, monkeypatch):
        original = checks.bernoulli_float_unstable
        monkeypatch.setattr(
            checks,
            "bernoulli_float_unstable",
            lambda m, precision: [2 * value for value in original(m, precision)],
        )
        assert stability_contrast(53) == (
            checks.CheckResult(
                "unstable recurrence accurate through index 20",
                False,
                "worst relative error 1.000e+00",
            ),
            checks.CheckResult(
                "unstable recurrence breaks down by index 60",
                True,
                "relative error 2.943e+02",
            ),
            checks.CheckResult(
                "scaled recurrence accurate through C_40",
                True,
                "worst relative error 6.554e-16",
            ),
        )

    def test_exact_unstable_values_fail_the_breakdown_check(self, monkeypatch):
        exact = bernoulli_from_tangent(tangent_numbers(30)[0])
        monkeypatch.setattr(
            checks, "bernoulli_float_unstable", lambda m, precision: exact[: m + 1]
        )
        assert stability_contrast(53)[:2] == (
            checks.CheckResult(
                "unstable recurrence accurate through index 20",
                True,
                "worst relative error 0.000e+00",
            ),
            checks.CheckResult(
                "unstable recurrence breaks down by index 60",
                False,
                "relative error 0.000e+00",
            ),
        )

    def test_perturbed_stable_values_fail_the_scaled_check(self, monkeypatch):
        original = checks.scaled_bernoulli_stable
        factor = 1 + Fraction(1, 10**9)
        monkeypatch.setattr(
            checks,
            "scaled_bernoulli_stable",
            lambda n, precision: [factor * c for c in original(n, precision)],
        )
        assert stability_contrast(53)[2] == checks.CheckResult(
            "scaled recurrence accurate through C_40",
            False,
            "worst relative error 1.000e-09",
        )


class TestFullVerification:
    def test_minimal(self):
        report = full_verification(1)
        assert report.all_pass
        assert len(report.checks) == 8

    def test_midsized_with_floats(self):
        report = full_verification(12, precision=53)
        assert report.all_pass
        assert len(report.checks) == 12

    def test_rejects_n_zero(self):
        with pytest.raises(ValueError):
            full_verification(0)

    def test_rejects_thin_precision_before_any_engine(self, monkeypatch):
        calls = Counter()
        original = engines.tangent_numbers

        def counted(*args):
            calls["tangent_numbers"] += 1
            return original(*args)

        monkeypatch.setattr(engines, "tangent_numbers", counted)
        with pytest.raises(ValueError, match="precision"):
            full_verification(40, precision=23)
        assert calls["tangent_numbers"] == 0
        assert full_verification(2, precision=24).all_pass
        assert calls["tangent_numbers"] > 0

    @pytest.mark.parametrize("n", [1, 2, 7, 40, 75])
    def test_hand_built_outputs_match_the_engine_table(self, monkeypatch, n):
        # full_verification makes every output itself, the unshared entries
        # in a forked child from n = 64, and hands them to _compare in one
        # dict; each must stay what the table's own entry produces
        handed = []
        original = checks._compare

        def recording(outputs):
            handed.append(dict(outputs))
            return original(outputs)

        monkeypatch.setattr(checks, "_compare", recording)
        cpus(monkeypatch, 2)
        assert full_verification(n).all_pass
        (outputs,) = handed
        labelled = {key for key, e in engines.ENGINES.items() if e.label}
        assert set(outputs) == labelled
        for key, values in outputs.items():
            reach = engines.REACH[key[0]] * n
            assert values == engines.ENGINES[key].produce(reach)[0]

    def test_whole_battery_past_128(self):
        # 130 > 128: the pi precision grows past 256 bits, and the rounding
        # budget is proved in closed form at every k up to 130
        assert full_verification(130).all_pass


class TestOneRunPerEngine:
    """verify runs each engine it needs once and hands the output to every
    family that reads it; nothing of a run is kept for the next."""

    @pytest.fixture
    def counted(self, monkeypatch, tmp_path):
        """calls() counts the calls each engine got, in this process and in
        verify's forked child alike: every call appends its name and pid to
        one log file opened with O_APPEND. A second CPU is reported, so the
        child forks whenever n is large enough."""
        log = tmp_path / "calls.log"
        log.touch()
        packed = []  # every PackedQuotient made

        def count(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                fd = os.open(log, os.O_WRONLY | os.O_APPEND)
                try:
                    os.write(fd, f"{name} {os.getpid()}\n".encode())
                finally:
                    os.close(fd)
                result = original(*args, **kwargs)
                if name == "packed_tangent_params":
                    packed.append(result)
                return result

            monkeypatch.setattr(module, name, wrapper)

        count(fastfixed, "packed_tangent_params")
        for name in (
            "tangent_numbers",
            "atkinson_tangent_secant",
            "bernoulli_from_tangent",
            *UNSHARED,
        ):
            count(engines, name)
        cpus(monkeypatch, 2)

        def calls(pid=None):
            lines = [line.split() for line in log.read_text().splitlines()]
            return Counter(name for name, at in lines if pid in (None, int(at)))

        return calls, packed

    @pytest.mark.parametrize("n", [2, 12, 40, 75, checks._SPLIT_FROM])
    def test_each_engine_once(self, counted, n):
        calls, _ = counted
        assert full_verification(n).all_pass
        shared = Counter(
            packed_tangent_params=1,
            atkinson_tangent_secant=1,
            tangent_numbers=1,
            bernoulli_from_tangent=1,
        )
        assert calls() == shared + Counter(UNSHARED)
        # from the fork gate on, the child makes the unshared Bernoulli
        # engines, and from the split size on the two secant engines too
        if n < checks._FORK_FROM:
            here = calls()
        elif n < checks._SPLIT_FROM:
            here = shared + Counter(SECANTS)
        else:
            here = shared
        assert calls(os.getpid()) == here

    def test_cross_check_alone_runs_the_tangent_row_once(self, counted):
        # the tangent reference row also feeds the Bernoulli reference, and
        # one triangle run feeds both triangle entries
        calls, _ = counted
        assert cross_check(50).all_pass
        assert calls() == Counter(
            packed_tangent_params=1,
            atkinson_tangent_secant=1,
            tangent_numbers=1,
            bernoulli_from_tangent=1,
            **Counter(UNSHARED),
        )

    def test_two_runs_divide_twice_and_keep_nothing(self, counted):
        calls, packed = counted
        for run in (1, 2):
            assert full_verification(20).all_pass
            assert calls()["packed_tangent_params"] == run
            gc.collect()
            assert [gc.get_referrers(q) for q in packed] == [[packed]] * run

    def test_n_one_runs_no_packed_division(self, counted):
        calls, _ = counted
        assert full_verification(1).all_pass
        assert calls()["packed_tangent_params"] == 0


class TestSecondProcess:
    """From n = _FORK_FROM on, with a second CPU and one thread, verify runs
    entries that share no run in a forked child: the Bernoulli ones, and
    from n = _SPLIT_FROM on the secant ones too. Nothing but speed may tell
    the two paths apart."""

    @pytest.fixture
    def forks(self, monkeypatch):
        """The number of forks made, as a one-item list."""
        made = [0]
        original = os.fork

        def counted():
            made[0] += 1
            return original()

        monkeypatch.setattr(os, "fork", counted)
        return made

    @pytest.fixture
    def run_both(self, monkeypatch, capsys, forks):
        """run_both(*argv) gives (exit code, stdout, stderr) of run_cli on
        the inline path, then on the forked path, and checks that only the
        second one forks and that neither leaves a child behind."""

        def run(*argv):
            results = []
            for count, expected_forks in ((1, 0), (2, 1)):
                cpus(monkeypatch, count)
                code = run_cli(list(argv))
                results.append((code, *capsys.readouterr()))
                assert forks[0] == expected_forks
                assert_no_child_left()
            return results

        return run

    @pytest.mark.parametrize(
        "argv",
        [
            ["-n", "64"],
            ["-n", "75"],
            ["-n", "129"],
            ["-n", "75", "--precision", "53"],
            ["-n", str(checks._SPLIT_FROM - 1)],
            ["-n", str(checks._SPLIT_FROM)],
        ],
    )
    @pytest.mark.parametrize("fmt", ["plain", "json"])
    def test_reports_are_byte_identical(self, run_both, argv, fmt):
        inline, forked = run_both("verify", *argv, "--format", fmt)
        assert inline == forked
        assert inline[0] == 0 and inline[2] == ""

    def test_child_fault_exits_three_with_the_serial_message(
        self, monkeypatch, run_both
    ):
        def broken(n):
            raise IntegrityError("packed secant forced to fail")

        monkeypatch.setattr(engines, "fast_secant_numbers", broken)
        inline, forked = run_both("verify", "-n", "75")
        assert inline == forked
        assert inline == (3, "", "integrity error: packed secant forced to fail\n")

    def test_child_internal_fault_names_the_engine_frame(self, monkeypatch, run_both):
        def bernoulli_via_series(m):
            raise ValueError("series forced to fail")

        monkeypatch.setattr(engines, "bernoulli_via_series", bernoulli_via_series)
        inline, forked = run_both("verify", "-n", "75")
        for code, out, err in (inline, forked):
            assert (code, out) == (3, "")
            assert err.startswith("internal error:\n")
            assert err.endswith("\nValueError: series forced to fail\n")
            assert ", in bernoulli_via_series\n" in err
        # the child's traceback is the cause of the exception join raises
        assert "direct cause" not in inline[2]
        cause, raised = forked[2].split("\nThe above exception was the direct cause")
        assert ", in bernoulli_via_series\n" in cause
        assert raised.count("Traceback (most recent call last):") == 1

    @pytest.mark.parametrize(
        "error",
        [lambda m: TwoArgError("series", m), lambda m: LambdaError(f"series at {m}")],
        ids=["two-args", "lambda-attribute"],
    )
    def test_child_fault_pickle_cannot_carry_keeps_its_message(
        self, monkeypatch, run_both, error
    ):
        def bernoulli_via_series(m):
            raise error(m)

        monkeypatch.setattr(engines, "bernoulli_via_series", bernoulli_via_series)
        inline, forked = run_both("verify", "-n", "75")
        name = type(error(150)).__name__
        for code, out, err in (inline, forked):
            assert (code, out) == (3, "")
            assert err.startswith("internal error:\n")
            assert err.endswith(f"{name}: series at 150\n")
            assert ", in bernoulli_via_series\n" in err
        # the forked path raises the message from the child's traceback
        cause, raised = forked[2].split("\nThe above exception was the direct cause")
        assert ", in bernoulli_via_series\n" in cause
        assert raised.endswith(f"_ChildTraceback: {name}: series at 150\n")

    def test_parent_fault_exits_three_and_kills_the_child(
        self, monkeypatch, run_both
    ):
        def broken(n, half_block_bits=None):
            raise IntegrityError("packed tangent forced to fail")

        monkeypatch.setattr(fastfixed, "packed_tangent_params", broken)
        inline, forked = run_both("verify", "-n", "75")
        assert inline == forked
        assert inline == (3, "", "integrity error: packed tangent forced to fail\n")

    @pytest.mark.parametrize(
        "broken,first",
        [
            # a shared run fails before the unshared engines would run
            (
                [(fastfixed, "packed_tangent_params"), (engines, AKIYAMA)],
                "packed_tangent_params",
            ),
            # an unshared engine fails before the other families would run
            ([(checks, "_zeta_enclosures"), (engines, AKIYAMA)], AKIYAMA),
            # below the split size the parent's secant engines come before
            # the child's Bernoulli engines
            (
                [(engines, "fast_secant_numbers"), (engines, AKIYAMA)],
                "fast_secant_numbers",
            ),
            (
                [(engines, "secant_numbers"), (engines, "bernoulli_via_series")],
                "secant_numbers",
            ),
        ],
    )
    def test_faults_surface_in_serial_order(
        self, monkeypatch, run_both, broken, first
    ):
        def fail(name):
            def raiser(*args, **kwargs):
                raise IntegrityError(f"{name} forced to fail")

            return raiser

        for module, name in broken:
            monkeypatch.setattr(module, name, fail(name))
        assert 75 < checks._SPLIT_FROM
        inline, forked = run_both("verify", "-n", "75")
        assert inline == forked
        assert inline == (3, "", f"integrity error: {first} forced to fail\n")

    def test_wrong_child_engine_fails_its_cross_check_alone(
        self, monkeypatch, run_both
    ):
        original = engines.akiyama_tanigawa_bernoulli

        def one_wrong(m):
            values = original(m)
            values[10] += 1
            return values

        monkeypatch.setattr(engines, "akiyama_tanigawa_bernoulli", one_wrong)
        inline, forked = run_both("verify", "-n", "75", "--format", "json")
        assert inline == forked
        assert inline[0] == 2 and inline[2] == ""
        failed = [c for c in json.loads(inline[1])["checks"] if not c["passed"]]
        expected = [c for c in cross_check(75).checks if not c.passed]
        assert [tuple(c.values()) for c in failed] == expected
        assert [c.name for c in expected] == [
            "bernoulli: tangent route vs akiyama-tanigawa"
        ]

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no /proc")
    def test_failed_fork_runs_inline_and_closes_its_pipe(self, monkeypatch, capsys):
        refused = []

        def refuse():
            refused.append(True)
            raise OSError(errno.EAGAIN, "fork refused")

        cpus(monkeypatch, 1)
        assert run_cli(["verify", "-n", "75"]) == 0
        inline = capsys.readouterr()
        monkeypatch.setattr(os, "fork", refuse)
        cpus(monkeypatch, 2)
        fds = len(os.listdir("/proc/self/fd"))
        assert run_cli(["verify", "-n", "75"]) == 0
        assert len(os.listdir("/proc/self/fd")) == fds
        assert capsys.readouterr() == inline
        assert refused == [True]

    def test_child_that_dies_raises_child_process_error(self, monkeypatch, forks):
        def die(n):
            os._exit(7)

        monkeypatch.setattr(engines, "bernoulli_via_series", die)
        cpus(monkeypatch, 2)
        with pytest.raises(ChildProcessError, match="exit code 7"):
            full_verification(75)
        assert forks[0] == 1
        assert_no_child_left()

    def test_normal_run_leaves_no_child(self, monkeypatch, forks):
        cpus(monkeypatch, 2)
        assert full_verification(checks._FORK_FROM).all_pass
        assert forks[0] == 1
        assert_no_child_left()

    @pytest.fixture
    def no_fork(self, monkeypatch):
        def refuse():
            raise AssertionError("os.fork called")

        monkeypatch.setattr(os, "fork", refuse)

    def test_one_cpu_never_forks(self, monkeypatch, no_fork):
        cpus(monkeypatch, 1)
        assert full_verification(75).all_pass

    def test_second_thread_never_forks(self, monkeypatch, no_fork):
        cpus(monkeypatch, 2)
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            assert full_verification(75).all_pass
        finally:
            release.set()
            thread.join()

    def test_below_the_gate_never_forks(self, monkeypatch, no_fork):
        cpus(monkeypatch, 2)
        assert full_verification(checks._FORK_FROM - 1).all_pass


def over_budget_exact_leg(monkeypatch):
    """Make the packed tangent record's exact distance den, a whole unit:
    over the 0.12 budget, with its quotient and blocks intact."""
    original = fastfixed.packed_tangent_params

    def whole_unit(n, half_block_bits=None):
        params = original(n, half_block_bits)
        return params._replace(distance=params.den)

    monkeypatch.setattr(fastfixed, "packed_tangent_params", whole_unit)


class TestRoundingBudget:
    def test_over_budget_exact_distance_fails(self, capsys, monkeypatch):
        over_budget_exact_leg(monkeypatch)
        code = run_cli(["verify", "-n", "5"])
        out = capsys.readouterr().out
        assert code == 2
        # the closed form still holds; the exact audit runs at k = N only
        assert "FAIL packed-quotient rounding budget  [n=5]" in out.splitlines()

    def test_closed_form_over_budget_fails_at_its_k(self, capsys, monkeypatch):
        original = checks._rounding_budget_bounds

        def over_at_three():
            for k, (num, den) in enumerate(original(), start=2):
                yield (den, den) if k == 3 else (num, den)

        monkeypatch.setattr(checks, "_rounding_budget_bounds", over_at_three)
        code = run_cli(["verify", "-n", "5"])
        out = capsys.readouterr().out
        assert code == 2
        assert (
            "FAIL packed-quotient rounding budget  [n=3: closed form is not below 0.12]"
            in out.splitlines()
        )

    def test_closed_form_miss_is_witnessed_before_the_exact_one(
        self, capsys, monkeypatch
    ):
        original_bounds = checks._rounding_budget_bounds

        def over_at_three():
            for k, (num, den) in enumerate(original_bounds(), start=2):
                yield (den, den) if k == 3 else (num, den)

        monkeypatch.setattr(checks, "_rounding_budget_bounds", over_at_three)
        over_budget_exact_leg(monkeypatch)
        code = run_cli(["verify", "-n", "5"])
        out = capsys.readouterr().out
        assert code == 2
        assert (
            "FAIL packed-quotient rounding budget  [n=3: closed form is not below 0.12]"
            in out.splitlines()
        )

    def test_witness_names_the_proof(self):
        report = full_verification(6)
        [budget] = [
            c for c in report.checks if c.name == "packed-quotient rounding budget"
        ]
        assert budget.passed
        assert budget.witness == (
            "closed form n = 2..6, exact n = 6, least margin 0.74 bits"
        )


def quotient_one_high(q, r, den):
    return q + 1, r


def remainder_one_off(q, r, den):
    if den == 1:  # no other remainder is in range
        return q, r
    return q, r + 1 if r + 1 < den else r - 1


class TestWrongQuotient:
    """A _divmod that returns a wrong pair with its remainder still in range
    passes the range check; the audit modulo 2**61 - 1 must reject it, in
    the one division every packed engine goes through."""

    @pytest.fixture(params=[quotient_one_high, remainder_one_off], ids=lambda f: f.__name__)
    def wrong_divmod(self, request, monkeypatch):
        original = intops._divmod

        def wrong(num, den):
            q, r = request.param(*original(num, den), den)
            assert 0 <= r < den  # so only the audit can see it
            return q, r

        monkeypatch.setattr(intops, "_divmod", wrong)

    def test_round_nearest_div_raises(self, wrong_divmod):
        for num, den in (7, 2), (36480, 372), (3**9000, 7**3000 + 2):
            with pytest.raises(IntegrityError, match=r"mod 2\*\*61 - 1"):
                intops.round_nearest_div(num, den)

    def test_recursive_packed_division_raises(self, wrong_divmod):
        with pytest.raises(IntegrityError, match=r"mod 2\*\*61 - 1"):
            packed_tangent_params(300)

    def test_verify_exits_three(self, capsys, wrong_divmod):
        assert run_cli(["verify", "-n", "5"]) == 3
        err = capsys.readouterr().err
        assert "integrity error: q*den + r misses num mod 2**61 - 1" in err


def exact_rounding_budget_bounds():
    """The closed-form rounding bounds of _rounding_budget_bounds at sizes
    n = 2, 3, ..., with exact powers of pi_bounds(32)."""
    a, e, g = pi_bounds(32)
    factorial = 1
    for k in itertools.count(2):
        factorial *= (2 * k - 2) * (2 * k - 1)
        p = fastfixed.least_half_block_bits(k)
        tail_num = factorial * e**6 << (2 * k * (g + 1) + 2 * g + 3)
        tail_den = 945 * a ** (2 * k) * ((a * a << (2 * p)) - (1 << (2 * g + 2)))
        tail = Fraction(tail_num, tail_den << (6 * g))
        cut_num = (k + 1) << (2 * p + 2)
        cut_den = k * (2 * k + 1) * ((1 << (2 * p + 1)) - 1) ** 2
        yield tail + Fraction(cut_num, cut_den)


class TestOutwardPowers:
    @given(
        st.integers(1, 2**300),
        st.integers(1, 100),
        st.booleans(),
        st.integers(1, 12),
    )
    def test_one_sided_and_short(self, base, bits, up, last):
        powers = checks._outward_powers(base, bits, up)
        for j, (m, e) in enumerate(itertools.islice(powers, last), start=1):
            exact = base**j
            assert m << e >= exact if up else m << e <= exact
            assert 0 < m < 1 << bits
            if j << 2 < 1 << bits:  # j cuts move it by less than j 2**(3-bits)
                assert abs((m << e) - exact) << bits < j * exact << 3

    def test_exact_while_short(self):
        powers = checks._outward_powers(3, 64, up=False)
        assert list(itertools.islice(powers, 40)) == [(3**j, 0) for j in range(1, 41)]

    def test_rounding_up_cannot_carry_out(self):
        # rounding up cuts to bits - 1 bits, so 255 at 4 bits is 8 * 2**5
        assert next(checks._outward_powers(2**8 - 1, 4, up=True)) == (8, 5)


class TestRoundingBudgetBound:
    def test_short_powers_only_raise_the_bound(self):
        for (n, (num, den)), exact in zip(
            rounding_budget_bounds(300), exact_rounding_budget_bounds()
        ):
            short = Fraction(num, den)
            assert exact <= short < exact * (1 + Fraction(1, 2**50)), n

    def test_covers_the_exact_distance(self):
        # the closed form forces the rounded quotient onto the block sum, so
        # it must bound the engine's exact distance; at n = 2 that is 2/31
        # against a bound of 0.0721, and neither term alone reaches it
        for n, (num, den) in rounding_budget_bounds(150):
            q = packed_tangent_params(n)
            assert num * q.den >= q.distance * den, n

    def test_under_budget_through_a_thousand(self):
        for n, (num, den) in rounding_budget_bounds(1000):
            assert 100 * num < 12 * den, n

    def test_value_at_two(self):
        bound = Fraction(*next(checks._rounding_budget_bounds()))
        assert Fraction(72, 1000) < bound < Fraction(73, 1000)
