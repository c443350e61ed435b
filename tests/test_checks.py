"""Tests for the verification layer."""

from __future__ import annotations

import gc
import itertools
import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import btseq.checks as checks
import btseq.engines as engines
import btseq.fastfixed as fastfixed
from btseq.checks import (
    cross_check,
    fermat_denominator_check,
    full_verification,
    pi_bounds,
    size_checks,
    stability_contrast,
    tangent_tail_audit,
    von_staudt_clausen,
)
from btseq.cli import run_cli
from btseq.fastfixed import packed_tangent_params, quotient_rounding_distance
from btseq.intops import IntegrityError
from btseq.recurrences import bernoulli_from_tangent, tangent_numbers

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


def tail_oracle(n, tangent):
    """Whether the tail audit at n passes, by the exact Fraction sum over
    T_(n+1)..T_(n+5) with its 3 percent allowance."""
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
        # powers of the pi bounds, lands on its bound
        lo, hi, shift = pi_bounds(checks._zeta_pi_bits(30))
        target = (1, 1 + Fraction(1, 2**59))[end]
        scale = 2 * math.factorial(60) << (60 * shift)
        value = target * Fraction(scale, (2 * (lo, hi)[end]) ** 60)
        assert zeta_result(bernoulli_600, 60, value) == checks.CheckResult(
            "zeta ratio enclosure", False, f"index 60: {witness}"
        )

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


class TestSizeChecks:
    def test_fifty_terms(self):
        tangent, _ = tangent_numbers(50)
        results = size_checks(tangent, bernoulli_from_tangent(tangent))
        assert len(results) == 3
        assert all(c.passed for c in results)

    def test_single_term(self):
        results = size_checks([1], [Fraction(1), Fraction(-1, 2), Fraction(1, 6)])
        assert len(results) == 1
        assert all(c.passed for c in results)

    def test_coefficient_bound_spot_value(self):
        # the k = 4 instance of the bound: 272 * pi**6 <= 7! * 4**3
        _, pi_hi = pi_fractions()
        assert 272 * pi_hi**6 <= 5040 * 64

    def test_true_values_pass_the_coefficient_bound(self):
        tangent, _ = tangent_numbers(300)
        results = size_checks(tangent, bernoulli_from_tangent(tangent))
        assert results[0].name == "tangent coefficient bound"
        assert results[0].passed

    def test_doubled_value_fails_the_coefficient_bound(self):
        # T_k / (2k-1)! sits near 8/pi**2 = 0.81 of (2/pi)**(2k-2), so a
        # doubled T_150 breaks the bound at its own index
        tangent = tangent_numbers(150)[0]
        tangent[-1] *= 2
        results = size_checks(tangent, bernoulli_from_tangent(tangent))
        assert results[0] == checks.CheckResult(
            "tangent coefficient bound",
            False,
            "k=150: T_k exceeds (2k-1)! (2/pi)**(2k-2)",
        )

    def test_largest_value_under_the_bound_passes(self):
        # T_50 raised to the largest integer the bound allows is within
        # 2**-450 of it, relative, so the rounded-up short power misses it
        # and the exact power decides; one more fails
        tangent = tangent_numbers(50)[0]
        bernoulli = bernoulli_from_tangent(tangent)
        _, hi, shift = pi_bounds()
        tangent[-1] = (math.factorial(99) << (98 * (shift + 1))) // hi**98
        assert size_checks(tangent, bernoulli)[0].passed
        tangent[-1] += 1
        assert size_checks(tangent, bernoulli)[0] == checks.CheckResult(
            "tangent coefficient bound",
            False,
            "k=50: T_k exceeds (2k-1)! (2/pi)**(2k-2)",
        )

    @pytest.mark.parametrize("n,num,den", [(2, 3, 2), (300, 5, 4)])
    def test_raised_last_value_fails_the_coefficient_bound(self, n, num, den):
        # T_2 / 3! is 0.28 bits under (2/pi)**2 and T_300 / 599! is 0.30
        # bits under (2/pi)**598: T_2 * 3/2 and T_300 * 5/4 both break it
        tangent = tangent_numbers(n)[0]
        bernoulli = bernoulli_from_tangent(tangent)
        tangent[-1] = tangent[-1] * num // den
        assert size_checks(tangent, bernoulli)[0] == checks.CheckResult(
            "tangent coefficient bound",
            False,
            f"k={n}: T_k exceeds (2k-1)! (2/pi)**(2k-2)",
        )

    def test_scaled_bernoulli_fails_the_bit_gap(self):
        # B_100 raised by 2**200 closes the 4n-bit gap to T_50 almost to 0
        tangent = tangent_numbers(50)[0]
        bernoulli = bernoulli_from_tangent(tangent)
        bernoulli[100] *= 2**200
        assert size_checks(tangent, bernoulli)[1:] == (
            checks.CheckResult(
                "tangent vs bernoulli bit gap",
                False,
                "gap=-7 outside 4n +- 16 lg n at n=50",
            ),
            checks.CheckResult("tangent bit growth rate", True),
        )

    @pytest.mark.parametrize(
        "t_50,gap,ratio",
        [(lambda t: t << 400, 593, "1.513"), (lambda t: 1, -260, "0.002")],
        ids=["inflated", "shrunk"],
    )
    def test_resized_last_value_fails_the_growth_rate(self, t_50, gap, ratio):
        tangent = tangent_numbers(50)[0]
        bernoulli = bernoulli_from_tangent(tangent)
        tangent[-1] = t_50(tangent[-1])
        assert size_checks(tangent, bernoulli)[1:] == (
            checks.CheckResult(
                "tangent vs bernoulli bit gap",
                False,
                f"gap={gap} outside 4n +- 16 lg n at n=50",
            ),
            checks.CheckResult("tangent bit growth rate", False, f"ratio={ratio}"),
        )

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            size_checks([1], [Fraction(1)])


class TestFermatDenominator:
    def test_true_bernoulli_values_pass(self):
        values = bernoulli_from_tangent(tangent_numbers(15)[0])
        for m in range(2, 31, 2):
            assert fermat_denominator_check(m, values[m])

    def test_prime_outside_mersenne_fails(self):
        # 5 does not divide 2**6 - 1 = 63, so den 5 cannot appear in B_6
        assert not fermat_denominator_check(6, Fraction(1, 5))

    def test_large_prime_cofactor_fails(self):
        assert not fermat_denominator_check(6, Fraction(1, 2 * 1009))

    def test_rejects_odd_index(self):
        with pytest.raises(ValueError):
            fermat_denominator_check(3, Fraction(1, 6))


class TestTangentTailAudit:
    def test_bounds_ordered_and_small(self):
        assert tangent_tail_audit(tangent_numbers(35)[0]) == [True] * 29

    def test_agrees_with_the_fraction_sum(self):
        row = tangent_numbers(65)[0]
        assert tangent_tail_audit(row) == [tail_oracle(n, row) for n in range(2, 61)]
        assert all(tangent_tail_audit(row))

    @pytest.mark.parametrize("k", [9, 20, 40, 60])
    def test_raised_value_agrees_with_the_fraction_sum(self, k):
        # the least factor on T_k that fails the audit at n = k-1 by the
        # Fraction sum; the integer audit must flip there too, and agree
        # with the sum at every other n
        row = tangent_numbers(65)[0]

        def raised(factor):
            values = list(row)
            values[k - 1] *= factor
            return values

        lo, hi = 1, 2
        while tail_oracle(k - 1, raised(hi)):
            lo, hi = hi, 2 * hi
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if tail_oracle(k - 1, raised(mid)) else (lo, mid)
        for factor, holds in ((lo, True), (hi, False)):
            values = raised(factor)
            verdicts = tangent_tail_audit(values)
            assert verdicts == [tail_oracle(n, values) for n in range(2, 61)]
            assert verdicts[k - 3] is holds

    def test_rejects_small_n(self):
        # [T_1..T_6] covers only N = 1, below the packing regime
        with pytest.raises(ValueError):
            tangent_tail_audit(tangent_numbers(6)[0])
        assert tangent_tail_audit(tangent_numbers(7)[0]) == [True]

    def test_rejects_row_without_tail_terms(self):
        with pytest.raises(ValueError):
            tangent_tail_audit(tangent_numbers(4)[0])


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
        assert len(report.checks) == 10

    def test_midsized_with_floats(self):
        report = full_verification(12, precision=53)
        assert report.all_pass
        assert len(report.checks) == 16

    def test_tail_audit_states_its_cap(self):
        report = full_verification(35)
        tail = [c for c in report.checks if c.name == "packed-quotient tail bound"]
        assert tail[0].passed
        assert tail[0].witness == "audited n = 2..35"

    def test_tail_audit_reaches_past_thirty(self, monkeypatch):
        # T_36 (293 bits) raised to 393 bits puts the k = 35 tail, whose
        # first term is T_36 / (70 * 71 * 2**360), far above 1/10; only the
        # audit reads T_36, so every other family still passes
        original = checks.tangent_numbers

        def raised_t36(n, *args):
            values, counters = original(n, *args)
            if len(values) > 35:
                values[35] <<= 100
            return values, counters

        monkeypatch.setattr(checks, "tangent_numbers", raised_t36)
        report = full_verification(35)
        failed = [c for c in report.checks if not c.passed]
        assert [(c.name, c.witness) for c in failed] == [
            ("packed-quotient tail bound", "n=35")
        ]

    def test_rejects_n_zero(self):
        with pytest.raises(ValueError):
            full_verification(0)

    def test_rejects_thin_precision_before_any_engine(self, monkeypatch):
        calls = Counter()
        original = checks.tangent_numbers

        def counted(*args):
            calls["tangent_numbers"] += 1
            return original(*args)

        monkeypatch.setattr(checks, "tangent_numbers", counted)
        with pytest.raises(ValueError, match="precision"):
            full_verification(40, precision=23)
        assert calls["tangent_numbers"] == 0
        assert full_verification(2, precision=24).all_pass
        assert calls["tangent_numbers"] > 0

    @pytest.mark.parametrize("n", [1, 2, 7, 40])
    def test_hand_built_outputs_match_the_engine_table(self, monkeypatch, n):
        # full_verification makes some runs itself and hands them to
        # cross_check; each must stay what the table's own run produces
        handed = []
        original = checks.cross_check

        def recording(n, runs=None):
            handed.append({key: list(output[0]) for key, output in runs.items()})
            assert all(output[1] is None for output in runs.values())
            return original(n, runs)

        monkeypatch.setattr(checks, "cross_check", recording)
        assert full_verification(n).all_pass
        (seeded,) = handed
        expected_keys = {("recurrence", n)}
        if n >= 2:
            expected_keys.add(("fast", n))
        assert set(seeded) == expected_keys
        for (run, size), values in seeded.items():
            assert values == engines.RUNS[run](size)[0]

    def test_whole_battery_past_128(self):
        # 130 > 128: the pi precision grows past 256 bits, and the rounding
        # budget is proved in closed form at every k up to 130
        assert full_verification(130).all_pass


class TestOneRunPerEngine:
    """verify runs each engine it needs once and hands the output to every
    family that reads it; nothing of a run is kept for the next."""

    @pytest.fixture
    def counted(self, monkeypatch):
        calls = Counter()
        packed = []  # every PackedQuotient made

        def count(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                result = original(*args, **kwargs)
                if name == "packed_tangent_params":
                    packed.append(result)
                return result

            monkeypatch.setattr(module, name, wrapper)

        count(fastfixed, "packed_tangent_params")
        count(engines, "atkinson_tangent_secant")
        count(engines, "bernoulli_from_tangent")
        for module in (checks, engines):
            count(module, "tangent_numbers")
        return calls, packed

    @pytest.mark.parametrize("n", [2, 12, 40])
    def test_each_engine_once(self, counted, n):
        calls, _ = counted
        assert full_verification(n).all_pass
        assert calls == Counter(
            packed_tangent_params=1,
            atkinson_tangent_secant=1,
            tangent_numbers=1,
            bernoulli_from_tangent=1,
        )

    def test_cross_check_alone_runs_the_tangent_row_once(self, counted):
        # the tangent reference row also feeds the Bernoulli reference, and
        # one triangle run feeds both triangle entries
        calls, _ = counted
        assert cross_check(50).all_pass
        assert calls == Counter(
            packed_tangent_params=1,
            atkinson_tangent_secant=1,
            tangent_numbers=1,
            bernoulli_from_tangent=1,
        )

    def test_two_runs_divide_twice_and_keep_nothing(self, counted):
        calls, packed = counted
        for run in (1, 2):
            assert full_verification(20).all_pass
            assert calls["packed_tangent_params"] == run
            gc.collect()
            assert [gc.get_referrers(q) for q in packed] == [[packed]] * run

    def test_n_one_runs_no_packed_division(self, counted):
        calls, _ = counted
        assert full_verification(1).all_pass
        assert calls["packed_tangent_params"] == 0


class TestRoundingBudget:
    def test_off_by_one_quotient_fails(self, capsys, monkeypatch):
        original = fastfixed.packed_tangent_params

        def off_by_one(n, half_block_bits=None):
            params = original(n, half_block_bits)
            return params._replace(packed=params.packed + 1)

        monkeypatch.setattr(fastfixed, "packed_tangent_params", off_by_one)
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

    def test_witness_names_the_proof(self):
        report = full_verification(6)
        [budget] = [
            c for c in report.checks if c.name == "packed-quotient rounding budget"
        ]
        assert budget.passed
        assert budget.witness == (
            "closed form n = 2..6, exact n = 6, least margin 0.74 bits"
        )


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
            d, d_den = quotient_rounding_distance(packed_tangent_params(n))
            assert num * d_den >= d * den, n

    def test_under_budget_through_a_thousand(self):
        for n, (num, den) in rounding_budget_bounds(1000):
            assert 100 * num < 12 * den, n

    def test_value_at_two(self):
        bound = Fraction(*next(checks._rounding_budget_bounds()))
        assert Fraction(72, 1000) < bound < Fraction(73, 1000)
