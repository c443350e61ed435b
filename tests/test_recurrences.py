"""Tests for the quadratic-time exact engines.

The in-place row updates are checked against dense derivative-coefficient
tables built here by an independent route: for tangent, the polynomials
P_0 = t, P_m = (1 + t**2) * P_{m-1}' with T_k read off as P_{2k-1}(0); for
secant, the triangle q_{n+1,k} = k*q_{n,k-1} + (k+1)*q_{n,k+1} seeded at
q_{0,0} = 1 with S_k = q_{2k,0}.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from math import factorial

import pytest

from btseq.recurrences import (
    OpCounters,
    akiyama_tanigawa_bernoulli,
    atkinson_tangent_secant,
    bernoulli_float_unstable,
    bernoulli_from_tangent,
    scaled_bernoulli_stable,
    secant_numbers,
    tangent_numbers,
)
from btseq.softfloat import round_float

# B_0..B_14, the classical table row every engine must reproduce
BERNOULLI_0_14 = [
    Fraction(1),
    Fraction(-1, 2),
    Fraction(1, 6),
    Fraction(0),
    Fraction(-1, 30),
    Fraction(0),
    Fraction(1, 42),
    Fraction(0),
    Fraction(-1, 30),
    Fraction(0),
    Fraction(5, 66),
    Fraction(0),
    Fraction(-691, 2730),
    Fraction(0),
    Fraction(7, 6),
]


def tangent_poly_table(rows: int) -> list[list[int]]:
    """Dense table p[m][j] = coefficient of t**j in P_m."""
    table = [[0, 1]]  # P_0 = t
    for m in range(1, rows + 1):
        prev = table[-1]
        deriv = [j * prev[j] for j in range(1, len(prev))]
        row = deriv + [0, 0]
        for j, c in enumerate(deriv):
            row[j + 2] += c
        table.append(row)
    return table


def secant_poly_table(rows: int) -> list[list[int]]:
    """Dense table q[n][k] built from q_{n+1,k} = k*q_{n,k-1} + (k+1)*q_{n,k+1}."""
    table = [[1]]
    for n in range(rows):
        prev = table[-1] + [0, 0]
        row = [0] * (len(table[-1]) + 1)
        for k in range(len(row)):
            left = prev[k - 1] if k >= 1 else 0
            row[k] = k * left + (k + 1) * prev[k + 1]
        table.append(row)
    return table


class TestTangentNumbers:
    @pytest.mark.parametrize(
        "n,expected",
        [
            (1, [1]),
            (3, [1, 2, 16]),
            (5, [1, 2, 16, 272, 7936]),
        ],
    )
    def test_known_values(self, n, expected):
        values, _ = tangent_numbers(n)
        assert values == expected

    def test_matches_dense_polynomial_table(self):
        table = tangent_poly_table(23)
        values, _ = tangent_numbers(12)
        assert values == [table[2 * k - 1][0] for k in range(1, 13)]

    def test_polynomial_table_parity(self):
        # P_m only carries powers of t with the opposite parity of m
        for m, row in enumerate(tangent_poly_table(15)):
            for j, c in enumerate(row):
                if (m + j) % 2 == 0:
                    assert c == 0

    def test_trace_covers_the_dense_table(self):
        # after inner update (k, j) the row holds p[j+k-2][j-k+1] / (j-k)!
        table = tangent_poly_table(2 * 8)
        seen = []
        tangent_numbers(
            8, trace=lambda k, row: seen.extend((k, j, row[j]) for j in range(k, 9))
        )
        assert seen, "trace callback never fired"
        for k, j, value in seen:
            assert value * factorial(j - k) == table[j + k - 2][j - k + 1]

    @pytest.mark.parametrize("n", [2, 50, 400])
    def test_no_intermediate_exceeds_the_last_value(self, n):
        peaks = []
        values, _ = tangent_numbers(n, trace=lambda k, row: peaks.append(max(row)))
        assert len(peaks) == n - 1
        assert max(peaks) == values[-1]

    def test_trace_order_n3(self):
        seen = []
        tangent_numbers(
            3, trace=lambda k, row: seen.extend((k, j, row[j]) for j in range(k, 4))
        )
        assert seen == [(2, 2, 2), (2, 3, 8), (3, 3, 16)]

    @pytest.mark.parametrize("n", [1, 2, 5, 100, 500])
    def test_counters(self, n):
        _, ops = tangent_numbers(n)
        trips = n * (n - 1) // 2
        assert ops.loop_trips == trips
        assert ops.additions == trips
        assert ops.multiplications == trips - (n - 1)

    def test_rejects_n_zero(self):
        with pytest.raises(ValueError):
            tangent_numbers(0)


class TestSecantNumbers:
    @pytest.mark.parametrize(
        "n,expected",
        [
            (0, [1]),
            (3, [1, 1, 5, 61]),
            (4, [1, 1, 5, 61, 1385]),
        ],
    )
    def test_known_values(self, n, expected):
        values, _ = secant_numbers(n)
        assert values == expected

    def test_matches_dense_triangle(self):
        table = secant_poly_table(24)
        values, _ = secant_numbers(12)
        assert values == [table[2 * k][0] for k in range(13)]

    @pytest.mark.parametrize("n", [0, 1, 5, 100])
    def test_counters(self, n):
        _, ops = secant_numbers(n)
        trips = n * (n - 1) // 2
        assert ops.loop_trips == trips
        assert ops.additions == ops.multiplications == trips

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            secant_numbers(-1)


class TestBernoulliFromTangent:
    def test_pinned_row(self):
        tangent, _ = tangent_numbers(7)
        assert bernoulli_from_tangent(tangent) == BERNOULLI_0_14

    def test_empty_tangent(self):
        assert bernoulli_from_tangent([]) == [Fraction(1)]

    def test_odd_entries_zero(self):
        tangent, _ = tangent_numbers(20)
        values = bernoulli_from_tangent(tangent)
        assert len(values) == 41
        assert values[1] == Fraction(-1, 2)
        assert all(values[m] == 0 for m in range(3, 41, 2))

    def test_signs_alternate_on_even_entries(self):
        tangent, _ = tangent_numbers(10)
        values = bernoulli_from_tangent(tangent)
        for k in range(1, 11):
            assert (values[2 * k] > 0) == (k % 2 == 1)

    @pytest.mark.parametrize(
        "tangent",
        [tangent_numbers(300)[0], [0, -3, 96, 0, -7]],
        ids=["T_1..T_300", "zero_and_negative_entries"],
    )
    def test_matches_plain_fraction(self, tangent):
        # the shift-and-odd-gcd reduction against Fraction's own full gcd
        values = bernoulli_from_tangent(tangent)
        for k, t in enumerate(tangent, start=1):
            den = (1 << (2 * k - 1)) * ((1 << (2 * k)) - 1)
            assert values[2 * k] == Fraction((-1) ** (k - 1) * k * t, den), k


class TestAtkinson:
    @pytest.mark.parametrize("n", [*range(1, 61), 1000])
    def test_matches_row_engines(self, n):
        tangent, secant, _ = atkinson_tangent_secant(n)
        assert tangent == tangent_numbers(n)[0]
        assert secant == secant_numbers(n)[0]

    @pytest.mark.parametrize("n", [1, 5, 100])
    def test_addition_count(self, n):
        _, _, ops = atkinson_tangent_secant(n)
        assert ops.additions == 2 * n * n + n
        assert ops.multiplications == 0

    def test_rejects_n_zero(self):
        with pytest.raises(ValueError):
            atkinson_tangent_secant(0)


class TestAkiyamaTanigawa:
    def test_matches_tangent_route(self):
        tangent, _ = tangent_numbers(15)
        assert akiyama_tanigawa_bernoulli(30) == bernoulli_from_tangent(tangent)

    @pytest.mark.parametrize("n", [31, 600, 1000])
    def test_matches_tangent_route_at_size(self, n):
        tangent, _ = tangent_numbers(n // 2 + 1)
        assert akiyama_tanigawa_bernoulli(n) == bernoulli_from_tangent(tangent)[: n + 1]

    def test_index_one_sign_fixup(self):
        # the raw triangle produces +1/2 at index 1; the engine reports -1/2
        row = [Fraction(1, m + 1) for m in range(3)]
        raw_next = [(m + 1) * (row[m] - row[m + 1]) for m in range(2)]
        assert raw_next[0] == Fraction(1, 2)
        assert akiyama_tanigawa_bernoulli(1) == [Fraction(1), Fraction(-1, 2)]

    def test_single_value(self):
        assert akiyama_tanigawa_bernoulli(0) == [Fraction(1)]

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            akiyama_tanigawa_bernoulli(-1)


def relative_error(value, exact):
    return abs(value - exact) / abs(exact)


# precision -> (numerator of the unstable B_60, numerator of the stable C_40
# and the exponent of its power-of-two denominator); the unstable B_60 is an
# integer at each of these precisions
FLOAT_PINS = {
    24: (-1496169334008044059794316520875244049351573504, -15441493, 235),
    53: (3137962247184994843603480972732923904, -4145046306457673, 263),
    57: (179973643008497227318688851267944448, -33160370451661379, 266),
}


class TestFloatRecurrences:
    def test_unstable_exact_skeleton(self):
        values = bernoulli_float_unstable(14, 53)
        assert values[0] == 1
        assert values[1] == Fraction(-1, 2)
        assert all(values[m] == 0 for m in range(3, 15, 2))

    def test_unstable_accurate_at_low_index(self):
        values = bernoulli_float_unstable(14, 53)
        for m in range(2, 15, 2):
            assert relative_error(values[m], BERNOULLI_0_14[m]) < Fraction(1, 10**10)

    def test_unstable_error_grows_past_one(self):
        values = bernoulli_float_unstable(60, 53)
        exact = akiyama_tanigawa_bernoulli(60)
        assert relative_error(values[60], exact[60]) > 1

    def test_unstable_rejects_thin_precision(self):
        with pytest.raises(ValueError):
            bernoulli_float_unstable(10, 8)

    def test_stable_tracks_exact_scaled_values(self):
        from math import factorial

        values = scaled_bernoulli_stable(40, 53)
        exact = akiyama_tanigawa_bernoulli(80)
        for k in range(41):
            target = exact[2 * k] / factorial(2 * k)
            assert relative_error(values[k], target) < Fraction(1, 10**12)

    @pytest.mark.parametrize("precision", [24, 53, 56, 57, 100])
    @pytest.mark.parametrize("n", [0, 1, 5, 40])
    def test_stable_matches_the_per_trip_divisor_loop(self, n, precision):
        # the reference rounds each divisor (2k+1-2j)! * 4**(k-j) afresh on
        # every inner trip; the engine rounds it once per distance k - j
        rnd = partial(round_float, precision=precision)
        values = []
        for k in range(n + 1):
            acc = rnd(Fraction(1, factorial(2 * k) * 4**k))
            for j in range(k):
                den = factorial(2 * k + 1 - 2 * j) * 4 ** (k - j)
                acc = rnd(acc - rnd(values[j] / rnd(den)))
            values.append(acc)
        assert scaled_bernoulli_stable(n, precision) == values

    def test_stable_first_values(self):
        values = scaled_bernoulli_stable(2, 53)
        assert values[0] == 1
        assert relative_error(values[1], Fraction(1, 12)) < Fraction(1, 2**51)
        assert relative_error(values[2], Fraction(-1, 720)) < Fraction(1, 2**50)

    @pytest.mark.parametrize("precision", sorted(FLOAT_PINS))
    def test_pinned_bit_for_bit(self, precision):
        # every operand and result is rounded once, ties to even, so the two
        # routes reproduce these exact values on any platform
        unstable, stable, exponent = FLOAT_PINS[precision]
        assert bernoulli_float_unstable(60, precision)[60] == unstable
        assert scaled_bernoulli_stable(40, precision)[40] == Fraction(
            stable, 2**exponent
        )
