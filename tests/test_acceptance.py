"""Acceptance gate: ten criteria, one test and one printed verdict each.
Each verdict must equal its line in data/acceptance.txt byte for byte."""

from __future__ import annotations

import math
import time
from fractions import Fraction
from pathlib import Path

from btseq.checks import _zeta_enclosures, cross_check, pi_bounds, von_staudt_clausen
from btseq.fastfixed import (
    fast_secant_numbers,
    fast_tangent_numbers,
    least_half_block_bits,
    packed_tangent_params,
)
from btseq.recurrences import (
    akiyama_tanigawa_bernoulli,
    atkinson_tangent_secant,
    bernoulli_float_unstable,
    bernoulli_from_tangent,
    scaled_bernoulli_stable,
    tangent_numbers,
)
from btseq.series import bernoulli_via_series

from conftest import ACCEPTANCE_LINES

# the ten verdict lines, byte for byte, in criterion order
GOLDEN = (Path(__file__).parent / "data" / "acceptance.txt").read_text().splitlines()

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


def record(number: int, description: str, ok: bool) -> None:
    line = f"ACCEPTANCE {number:02d} {'PASS' if ok else 'FAIL'}: {description}"
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line
    assert line == GOLDEN[number - 1]


def test_criterion_01_pinned_low_bernoulli_row():
    start = time.perf_counter()
    producers = {
        "in-place recurrence": bernoulli_from_tangent(tangent_numbers(7)[0]),
        "packed division": bernoulli_from_tangent(fast_tangent_numbers(7)),
        "triangle": bernoulli_from_tangent(atkinson_tangent_secant(7)[0]),
        "weighted differences": akiyama_tanigawa_bernoulli(14),
        "series reciprocal": bernoulli_via_series(14),
    }
    ok = all(values == BERNOULLI_0_14 for values in producers.values())
    elapsed = time.perf_counter() - start
    record(
        1,
        f"B_0..B_14 identical across {len(producers)} engines (< 1s)",
        ok and elapsed < 1.0,
    )


def test_criterion_02_differential_equality_at_200():
    start = time.perf_counter()
    report = cross_check(200)
    elapsed = time.perf_counter() - start
    record(
        2,
        f"cross_check(200) all {len(report.checks)} comparisons equal (< 60s)",
        report.all_pass and elapsed < 60.0,
    )


def test_criterion_03_scaled_tangent_block_bounds():
    violations = 0
    for n in range(2, 101):
        tangent, _ = tangent_numbers(n)
        p = least_half_block_bits(n)
        params = packed_tangent_params(n)
        top = math.factorial(2 * n - 1)
        packed = params.packed
        for k in range(n, 0, -1):
            scaled = math.perm(2 * n - 1, 2 * (n - k)) * tangent[k - 1]
            block = packed & ((1 << (2 * p)) - 1)
            packed >>= 2 * p
            if not (scaled < 2 ** (2 * p) and scaled <= top and scaled == block):
                violations += 1
    record(
        3,
        "scaled tangent blocks stay below 2**(2p) and (2n-1)! for n = 2..100 "
        f"({violations} violations)",
        violations == 0,
    )


def test_criterion_04_quotient_rounding_budget():
    quotients = (packed_tangent_params(n) for n in range(2, 101))
    worst = max(Fraction(q.distance, q.den) for q in quotients)
    record(
        4,
        f"packed-quotient distance < 0.12 for n = 2..100 (worst {float(worst):.4f})",
        worst < Fraction(12, 100),
    )


def test_criterion_05_von_staudt_clausen_sweep():
    values = bernoulli_from_tangent(tangent_numbers(300)[0])
    ok = True
    for n in range(1, 301):
        von_staudt_clausen(2 * n, values[2 * n])  # raises on any failure
    spot_2 = von_staudt_clausen(2, values[2])
    spot_14 = von_staudt_clausen(14, values[14])
    ok = spot_2 == 1 and spot_14 == 2
    record(
        5,
        "denominators exact for B_2..B_600 with integer shifts "
        f"(B'_2 = {spot_2}, B'_14 = {spot_14})",
        ok,
    )


def test_criterion_06_zeta_ratio_enclosure():
    values = bernoulli_from_tangent(tangent_numbers(50)[0])
    ok = True
    enclosures = _zeta_enclosures(values[4::2], pi_bounds())
    for n, (lo_num, hi_num, den) in enumerate(enclosures, start=2):
        lo, hi = Fraction(lo_num, den), Fraction(hi_num, den)
        if not (1 < lo and hi < 1 + Fraction(2) ** (1 - 2 * n)):
            ok = False
            break
    record(
        6,
        "zeta ratio inside (1, 1 + 2**(1-2n)) for n = 2..50 at 256-bit pi bounds",
        ok,
    )


def test_criterion_07_stability_contrast():
    exact = bernoulli_from_tangent(tangent_numbers(40)[0])
    unstable = bernoulli_float_unstable(60, 53)
    blowup = abs(unstable[60] - exact[60]) / abs(exact[60])
    stable = scaled_bernoulli_stable(40, 53)
    worst = Fraction(0)
    factorial = 1
    for k in range(41):
        if k:
            factorial *= (2 * k - 1) * (2 * k)
        target = exact[2 * k] / factorial
        worst = max(worst, abs(stable[k] - target) / abs(target))
    record(
        7,
        f"53-bit contrast: unstable error at 60 is {float(blowup):.2e} (> 1), "
        f"stable worst through C_40 is {float(worst):.2e} (< 1e-12)",
        blowup > 1 and worst < Fraction(1, 10**12),
    )


def test_criterion_08_operation_counts():
    ok = True
    details = []
    for n in (5, 100, 500):
        _, tangent_ops = tangent_numbers(n)
        _, _, triangle_ops = atkinson_tangent_secant(n)
        expected_trips = n * (n - 1) // 2
        if tangent_ops.loop_trips != expected_trips:
            ok = False
        if not (
            2 * n * n - 8 * n <= triangle_ops.additions <= 2 * n * n + 8 * n
        ):
            ok = False
        if n == 500:
            ratio = triangle_ops.additions / tangent_ops.loop_trips
            details.append(f"ratio at 500 = {ratio:.2f}")
            if ratio < 3:
                ok = False
    record(
        8,
        "tangent trips = n(n-1)/2 and triangle additions = 2n**2 +- 8n at "
        f"n = 5, 100, 500; {details[0]} (>= 3)",
        ok,
    )


def test_criterion_09_packing_identity():
    ok = True
    for n in (2, 10, 50):
        tangent, _ = tangent_numbers(n)
        p = least_half_block_bits(n)
        manual = 0
        for k in range(1, n + 1):
            scaled = math.perm(2 * n - 1, 2 * (n - k)) * tangent[k - 1]
            manual += scaled << (2 * (n - k) * p)
        if manual != packed_tangent_params(n).packed:
            ok = False
    trace = packed_tangent_params(2)
    hand = (trace.num, trace.den, trace.packed) == (2280, 372, 98)
    record(
        9,
        "independently packed blocks reproduce the quotient at n = 2, 10, 50; "
        f"n = 2 trace = {trace.num}/{trace.den}/{trace.packed}",
        ok and hand,
    )


def test_criterion_10_block_width_insensitivity(widen_blocks):
    n_values = range(2, 33)
    least = [(fast_tangent_numbers(n), fast_secant_numbers(n)) for n in n_values]
    widen_blocks(1)
    ok = all(
        packed_tangent_params(n).half_block_bits == least_half_block_bits(n) + 1
        and (fast_tangent_numbers(n), fast_secant_numbers(n)) == values
        for n, values in zip(n_values, least)
    )
    record(
        10,
        "packed engines identical at block widths p and p + 1 for n = 2..32",
        ok,
    )
