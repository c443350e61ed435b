"""Quadratic-time exact engines for tangent, secant, and Bernoulli numbers.

The two in-place engines are one sweep of the paper's row recurrence over
a single row buffer, at c = 2 for tangent numbers and c = 1 for secant
numbers, rescaled so that each trip is one small multiply and one add.
The boustrophedon triangle of Atkinson produces both integer families
with additions only. The Akiyama-Tanigawa triangle is the all-rational
route to Bernoulli numbers, and two fixed-precision recurrences
demonstrate the numerically stable and unstable ways of reaching the same
values in floating point. Those two compute on softfloat's integer pairs
(significand, exponent), rounding every operation through
softfloat.round_ratio, and build Fractions only for the values they
return. Engines report operation counters so their cost models can be
checked against measurement.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate
from typing import NamedTuple

from .softfloat import Float, add, div, mul, round_ratio, to_fraction

TangentSeq = list[int]      # entry k-1 holds T_k, the k-th tangent number
SecantSeq = list[int]       # entry k holds S_k, the k-th secant number
BernoulliSeq = list[Fraction]  # entry m holds B_m


class OpCounters(NamedTuple):
    """Per-invocation operation counts.

    additions and multiplications count big-integer operations;
    loop_trips counts inner-loop iterations.
    """

    additions: int = 0
    multiplications: int = 0
    loop_trips: int = 0


def _sweep(n: int, c: int) -> tuple[list[int], OpCounters]:
    """Return ([E_0..E_n], counters) for the paper's in-place sweep at c.

    The paper's pass k applies E_j <- (j-k) E_{j-1} + (j-k+c) E_j for
    j = k..n, k = c..n, to a row that starts as E_j = (j-c+1)!: c = 2 gives
    the tangent numbers E_j = T_j with j >= 1, c = 1 the secant numbers.
    Here row[j] holds u_j = E_j/(j-k)! after pass k; dividing the update by
    (j-k)! gives u_k <- c u_k on the diagonal (a doubling for the tangent,
    the identity for the secant) and u_j <- u_{j-1} + (d+1)(d+c) u_j for
    d = j-k >= 1, from a row of ones. A trip off the diagonal is one
    multiply by an integer at most n**2 and one add, and no entry ever
    exceeds E_n.
    """
    row = [1] * (n + 1)
    weights = [(d + 1) * (d + c) for d in range(1, n)]
    for k in range(c, n + 1):
        prev = row[k] = c * row[k]
        for j, w in zip(range(k + 1, n + 1), weights):
            prev = row[j] = prev + w * row[j]
    trips = n * (n - 1) // 2  # the tangent's n - 1 doublings are additions
    return row, OpCounters(trips, trips - (c - 1) * (n - 1), trips)


def tangent_numbers(n: int) -> tuple[TangentSeq, OpCounters]:
    """Return ([T_1..T_n], counters) via the scaled sweep at c = 2."""
    if n < 1:
        raise ValueError("n must be >= 1")
    row, ops = _sweep(n, 2)
    return row[1:], ops


def secant_numbers(n: int) -> tuple[SecantSeq, OpCounters]:
    """Return ([S_0..S_n], counters) via the scaled sweep at c = 1."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return _sweep(n, 1)


def bernoulli_from_tangent(tangent: TangentSeq) -> BernoulliSeq:
    """Expand [T_1..T_n] into the full Bernoulli list [B_0..B_2n].

    B_{2k} = (-1)**(k-1) * k * T_k / (2**(2k-1) * (2**(2k) - 1)), with
    B_0 = 1, B_1 = -1/2, and every other odd entry zero. The power of two
    comes off by a shift and only 2**(2k) - 1 takes a gcd: Fraction's is cheap.
    """
    n = len(tangent)
    values = [Fraction(0)] * (2 * n + 1)
    values[0] = Fraction(1)
    if n >= 1:
        values[1] = Fraction(-1, 2)
    for k, t in enumerate(tangent, start=1):
        num = k * t if k % 2 else -k * t
        twos = min((num & -num or 1).bit_length() - 1, 2 * k - 1)  # 0 at num = 0
        num, odd = num >> twos, (1 << (2 * k)) - 1
        g = math.gcd(num, odd)
        values[2 * k] = Fraction(num // g, odd // g << (2 * k - 1 - twos))
    return values


def atkinson_tangent_secant(n: int) -> tuple[TangentSeq, SecantSeq, OpCounters]:
    """Return ([T_1..T_n], [S_0..S_n], counters) using integer additions only.

    Builds 2n+1 rows of the boustrophedon triangle: each row is the running
    sum of its predecessor read in the opposite direction, and the row ends
    are alternately tangent and secant numbers.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    tangent: TangentSeq = []
    secant: SecantSeq = [1]  # the seed row supplies S_0
    row = [1]
    for m in range(1, 2 * n + 1):
        row = list(accumulate(reversed(row), initial=0))
        if m % 2:
            tangent.append(row[m])
        else:
            secant.append(row[m])
    additions = n * (2 * n + 1)  # row m takes m additions, m = 1..2n
    return tangent, secant, OpCounters(additions=additions, loop_trips=additions)


def akiyama_tanigawa_bernoulli(n: int) -> BernoulliSeq:
    """Return [B_0..B_n] from the rational weighted-difference triangle.

    Row zero is 1, 1/2, 1/3, ...; each later row applies
    a[m] <- (m+1) * (a[m] - a[m+1]) and the leading entry of row i is B_i.
    The raw triangle yields +1/2 at index 1; that single entry is negated so
    every Bernoulli producer in this package shares the B_1 = -1/2
    convention. Exact rationals throughout: this triangle loses all accuracy
    in floating point. The row is kept over the one denominator
    L = lcm(1..n+1): each update multiplies by an integer and subtracts, so
    L stays a common denominator of every entry and the row holds ints.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    lcm = math.lcm(*range(1, n + 2))
    row = [lcm // (m + 1) for m in range(n + 1)]
    out = [Fraction(row[0], lcm)]
    for i in range(1, n + 1):
        row = [(m + 1) * (row[m] - row[m + 1]) for m in range(n + 1 - i)]
        out.append(Fraction(row[0], lcm))
    if n >= 1:
        out[1] = -out[1]
    return out


MIN_PRECISION = 24  # fewest bits either fixed-precision route accepts


def bernoulli_float_unstable(n: int, precision: int) -> list[Fraction]:
    """Return [B_0..B_n] from the binomial-sum recurrence at fixed precision.

    Solves sum_{j<=k} C(k+1, j) B_j = 0 for B_k the classical way: odd
    entries past B_1 = -1/2 stay pinned at their exact zero value and only
    even indices are computed. Perturbations then travel along solutions of
    the homogeneous relation restricted to even indices, which shrink only
    like pi**(-2m) against (2m)!, while B_{2m}/(2m)! shrinks like
    (2*pi)**(-2m); the relative error of B_{2m} therefore grows like
    4**m * 2**(1-precision) and the output is useful only as a demonstration
    of that blowup. Binomial coefficients are formed exactly and rounded at
    the point of use, isolating the instability to the recurrence itself.
    Every operand and every result is a softfloat integer pair rounded by
    softfloat.round_ratio; only the returned values become Fractions.
    """
    if precision < MIN_PRECISION:
        raise ValueError(f"precision must be at least {MIN_PRECISION} bits")
    if n < 1:
        raise ValueError("n must be >= 1")
    p = precision
    values = [(1, 0), (-1, -1)]
    for k in range(2, n + 1):
        if k % 2:
            # holding odd entries at exact zero is what drives the growth
            values.append((0, 0))
            continue
        size = round_ratio(k + 1, 1, p)
        acc = add(values[0], mul(values[1], size, p), p)
        for j in range(2, k, 2):
            term = mul(values[j], round_ratio(math.comb(k + 1, j), 1, p), p)
            acc = add(acc, term, p)
        q, e = div(acc, size, p)
        values.append((-q, e))
    return [to_fraction(v) for v in values]


def scaled_bernoulli_stable(n: int, precision: int) -> list[Fraction]:
    """Return [C_0..C_n] with C_k = B_{2k}/(2k)!, the well-conditioned route.

    Solves sum_{j<=k} C_j / ((2k+1-2j)! * 4**(k-j)) = 1/((2k)! * 4**k) for
    C_k at fixed precision, every operand and result a softfloat integer
    pair rounded by softfloat.round_ratio; all terms beyond the first carry
    one sign, so errors grow only quadratically with k.
    """
    if precision < MIN_PRECISION:
        raise ValueError(f"precision must be at least {MIN_PRECISION} bits")
    if n < 0:
        raise ValueError("n must be >= 0")
    p = precision
    # the rounded divisor (2d+1)! * 4**d of C_j in row k depends on d = k-j only
    divisors = [
        round_ratio(math.factorial(2 * d + 1) << 2 * d, 1, p) for d in range(n + 1)
    ]
    values: list[Float] = []
    for k in range(n + 1):
        acc = round_ratio(1, math.factorial(2 * k) << 2 * k, p)
        for j in range(k):
            q, e = div(values[j], divisors[k - j], p)
            acc = add(acc, (-q, e), p)
        values.append(acc)  # the j = k coefficient is 1/(1! * 4**0) = 1
    return [to_fraction(v) for v in values]
