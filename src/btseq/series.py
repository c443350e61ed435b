"""Truncated power series reciprocal over exact integers.

A truncated series is a plain sequence of ints, entry j multiplying z**j,
and its length is its order. The reciprocal is scaled: series_reciprocal
returns scale * (1/a) modulo z**order, which must have integer
coefficients, and every returned reciprocal (a tuple) is re-verified
against the defining convolution identity before it leaves this module.

Both steps are Kronecker substitutions: each series is packed as one
decimal number with a coefficient per fixed-width slot, and libmpdec does
the arithmetic exactly (number-theoretic transforms for large operands).
The reciprocal is one Newton-iterated quotient whose slots hold every
coefficient, read off its digit string once; the check is one product
whose low slots must come out as scale followed by zeros.

Inverting sinh(x)/x in w = x**2 yields the even Bernoulli numbers.
"""

from __future__ import annotations

import math
from decimal import (
    MAX_EMAX,
    MAX_PREC,
    MIN_EMIN,
    ROUND_HALF_EVEN,
    Context,
    Decimal,
    Inexact,
    InvalidOperation,
    Rounded,
)
from fractions import Fraction
from typing import Sequence

from .intops import IntegrityError
from .recurrences import BernoulliSeq

_SEED = 200  # digits at most of the one libmpdec division that seeds Newton


def _context(prec: int, *signals: type) -> Context:
    """Round to prec digits, half to even, at any exponent; trap the signals."""
    traps = [InvalidOperation, *signals]
    return Context(prec, ROUND_HALF_EVEN, MIN_EMIN, MAX_EMAX, traps=traps)


# Exact operations run in _EXACT, so any rounding raises, and rounded ones in
# a _context of their own precision: the builtin operators (abs, +, -) would
# use the thread's 28-digit context and round a packed value without a signal.
_EXACT = _context(MAX_PREC, Inexact, Rounded)


def _quotient(num: Decimal, den: Decimal, prec: int) -> Decimal:
    """Return z = (1 - e) num/den, |e| <= 12 * 10**-prec, for num, den > 0, prec >= 2.

    Rounding to p digits multiplies by some 1 + d, |d| <= 5 * 10**-p. The seed
    rounds den, then num/den: |e| <= 10 * 10**-prec / (1 - 5 * 10**-prec). A
    doubling takes y = _quotient(1, den, h), h = prec//2 + 2, u = 1 - den y, the
    exact z = num y and A = den (1 + d) rounded to prec digits. The residual
    num - A z = num w, w = u - d (1 - u), rounded (1 + d') to the ceil(prec/2)
    digits it carries, gives z + y num w (1 + d') = (1 - e) num/den, e = u**2 +
    d (1 - u)**2 - d' (1 - u) w: within (0.15 + 5.01 + 0.61) * 10**-prec, as 2h >=
    prec + 3 and h + ceil(prec/2) = prec + 2; 12 * 10**-prec once rounded to prec.
    """
    ctx = _context(prec)
    if prec <= _SEED:
        return ctx.divide(num, ctx.plus(den))
    y = _quotient(Decimal(1), den, prec // 2 + 2)
    z = _EXACT.multiply(num, y)
    residual = _context((prec + 1) // 2).fma(ctx.plus(den).copy_negate(), z, num)
    return ctx.fma(y, residual, z)


def _nearest_quotient(num: Decimal, den: Decimal) -> Decimal:
    """The integer (exponent 0) nearest to z = _quotient(num, den, prec): as
    num/den < 10**q, q = num.adjusted() - den.adjusted() + 1, at prec = max(q, 0)
    + 2 the estimate z lies within 12 * 10**(q - prec) <= 3/25 < 1/4 of num/den."""
    prec = max(num.adjusted() - den.adjusted() + 1, 0) + 2
    return _context(prec).quantize(_quotient(num, den, prec), Decimal(1))


def _pack(coeffs: Sequence[int], width: int) -> Decimal:
    """The signed decimal sum of coeffs[j] * 10**(width * j)."""
    zero = "0" * width
    pos, neg = [], []
    for c in reversed(coeffs):
        digits = str(Decimal(abs(c))).zfill(width)
        pos.append(digits if c > 0 else zero)
        neg.append(digits if c < 0 else zero)
    return _EXACT.subtract(Decimal("".join(pos)), Decimal("".join(neg)))


def check_reciprocal(a: Sequence[int], b: Sequence[int], scale: int) -> None:
    """Verify sum_j a_j b_{m-j} = scale * [m == 0] for every m below len(b).

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
    rest = _EXACT.fma(_pack(a, width), _pack(b, width), -scale)
    if rest and not str(rest).endswith("0" * (len(b) * width)):
        raise IntegrityError("series reciprocal violates its convolution identity")


def series_reciprocal(a: Sequence[int], order: int, scale: int) -> tuple[int, ...]:
    """Return e = scale * (1/a) modulo z**order, by one rounded quotient.

    Take K = order, alpha = |a_0|, sigma = sum_{0<k<K} |a_k| and
    M = max(1, |scale|/alpha) max(1, sigma/alpha)**(K-1), which bounds every
    |e_j|, and a radix R = 10**width > 8 (alpha + sigma) M / alpha >= 8M.
    A = R**(K-1) a(1/R) packs a[:K] and E = R**(K-1) e(1/R) packs e, both
    highest first. V, the nearest integer to scale R**(2K-2) / A, is E:

    a e = scale + z**K H gives A E = scale R**(2K-2) + R**(K-2) H(1/R), and
    |H(1/R)| <= sigma M R/(R-1), |A| >= R**(K-1) (alpha - sigma/R) put the
    quotient within sigma M / (R alpha - alpha - sigma) < 1/7 of E, and the
    Newton estimate of _nearest_quotient within 1/4 + 1/7 < 1/2 of E.

    R/2 added to every slot makes each one positive, read off the digits
    once. A scale that leaves e fractional still puts V within 1 of E, and
    the other integers read then fail the final check (IntegrityError).
    """
    if order < 1:
        raise ValueError("order must be positive")
    if not a or a[0] == 0:
        raise ValueError("series must have a nonzero constant term")
    if scale == 0:
        raise ValueError("scale must be nonzero")
    a = a[:order]
    alpha, sigma = abs(a[0]), sum(map(abs, a[1:]))
    # 2**growth >= max(1, sigma/alpha), exactly when sigma <= alpha
    growth = 0 if sigma <= alpha else sigma.bit_length() - alpha.bit_length() + 1
    bound = 8 * (alpha + sigma) * max(abs(scale), alpha) // alpha**2
    # R > 2**bits > 8 (alpha + sigma) M / alpha, as log10(2) < 0.30103
    width = (bound.bit_length() + (order - 1) * growth) * 30103 // 100000 + 1
    den = _pack([*a, *[0] * (order - len(a))][::-1], width).copy_abs()
    num = _EXACT.scaleb(Decimal(abs(scale)), (2 * order - 2) * width)
    magnitude = _nearest_quotient(num, den)  # |V|, then V + R/2 in every slot
    bias = Decimal(("5" + "0" * (width - 1)) * order)
    sign = 1 if (scale < 0) == (a[0] < 0) else -1
    digits = str(_EXACT.fma(sign, magnitude, bias)).zfill(order * width)
    half = 5 * 10 ** (width - 1)
    slots = range(0, order * width, width)
    e = [int(Decimal(digits[i : i + width])) - half for i in slots]
    check_reciprocal(a, e, scale)
    return tuple(e)


def bernoulli_via_series(n: int) -> BernoulliSeq:
    """Return [B_0..B_n] by inverting the series of sinh(x)/x.

    x/sinh(x) = sum_k (2 - 4**k) B_2k x**(2k)/(2k)!, so in w = x**2 the
    K = n//2 + 1 coefficients of sinh(x)/x, scaled by (2K-1)! to the
    integers a_k = (2K-1)!/(2k+1)!, invert at scale (2K-1)! * D with
    D = (2K-2)! * lcm(1..2K-1): by von Staudt-Clausen the denominator of
    B_2k divides lcm(1..2k+1), so D (2 - 4**k) B_2k/(2k)! is an integer.
    B_1 = -1/2 and the zero odd entries are pinned.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    terms = n // 2 + 1
    a = [1]
    for k in range(terms - 2, -1, -1):
        a.append(a[-1] * (2 * k + 2) * (2 * k + 3))
    a.reverse()
    den = math.factorial(2 * terms - 2) * math.lcm(*range(1, 2 * terms))
    out: BernoulliSeq = [Fraction(0)] * (n + 1)
    factorial = 1
    for k, e in enumerate(series_reciprocal(a, terms, a[0] * den)):
        if k:
            factorial *= (2 * k - 1) * (2 * k)
        out[2 * k] = Fraction(e * factorial, den * (2 - 4**k))
    if n >= 1:
        out[1] = Fraction(-1, 2)
    return out
