"""Truncated power series reciprocal over exact integers.

A truncated series is a plain sequence of ints, entry j multiplying z**j,
and its length is its order. The reciprocal is scaled: series_reciprocal
returns scale * (1/a) modulo z**order, which must have integer
coefficients, and runs Newton's doubling iteration on it. Each pass settles
the next block of coefficients with one exact division by `scale` per
coefficient, and every returned reciprocal (a tuple) is re-verified against
the defining convolution identity before it leaves this module.

Products are Kronecker substitutions: each series is packed as one decimal
number with a coefficient per fixed-width slot, the two numbers are
multiplied exactly by libmpdec (number-theoretic transforms for large
operands), and the slots are read back from the product's digit string.

Inverting sinh(x)/x in w = x**2 yields the even Bernoulli numbers.
"""

from __future__ import annotations

import math
from decimal import (
    MAX_EMAX,
    MAX_PREC,
    MIN_EMIN,
    Context,
    Decimal,
    Inexact,
    InvalidOperation,
    Rounded,
)
from fractions import Fraction
from typing import Sequence

from .intops import IntegrityError, exact_div
from .recurrences import BernoulliSeq

# Every Decimal operation runs in this context, so any rounding raises.
# The builtin operators (abs, +, -) would use the thread's 28-digit context
# and round a packed value without a signal.
_EXACT = Context(
    prec=MAX_PREC,
    Emax=MAX_EMAX,
    Emin=MIN_EMIN,
    traps=[Inexact, Rounded, InvalidOperation],
)


def _pack(coeffs: Sequence[int], width: int) -> Decimal:
    """The signed decimal sum of coeffs[j] * 10**(width * j)."""
    zero = "0" * width
    pos, neg = [], []
    for c in reversed(coeffs):
        digits = str(Decimal(abs(c))).zfill(width)
        pos.append(digits if c > 0 else zero)
        neg.append(digits if c < 0 else zero)
    return _EXACT.subtract(Decimal("".join(pos)), Decimal("".join(neg)))


def _convolve(a: Sequence[int], b: Sequence[int], order: int) -> list[int]:
    """The product series of a and b, truncated to `order` coefficients.

    No product coefficient exceeds max|a| * max|b| * min(len) in magnitude,
    so slots of `width` digits with 10**width above twice that bound never
    collide, and a slot read as more than half the radix is a negative
    coefficient that borrowed one from the slot above.
    """
    a, b = a[:order], b[:order]
    if not a or not b:
        return [0] * order
    bound = max(map(abs, a)) * max(map(abs, b)) * min(len(a), len(b))
    # 10**width >= 2**bits > 2 * bound, as log10(2) < 0.30103
    width = (2 * bound).bit_length() * 30103 // 100000 + 1
    digits = str(_EXACT.multiply(_pack(a, width), _pack(b, width)))
    negative = digits.startswith("-")
    digits = digits.lstrip("-").zfill(order * width)
    radix = 10**width
    half = radix >> 1
    out = []
    borrow = 0
    end = len(digits)
    for _ in range(order):
        c = int(Decimal(digits[end - width : end])) + borrow
        borrow = c > half
        if borrow:
            c -= radix
        out.append(-c if negative else c)
        end -= width
    return out


def check_reciprocal(a: Sequence[int], b: Sequence[int], scale: int) -> None:
    """Verify sum_j a_j b_{m-j} = scale * [m == 0] for every m below len(b)."""
    if not b:
        raise ValueError("reciprocal must have at least one coefficient")
    product = _convolve(a, b, len(b))
    if product[0] != scale or any(product[1:]):
        raise IntegrityError("series reciprocal violates its convolution identity")


def series_reciprocal(a: Sequence[int], order: int, scale: int) -> tuple[int, ...]:
    """Return e = scale * (1/a) modulo z**order, by Newton doubling.

    With e settled below s, a * e = scale + z**s * H modulo z**(2s), and
    e - z**s * (e * H) / scale is settled below 2s. Every division is
    exact when scale * (1/a) has integer coefficients, so a scale that is
    not a multiple of every denominator raises IntegrityError.
    """
    if order < 1:
        raise ValueError("order must be positive")
    if not a or a[0] == 0:
        raise ValueError("series must have a nonzero constant term")
    if scale == 0:
        raise ValueError("scale must be nonzero")
    e = [exact_div(scale, a[0])]
    settled = 1
    while settled < order:
        step = min(settled, order - settled)
        high = _convolve(a, e, settled + step)[settled:]
        e += [-exact_div(c, scale) for c in _convolve(e, high, step)]
        settled += step
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
