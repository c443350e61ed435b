"""Truncated power series reciprocal over exact rationals.

A truncated series is a plain sequence of Fractions, entry j multiplying
z**j, and its length is its order. The reciprocal runs Newton's doubling
iteration b <- b * (2 - a * b); each pass doubles the number of settled
coefficients. Multiplication is plain schoolbook convolution, everything
stays a Fraction, and every returned reciprocal (a tuple) is re-verified
against the defining convolution identity before it leaves this module.
Applying the reciprocal to the series of (exp(z) - 1) / z yields the
Bernoulli numbers.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .intops import IntegrityError
from .recurrences import BernoulliSeq


def _convolve(a, b, order: int) -> list[Fraction]:
    """The product series of a and b, truncated to `order` coefficients."""
    out = [Fraction(0)] * order
    for i, ai in enumerate(a[:order]):
        if not ai:
            continue
        for j, bj in enumerate(b[: order - i]):
            if bj:
                out[i + j] += ai * bj
    return out


def check_reciprocal(a: Sequence[Fraction], b: Sequence[Fraction]) -> None:
    """Verify sum_j a_j b_{m-j} = [m == 0] for every m below len(b)."""
    if not b:
        raise ValueError("reciprocal must have at least one coefficient")
    product = _convolve(a, b, len(b))
    if product[0] != 1 or any(product[1:]):
        raise IntegrityError("series reciprocal violates its convolution identity")


def series_reciprocal(a: Sequence[Fraction], order: int) -> tuple[Fraction, ...]:
    """Return b with a * b = 1 modulo z**order, by Newton doubling."""
    if order < 1:
        raise ValueError("order must be positive")
    if not a or a[0] == 0:
        raise ValueError("series must have a nonzero constant term")
    b = [Fraction(1) / a[0]]
    settled = 1
    while settled < order:
        settled = min(2 * settled, order)
        ab = _convolve(a, b, settled)
        correction = [2 - ab[0]] + [-c for c in ab[1:]]
        b = _convolve(b, correction, settled)
    check_reciprocal(a, b)
    return tuple(b)


def bernoulli_via_series(n: int) -> BernoulliSeq:
    """Return [B_0..B_n] by inverting the series of (exp(z) - 1) / z.

    That series has coefficients 1/(j+1)!; the reciprocal's coefficient of
    z**j times j! is B_j.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    coeffs = []
    factorial = 1
    for j in range(n + 1):
        factorial *= j + 1
        coeffs.append(Fraction(1, factorial))
    out: BernoulliSeq = []
    factorial = 1
    for j, coeff in enumerate(series_reciprocal(coeffs, n + 1)):
        if j:
            factorial *= j
        out.append(coeff * factorial)
    return out
