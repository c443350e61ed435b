"""Rounding to binary floating point with a caller-chosen significand width.

round_float maps an exact rational to the nearest value sign * q * 2**e with
q held to `precision` bits, round half to even: what guard/round/sticky
hardware produces. A fixed-precision routine rounds every operand and every
exact result with it, so runs are bit-reproducible at any precision, and at
53 bits each operation agrees with the platform double.
"""

from __future__ import annotations

from fractions import Fraction


def round_float(value, precision: int) -> Fraction:
    """The float nearest to the rational value with a precision-bit
    significand, ties to even, as an exact Fraction."""
    if precision < 1:
        raise ValueError("precision must be positive")
    value = Fraction(value)
    num, den = abs(value.numerator), value.denominator
    # scale by 2**-shift so the quotient num // den has precision or
    # precision + 1 bits, then by one more halving if it has the extra bit
    shift = num.bit_length() - den.bit_length() - precision
    if shift < 0:
        num <<= -shift
    else:
        den <<= shift
    if num >= den << precision:
        den <<= 1
        shift += 1
    q, r = divmod(num, den)
    if 2 * r > den or (2 * r == den and q & 1):
        q += 1
    rounded = Fraction(q << shift) if shift >= 0 else Fraction(q, 1 << -shift)
    return -rounded if value < 0 else rounded
