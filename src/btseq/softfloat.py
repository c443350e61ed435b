"""Rounding to binary floating point with a caller-chosen significand width.

A float here is an integer pair (q, e) standing for q * 2**e. round_ratio
is the one rounding rule: it maps num/den * 2**exp to the nearest such
value with |q| held to `precision` bits, round half to even: what
guard/round/sticky hardware produces. add, mul and div round the exact
sum, product and quotient of two floats through it, so a fixed-precision
routine computes on integer significands alone and is bit-reproducible at
any precision; at 53 bits each operation agrees with the platform double.
to_fraction gives a float's exact value.
"""

from __future__ import annotations

from fractions import Fraction

Float = tuple[int, int]  # (q, e): the value q * 2**e


def round_ratio(num: int, den: int, precision: int, exp: int = 0) -> Float:
    """The float nearest num/den * 2**exp, den > 0, with a precision-bit
    significand, ties to even. q has at most precision bits, or is
    +-2**precision when rounding carries out of the top bit; a whole num of
    at most precision bits comes back as it is."""
    mag = -num if num < 0 else num
    # scale by 2**-shift so the quotient mag // den has precision or
    # precision + 1 bits, then by one more halving if it has the extra bit
    shift = mag.bit_length() - den.bit_length() - precision
    if shift < 0:
        if den == 1:
            return num, exp
        mag <<= -shift
    else:
        den <<= shift
    if mag >= den << precision:
        den <<= 1
        shift += 1
    q, r = divmod(mag, den)
    if 2 * r > den or (2 * r == den and q & 1):
        q += 1
    return -q if num < 0 else q, shift + exp


def add(x: Float, y: Float, precision: int) -> Float:
    """The rounded sum x + y."""
    (a, e), (b, f) = x, y
    low = min(e, f)
    return round_ratio((a << e - low) + (b << f - low), 1, precision, low)


def mul(x: Float, y: Float, precision: int) -> Float:
    """The rounded product x * y."""
    return round_ratio(x[0] * y[0], 1, precision, x[1] + y[1])


def div(x: Float, y: Float, precision: int) -> Float:
    """The rounded quotient x / y, for y > 0."""
    return round_ratio(x[0], y[0], precision, x[1] - y[1])


def to_fraction(x: Float) -> Fraction:
    """The exact value of a float."""
    q, e = x
    return Fraction(q << e) if e >= 0 else Fraction(q, 1 << -e)
