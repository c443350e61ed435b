"""Exact integer primitives shared by every engine.

Values are plain Python ints, so precision is unbounded. These helpers add
correctly rounded division and division that must come out exact, which the
packed engines in `fastfixed` use; every other module imports only
`IntegrityError`. There is no block codec: `fastfixed` reads its packed
blocks off itself.

Both divisions go through `_audited_divmod`, which checks each quotient and
remainder in linear time, over `_divmod`, which divides large operands by
Burnikel-Ziegler recursion ("Fast Recursive Division", MPI-I-98-1-022,
1998). It costs a few multiplications of the divisor's size, so over
CPython's Karatsuba multiply it is sub-quadratic, where the builtin `divmod`
on CPython 3.11 and earlier is schoolbook.
"""

from __future__ import annotations


class IntegrityError(ArithmeticError):
    """An exactness guarantee failed, meaning upstream arithmetic is wrong."""


# Divisors of at most this many bits go to the builtin divmod, whose
# schoolbook cost is no worse than the recursion's at this size.
_DIV_CUTOFF_BITS = 4000


def _divmod(num: int, den: int) -> tuple[int, int]:
    """Return divmod(num, den) for num >= 0, by recursion when den is large.

    The numerator is read as digits of den's bit length, most significant
    first, and each remainder-and-digit pair is one 2n-by-n-bit division.
    """
    n = den.bit_length()
    if n <= _DIV_CUTOFF_BITS:
        return divmod(num, den)
    mask = (1 << n) - 1
    q = r = 0
    for shift in range(n * ((num.bit_length() - 1) // n), -1, -n):
        digit, r = _div2n1n((r << n) | ((num >> shift) & mask), den, n)
        q = (q << n) | digit
    return q, r


def _div2n1n(a: int, b: int, n: int) -> tuple[int, int]:
    """Return divmod(a, b) for b of exactly n bits and 0 <= a < b << n."""
    if a.bit_length() - n <= _DIV_CUTOFF_BITS:
        return divmod(a, b)
    # the halves must be equal, so an odd n is padded by one bit
    pad = n & 1
    if pad:
        a, b, n = a << 1, b << 1, n + 1
    half = n >> 1
    mask = (1 << half) - 1
    b1, b2 = b >> half, b & mask
    q1, r = _div3n2n(a >> n, (a >> half) & mask, b, b1, b2, half)
    q2, r = _div3n2n(r, a & mask, b, b1, b2, half)
    return (q1 << half) | q2, r >> pad


def _div3n2n(a12: int, a3: int, b: int, b1: int, b2: int, n: int) -> tuple[int, int]:
    """Divide the 3n-bit (a12 << n) | a3 by the 2n-bit b = (b1 << n) | b2.

    Needs (a12 << n) | a3 < b << n. The quotient is first estimated from
    a12 // b1, which is at most 2 too large; the loop takes it down.
    """
    if a12 >> n == b1:
        q = (1 << n) - 1
        r = a12 - q * b1
    else:
        q, r = _div2n1n(a12, b1, n)
    r = ((r << n) | a3) - q * b2
    while r < 0:
        q -= 1
        r += b
    return q, r


def _audited_divmod(num: int, den: int) -> tuple[int, int]:
    """_divmod(num, den), refusing num < 0 or den <= 0, audited: 0 <= r < den,
    and q*den + r = num modulo the prime 2**61 - 1, in linear time. A wrong
    (q, r) escapes only when its error q*den + r - num is a nonzero
    multiple of 2**61 - 1 and r stays in range."""
    if den <= 0:
        raise ValueError("denominator must be positive")
    if num < 0:
        raise ValueError("numerator must be nonnegative")
    q, r = _divmod(num, den)
    if not 0 <= r < den:
        raise IntegrityError(f"remainder out of range for a {den.bit_length()}-bit divisor")
    m = (1 << 61) - 1
    if (q % m * (den % m) + r) % m != num % m:
        raise IntegrityError(f"q*den + r misses num mod 2**61 - 1, den {den.bit_length()} bits")
    return q, r


def round_nearest_div(num: int, den: int) -> tuple[int, int]:
    """Round num/den to the nearest integer q, halves away from zero, and
    return (q, d) with d = |num - q*den| <= den/2, the exact distance.

    d is read off the remainder of q0, r = _audited_divmod(num, den): it is
    r, or den - r when q rounds up to q0 + 1, so q is never multiplied back.
    In verify a quotient that escapes the audit still changes a packed
    block and fails the cross-check against the in-place row, provided
    that row is right.
    """
    q, r = _audited_divmod(num, den)
    return (q + 1, den - r) if 2 * r >= den else (q, r)


def exact_div(num: int, den: int) -> int:
    """Divide a nonnegative integer by a positive one and insist the
    division, audited as _audited_divmod does, leaves no remainder."""
    q, r = _audited_divmod(num, den)
    if r:
        # bit lengths, since large ints cannot be formatted in decimal
        raise IntegrityError(
            f"a {den.bit_length()}-bit divisor leaves a remainder"
            f" on a {num.bit_length()}-bit numerator"
        )
    return q
