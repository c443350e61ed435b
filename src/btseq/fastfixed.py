"""Tangent and secant numbers by one big fixed-point division.

At every n, choose the least p with 2**p >= m**m for m = max(n, 2), and
evaluate at the dyadic point x = 2**(-p). The truncated sin and cos series
at x scale to exact integers, and one rounded quotient carries every scaled
value in its own 2p-bit block: the values are far enough apart that one
division computes all of them. Both families build one record, a
PackedQuotient: sin over cos packs T'_k = (2n-1)!/(2k-1)! * T_k, and 1 over
cos packs S'_k = (2n)!/(2k)! * S_k. One reader unpacks either record, and
each record carries its exact rounding distance, read off the remainder.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, NamedTuple

from .intops import IntegrityError, exact_div, round_nearest_div
from .recurrences import SecantSeq, TangentSeq

ROUNDING_BUDGET = Fraction(3, 25)  # packed tangent; checks proves it in closed form


def least_half_block_bits(n: int) -> int:
    """Least p with 2**p >= n**n, computed without floating point."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return (n**n - 1).bit_length()


class PackedQuotient(NamedTuple):
    """One packed division, packed = round(num * 2**shift / den), at the
    point 2**(-p) for p = half_block_bits. Counted from the bottom, its 2p-bit
    blocks hold top!/m! times the values for m = top, top-2, ..., 3 or 2, and
    the top block, which takes every remaining bit, holds top! itself.
    distance = |num * 2**shift - packed * den| is den times the rounding
    distance, read off the division's remainder and left unreduced."""

    n: int
    half_block_bits: int
    top: int
    num: int
    den: int
    shift: int
    packed: int
    distance: int


def _scaled_series(n: int, p: int, terms: int, first: int) -> int:
    """sum_{k<terms} (-1)**k * 2**((2terms-2k-2)p) * (2n)!/(2k+first)!,
    for 2(terms-1) + first <= 2n.

    first = 0 gives cos(2**(-p)) and first = 1 gives sin(2**(-p)) * 2**p,
    each truncated to `terms` terms and scaled by (2n)! * 2**((2terms-2)p).
    """
    blocks, ratio = [], math.factorial(2 * n)  # ratio = (2n)!/(2k+first)!
    for k in range(terms):
        blocks.append(-ratio if k % 2 else ratio)
        ratio //= (2 * k + first + 1) * (2 * k + first + 2)
    while len(blocks) > 1:  # join neighbours from the bottom up: linear per level
        blocks = [0] * (len(blocks) % 2) + blocks
        blocks = [(hi << 2 * p) + lo for hi, lo in zip(blocks[::2], blocks[1::2])]
        p *= 2  # the joined blocks are twice as wide
    return blocks[0]


def _packed_quotient(n: int, parts: Callable) -> PackedQuotient:
    """Divide once at the least width for max(n, 2), as n = 1's own, p = 0,
    leaves blocks of no bits. parts(p) gives (top, num, den, shift)."""
    p = least_half_block_bits(max(n, 2))
    top, num, den, shift = parts(p)
    packed, distance = round_nearest_div(num << shift, den)
    return PackedQuotient(n, p, top, num, den, shift, packed, distance)


def packed_tangent_params(n: int) -> PackedQuotient:
    """The packed tangent quotient for n >= 1: num is (2n-1)! times the
    n-term sin sum and den the n-term cos sum, both scaled by
    (2n)! * 2**((2n-2)p), and shift is (2n-2)p."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return _packed_quotient(n, lambda p: (
        2 * n - 1, math.factorial(2 * n - 1) * _scaled_series(n, p, n, 1),
        _scaled_series(n, p, n, 0), (2 * n - 2) * p,
    ))


def packed_secant_params(n: int) -> PackedQuotient:
    """The packed secant quotient for n >= 0: num is ((2n)!)**2, den the
    (n+1)-term cos sum scaled by (2n)! * 2**(2np), and shift is 4np. The
    k = n cos term is one unit of the lowest block, so dropping it would put
    the quotient a whole unit off."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return _packed_quotient(n, lambda p: (
        2 * n, math.factorial(2 * n) ** 2, _scaled_series(n, p, n + 1, 0), 4 * n * p
    ))


def read_blocks(q: PackedQuotient) -> list[int]:
    """The values packed in q: [T_1..T_n] or [S_0..S_n]. Every factorial
    ratio must divide its block exactly, and the top block must be exactly
    top!, since T_1 = S_0 = 1. So an error that moves the top block, or
    leaves a higher block off by other than a multiple of its ratio, raises
    IntegrityError. The lowest block's ratio is 1: an error there alone
    reads back as T_n or S_n off by as much, left to the rounding budget
    (tangent only) and the cross-check."""
    width, packed = 2 * q.half_block_bits, q.packed
    mask = (1 << width) - 1
    out, ratio = [], 1  # ratio is top!/m! for the current block's m
    for m in range(q.top, 1, -2):
        out.append(exact_div(packed & mask, ratio))
        packed >>= width
        ratio *= m * (m - 1)
    if packed != ratio:
        raise IntegrityError(f"the {packed.bit_length()}-bit top block is not {q.top}!")
    return [1] + out[::-1]


def fast_tangent_numbers(n: int) -> TangentSeq:
    """Return [T_1..T_n]; one big division replaces the quadratic sweep.
    Raises IntegrityError where read_blocks does, and when the exact rounding
    distance reaches ROUNDING_BUDGET, met at every block width from the least
    on: both terms of checks' closed form fall as p grows, as x = 2**(-p)."""
    q = packed_tangent_params(n)
    values = read_blocks(q)
    if q.distance >= ROUNDING_BUDGET * q.den:
        raise IntegrityError(f"the packed tangent quotient is over budget at n = {n}")
    return values


def fast_secant_numbers(n: int) -> SecantSeq:
    """Return [S_0..S_n] by the packed-division route applied to 1/cos."""
    return read_blocks(packed_secant_params(n))
