"""Tangent and secant numbers by one big fixed-point division.

Choose the least p with 2**p >= n**n and evaluate at the dyadic point
x = 2**(-p). The truncated sin and cos series at x scale to exact integers,
and the rounded quotient V of the scaled tangent carries every
T'_k = (2n-1)!/(2k-1)! * T_k in its own 2p-bit block, most significant
first: the values are far enough apart that one division computes all of
them at once. The secant variant packs S'_k = (2n)!/(2k)! * S_k the same
way from the scaled reciprocal of cos, with one extra series term because
the secant quotient is sensitive to the x**(2n) term of cos. Both families
unpack through one reader, which divides out the factorial ratios and
insists the top block is exactly T'_1 = (2n-1)! or S'_0 = (2n)!.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .intops import IntegrityError, exact_div, round_nearest_div
from .recurrences import SecantSeq, TangentSeq


def least_half_block_bits(n: int) -> int:
    """Least p with 2**p >= n**n, computed without floating point."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return (n**n - 1).bit_length()


@dataclass(frozen=True)
class FixedPointParams:
    """Scaled-integer state for the packed tangent evaluation.

    half_block_bits is p: the evaluation point is 2**(-p) and packed blocks
    are 2p bits wide. sin_scaled is
    (2n-1)! * sum_{k<n} (-1)**k * 2**((2n-2k-2)p) * (2n)!/(2k+1)! and
    cos_scaled is sum_{k<n} (-1)**k * 2**((2n-2k-2)p) * (2n)!/(2k)!, both
    exact positive integers. packed is the rounded quotient
    sin_scaled * 2**((2n-2)p) / cos_scaled.
    """

    n: int
    half_block_bits: int
    sin_scaled: int
    cos_scaled: int
    packed: int


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


def _read_blocks(packed: int, p: int, top: int) -> list[int]:
    """Values from a packed quotient whose 2p-bit blocks, counted from the
    bottom, hold top!/m! times them for m = top, top-2, ..., 3 or 2; every
    division must be exact. The top block takes every remaining bit and must
    be exactly top!, since T_1 = S_0 = 1, so a quotient off by a multiple of
    its unit raises IntegrityError instead of returning a wrong value."""
    mask = (1 << (2 * p)) - 1
    out = []
    ratio = 1  # top!/m! for the current block's m
    for m in range(top, 1, -2):
        out.append(exact_div(packed & mask, ratio))
        packed >>= 2 * p
        ratio *= m * (m - 1)
    if packed != ratio:
        raise IntegrityError(f"the {packed.bit_length()}-bit top block is not {top}!")
    out.append(1)
    out.reverse()
    return out


def packed_tangent_params(n: int, half_block_bits: int | None = None) -> FixedPointParams:
    """Scaled sin and cos at 2**(-p) and their packed quotient, whose 2p-bit
    blocks hold the scaled tangents."""
    if n < 2:
        raise ValueError("n must be >= 2")
    p = least_half_block_bits(n) if half_block_bits is None else half_block_bits
    sin_scaled = math.factorial(2 * n - 1) * _scaled_series(n, p, n, 1)
    cos_scaled = _scaled_series(n, p, n, 0)
    packed = round_nearest_div(sin_scaled << ((2 * n - 2) * p), cos_scaled)
    return FixedPointParams(n, p, sin_scaled, cos_scaled, packed)


def fast_tangent_numbers(n: int, half_block_bits: int | None = None) -> TangentSeq:
    """Return [T_1..T_n]; one big division replaces the quadratic sweep.

    Block k holds T'_k = (2n-1)!/(2k-1)! * T_k.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return [1]  # the packed form needs n >= 2, and T_1 is pinned anyway
    return tangent_blocks(packed_tangent_params(n, half_block_bits))


def tangent_blocks(params: FixedPointParams) -> TangentSeq:
    """[T_1..T_n] read off the blocks of a packed tangent quotient."""
    return _read_blocks(params.packed, params.half_block_bits, 2 * params.n - 1)


def packed_secant_value(n: int, half_block_bits: int | None = None) -> int:
    """The rounded quotient ((2n)!)**2 * 2**(4np) / scaled-cos for n >= 2.

    The scaled cos has n+1 terms, one more than the tangent path: the k = n
    term contributes exactly one unit of the least significant block, so
    dropping it would push the quotient a whole unit off. Its bits split
    into n+1 blocks holding S'_k = (2n)!/(2k)! * S_k: the low n blocks are
    2p bits wide, and the k = 0 block is everything above them ((2n)!
    itself, which can spill past 2p bits for small n).
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    p = least_half_block_bits(n) if half_block_bits is None else half_block_bits
    f2n = math.factorial(2 * n)
    cos_scaled = _scaled_series(n, p, n + 1, 0)
    return round_nearest_div((f2n * f2n) << (4 * n * p), cos_scaled)


def fast_secant_numbers(n: int, half_block_bits: int | None = None) -> SecantSeq:
    """Return [S_0..S_n] by the packed-division route applied to 1/cos."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n <= 1:
        return [1] * (n + 1)  # below the n >= 2 packing regime; pinned values
    p = least_half_block_bits(n) if half_block_bits is None else half_block_bits
    return _read_blocks(packed_secant_value(n, p), p, 2 * n)


def quotient_rounding_distance(params: FixedPointParams) -> tuple[int, int]:
    """The packed quotient's distance from the unrounded ratio, as (d, den):
    d = |sin_scaled * 2**shift - packed * cos_scaled| and den = cos_scaled,
    unreduced, so a budget is one integer comparison. Rounding snaps to the
    block sum below 1/2; verify's budget is 0.12, audited on the params of
    the packed run its cross-check read. packed is multiplied back: no
    second division, and no remainder of the first."""
    shift = (2 * params.n - 2) * params.half_block_bits
    d = abs((params.sin_scaled << shift) - params.packed * params.cos_scaled)
    return d, params.cos_scaled
