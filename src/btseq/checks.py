"""Cross-engine equality checks plus number-theoretic and analytic identities.

Every engine family is compared pairwise on the same inputs. Bernoulli
denominators are pinned exactly by the Von Staudt-Clausen theorem and by the
divisibility of their odd prime factors into 2**m - 1. Sizes and ratios are
held against their analytic bounds, and the fixed-precision recurrences are
contrasted with exact values. Pi enters only as two integers over one power
of two, so every inequality here is decided in integer arithmetic.
"""

from __future__ import annotations

import contextlib
import gc
import itertools
import math
import os
import threading
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, Iterator, NamedTuple

from . import fastfixed
from .engines import ENGINES, REACH
from .fastfixed import least_half_block_bits
from .intops import IntegrityError
from .recurrences import (
    BernoulliSeq,
    TangentSeq,
    bernoulli_float_unstable,
    scaled_bernoulli_stable,
    tangent_numbers,
)


class CheckResult(NamedTuple):
    name: str
    passed: bool
    witness: str | None = None


class VerificationReport(NamedTuple):
    n: int
    checks: tuple[CheckResult, ...]

    @property
    def all_pass(self) -> bool:
        return all(check.passed for check in self.checks)


@lru_cache(maxsize=None)
def pi_bounds(bits: int = 256) -> tuple[int, int, int]:
    """Integers (lo, hi, shift) with lo / 2**shift < pi < hi / 2**shift and
    (hi - lo) / 2**shift below 2**-bits; shift is bits + 8.

    Machin's identity pi = 16 atan(1/5) - 4 atan(1/239) in fixed point,
    one = 2**(shift + guard): each sum adds the alternating floored terms
    one // ((2k+1) x**(2k+1)) until one is 0. A floor loses under 1 and the
    dropped tail is under the zero term's true value, so K terms are within
    K + 1 units of one * atan(1/x). That counted error, 16 (K5 + 1) +
    4 (K239 + 1), is under half a grid step, so rounding its ends outward
    leaves at most 2 steps of 2**-shift. Both bounds stay short (about
    bits + 10 bits): a caller raises them to the 2n-th power in integers
    and folds the grid into one shift.
    """
    shift = bits + 8
    guard = shift.bit_length() + 8

    def atan_inv(x: int) -> tuple[int, int]:
        """The floored sum for atan(1/x) and its error bound, in units."""
        total, k = 0, 0
        power = (1 << (shift + guard)) // x  # one // x**(2k+1): nested floors agree
        while term := power // (2 * k + 1):
            total += -term if k % 2 else term
            k, power = k + 1, power // (x * x)
        return total, k + 1

    (s5, e5), (s239, e239) = atan_inv(5), atan_inv(239)
    mid, err = 16 * s5 - 4 * s239, 16 * e5 + 4 * e239
    return (mid - err) >> guard, -(-(mid + err) >> guard), shift


@lru_cache(maxsize=None)
def _primes_to(limit: int) -> tuple[int, ...]:
    """All primes <= limit by a plain sieve."""
    if limit < 2:
        return ()
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(flags[p * p :: p]))
    return tuple(i for i, flag in enumerate(flags) if flag)


def _bits(value) -> str:
    """A value's size as "N-bit", or "N/D-bit" for numerator and denominator
    of a non-integer; large values cannot be formatted in decimal."""
    num, den = value.numerator.bit_length(), value.denominator.bit_length()
    return f"{num}-bit" if den == 1 else f"{num}/{den}-bit"


def _mismatches(left, right) -> Iterator[str]:
    """Witnesses that two outputs differ: each differing position, then the
    length mismatch. Equal outputs yield none after one whole-list ==."""
    if list(left) == list(right):
        return
    for index, (a, b) in enumerate(zip(left, right)):
        if a != b:
            yield f"position {index}: a {_bits(a)} value != a {_bits(b)} value"
    yield f"lengths differ: {len(left)} != {len(right)}"


def cross_check(n: int, runs: dict | None = None) -> VerificationReport:
    """Compare each sequence's reference engine with every other engine that
    has a cross-check label, at the reach of n tangent numbers. The entries
    that name one run share it through runs, so each shared run is made once
    per size. A caller may hand in, as runs, outputs it has made itself: a
    run's output under (run, m), and an entry that shares no run as its
    values at m under (sequence, name, m)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    runs = {} if runs is None else runs

    def values(key: tuple[str, str], m: int) -> list:
        return runs[(*key, m)] if (*key, m) in runs else ENGINES[key].values(m, runs)

    checks = []
    for sequence, reach in REACH.items():
        labelled = [key for key, e in ENGINES.items() if e.label and key[0] == sequence]
        reference, *others = labelled
        expected = values(reference, reach * n)
        for key in others:
            name = f"{sequence}: {ENGINES[reference].label} vs {ENGINES[key].label}"
            misses = _mismatches(expected, values(key, reach * n))
            checks.append(_first_miss(name, misses))
    return VerificationReport(n, tuple(checks))


def von_staudt_clausen(m: int, b: Fraction) -> int:
    """Return the integer b + sum(1/p) over primes p with (p-1) dividing m.

    With P the product of those primes, sum(1/p) has denominator exactly
    P, so b + sum(1/p) is whole iff den(b) = P and P divides
    num(b) + sum(P/p). That is decided in integers; a value that fails
    proves b is not B_m and raises IntegrityError, with the Fraction sum
    built only for its witness.
    """
    if m < 2 or m % 2:
        raise ValueError("m must be a positive even integer")
    primes = [p for p in _primes_to(m + 1) if m % (p - 1) == 0]
    product = math.prod(primes)
    if b.denominator == product:
        whole, rest = divmod(b.numerator + sum(product // p for p in primes), product)
        if not rest:
            return whole
    total = b + sum(Fraction(1, p) for p in primes)
    raise IntegrityError(
        f"B_{m} plus its prime reciprocals is a {_bits(total)} non-integer"
    )


def _zeta_pi_bits(n: int) -> int:
    """Pi precision that decides the zeta enclosure at every index up to 2n.

    The enclosure is about 2n times wider, relative to its value, than the
    pi bounds, and both gaps it must clear are at least 2**(-1-2n) for
    n >= 2: 2n + lg(2n) bits suffice, and 16 guard bits cover the constants.
    It never drops below the default 256 bits, which keep the enclosure
    tight to double precision at every n.
    """
    return max(256, 2 * n + (2 * n).bit_length() + 16)


def _outward_powers(base: int, bits: int, up: bool) -> Iterator[tuple[int, int]]:
    """Yield (m, e) with m 2**e <= base**j (>= when up), m < 2**bits, for
    j = 1, 2, ... A cut leaves `bits` bits, or bits - 1 when rounding up so
    that the ceiling cannot carry out; so it moves the value by less than
    2**(2-bits), relative, and j cuts by less than j 2**(3-bits) for
    j < 2**(bits-2)."""
    m, e = 1, 0
    while True:
        m *= base
        cut = max(m.bit_length() + up - bits, 0)
        m, e = -(-m >> cut) if up else m >> cut, e + cut
        yield m, e


def _zeta_enclosures(
    values: Iterable[Fraction], pi: tuple[int, int, int]
) -> Iterator[tuple[int, int, int]]:
    """Yield (lo_num, hi_num, den) with lo_num/den <= rho_k <= hi_num/den,
    for k = 2, 3, ... and B_2k taken from values.

    rho_k = |B_2k| (2 pi)**(2k) / (2 (2k)!) equals the zeta value at 2k, so
    for k >= 2 it lies strictly inside (1, 1 + 2**(1-2k)); pi_bounds at
    _zeta_pi_bits(k) bits is tight enough to decide that. pi is a pi_bounds
    triple (lo, hi, shift). (2k)! is a running product, and (2 lo)**(2k) and
    (2 hi)**(2k) are _outward_powers cut to P = shift + 40 bits, so each
    index costs a few short multiplications and no gcd. The k cuts widen the
    enclosure by less than k 2**(3-P), relative: at _zeta_pi_bits(n), shift
    >= 2k + lg(2k) + 24 for every k <= n, so that is below 2**(-2k-62),
    and the exact enclosure clears both gaps, each at least 2**(-1-2k), by
    more than 2**(-2k-8). An index whose short enclosure misses is decided,
    and witnessed, on exact powers instead, so every result is the exact
    enclosure's.
    """
    lo, hi, shift = pi
    lo_powers = _outward_powers(4 * lo * lo, shift + 40, up=False)
    hi_powers = _outward_powers(4 * hi * hi, shift + 40, up=True)
    next(lo_powers), next(hi_powers)  # k = 1
    factorial = 2
    for k, b in enumerate(values, start=2):
        factorial *= (2 * k - 1) * (2 * k)  # (2k)!
        num, den, grid = abs(b.numerator), 2 * factorial * b.denominator, 2 * k * shift
        (lo_m, lo_e), (hi_m, hi_e) = next(lo_powers), next(hi_powers)
        low = min(lo_e, hi_e, grid)
        ends = num * lo_m << lo_e - low, num * hi_m << hi_e - low, den << grid - low
        if _zeta_miss(k, *ends):
            ends = num * (2 * lo) ** (2 * k), num * (2 * hi) ** (2 * k), den << grid
        yield ends


def _zeta_miss(n: int, lo_num: int, hi_num: int, den: int) -> str | None:
    """None when 1 < lo and hi < 1 + 2**(1-2n), decided in integers;
    otherwise the end that failed and how far it missed, as a power of two
    from the exact values."""
    if lo_num <= den:
        side, miss = "lower end is not above 1", Fraction(den - lo_num, den)
    elif (hi_num - den) << (2 * n - 1) >= den:
        side = f"upper end is not below 1 + 2**({1 - 2 * n})"
        miss = Fraction(hi_num, den) - 1 - Fraction(1, 1 << (2 * n - 1))
    else:
        return None
    if not miss:
        return f"index {2 * n}: {side}, it meets the bound exactly"
    bits = math.log2(miss.numerator) - math.log2(miss.denominator)
    return f"index {2 * n}: {side}, missed by 2**({bits:.2f})"


def _first_miss(name: str, misses: Iterable, passed: str | None = None) -> CheckResult:
    """Check `name`, failed by the first witness that misses yields (None for
    an index that holds); read lazily, so a family stops at its first miss.
    A pass carries `passed` as its witness. Every CheckResult is built here."""
    witness = next(filter(None, misses), None)
    return CheckResult(name, witness is None, witness or passed)


def size_checks(
    tangent: TangentSeq, bernoulli: BernoulliSeq
) -> tuple[CheckResult, ...]:
    """Growth-rate checks tying tangent sizes to Bernoulli sizes.

    (a) T_k / (2k-1)! <= (2/pi)**(2k-2) for every k, decided in integers with
        the upper bound on pi (which can only make the check harder) and
        hi**(2k-2) rounded up to 64 bits, harder again by under k 2**-61: past
        k = 1 (exact) true values sit 0.28 bits or more under the bound. A
        miss is decided again on the exact power;
    (b) the bit-length gap between T_n and the integer part of B_2n is 4n
        up to a 16 lg n allowance (needs n >= 2 for the allowance to bite);
    (c) bit-length(T_n) stays within 20 percent of 2n lg n once n >= 50.
    """
    n = len(tangent)
    if n < 1 or len(bernoulli) != 2 * n + 1:
        raise ValueError("expected [T_1..T_n] with matching [B_0..B_2n]")
    _, hi, shift = pi_bounds()

    def coefficient_misses() -> Iterator[str]:
        powers = itertools.chain([(1, 0)], _outward_powers(hi * hi, 64, up=True))
        factorial = 1  # (2k-1)!
        for k, (m, e) in zip(range(1, n + 1), powers):  # m 2**e >= hi**(2k-2)
            if k > 1:
                factorial *= (2 * k - 2) * (2 * k - 1)
            t, grid = tangent[k - 1], (2 * k - 2) * (shift + 1)
            if t * m << max(e - grid, 0) > factorial << max(grid - e, 0) and (
                t * hi ** (2 * k - 2) > factorial << grid
            ):
                yield f"k={k}: T_k exceeds (2k-1)! (2/pi)**(2k-2)"

    checks = [_first_miss("tangent coefficient bound", coefficient_misses())]
    if n >= 2:
        gap = tangent[-1].bit_length() - int(abs(bernoulli[2 * n])).bit_length()
        ok = abs(gap - 4 * n) <= 16 * math.log2(n)
        miss = None if ok else f"gap={gap} outside 4n +- 16 lg n at n={n}"
        checks.append(_first_miss("tangent vs bernoulli bit gap", [miss]))
    if n >= 50:
        ratio = tangent[-1].bit_length() / (2 * n * math.log2(n))
        miss = None if 0.8 <= ratio <= 1.2 else f"ratio={ratio:.3f}"
        checks.append(_first_miss("tangent bit growth rate", [miss]))
    return tuple(checks)


def fermat_denominator_check(m: int, b: Fraction) -> bool:
    """True iff every odd prime factor of den(B_m) divides 2**m - 1.

    Denominators of true Bernoulli numbers factor over the primes up to
    m+1; any leftover cofactor beyond those is already proof the value is
    not B_m, so it fails the check.
    """
    if m < 2 or m % 2:
        raise ValueError("m must be a positive even integer")
    target = (1 << m) - 1
    rest = Fraction(b).denominator
    for p in _primes_to(m + 1):
        if rest % p == 0:
            if p != 2 and target % p != 0:
                return False
            while rest % p == 0:
                rest //= p
    return rest == 1


TAIL_TERMS = 5  # explicit terms of each packed-quotient tail
_BUDGET = Fraction(3, 25)  # 0.12, the packed tangent quotient's rounding budget


def tangent_tail_audit(tangent: TangentSeq) -> list[bool]:
    """Whether the series tail the packed tangent quotient drops lies inside
    (0, 1/10), for each n = 2..N, given the row [T_1..T_(N+5)].

    The tail at n sums T_k (2n-1)!/(2k-1)! x**(2(k-n)) over k > n at
    x = 2**(-p). Its first TAIL_TERMS terms are summed exactly as num/den:
    num <- num (2k-2)(2k-1) 4**p + T_k and den <- den (2k-2)(2k-1) 4**p for
    k = n+1..n+5. Everything beyond them is covered with a 3 percent
    allowance: consecutive terms of the tangent series shrink by at least a
    factor (pi/2)**2 per order, so at x <= 1/4 each tail term is under 0.026
    of its predecessor. So n passes iff 0 < num and 103 num < 10 den.
    """
    if len(tangent) < 2 + TAIL_TERMS:
        raise ValueError("need a row [T_1..T_(N+5)] with N >= 2")
    verdicts = []
    for n in range(2, len(tangent) - TAIL_TERMS + 1):
        p = least_half_block_bits(n)
        num, den = 0, 1
        for k in range(n + 1, n + TAIL_TERMS + 1):
            step = (2 * k - 2) * (2 * k - 1) << (2 * p)
            num, den = num * step + tangent[k - 1], den * step
        verdicts.append(0 < num and 103 * num < 10 * den)
    return verdicts


def _rounding_budget_bounds() -> Iterator[tuple[int, int]]:
    """Yield closed-form bounds on the packed tangent quotient's rounding
    distance at sizes n = 2, 3, ..., as (num, den), left unreduced like
    quotient_rounding_distance.

    With x = 2**(-p) the engine's ratio S/C is (2n-1)! x**(1-2n) s/c for the
    n-term sin and cos sums s and c, and the true block sum V is
    (2n-1)! x**(1-2n) (tan x - sum_{j>n} t_j x**(2j-1)), where
    t_j = T_j/(2j-1)! = 2 (4**j - 1) zeta(2j) / pi**(2j). So |S/C - V| is
    at most the sum of two terms, both decided from pi_bounds:

    - tail: (2n-1)! sum_{j>n} t_j x**(2(j-n)), below
      (2n-1)! 2 zeta(6) (2/pi)**(2n) u/(1-u) with u = (2x/pi)**2, since
      t_j < 2 zeta(6) (2/pi)**(2j) for j >= 3 and zeta(6) = pi**6/945;
    - truncation: (2n-1)! x**(1-2n) |s/c - tan x|, at most
      x**2/(2n) (2n+2)/(2n+1) / (1 - x**2/2)**2, from the alternating
      remainders of both sums and c, cos x >= 1 - x**2/2.

    A bound below 1/2 makes the rounded quotient exactly V, so it bounds
    the exact distance too. It is largest at n = 2, 0.0721 against the 0.12
    budget, and shrinks like (4/(pi e))**(2n).

    (2n-1)! is a running product. pi is bracketed to 32 bits and pi_lo**(2n)
    rounded down to 64 bits, which loosen (2/pi)**(2n) by less than a factor
    1 + n 2**-31 and only raise the bound.
    """
    a, e, g = pi_bounds(32)  # pi_lo = a / 2**g, pi_hi = e / 2**g
    pi_powers = _outward_powers(a * a, 64, up=False)
    next(pi_powers)  # k = 1
    factorial = 1
    for k in itertools.count(2):
        factorial *= (2 * k - 2) * (2 * k - 1)  # (2k-1)!
        pi_m, pi_e = next(pi_powers)  # pi_m 2**pi_e <= a**(2k)
        p = least_half_block_bits(k)
        # tail: (2k-1)! 2 zeta(6) (2/pi_lo)**(2k) u/(1-u), u = (2x/pi_lo)**2 and
        # zeta(6) <= pi_hi**6/945, is at most tail_num / tail_den
        shift = 2 * k * (g + 1) - 4 * g + 3 - pi_e
        tail_num = factorial * e**6 << max(shift, 0)
        tail_den = 945 * pi_m * ((a * a << (2 * p)) - (4 << 2 * g)) << max(-shift, 0)
        # truncation: x**2 (2k+2) / (2k (2k+1) (1 - x**2/2)**2)
        cut_num = (k + 1) << (2 * p + 2)
        cut_den = k * (2 * k + 1) * ((1 << (2 * p + 1)) - 1) ** 2
        yield tail_num * cut_den + cut_num * tail_den, tail_den * cut_den


def stability_contrast(precision: int = 53) -> tuple[CheckResult, ...]:
    """Contrast the unstable and stable fixed-precision Bernoulli routes.

    Thresholds are calibrated for 53-bit arithmetic and scale by powers of
    two at other precisions. The breakdown check uses the 4**m error model,
    which predicts relative error above 1 at index 60 only for precisions
    up to 56 bits; beyond that it is omitted.
    """
    if precision < 24:
        raise ValueError("precision must be at least 24 bits")
    scale = Fraction(2) ** (53 - precision)
    exact = ENGINES["bernoulli", "recurrence"].produce(80)[0]  # B_0..B_80
    unstable = bernoulli_float_unstable(60, precision)
    low_worst = max(abs(unstable[m] / exact[m] - 1) for m in range(2, 21, 2))
    error = f"worst relative error {float(low_worst):.3e}"  # PASS and FAIL alike
    miss = None if low_worst < Fraction(1, 10**8) * scale else error
    name = "unstable recurrence accurate through index 20"
    checks = [_first_miss(name, [miss], error)]
    if precision <= 56:
        err_60 = abs(unstable[60] / exact[60] - 1)
        error = f"relative error {float(err_60):.3e}"
        miss = None if err_60 > 1 else error
        name = "unstable recurrence breaks down by index 60"
        checks.append(_first_miss(name, [miss], error))
    stable = scaled_bernoulli_stable(40, precision)
    worst = Fraction(0)
    factorial = 1  # (2k)!
    for k in range(41):
        if k:
            factorial *= (2 * k - 1) * (2 * k)
        worst = max(worst, abs(stable[k] * factorial / exact[2 * k] - 1))
    error = f"worst relative error {float(worst):.3e}"
    miss = None if worst < Fraction(1, 10**12) * scale else error
    checks.append(_first_miss("scaled recurrence accurate through C_40", [miss], error))
    return tuple(checks)


# Least n at which verify runs its unshared engines in a second process: at
# n = 64 they take about 13 ms, and a fork and join about 5 ms.
_FORK_FROM = 64


@contextlib.contextmanager
def _beside(work: Callable[[], dict], n: int) -> Iterator[Callable[[], dict]]:
    """Start work() beside the caller; yield join, which returns what work()
    returned or raises what it raised.

    A forked child runs work() when n is at least _FORK_FROM, a second CPU
    is ours and no other thread is alive (a fork copies only the thread
    that calls it). It runs with the collector off and sends its outcome
    back pickled through a pipe; it leaves by os._exit, so it runs no exit
    handler and flushes no inherited buffer. The parent always reaps the
    child, and kills it first if it leaves before join. Otherwise join
    calls work() itself.
    """
    cpus = getattr(os, "sched_getaffinity", None)
    if n < _FORK_FROM or not cpus or len(cpus(0)) < 2 or threading.active_count() > 1:
        yield work
        return
    import pickle  # only a run that forks pays for these imports
    import signal

    read_end, write_end = os.pipe()
    pid = os.fork()
    if not pid:
        status = 1
        try:
            os.close(read_end)
            gc.disable()
            try:
                outcome = True, work()
            except BaseException as exc:
                outcome = False, exc
            with open(write_end, "wb") as pipe:
                pickle.dump(outcome, pipe, pickle.HIGHEST_PROTOCOL)
            status = 0
        finally:
            os._exit(status)
    os.close(write_end)
    pipe = open(read_end, "rb")
    reaped = False

    def join() -> dict:
        nonlocal reaped
        data = pipe.read()
        _, status = os.waitpid(pid, 0)
        reaped = True
        if status:
            code = os.waitstatus_to_exitcode(status)
            raise ChildProcessError(f"engine process ended with exit code {code}")
        done, value = pickle.loads(data)
        if not done:
            raise value
        return value

    try:
        yield join
    finally:
        pipe.close()
        if not reaped:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _unshared_values(n: int) -> dict:
    """The values of every labelled entry that shares no run, keyed as
    cross_check reads them; the cross-check is their only reader."""
    return {
        (kind, name, REACH[kind] * n): engine.values(REACH[kind] * n, {})
        for (kind, name), engine in ENGINES.items()
        if engine.label and not engine.run
    }


def _shared_runs(n: int) -> tuple[list[int], dict, bool]:
    """The runs that more than one family reads, as (row, runs, exact_miss):
    the in-place row [T_1..T_(n+5)], the runs dict with the first n of it,
    the packed tangent blocks, the triangle and the Bernoulli reference, and
    whether the packed quotient at n misses its rounding budget."""
    row, _ = tangent_numbers(n + TAIL_TERMS)  # the tail audit reads past T_n
    runs = {("recurrence", n): (row[:n], None)}  # no check reads its counters
    exact_miss = False
    if n >= 2:  # one packed division feeds the cross-check and the k = n audit
        quotient = fastfixed.packed_tangent_params(n)
        runs["fast", n] = fastfixed.read_blocks(quotient), None
        d, den = fastfixed.quotient_rounding_distance(quotient)
        top, bottom = _BUDGET.as_integer_ratio()  # so the test is in integers
        exact_miss = bottom * d >= top * den
    for (kind, _), engine in ENGINES.items():  # adds the triangle and B_0..B_2n
        if engine.label and engine.run:
            engine.values(REACH[kind] * n, runs)
    return row, runs, exact_miss


def full_verification(n: int, precision: int | None = None) -> VerificationReport:
    """Run every check family at size n; optionally add the float contrast.
    Each engine runs once, and every family that reads its output shares it.

    The labelled entries that share no run are made beside the rest
    (_beside), and a fault surfaces in serial order: first one in the
    shared runs, then one in those entries, then one in the other families.
    The report is the same wherever they ran. No multi-Mbit int of the
    packed run outlives _shared_runs.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if precision is not None and precision < 24:  # before any engine runs
        raise ValueError("precision must be at least 24 bits")
    with _beside(lambda: _unshared_values(n), n) as join:
        row, runs, exact_miss = _shared_runs(n)
        try:
            checks = _families(n, row, runs, exact_miss, precision)
        except Exception:
            join()  # an unshared engine's fault would have come first
            raise
        runs.update(join())
    return VerificationReport(n, (*cross_check(n, runs).checks, *checks))


def _families(
    n: int, row: list[int], runs: dict, exact_miss: bool, precision: int | None
) -> list[CheckResult]:
    """Every family but the cross-check, on the shared runs, in report order."""
    tangent = row[:n]
    bernoulli = ENGINES["bernoulli", "recurrence"].values(2 * n, runs)
    evens = range(2, 2 * n + 1, 2)

    def staudt() -> Iterator[str]:
        for m in evens:
            try:
                von_staudt_clausen(m, bernoulli[m])
            except IntegrityError as exc:
                yield f"index {m}: {exc}"

    checks = [_first_miss("von staudt-clausen denominators", staudt())]
    fermat = (
        f"index {m}" for m in evens if not fermat_denominator_check(m, bernoulli[m])
    )
    checks.append(_first_miss("denominator primes divide 2**m - 1", fermat))
    enclosures = _zeta_enclosures(bernoulli[4::2], pi_bounds(_zeta_pi_bits(n)))
    zeta = (_zeta_miss(k, *ends) for k, ends in enumerate(enclosures, start=2))
    witness = None if n > 1 else "checked: none"  # its first index is B_4
    checks.append(_first_miss("zeta ratio enclosure", zeta, witness))
    checks.extend(size_checks(tangent, bernoulli))

    if n >= 2:
        tail = (f"n={k}" for k, ok in enumerate(tangent_tail_audit(row), 2) if not ok)
        audited = f"audited n = 2..{n}"
        checks.append(_first_miss("packed-quotient tail bound", tail, audited))

        # the closed form covers every k; one exact audit checks the engine
        top, bottom = _BUDGET.as_integer_ratio()
        bounds = list(itertools.islice(_rounding_budget_bounds(), n - 1))
        least = min(
            math.log2(top * den) - math.log2(bottom * num) for num, den in bounds
        )

        def budget() -> Iterator[str]:
            for k, (num, den) in enumerate(bounds, start=2):
                if bottom * num >= top * den:
                    yield f"n={k}: closed form is not below {float(_BUDGET)}"
            if exact_miss:
                yield f"n={n}"

        proof = f"closed form n = 2..{n}, exact n = {n}, least margin {least:.2f} bits"
        checks.append(_first_miss("packed-quotient rounding budget", budget(), proof))

    if precision is not None:
        checks.extend(stability_contrast(precision))
    return checks
