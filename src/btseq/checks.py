"""Cross-engine equality checks plus number-theoretic and analytic identities.

Every engine family is compared pairwise on the same inputs. Bernoulli
denominators are pinned exactly by the Von Staudt-Clausen theorem, and each
Bernoulli value is enclosed against the zeta value it equals. The packed
tangent quotient's rounding distance is bounded in closed form at every
size; its engine audits the exact one. No family here repeats a fact
those three already settle (see von_staudt_clausen, _zeta_enclosures and
_rounding_budget_bounds). The fixed-precision recurrences are contrasted
with exact values. Pi enters only as two integers over one power of two,
so every inequality here is decided in integer arithmetic.
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

from .engines import ENGINES, REACH
from .fastfixed import ROUNDING_BUDGET, least_half_block_bits
from .intops import IntegrityError
from .recurrences import MIN_PRECISION, bernoulli_float_unstable
from .recurrences import scaled_bernoulli_stable


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
    """Witnesses that two outputs differ: each differing position, then any
    length mismatch. Equal outputs yield none after one whole-list ==."""
    if list(left) == list(right):
        return
    for index, (a, b) in enumerate(zip(left, right)):
        if a != b:
            yield f"position {index}: a {_bits(a)} value != a {_bits(b)} value"
    if len(left) != len(right):
        yield f"lengths differ: {len(left)} != {len(right)}"


def _labelled() -> list[tuple[str, str]]:
    """The ENGINES keys that carry a cross-check label, in table order."""
    return [key for key, engine in ENGINES.items() if engine.label]


def _outputs(n: int, keys: Iterable[tuple[str, str]]) -> dict:
    """The values of each entry in keys at the reach of n tangent numbers,
    keyed as ENGINES is; the entries that name one run share it."""
    runs = {}
    return {key: ENGINES[key].values(REACH[key[0]] * n, runs) for key in keys}


def _compare(outputs: dict) -> tuple[CheckResult, ...]:
    """Compare each sequence's reference output with every other labelled
    entry's; outputs holds the values of every labelled key at one reach."""
    checks = []
    for sequence in REACH:
        reference, *others = [key for key in _labelled() if key[0] == sequence]
        for key in others:
            name = f"{sequence}: {ENGINES[reference].label} vs {ENGINES[key].label}"
            misses = _mismatches(outputs[reference], outputs[key])
            checks.append(_first_miss(name, misses))
    return tuple(checks)


def cross_check(n: int) -> VerificationReport:
    """Compare each sequence's reference engine with every other engine that
    has a cross-check label, at the reach of n tangent numbers. The entries
    that name one run share it, so each run is made once per call. The
    packed tangent run audits its own exact rounding distance."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return VerificationReport(n, _compare(_outputs(n, _labelled())))


def von_staudt_clausen(m: int, b: Fraction) -> int:
    """Return the integer b + sum(1/p) over primes p with (p-1) dividing m.

    With P the product of those primes, sum(1/p) has denominator exactly
    P, so b + sum(1/p) is whole iff den(b) = P and P divides
    num(b) + sum(P/p). That is decided in integers; a value that fails
    proves b is not B_m and raises IntegrityError, with the Fraction sum
    built only for its witness.

    A pass also settles that every odd prime factor of den(b) divides
    2**m - 1: den(b) is P, and each odd p in it divides 2**(p-1) - 1
    (Fermat), which divides 2**m - 1 since (p-1) divides m.
    """
    if m < 2 or m % 2:
        raise ValueError("m must be a positive even integer")
    # one cached sieve per power of two; the filter drops every p > m + 1
    primes = [p for p in _primes_to(1 << m.bit_length()) if m % (p - 1) == 0]
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

    rho_k = (-1)**(k+1) B_2k (2 pi)**(2k) / (2 (2k)!) equals the zeta value
    at 2k, sign included, so for k >= 2 it lies strictly inside
    (1, 1 + 2**(1-2k)); pi_bounds at _zeta_pi_bits(k) bits is tight enough
    to decide that. A wrong-signed B_2k makes rho_k negative, so its lower
    end misses 1. pi is a pi_bounds triple (lo, hi, shift). (2k)! is a
    running product, and (2 lo)**(2k) and (2 hi)**(2k) are _outward_powers
    cut to P = shift + 40 bits, so each index costs a few short
    multiplications and no gcd. The k cuts widen the enclosure by less than
    k 2**(3-P), relative: at _zeta_pi_bits(n), shift >= 2k + lg(2k) + 24
    for every k <= n, so that is below 2**(-2k-62), and the exact enclosure
    clears both gaps, each at least 2**(-1-2k), by more than 2**(-2k-8). An index whose short enclosure misses is decided,
    and witnessed, on exact powers instead, so every result is the exact
    enclosure's.

    In verify B_2k is the tangent route of the row, (-1)**(k+1) k T_k /
    (2**(2k-1) (4**k - 1)), so a pass at k >= 2 pins T_k > 0, and three
    more facts about T_k need no check of their own:

    - the coefficient bound T_k <= (2k-1)! (2/pi)**(2k-2): T_k/(2k-1)! is
      (2/pi)**(2k-2) (8/pi**2) (1 - 4**-k) rho_k, and a pass at k >= 2 gives
      rho_k < 9/8, 0.13 bits under the bound. T_1 is the row's first entry,
      which the recurrence never writes; the cross-check compares it;
    - the bit gap between T_k and the integer part of |B_2k| is 4k up to
      16 lg k: it is within lg k + 3 of 4k whenever |B_2k| >= 1, whatever
      T_k is. Below that (k <= 6) a pass keeps T_k within one bit of its
      true value, whose gap is at most 6 from 4k (at k = 2);
    - the growth rate: the bit length of T_n is within 20 percent of
      2n lg n from n = 50 on. With A = 2 (2n-1)! (4**n - 1) / pi**(2n),
      T_n is A rho_n, so a pass at k = n gives A < T_n < 9/8 A.
      lg A - 1.6 n lg n is 2.46 bits at n = 50 and grows from n = 18 on
      (each step adds more than 0.4 lg n - 1.7), and 2.4 n lg n exceeds
      lg A + 1 by over 220 bits from n = 50 on.
    """
    lo, hi, shift = pi
    lo_powers = _outward_powers(4 * lo * lo, shift + 40, up=False)
    hi_powers = _outward_powers(4 * hi * hi, shift + 40, up=True)
    next(lo_powers), next(hi_powers)  # k = 1
    factorial = 2
    for k, b in enumerate(values, start=2):
        factorial *= (2 * k - 1) * (2 * k)  # (2k)!
        num = (-1) ** (k + 1) * b.numerator
        den, grid = 2 * factorial * b.denominator, 2 * k * shift
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


def _rounding_budget_bounds() -> Iterator[tuple[int, int]]:
    """Yield closed-form bounds on the packed tangent quotient's rounding
    distance at sizes n = 2, 3, ..., as (num, den), left unreduced.

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
    the exact distance too. It is largest at n = 2, 0.0721 against the
    ROUNDING_BUDGET of 0.12, and shrinks like (4/(pi e))**(2n).

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


def _rounding_budget(n: int) -> CheckResult:
    """The packed-quotient rounding family at n >= 2: the closed form at
    every k = 2..n. fast_tangent_numbers checks the exact distance of each
    quotient it reads, so the run the cross-check reads passed it at n."""
    top, bottom = ROUNDING_BUDGET.as_integer_ratio()  # so every test is in integers
    bounds = list(itertools.islice(_rounding_budget_bounds(), n - 1))
    least = min(math.log2(top * den) - math.log2(bottom * num) for num, den in bounds)
    over = [k for k, (num, den) in enumerate(bounds, 2) if bottom * num >= top * den]
    misses = [f"n={k}: closed form is not below {float(ROUNDING_BUDGET)}" for k in over]
    proof = f"closed form n = 2..{n}, exact n = {n}, least margin {least:.2f} bits"
    return _first_miss("packed-quotient rounding budget", misses, proof)


def _scientific(q: Fraction) -> str:
    """q >= 0 to four significant digits, rounded half to even from the exact
    value, worded as f"{float(q):.3e}" words a normal double; a double would
    lose q's digits below 2**-1022 and read 0 below 2**-1075."""
    if not q:
        return "0.000e+00"
    # 10**exp <= q < 10**(exp + 1), from a first guess by bit lengths
    exp = (q.numerator.bit_length() - q.denominator.bit_length()) * 30103 // 100000
    while q < Fraction(10) ** exp:
        exp -= 1
    while q >= Fraction(10) ** (exp + 1):
        exp += 1
    digits = round(q / Fraction(10) ** (exp - 3))
    if digits == 10000:  # rounded up into the next decade
        exp, digits = exp + 1, 1000
    return f"{digits // 1000}.{digits % 1000:03d}e{exp:+03d}"


def stability_contrast(precision: int) -> tuple[CheckResult, ...]:
    """Contrast the unstable and stable fixed-precision Bernoulli routes.

    Thresholds are calibrated for 53-bit arithmetic and scale by powers of
    two at other precisions. The breakdown check uses the 4**m error model,
    which predicts relative error above 1 at index 60 only for precisions
    up to 56 bits; beyond that it is omitted. The routes own the precision
    floor: each refuses one under MIN_PRECISION, and the unstable one runs
    first, so that refusal comes before any other work.
    """
    unstable = bernoulli_float_unstable(60, precision)
    exact = ENGINES["bernoulli", "recurrence"].produce(80)[0]  # B_0..B_80
    scale = Fraction(2) ** (53 - precision)

    def line(name: str, what: str, error: Fraction, holds: bool) -> CheckResult:
        witness = f"{what} {_scientific(error)}"  # PASS and FAIL alike
        return _first_miss(name, [None if holds else witness], witness)

    low = max(abs(unstable[m] / exact[m] - 1) for m in range(2, 21, 2))
    name = "unstable recurrence accurate through index 20"
    checks = [line(name, "worst relative error", low, low < scale / 10**8)]
    if precision <= 56:
        at_60 = abs(unstable[60] / exact[60] - 1)
        name = "unstable recurrence breaks down by index 60"
        checks.append(line(name, "relative error", at_60, at_60 > 1))
    stable = scaled_bernoulli_stable(40, precision)  # C_k = B_2k / (2k)!
    worst = max(
        abs(c * math.factorial(2 * k) / exact[2 * k] - 1) for k, c in enumerate(stable)
    )
    name = "scaled recurrence accurate through C_40"
    checks.append(line(name, "worst relative error", worst, worst < scale / 10**12))
    return tuple(checks)


# Least n at which verify runs unshared engines in a second process. verify
# inline against forked, with the split below and the integer-significand
# contrast (2 vCPUs, one warm process, medians of 21-41 runs): without
# --precision the fork lost 0.6-1.2 ms at n = 56 and saved 4-6 ms at
# n = 60-64. With --precision 53 it moved -1.9 to +3.6 ms at n = 40-52,
# within the spread of its own runs, so the gate reads n alone.
_FORK_FROM = 64

# Least n at which the second process also makes both secant engines;
# below it the parent makes them after its shared runs. The parent's own
# work (packed tangent, rounding budget, shared runs, families) was 0.72,
# 0.85 and 0.87 of Akiyama-Tanigawa plus the series at n = 129, 175 and
# 200, and 1.03, 1.02 and 1.08 of it at n = 225, 250 and 275 (medians of
# 9 in one warm process, 2 vCPUs): from here two packed divisions in one
# process would be the longer side.
_SPLIT_FROM = 225


@contextlib.contextmanager
def _beside(work: Callable[[], dict], n: int) -> Iterator[Callable[[], dict]]:
    """Start work() beside the caller; yield join, which returns what work()
    returns or raises what it raises.

    A forked child runs work() when n is at least _FORK_FROM, a second CPU
    is ours, no other thread is alive (a fork copies only the caller) and
    SIGCHLD has its default disposition: if it is ignored the system reaps
    the child as it exits, and a handler may reap it too, so its pid could
    be reused before our kill. The child pickles the
    result into a pipe and leaves by os._exit(0), running no exit handler.
    join returns the result if all of it came (a cut-short pickle never
    loads), and on every other path (no fork, a refused pipe or fork, a
    fault in the child, an unpicklable result, a dead child) calls work()
    itself; the engines are deterministic in n, so the report or fault is
    that of one CPU. Only the way out reaps the child, after a kill: until
    it is reaped its pid stays its own, even once it has exited.
    """
    pid = None  # of a forked child
    cpus = getattr(os, "sched_getaffinity", None)
    if n >= _FORK_FROM and cpus and len(cpus(0)) > 1 and threading.active_count() == 1:
        import pickle  # only a run that may fork pays for these imports
        import signal

        if signal.getsignal(signal.SIGCHLD) == signal.SIG_DFL:
            ends = ()
            try:
                ends = read_end, write_end = os.pipe()
                pid = os.fork()
            except OSError:  # no descriptor or process to spare: as on one CPU
                for end in ends:
                    os.close(end)
        if pid == 0:
            try:
                os.close(read_end)
                gc.disable()
                with open(write_end, "wb") as pipe:
                    pickle.dump(work(), pipe, pickle.HIGHEST_PROTOCOL)
            finally:
                os._exit(0)
        elif pid:
            os.close(write_end)
            pipe = open(read_end, "rb")

    def join() -> dict:
        if pid:
            with pipe, contextlib.suppress(EOFError, pickle.UnpicklingError):
                return pickle.loads(pipe.read())
        return work()

    try:
        yield join
    finally:
        if pid:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def full_verification(n: int, precision: int | None = None) -> VerificationReport:
    """Run every check family at size n; optionally add the float contrast.
    Each engine runs once, and every family that reads its output shares it;
    only the precision contrast makes its own exact row, B_0..B_80.

    The outputs of the labelled entries fill one dict keyed as ENGINES is.
    Those that share no run are made beside the rest (_beside), except
    that below _SPLIT_FROM the secant ones among them are made here, right
    after the shared runs. The packed tangent run is a shared one, and its
    engine audits its own exact rounding distance; the rounding family here
    decides the closed form. A fault surfaces in serial order:
    first one in the shared runs, then one in the unshared entries in
    table order, then one in the other families. The report is the same
    wherever they ran.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if precision is not None and precision < MIN_PRECISION:  # before any engine runs
        raise ValueError(f"precision must be at least {MIN_PRECISION} bits")
    unshared = [key for key in _labelled() if not ENGINES[key].run]
    # the unshared secant entries come first in table order, so making
    # them here keeps the serial fault order with no new join
    here = [key for key in unshared if key[0] == "secant" and n < _SPLIT_FROM]
    beside = [key for key in unshared if key not in here]
    with _beside(lambda: _outputs(n, beside), n) as join:
        shared = [key for key in _labelled() if ENGINES[key].run]
        outputs = _outputs(n, shared + here)  # T rows, triangle, B_0..B_2n, secants
        try:
            checks = _families(n, outputs["bernoulli", "recurrence"])
            if n >= 2:
                checks.append(_rounding_budget(n))
            if precision is not None:
                checks.extend(stability_contrast(precision))
        except Exception:
            join()  # an unshared engine's fault would have come first
            raise
        outputs.update(join())
    return VerificationReport(n, (*_compare(outputs), *checks))


def _families(n: int, bernoulli: list[Fraction]) -> list[CheckResult]:
    """The Bernoulli families on B_0..B_2n, in report order."""

    def staudt() -> Iterator[str]:
        for m in range(2, 2 * n + 1, 2):
            try:
                von_staudt_clausen(m, bernoulli[m])
            except IntegrityError as exc:
                yield f"index {m}: {exc}"

    enclosures = _zeta_enclosures(bernoulli[4::2], pi_bounds(_zeta_pi_bits(n)))
    zeta = (_zeta_miss(k, *ends) for k, ends in enumerate(enclosures, start=2))
    witness = None if n > 1 else "checked: none"  # its first index is B_4
    return [
        _first_miss("von staudt-clausen denominators", staudt()),
        _first_miss("zeta ratio enclosure", zeta, witness),
    ]
