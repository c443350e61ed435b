"""Timing and operation-count harness for the competing engines."""

from __future__ import annotations

import math
import time
from typing import Iterable, NamedTuple, Sequence

from .engines import ENGINES, REACH
from .recurrences import OpCounters


class BenchRecord(NamedTuple):
    """One benchmarked run: best wall time over REPEATS runs plus op counts.

    counters is None for engines that are not built from counted loops.
    peak_value_bits is the bit length of the largest numerator or
    denominator among the produced values.
    """

    algorithm: str
    n: int
    wall_time: float
    counters: OpCounters | None
    peak_value_bits: int


def _peak_bits(values) -> int:
    # an int is its own numerator over a denominator of 1
    return max(
        max(v.numerator.bit_length(), v.denominator.bit_length()) for v in values
    )


REPEATS = 3  # runs per record; the best wall time is kept

# Each engine is timed on the first sequence it produces in the table, out
# to the reach of n tangent numbers (B_0..B_2n for a Bernoulli engine), so
# every record at a given n carries the information content of T_1..T_n
ALGORITHMS: dict[str, str] = {}  # engine name -> the sequence it is timed on
for _sequence, _name in ENGINES:
    ALGORITHMS.setdefault(_name, _sequence)


def bench_suite(
    n_values: Iterable[int], algorithms: Sequence[str] | None = None
) -> list[BenchRecord]:
    """Best-of-REPEATS wall time and counters for each algorithm and size."""
    names = list(ALGORITHMS) if algorithms is None else list(algorithms)
    for name in names:
        if name not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {name!r}")
    sizes = list(n_values)
    if any(n < 2 for n in sizes):
        raise ValueError("benchmark sizes must be >= 2")
    records = []
    for n in sizes:
        for name in names:
            sequence = ALGORITHMS[name]
            best = math.inf
            for _ in range(REPEATS):
                start = time.perf_counter()
                values, counters = ENGINES[sequence, name].produce(REACH[sequence] * n)
                best = min(best, time.perf_counter() - start)
            records.append(BenchRecord(name, n, best, counters, _peak_bits(values)))
    return records


def crossover_summary(records: Sequence[BenchRecord]) -> str:
    """Least benchmarked n from which the packed-division engine beat the
    in-place recurrence at every larger benchmarked n; an observation about
    this machine, not a contract."""
    times: dict[int, dict[str, float]] = {}
    for record in records:
        times.setdefault(record.n, {})[record.algorithm] = record.wall_time
    start = None
    for n in sorted(times, reverse=True):
        by_name = times[n]
        if "fast" not in by_name or "recurrence" not in by_name:
            continue
        if by_name["fast"] >= by_name["recurrence"]:
            break
        start = n
    if start is None:
        return "no crossover within the benchmarked sizes"
    return (
        f"crossover at n = {start}: the fast engine beats the in-place"
        " recurrence there and at every larger benchmarked n"
    )
