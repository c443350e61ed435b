"""The engine table: every (sequence, engine) pair and the producer behind it.

A producer maps n to (values, counters): [T_1..T_n], [S_0..S_n] or
[B_0..B_n], and the engine's OpCounters or None for engines not built from
counted loops. The first engine listed for a sequence is its reference.

An entry whose run field names a run in RUNS projects from that run's
output: one triangle gives T and S, and a Bernoulli route converts a
tangent row (it adds no independent evidence, so it has no cross-check
label). Its producer also takes runs, a dict that one caller keeps for one
call: each run is looked up there first and kept there once made. Without
runs, every call runs its engine again. A Bernoulli route converts on
every call; a caller that reads its values twice keeps them, as verify
keeps each labelled entry's values under its key in this table.

RUNS and the producers call the engines through this module's global
names, so rebinding one (a test double, a tracer) reaches every entry
built on it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, NamedTuple

from .fastfixed import fast_secant_numbers, fast_tangent_numbers
from .recurrences import (
    OpCounters,
    akiyama_tanigawa_bernoulli,
    atkinson_tangent_secant,
    bernoulli_from_tangent,
    secant_numbers,
    tangent_numbers,
)
from .series import bernoulli_via_series

# Largest index per unit of n: T_1..T_n, S_0..S_n and B_0..B_2n carry the
# same information, so engines of different sequences compare at these sizes.
REACH = {"tangent": 1, "secant": 1, "bernoulli": 2}

# Runs shared by entries, by engine name: m -> ([T_1..T_m], ..., counters)
RUNS = {
    "recurrence": lambda m: tangent_numbers(m),
    "fast": lambda m: (fast_tangent_numbers(m), None),
    "atkinson": lambda m: atkinson_tangent_secant(m),  # ([T], [S_0..S_m], ops)
}


class Engine(NamedTuple):
    label: str | None  # name in cross-check reports; None for a tangent route
    produce: Callable[..., tuple[list, OpCounters | None]]
    run: str | None = None  # the run in RUNS that produce projects from

    def values(self, n: int, runs: dict) -> list:
        """The values at n; a projection shares its run through runs."""
        return (self.produce(n, runs) if self.run else self.produce(n))[0]


def _from_run(label: str | None, sequence: str, run: str) -> Engine:
    """The entry that projects `sequence` out of RUNS[run]."""

    def produce(n: int, runs: dict | None = None):
        runs = {} if runs is None else runs
        # T_1..T_0 is no list; S_0, B_0 and B_1 come from a run at m = 1
        m = n if sequence == "tangent" else max(1, n // REACH[sequence])
        if (run, m) not in runs:
            runs[run, m] = RUNS[run](m)
        output = runs[run, m]
        if sequence == "tangent":
            return output[0][:n], output[-1]
        if sequence == "secant":
            return output[1][: n + 1], output[-1]
        values = bernoulli_from_tangent(output[0])[: n + 1]
        values += [Fraction(0)] * (n + 1 - len(values))  # odd n: B_n = 0
        return values, output[-1]

    return Engine(label, produce, run)


ENGINES: dict[tuple[str, str], Engine] = {
    ("tangent", "recurrence"): _from_run("in-place", "tangent", "recurrence"),
    ("tangent", "fast"): _from_run("packed-division", "tangent", "fast"),
    ("tangent", "atkinson"): _from_run("triangle", "tangent", "atkinson"),
    ("secant", "recurrence"): Engine("in-place", lambda n: secant_numbers(n)),
    ("secant", "fast"): Engine(
        "packed-division", lambda n: (fast_secant_numbers(n), None)
    ),
    ("secant", "atkinson"): _from_run("triangle", "secant", "atkinson"),
    ("bernoulli", "recurrence"): _from_run("tangent route", "bernoulli", "recurrence"),
    ("bernoulli", "fast"): _from_run(None, "bernoulli", "fast"),
    ("bernoulli", "atkinson"): _from_run(None, "bernoulli", "atkinson"),
    ("bernoulli", "akiyama"): Engine(
        "akiyama-tanigawa", lambda n: (akiyama_tanigawa_bernoulli(n), None)
    ),
    ("bernoulli", "series"): Engine(
        "series reciprocal", lambda n: (bernoulli_via_series(n), None)
    ),
}


def engine_names(sequence: str) -> list[str]:
    """The engines that produce `sequence`, reference first."""
    return [name for kind, name in ENGINES if kind == sequence]
