"""The engine table: every (sequence, engine) pair and the producer behind it.

A producer maps n to (values, counters). values is [T_1..T_n] for tangent,
[S_0..S_n] for secant and [B_0..B_n] for bernoulli; counters is the
engine's OpCounters, or None for engines not built from counted loops. The
first engine listed for a sequence is its reference. A Bernoulli entry
named after a tangent engine runs that engine and converts its output with
bernoulli_from_tangent; it adds no independent evidence, so it has no
cross-check label.

Producers call the engines through this module's global names, so
rebinding one of those names (a test double, a tracer) reaches every
caller of the table.
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


class Engine(NamedTuple):
    label: str | None  # name in cross-check reports; None for a tangent route
    produce: Callable[[int], tuple[list, OpCounters | None]]


def _atkinson_secant(n: int):
    _, secant, ops = atkinson_tangent_secant(max(n, 1))
    return secant[: n + 1], ops


def _tangent_route(engine: str):
    """Producer of [B_0..B_n] from the tangent engine named `engine`."""

    def produce(n: int):
        tangent, ops = ENGINES["tangent", engine].produce(max(1, n // 2))
        values = bernoulli_from_tangent(tangent)[: n + 1]
        values += [Fraction(0)] * (n + 1 - len(values))  # odd n: B_n = 0
        return values, ops

    return produce


ENGINES: dict[tuple[str, str], Engine] = {
    ("tangent", "recurrence"): Engine("in-place", lambda n: tangent_numbers(n)),
    ("tangent", "fast"): Engine(
        "packed-division", lambda n: (fast_tangent_numbers(n), None)
    ),
    ("tangent", "atkinson"): Engine(
        "triangle", lambda n: atkinson_tangent_secant(n)[::2]  # (tangent, ops)
    ),
    ("secant", "recurrence"): Engine("in-place", lambda n: secant_numbers(n)),
    ("secant", "fast"): Engine(
        "packed-division", lambda n: (fast_secant_numbers(n), None)
    ),
    ("secant", "atkinson"): Engine("triangle", _atkinson_secant),
    ("bernoulli", "recurrence"): Engine(
        "tangent route", _tangent_route("recurrence")
    ),
    ("bernoulli", "fast"): Engine(None, _tangent_route("fast")),
    ("bernoulli", "atkinson"): Engine(None, _tangent_route("atkinson")),
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
