"""Exact Bernoulli, tangent, and secant numbers by five independent
algorithms, cross-verified against each other and against number-theoretic
identities, with an operation-count benchmark harness and a CLI.

The package root exports the engines, the engine table and the checks that
users call; every other name is importable from its submodule.
"""

from .bench import BenchRecord, bench_suite, crossover_summary
from .checks import CheckResult, VerificationReport, cross_check, full_verification
from .engines import ENGINES
from .fastfixed import fast_secant_numbers, fast_tangent_numbers
from .intops import IntegrityError
from .recurrences import (
    OpCounters,
    akiyama_tanigawa_bernoulli,
    atkinson_tangent_secant,
    bernoulli_from_tangent,
    secant_numbers,
    tangent_numbers,
)
from .series import bernoulli_via_series

__version__ = "1.0.0"

__all__ = [
    "ENGINES",
    "BenchRecord",
    "CheckResult",
    "IntegrityError",
    "OpCounters",
    "VerificationReport",
    "akiyama_tanigawa_bernoulli",
    "atkinson_tangent_secant",
    "bench_suite",
    "bernoulli_from_tangent",
    "bernoulli_via_series",
    "cross_check",
    "crossover_summary",
    "fast_secant_numbers",
    "fast_tangent_numbers",
    "full_verification",
    "secant_numbers",
    "tangent_numbers",
]
