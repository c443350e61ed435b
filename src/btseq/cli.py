"""Command line front end: compute sequences, verify identities, benchmark.

Exit codes: 0 success (and all checks passed), 1 usage error, 2 verification
failure, 3 internal error (an exactness guarantee failed, or a fault).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys
import traceback
from typing import Iterable, Iterator

from .bench import ALGORITHMS, SCHEMA, bench_suite, crossover_summary, environment
from .checks import full_verification
from .engines import ENGINES, engine_names
from .intops import IntegrityError
from .recurrences import MIN_PRECISION

# sequence -> (help text, index of its first value)
_SEQUENCES = {
    "tangent": ("print the tangent numbers T_1..T_n", 1),
    "secant": ("print the secant numbers S_0..S_n", 0),
    "bernoulli": ("print the Bernoulli numbers B_0..B_n", 0),
}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit 2; the contract is 1
        raise _UsageError(message)


def _int_from(least: int):
    """An argparse type for an int >= least. It is named int, so a
    non-integer keeps argparse's "invalid int value" message."""

    def check(text: str) -> int:
        value = int(text)
        if value < least:
            raise argparse.ArgumentTypeError(f"must be >= {least}")
        return value

    check.__name__ = "int"
    return check


def build_parser() -> _Parser:
    parser = _Parser(
        prog="btseq",
        description="Exact Bernoulli, tangent, and secant numbers from "
        "independent cross-checked engines.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    positive = _int_from(1)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("plain", "json"), default="plain")
        p.add_argument(
            "--output", metavar="PATH", help="write to this file instead of stdout"
        )

    for name, (text, _) in _SEQUENCES.items():
        engines = engine_names(name)
        p = sub.add_parser(name, help=text)
        p.add_argument("-n", type=positive, required=True, help="largest index")
        p.add_argument(
            "--algorithm",
            choices=[*engines, "all"],
            default=engines[0],
            help="engine to use; 'all' runs every engine and insists they agree",
        )
        add_common(p)

    p = sub.add_parser("verify", help="run every consistency and identity check")
    p.add_argument("-n", type=positive, required=True, help="size the checks run at")
    p.add_argument(
        "--precision",
        type=_int_from(MIN_PRECISION),
        help="also contrast the fixed-precision recurrences at this many bits",
    )
    add_common(p)

    p = sub.add_parser("bench", help="time the engines and report op counts")
    p.add_argument("-n", type=_int_from(2), nargs="+", required=True, help="sizes >= 2")
    p.add_argument(
        "--algorithm", choices=tuple(ALGORITHMS) + ("all",), default="all"
    )
    add_common(p)
    return parser


@functools.lru_cache(maxsize=None)
def _parser() -> _Parser:
    """The parser every run_cli call in this process shares: argparse keeps
    no state between parses, so one build serves them all."""
    return build_parser()


@contextlib.contextmanager
def _any_int_size():
    """Lift the int-to-str digit limit: exact values print in full."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def _sequence_lines(kind: str, n: int, values, fmt: str) -> Iterator[str]:
    """The output one line at a time, so no copy of the whole text is held.

    The json form is the bytes json.dumps(payload, indent=2) prints; the
    values are decimal strings, which need no escaping.
    """
    first_index = _SEQUENCES[kind][1]
    if fmt == "plain":
        for i, v in enumerate(values, start=first_index):
            yield f"{i} {v}\n"
        return
    head = json.dumps({"kind": kind, "n": n, "first_index": first_index}, indent=2)
    yield head[:-2] + ',\n  "values": [\n'  # reopen the object before its "}"
    last = len(values) - 1
    for position, v in enumerate(values):
        yield f'    "{v}"' + (",\n" if position < last else "\n")
    yield "  ]\n}\n"


def _emit_sequence(args) -> tuple[int, Iterable[str]]:
    if args.algorithm == "all":
        baseline_name, *others = engine_names(args.command)
        baseline = ENGINES[args.command, baseline_name].produce(args.n)[0]
        for name in others:
            if ENGINES[args.command, name].produce(args.n)[0] != baseline:
                return 2, [f"engines disagree: {name} departs from {baseline_name}\n"]
        values = baseline
    else:
        values = ENGINES[args.command, args.algorithm].produce(args.n)[0]
    return 0, _sequence_lines(args.command, args.n, values, args.format)


def _emit_verify(args) -> tuple[int, list[str]]:
    report = full_verification(args.n, args.precision)
    code = 0 if report.all_pass else 2
    if args.format == "json":
        payload = {
            "kind": "verify",
            "n": report.n,
            "all_pass": report.all_pass,
            "checks": [
                {"name": c.name, "passed": c.passed, "witness": c.witness}
                for c in report.checks
            ],
        }
        return code, [json.dumps(payload, indent=2) + "\n"]
    lines = []
    for check in report.checks:
        status = "PASS" if check.passed else "FAIL"
        suffix = f"  [{check.witness}]" if check.witness else ""
        lines.append(f"{status} {check.name}{suffix}")
    passed = sum(1 for c in report.checks if c.passed)
    lines.append(f"{passed}/{len(report.checks)} checks passed")
    return code, ["\n".join(lines) + "\n"]


def _emit_bench(args) -> tuple[int, list[str]]:
    counts = ("additions", "multiplications", "loop_trips")  # OpCounters shown
    algorithms = None if args.algorithm == "all" else [args.algorithm]
    records = bench_suite(args.n, algorithms)
    if args.format == "json":
        payload = {
            "kind": "bench",
            "schema": SCHEMA,
            "environment": environment(),
            "records": [
                {
                    "algorithm": r.algorithm,
                    "n": r.n,
                    "wall_time": r.wall_time,
                    **{k: getattr(r.counters, k, None) for k in counts},
                    "peak_value_bits": r.peak_value_bits,
                }
                for r in records
            ],
        }
        if args.algorithm == "all":
            payload["summary"] = crossover_summary(records)
        return 0, [json.dumps(payload, indent=2) + "\n"]
    header = (
        f"{'algorithm':<12} {'n':>6} {'seconds':>12} {'additions':>12} "
        f"{'mults':>12} {'loop_trips':>12} {'peak_bits':>10}"
    )
    lines = [header]
    for r in records:
        adds, mults, trips = (str(getattr(r.counters, k, "-")) for k in counts)
        lines.append(
            f"{r.algorithm:<12} {r.n:>6} {r.wall_time:>12.6f} {adds:>12} "
            f"{mults:>12} {trips:>12} {r.peak_value_bits:>10}"
        )
    if args.algorithm == "all":
        lines.append(crossover_summary(records))
    return 0, ["\n".join(lines) + "\n"]


def _open_output(path: str | None):
    """The output stream, opened before any work runs, as a shell's > does."""
    if path is None:
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(path, "w")
    except OSError as exc:
        raise _UsageError(f"cannot write --output {path}: {exc.strerror}") from None


_EMITTERS = {"bench": _emit_bench, "verify": _emit_verify}


def run_cli(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        with _open_output(args.output) as out:
            code, chunks = _EMITTERS.get(args.command, _emit_sequence)(args)
            with _any_int_size():  # the lines are formatted as they are written
                out.writelines(chunks)
    except SystemExit as exc:  # --help paths
        return int(exc.code or 0)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except IntegrityError as exc:
        print(f"integrity error: {exc}", file=sys.stderr)
        return 3
    except Exception:  # any other fault is internal, never a usage error
        print(f"internal error:\n{traceback.format_exc()}", file=sys.stderr, end="")
        return 3
    return code


def main() -> None:
    sys.exit(run_cli())
