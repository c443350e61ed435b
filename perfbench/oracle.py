"""Output oracle: checks each CLI output against independent references.

Sequence outputs are compared with values the oracle computes once, from
the Atkinson triangle and bernoulli_from_tangent applied to its tangent
numbers, neither of which the default engine uses. A verify output must
come with exit 0 and report every check passed. Every nonzero exit and
every mismatch is a failure; a failure is labelled by its exit code and,
where it matches one, by the known defect that explains it.
"""

from __future__ import annotations

import contextlib
import json
import sys
from fractions import Fraction
from typing import NamedTuple

FIRST_INDEX = {"tangent": 1, "secant": 0, "bernoulli": 0}


class Verdict(NamedTuple):
    ok: bool
    cause: str | None  # "exit <code>: <label>" for a failure
    wrong: bool  # exit 0 with output that disagrees with the references
    checks_failed: int  # FAIL lines in a verify report


@contextlib.contextmanager
def unlimited_int_strings():
    """Lift the int<->str digit limit, so references can be parsed and
    compared at any size; the limit is restored on exit."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def _size(argv: list[str]) -> int:
    return int(argv[argv.index("-n") + 1])


def _format(argv: list[str]) -> str:
    return argv[argv.index("--format") + 1] if "--format" in argv else "plain"


class Oracle:
    def __init__(self, recurrences, requests: list[list[str]]):
        top = 1  # references cover T_1..T_top, S_0..S_top and B_0..B_2top
        for argv in requests:
            if argv[0] in ("tangent", "secant"):
                top = max(top, _size(argv))
            elif argv[0] == "bernoulli":
                top = max(top, (_size(argv) + 1) // 2)
        tangent, secant, _ = recurrences.atkinson_tangent_secant(top)
        self._values = {
            "tangent": tangent,
            "secant": secant,
            "bernoulli": recurrences.bernoulli_from_tangent(tangent),
        }

    def check(self, argv: list[str], code: int | None, error: str, text: str | None) -> Verdict:
        if argv[0] == "verify":
            return self._check_verify(argv, code, error, text)
        if code != 0:
            return Verdict(False, _failure(code, _error_label(error)), False, 0)
        kind, n = argv[0], _size(argv)
        first = FIRST_INDEX[kind]
        expected = self._values[kind][: n + 1 - first]
        problem = _sequence_problem(kind, n, first, expected, _format(argv), text)
        if problem:
            return Verdict(False, _failure(code, f"wrong output: {problem}"), True, 0)
        return Verdict(True, None, False, 0)

    def _check_verify(self, argv, code, error, text) -> Verdict:
        failed = _failed_checks(text, _format(argv)) if text is not None else None
        if code == 0 and failed == []:
            return Verdict(True, None, False, 0)
        if code == 0:  # exit 0 must mean every check passed
            label = "wrong output: report " + ("unreadable" if failed is None else f"has FAIL {failed}")
            return Verdict(False, _failure(code, label), True, len(failed or ()))
        if code == 2 and failed == ["zeta ratio enclosure"] and _size(argv) >= 128:
            label = "zeta enclosure"
        elif code == 2 and failed:
            label = "failed checks: " + ", ".join(failed)
        else:
            label = _error_label(error)
        return Verdict(False, _failure(code, label), False, len(failed or ()))


def _failure(code: int | None, label: str) -> str:
    return f"{'exception' if code is None else f'exit {code}'}: {label}"


def _error_label(error: str) -> str:
    if "Exceeds the limit" in error and "integer string conversion" in error:
        return "int-str digit limit"
    lines = error.strip().splitlines()
    return lines[-1][:120] if lines else "no message"


def _sequence_problem(kind, n, first, expected, fmt, text) -> str | None:
    """Why the output text differs from the expected values, or None."""
    if text is None:
        return "no output file"
    try:
        if fmt == "json":
            payload = json.loads(text)
            if (payload.get("kind"), payload.get("n"), payload.get("first_index")) != (kind, n, first):
                return "json header differs"
            pairs = list(enumerate(payload["values"], start=first))
        else:
            pairs = [(int(i), v) for i, v in (line.split(" ", 1) for line in text.splitlines())]
        if len(pairs) != len(expected):
            return f"{len(pairs)} values, expected {len(expected)}"
        for (index, value), (want_index, want) in zip(pairs, enumerate(expected, start=first)):
            if index != want_index or Fraction(value) != want:
                return f"index {want_index} differs"
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        return f"unparsable ({type(exc).__name__})"
    return None


def _failed_checks(text: str, fmt: str) -> list[str] | None:
    """Names of the FAIL checks in a verify report, or None if unreadable."""
    try:
        if fmt == "json":
            payload = json.loads(text)
            failed = [c["name"] for c in payload["checks"] if not c["passed"]]
            return failed if payload["all_pass"] == (not failed) else None
        lines = text.splitlines()
        if not lines or "checks passed" not in lines[-1]:
            return None
        return [line[5:].split("  [")[0] for line in lines[:-1] if line.startswith("FAIL ")]
    except (ValueError, KeyError, TypeError):
        return None
