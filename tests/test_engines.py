"""Tests for the engine table that the CLI, bench and checks share."""

from __future__ import annotations

from collections import Counter

import pytest

import btseq.bench as bench
import btseq.engines as engines
from btseq.bench import ALGORITHMS, bench_suite
from btseq.checks import cross_check
from btseq.cli import run_cli
from btseq.engines import ENGINES, Engine, engine_names
from btseq.recurrences import OpCounters, bernoulli_from_tangent

TANGENT_RUNS = ("tangent_numbers", "fast_tangent_numbers", "atkinson_tangent_secant")


def count_calls(monkeypatch, names):
    """A Counter of the calls each named engine in btseq.engines gets."""
    calls = Counter()
    for name in names:
        engine = getattr(engines, name)

        def counted(n, engine=engine, name=name):
            calls[name] += 1
            return engine(n)

        monkeypatch.setattr(engines, name, counted)
    return calls


@pytest.fixture
def tangent_runs(monkeypatch):
    return count_calls(monkeypatch, TANGENT_RUNS)


def test_bench_times_each_engine_once_in_table_order():
    assert list(ALGORITHMS) == ["recurrence", "fast", "atkinson", "akiyama", "series"]


def test_cross_check_runs_each_costly_engine_once(monkeypatch):
    costly = (
        "fast_tangent_numbers",
        "fast_secant_numbers",
        "akiyama_tanigawa_bernoulli",
        "bernoulli_via_series",
    )
    calls = count_calls(monkeypatch, costly)
    assert cross_check(5).all_pass
    assert calls == Counter(costly)


@pytest.mark.parametrize(
    "key", [("tangent", "fast"), ("secant", "atkinson"), ("bernoulli", "series")]
)
def test_one_broken_producer_fails_all_and_one_cross_check(capsys, monkeypatch, key):
    sequence, _ = key
    label = ENGINES[key].label
    monkeypatch.setitem(ENGINES, key, Engine(label, lambda n: ([7] * n, None)))
    assert run_cli([sequence, "-n", "6", "--algorithm", "all"]) == 2
    assert "disagree" in capsys.readouterr().out
    reference = ENGINES[sequence, engine_names(sequence)[0]].label
    failed = [c.name for c in cross_check(4).checks if not c.passed]
    assert failed == [f"{sequence}: {reference} vs {label}"]


def test_one_triangle_run_reaches_every_triangle_entry(monkeypatch):
    def wrong_rows(m):
        return [7] * m, [5] * (m + 1), OpCounters(additions=1)

    monkeypatch.setattr(engines, "atkinson_tangent_secant", wrong_rows)
    n = 6
    assert ENGINES["tangent", "atkinson"].produce(n) == ([7] * n, OpCounters(1))
    assert ENGINES["secant", "atkinson"].produce(n) == ([5] * (n + 1), OpCounters(1))
    bernoulli = bernoulli_from_tangent([7] * (n // 2))
    assert ENGINES["bernoulli", "atkinson"].produce(n) == (bernoulli, OpCounters(1))
    failed = [c.name for c in cross_check(n).checks if not c.passed]
    assert failed == ["tangent: in-place vs triangle", "secant: in-place vs triangle"]


def test_bench_runs_the_triangle_once_per_timed_repeat(tangent_runs):
    bench_suite([20], ["atkinson"])
    assert tangent_runs == Counter(atkinson_tangent_secant=bench.REPEATS)


@pytest.mark.parametrize(
    "sequence,runs",
    [
        ("tangent", Counter(TANGENT_RUNS)),
        ("secant", Counter(["atkinson_tangent_secant"])),
        ("bernoulli", Counter(TANGENT_RUNS)),
    ],
)
def test_cli_all_runs_each_tangent_run_once_per_entry(tangent_runs, sequence, runs):
    assert run_cli([sequence, "-n", "8", "--algorithm", "all"]) == 0
    assert tangent_runs == runs
    assert run_cli([sequence, "-n", "8", "--algorithm", "all"]) == 0
    assert tangent_runs == runs + runs  # the second request shares nothing
