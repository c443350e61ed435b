"""Tests for the engine table that the CLI, bench and checks share."""

from __future__ import annotations

from collections import Counter

import pytest

import btseq.engines as engines
from btseq.bench import ALGORITHMS
from btseq.checks import cross_check
from btseq.cli import run_cli
from btseq.engines import ENGINES, Engine, engine_names


def test_bench_times_each_engine_once_in_table_order():
    assert list(ALGORITHMS) == ["recurrence", "fast", "atkinson", "akiyama", "series"]


def test_cross_check_runs_each_costly_engine_once(monkeypatch):
    costly = (
        "fast_tangent_numbers",
        "fast_secant_numbers",
        "akiyama_tanigawa_bernoulli",
        "bernoulli_via_series",
    )
    calls = Counter()
    for name in costly:
        engine = getattr(engines, name)

        def counted(n, engine=engine, name=name):
            calls[name] += 1
            return engine(n)

        monkeypatch.setattr(engines, name, counted)
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
