"""Tests for the benchmark harness."""

from __future__ import annotations

import json
from fractions import Fraction

import pytest

import btseq.bench as bench
from btseq.bench import ALGORITHMS, BenchRecord, bench_suite, crossover_summary
from btseq.cli import run_cli
from btseq.engines import ENGINES


class TestBenchSuite:
    def test_every_algorithm_reports(self):
        records = bench_suite([5])
        assert [r.algorithm for r in records] == list(ALGORITHMS)
        assert all(r.n == 5 for r in records)
        assert all(r.wall_time >= 0 for r in records)
        assert all(r.peak_value_bits > 0 for r in records)

    def test_counted_engines_carry_counters(self):
        by_name = {r.algorithm: r for r in bench_suite([5])}
        assert by_name["recurrence"].counters.loop_trips == 10
        assert by_name["recurrence"].peak_value_bits == 13  # T_5 = 7936
        assert by_name["atkinson"].counters.additions == 55  # 2n**2 + n
        assert by_name["fast"].counters is None
        assert by_name["akiyama"].counters is None
        assert by_name["series"].counters is None

    def test_counters_deterministic_across_runs(self):
        first = bench_suite([8, 12], ["recurrence", "atkinson"])
        second = bench_suite([8, 12], ["recurrence", "atkinson"])
        for a, b in zip(first, second):
            assert (a.algorithm, a.n) == (b.algorithm, b.n)
            assert a.counters == b.counters
            assert a.peak_value_bits == b.peak_value_bits

    def test_addition_ratio_widens(self):
        by_name = {
            r.algorithm: r for r in bench_suite([40], ["recurrence", "atkinson"])
        }
        adds = by_name["atkinson"].counters.additions
        trips = by_name["recurrence"].counters.loop_trips
        assert adds / trips >= 3

    def test_requested_subset_and_order(self):
        records = bench_suite([4], ["series", "fast"])
        assert [r.algorithm for r in records] == ["series", "fast"]

    def test_rejects_small_sizes(self):
        with pytest.raises(ValueError):
            bench_suite([1])

    def test_rejects_small_sizes_before_any_timing(self, monkeypatch):
        calls = []

        def counted(produce):
            return lambda n: calls.append(n) or produce(n)

        engines = {
            key: engine._replace(produce=counted(engine.produce))
            for key, engine in ENGINES.items()
        }
        monkeypatch.setattr(bench, "ENGINES", engines)
        with pytest.raises(ValueError):
            bench_suite([40, 1])
        assert calls == []
        bench_suite([2], ["fast"])
        assert len(calls) == bench.REPEATS

    def test_rejects_unknown_algorithm(self):
        with pytest.raises(ValueError):
            bench_suite([4], ["newton"])


class TestPeakBits:
    def test_ints_and_fractions_share_one_path(self):
        # a negative int, a negative numerator, and a peak set by a denominator
        values = [-7936, Fraction(-691, 2730), Fraction(1, 2**20)]
        assert bench._peak_bits(values) == 21
        assert bench._peak_bits([Fraction(0), 1]) == 1


class TestCrossoverSummary:
    def test_reports_first_win(self):
        records = [
            BenchRecord("recurrence", 8, 2.0, None, 1),
            BenchRecord("fast", 8, 3.0, None, 1),
            BenchRecord("recurrence", 16, 5.0, None, 1),
            BenchRecord("fast", 16, 4.0, None, 1),
        ]
        assert "n = 16" in crossover_summary(records)

    def test_win_followed_by_a_loss_is_no_crossover(self):
        records = [
            BenchRecord("recurrence", 2, 9e-6, None, 1),
            BenchRecord("fast", 2, 5e-6, None, 1),
            BenchRecord("recurrence", 3, 5e-6, None, 1),
            BenchRecord("fast", 3, 9e-6, None, 1),
        ]
        assert "no crossover" in crossover_summary(records)

    def test_reports_the_start_of_the_last_winning_run(self):
        records = [
            BenchRecord("recurrence", 2, 9e-6, None, 1),
            BenchRecord("fast", 2, 5e-6, None, 1),
            BenchRecord("recurrence", 3, 5e-6, None, 1),
            BenchRecord("fast", 3, 9e-6, None, 1),
            BenchRecord("fast", 4, 1.0, None, 1),
            BenchRecord("recurrence", 4, 2.0, None, 1),
            BenchRecord("recurrence", 5, 4.0, None, 1),
            BenchRecord("fast", 5, 3.0, None, 1),
            BenchRecord("fast", 6, 1.0, None, 1),  # no recurrence time at n = 6
        ]
        summary = crossover_summary(records)
        assert "n = 4" in summary
        assert "n = 2" not in summary

    def test_reports_no_crossover(self):
        records = [
            BenchRecord("recurrence", 8, 2.0, None, 1),
            BenchRecord("fast", 8, 3.0, None, 1),
        ]
        assert "no crossover" in crossover_summary(records)


class TestBenchCommand:
    def test_plain_table(self, capsys):
        code = run_cli(["bench", "-n", "5", "--algorithm", "recurrence"])
        out = capsys.readouterr().out
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("algorithm")
        assert len(lines) == 2
        assert lines[1].split()[0] == "recurrence"

    def test_all_algorithms_include_crossover_line(self, capsys):
        code = run_cli(["bench", "-n", "4", "8"])
        out = capsys.readouterr().out
        assert code == 0
        assert len(out.splitlines()) == 1 + 2 * len(ALGORITHMS) + 1
        assert "crossover" in out or "fast engine first beats" in out

    def test_json_records(self, capsys):
        code = run_cli(["bench", "-n", "6", "--format", "json"])
        out = capsys.readouterr().out
        assert code == 0
        payload = json.loads(out)
        assert payload["kind"] == "bench"
        assert len(payload["records"]) == len(ALGORITHMS)
        by_name = {r["algorithm"]: r for r in payload["records"]}
        assert by_name["recurrence"]["loop_trips"] == 15
        assert by_name["fast"]["loop_trips"] is None
        assert "summary" in payload

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "bench.txt"
        code = run_cli(
            ["bench", "-n", "4", "--algorithm", "atkinson", "--output", str(target)]
        )
        assert code == 0
        assert capsys.readouterr().out == ""
        assert "atkinson" in target.read_text()
