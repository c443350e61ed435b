"""The public shape of the result records: field names, order and defaults."""

from __future__ import annotations

import pytest

from btseq import BenchRecord, CheckResult, OpCounters, VerificationReport


@pytest.mark.parametrize(
    "record, fields",
    [
        (CheckResult, ("name", "passed", "witness")),
        (VerificationReport, ("n", "checks")),
        (OpCounters, ("additions", "multiplications", "loop_trips")),
        (BenchRecord, ("algorithm", "n", "wall_time", "counters", "peak_value_bits")),
    ],
)
def test_fields_keep_their_names_and_order(record, fields):
    assert record._fields == fields


def test_check_result_has_no_witness_by_default():
    assert CheckResult("x", True).witness is None


def test_op_counters_start_at_zero():
    assert tuple(OpCounters()) == (0, 0, 0)


def test_all_pass_reads_every_check():
    passing, failing = CheckResult("a", True), CheckResult("b", False, "index 4")
    assert VerificationReport(3, (passing, passing)).all_pass
    assert not VerificationReport(3, (passing, failing)).all_pass
    assert VerificationReport(3, ()).all_pass


def test_records_are_tuples_with_replace_and_asdict():
    record = BenchRecord("recurrence", 5, 0.5, OpCounters(10, 6, 10), 13)
    assert record == ("recurrence", 5, 0.5, (10, 6, 10), 13)
    assert record._replace(n=6).n == 6
    assert record._asdict()["counters"] == OpCounters(10, 6, 10)

