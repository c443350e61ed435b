"""The public shape of the result records: field names, order and defaults."""

from __future__ import annotations

import pytest

from btseq import BenchRecord, CheckResult, OpCounters, VerificationReport
from btseq.fastfixed import PackedQuotient, packed_tangent_params


@pytest.mark.parametrize(
    "record, fields",
    [
        (CheckResult, ("name", "passed", "witness")),
        (VerificationReport, ("n", "checks")),
        (OpCounters, ("additions", "multiplications", "loop_trips")),
        (BenchRecord, ("algorithm", "n", "wall_time", "counters", "peak_value_bits")),
        (
            PackedQuotient,
            ("n", "half_block_bits", "top", "num", "den", "shift", "packed", "distance"),
        ),
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


def test_packed_quotient_is_immutable_with_replace():
    quotient = packed_tangent_params(3)
    with pytest.raises(AttributeError):
        quotient.packed += 1
    bumped = quotient._replace(packed=quotient.packed + 1)
    assert bumped.packed == quotient.packed + 1
    assert bumped._replace(packed=quotient.packed) == quotient
