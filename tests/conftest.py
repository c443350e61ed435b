"""Shared pytest wiring: surface the acceptance lines in the summary, and a
fixture that corrupts the packed quotient's top block."""

from __future__ import annotations

import math

import pytest

import btseq.fastfixed as fastfixed

ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def double_top_block(monkeypatch):
    """Call as double_top_block(n, top, blocks): the packed division at size
    n then returns the true quotient plus top! in its top block, the
    blocks-th 2p-bit block from the bottom, so that block holds 2 * top! and
    every lower block is intact. The distance returned is that quotient's."""

    def apply(n, top, blocks):
        original = fastfixed.round_nearest_div
        shift = 2 * fastfixed.least_half_block_bits(n) * (blocks - 1)

        def doubled(num, den):
            q = original(num, den)[0] + (math.factorial(top) << shift)
            return q, abs(num - q * den)

        monkeypatch.setattr(fastfixed, "round_nearest_div", doubled)

    return apply
