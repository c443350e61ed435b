"""Tests for the command line interface."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import btseq.cli
import btseq.engines
import btseq.fastfixed
from btseq.cli import run_cli
from btseq.intops import IntegrityError
from btseq.recurrences import (
    atkinson_tangent_secant,
    bernoulli_from_tangent,
    tangent_numbers,
)

ROOT = Path(__file__).parents[1]
DATA = Path(__file__).parent / "data"


def run(capsys, *argv):
    code = run_cli(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSequenceCommands:
    def test_tangent_plain(self, capsys):
        code, out, _ = run(capsys, "tangent", "-n", "5")
        assert code == 0
        assert out == "1 1\n2 2\n3 16\n4 272\n5 7936\n"

    def test_secant_starts_at_index_zero(self, capsys):
        code, out, _ = run(capsys, "secant", "-n", "4")
        assert code == 0
        assert out == "0 1\n1 1\n2 5\n3 61\n4 1385\n"

    def test_bernoulli_includes_odd_zeros(self, capsys):
        code, out, _ = run(capsys, "bernoulli", "-n", "14", "--algorithm", "all")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 15
        assert lines[3] == "3 0"
        assert lines[14] == "14 7/6"

    def test_bernoulli_odd_top_index(self, capsys):
        code, out, _ = run(capsys, "bernoulli", "-n", "15")
        assert code == 0
        assert out.splitlines()[-1] == "15 0"

    @pytest.mark.parametrize("command", ["tangent", "secant", "bernoulli"])
    def test_all_engines_match_default(self, capsys, command):
        code_all, out_all, _ = run(capsys, command, "-n", "12", "--algorithm", "all")
        code_one, out_one, _ = run(capsys, command, "-n", "12")
        assert code_all == code_one == 0
        assert out_all == out_one

    def test_json_round_trip(self, capsys):
        code, out, _ = run(capsys, "bernoulli", "-n", "10", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["kind"] == "bernoulli"
        assert payload["n"] == 10
        assert payload["first_index"] == 0
        values = [Fraction(v) for v in payload["values"]]
        assert values == bernoulli_from_tangent(tangent_numbers(5)[0])

    @pytest.mark.parametrize("command", ["tangent", "secant", "bernoulli"])
    def test_json_bytes_match_json_dumps(self, capsys, command):
        code, out, _ = run(capsys, command, "-n", "4", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert out == json.dumps(payload, indent=2) + "\n"
        assert list(payload) == ["kind", "n", "first_index", "values"]

    def test_json_tangent_first_index(self, capsys):
        code, out, _ = run(capsys, "tangent", "-n", "3", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["first_index"] == 1
        assert [int(v) for v in payload["values"]] == [1, 2, 16]

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "tangent.txt"
        code, out, _ = run(capsys, "tangent", "-n", "5", "--output", str(target))
        assert code == 0
        assert out == ""
        assert target.read_text() == "1 1\n2 2\n3 16\n4 272\n5 7936\n"

    def test_unwritable_output_is_a_usage_error(self, capsys, tmp_path):
        target = tmp_path / "missing" / "tangent.txt"
        code, out, err = run(capsys, "tangent", "-n", "2", "--output", str(target))
        assert code == 1
        assert out == ""
        assert err == (
            f"usage error: cannot write --output {target}: No such file or directory\n"
        )
        assert "Traceback" not in err

    def test_unwritable_output_fails_before_the_work(
        self, capsys, monkeypatch, tmp_path
    ):
        calls = []
        monkeypatch.setattr(btseq.cli, "full_verification", lambda *a: calls.append(a))
        target = tmp_path / "missing" / "verify.txt"
        code, out, err = run(capsys, "verify", "-n", "129", "--output", str(target))
        assert code == 1
        assert err.startswith("usage error: cannot write --output")
        assert calls == []

    def test_engine_disagreement_exits_two(self, capsys, monkeypatch):
        monkeypatch.setattr(btseq.engines, "fast_tangent_numbers", lambda n: [1] * n)
        code, out, _ = run(capsys, "tangent", "-n", "6", "--algorithm", "all")
        assert code == 2
        assert "disagree" in out

    def test_integrity_error_exits_three(self, capsys, monkeypatch):
        def broken(n):
            raise IntegrityError("forced for the test")

        monkeypatch.setattr(btseq.engines, "fast_tangent_numbers", broken)
        code, _, err = run(capsys, "tangent", "-n", "6", "--algorithm", "fast")
        assert code == 3
        assert "integrity error" in err

    def test_doubled_top_block_exits_three(self, capsys, double_top_block):
        # the top block holds 2 * 11!, which the reader must reject instead
        # of printing T_1 = 2
        double_top_block(6, 11, 6)
        code, out, err = run(capsys, "tangent", "-n", "6", "--algorithm", "fast")
        assert code == 3
        assert out == ""
        assert "integrity error" in err

    def test_internal_fault_exits_three_not_one(self, capsys, monkeypatch):
        def broken(n):
            raise ValueError("forced for the test")

        monkeypatch.setattr(btseq.engines, "fast_tangent_numbers", broken)
        code, _, err = run(capsys, "tangent", "-n", "6", "--algorithm", "fast")
        assert code == 3
        assert "internal error" in err
        assert "usage error" not in err

    def test_fault_while_parsing_exits_three(self, capsys, monkeypatch):
        # parsing sits inside the same handler chain as the work
        def broken():
            raise RuntimeError("forced for the test")

        monkeypatch.setattr(btseq.cli, "_parser", broken)
        code, out, err = run(capsys, "tangent", "-n", "3")
        assert code == 3
        assert out == ""
        assert err.startswith("internal error:")


@pytest.fixture(scope="module")
def triangle_1050():
    """T_1..T_1050 from the boustrophedon triangle, for outputs past the
    4300-digit int-to-str limit."""
    return atkinson_tangent_secant(1050)[0]


def to_decimal(value: int) -> str:
    """str(value) without the int-to-str digit limit: nine digits a chunk."""
    sign, value = ("-" if value < 0 else ""), abs(value)
    chunks = []
    while value >= 10**9:
        value, chunk = divmod(value, 10**9)
        chunks.append(f"{chunk:09d}")
    return sign + str(value) + "".join(reversed(chunks))


def last_line_value(out: str) -> tuple[int, str]:
    index, value = out.splitlines()[-1].split(" ")
    return int(index), value


class TestLargeValues:
    def test_tangent_past_digit_limit(self, capsys, triangle_1050):
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        code, out, err = run(capsys, "tangent", "-n", "850")
        assert code == 0, err
        index, value = last_line_value(out)
        assert index == 850
        assert len(value) > 4300
        assert value == to_decimal(triangle_1050[849])
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit

    def test_bernoulli_past_digit_limit(self, capsys, triangle_1050):
        code, out, err = run(capsys, "bernoulli", "-n", "2100")
        assert code == 0, err
        index, value = last_line_value(out)
        assert index == 2100
        expected = bernoulli_from_tangent(triangle_1050)[2100]
        assert len(value) > 4300
        assert value == f"{to_decimal(expected.numerator)}/{expected.denominator}"


class TestGoldenFiles:
    @pytest.mark.parametrize(
        "argv,name",
        [
            (("tangent", "-n", "5"), "tangent_n5.txt"),
            (("secant", "-n", "5"), "secant_n5.txt"),
            (("bernoulli", "-n", "14"), "bernoulli_n14.txt"),
            (("tangent", "-n", "50"), "tangent_n50.txt"),
            (("secant", "-n", "50"), "secant_n50.txt"),
            (("bernoulli", "-n", "50"), "bernoulli_n50.txt"),
            # every verify witness comes from exact arithmetic, so the
            # report is as deterministic as the sequences
            (("verify", "-n", "40", "--precision", "53"), "verify_n40_p53.txt"),
            (
                ("verify", "-n", "40", "--precision", "53", "--format", "json"),
                "verify_n40_p53.json",
            ),
        ],
    )
    def test_output_matches_golden(self, capsys, argv, name):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out == (DATA / name).read_text()


class TestVerifyCommand:
    def test_passes_and_prints_status_lines(self, capsys):
        code, out, _ = run(capsys, "verify", "-n", "10")
        assert code == 0
        lines = out.splitlines()
        assert all(line.startswith("PASS") for line in lines[:-1])
        assert lines[-1].endswith("checks passed")

    def test_precision_flag_adds_contrast_checks(self, capsys):
        _, out_plain, _ = run(capsys, "verify", "-n", "4")
        code, out, _ = run(capsys, "verify", "-n", "4", "--precision", "53")
        assert code == 0
        assert len(out.splitlines()) == len(out_plain.splitlines()) + 3

    def test_json_payload(self, capsys):
        code, out, _ = run(capsys, "verify", "-n", "6", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["kind"] == "verify"
        assert payload["all_pass"] is True
        assert all(check["passed"] for check in payload["checks"])

    def test_n_one_zeta_pass_says_it_checked_none(self, capsys):
        # B_4 is the zeta family's first index, so at n = 1 it decides none
        code, out, _ = run(capsys, "verify", "-n", "1")
        assert code == 0
        assert "PASS zeta ratio enclosure  [checked: none]" in out.splitlines()
        code, out, _ = run(capsys, "verify", "-n", "1", "--format", "json")
        assert code == 0
        checks = {c["name"]: c for c in json.loads(out)["checks"]}
        assert checks["zeta ratio enclosure"] == {
            "name": "zeta ratio enclosure",
            "passed": True,
            "witness": "checked: none",
        }

    def test_zeta_pass_from_n_two_has_no_witness(self, capsys):
        code, out, _ = run(capsys, "verify", "-n", "2")
        assert code == 0
        assert "PASS zeta ratio enclosure" in out.splitlines()

    # verify reads the packed values through the one block reader
    def test_failure_exits_two(self, capsys, monkeypatch):
        monkeypatch.setattr(btseq.fastfixed, "read_blocks", lambda q: [1] * q.n)
        code, out, _ = run(capsys, "verify", "-n", "5")
        assert code == 2
        assert "FAIL" in out

    def test_mismatch_past_digit_limit_exits_two(self, capsys, monkeypatch):
        original = btseq.fastfixed.read_blocks

        def wrong_last(q):
            values = original(q)
            values[-1] = 10**5000  # more digits than str() converts by default
            return values

        monkeypatch.setattr(btseq.fastfixed, "read_blocks", wrong_last)
        code, out, _ = run(capsys, "verify", "-n", "5")
        assert code == 2
        assert (
            "FAIL tangent: in-place vs packed-division"
            "  [position 4: a 13-bit value != a 16610-bit value]"
        ) in out.splitlines()


class TestUsageErrors:
    def test_no_arguments(self, capsys):
        assert run(capsys, *[])[0] == 1

    def test_unknown_command(self, capsys):
        assert run(capsys, "cotangent", "-n", "4")[0] == 1

    def test_bad_algorithm_for_command(self, capsys):
        code, _, err = run(capsys, "tangent", "-n", "4", "--algorithm", "akiyama")
        assert code == 1

    def test_nonpositive_n(self, capsys):
        code, _, err = run(capsys, "tangent", "-n", "0")
        assert code == 1
        assert "usage error" in err

    def test_bench_rejects_tiny_sizes(self, capsys):
        code, _, err = run(capsys, "bench", "-n", "1")
        assert code == 1
        assert "usage error" in err

    def test_verify_rejects_thin_precision_before_any_check(self, capsys):
        code, out, err = run(capsys, "verify", "-n", "5", "--precision", "10")
        assert code == 1
        assert err.startswith("usage error: ")
        assert out == ""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("tangent", "-n", "0"), "argument -n: must be >= 1"),
            (("verify", "-n", "-3"), "argument -n: must be >= 1"),
            (("bench", "-n", "5", "1"), "argument -n: must be >= 2"),
            (
                ("verify", "-n", "3", "--precision", "23"),
                "argument --precision: must be >= 24",
            ),
            (("secant", "-n", "x"), "argument -n: invalid int value: 'x'"),
            (("bench", "-n", "2", "2.5"), "argument -n: invalid int value: '2.5'"),
            (
                ("verify", "-n", "3", "--precision", "y"),
                "argument --precision: invalid int value: 'y'",
            ),
        ],
    )
    def test_argparse_checks_every_range_before_output_opens(
        self, capsys, tmp_path, argv, message
    ):
        target = tmp_path / "out.txt"
        code, out, err = run(capsys, *argv, "--output", str(target))
        assert code == 1
        assert err.endswith(f"usage error: {message}\n")
        assert out == ""
        assert not target.exists()

    def test_least_sizes_are_accepted(self, capsys):
        assert run(capsys, "tangent", "-n", "1")[0] == 0
        assert run(capsys, "verify", "-n", "2", "--precision", "24")[0] == 0

    def test_help_exits_zero(self, capsys):
        assert run(capsys, "--help")[0] == 0


class TestSharedParser:
    SERIES = [
        ("tangent", "-n", "6"),
        ("secant", "-n", "6", "--format", "json"),
        ("bernoulli", "-n", "12"),
        ("verify", "-n", "40", "--precision", "53"),
        ("bench", "-n", "5"),
        ("tangent", "-n", "0"),  # usage error, exit 1
        ("--help",),  # exit 0
        ("secant", "-n", "4"),  # a valid call after the usage error
    ]

    @staticmethod
    def untimed(argv, result):
        """result, with a bench table's wall times and the crossover line
        they decide taken out; every other output is deterministic."""
        code, out, err = result
        if argv[0] == "bench":
            rows = [row.split() for row in out.splitlines()[:-1]]
            out = [row[:2] + row[3:] for row in rows]
        return code, out, err

    def test_one_parser_serves_every_call(self, capsys, monkeypatch):
        with monkeypatch.context() as fresh:
            fresh.setattr(btseq.cli, "_parser", btseq.cli.build_parser)
            expected = [self.untimed(a, run(capsys, *a)) for a in self.SERIES]

        builds = []
        original = btseq.cli.build_parser

        def counted():
            builds.append(1)
            return original()

        monkeypatch.setattr(btseq.cli, "build_parser", counted)
        btseq.cli._parser.cache_clear()
        try:
            shared = [self.untimed(a, run(capsys, *a)) for a in self.SERIES]
        finally:
            btseq.cli._parser.cache_clear()  # no parser of the counting stub stays
        assert len(builds) == 1
        assert shared == expected
        assert [code for code, _, _ in shared] == [0, 0, 0, 0, 0, 1, 0, 0]

    def test_build_parser_returns_a_new_parser(self):
        assert btseq.cli.build_parser() is not btseq.cli.build_parser()


class TestInstalledEntryPoint:
    def test_console_script(self):
        result = subprocess.run(
            [sys.executable, "-c", "from btseq.cli import main; main()"],
            input="",
            capture_output=True,
            text=True,
        )
        assert result.returncode == 1  # no arguments is a usage error

    def test_module_entry_point(self):
        result = subprocess.run(
            [sys.executable, "-m", "btseq", "tangent", "-n", "3"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert result.stdout == "1 1\n2 2\n3 16\n"

    def test_console_script_tangent(self, tmp_path):
        """The `btseq` command declared in pyproject.toml, run through the
        wrapper an installer writes for it, so no install is needed."""
        toml = pytest.importorskip(
            "tomllib" if sys.version_info >= (3, 11) else "tomli"
        )
        with (ROOT / "pyproject.toml").open("rb") as handle:
            entry = toml.load(handle)["project"]["scripts"]["btseq"]
        module, _, attr = entry.partition(":")
        script = tmp_path / "btseq"
        script.write_text(
            f"#!{sys.executable}\n"
            "import sys\n"
            f"from {module} import {attr}\n"
            f"sys.exit({attr}())\n"
        )
        script.chmod(0o755)
        env = dict(os.environ)
        env["PATH"] = os.pathsep.join(
            filter(None, [str(tmp_path), env.get("PATH")])
        )
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
        )
        assert_tangent_3(
            subprocess.run(
                ["btseq", "tangent", "-n", "3"],
                capture_output=True,
                text=True,
                env=env,
            )
        )

    def test_fresh_process_never_imports_dataclasses(self, tmp_path):
        """No btseq import or request generates dataclass code; -S keeps
        site hooks from importing dataclasses on their own."""
        script = (
            "import sys\n"
            "from btseq.cli import run_cli\n"
            "for argv in (['tangent', '-n', '5'], ['verify', '-n', '4'],\n"
            "             ['bench', '-n', '2', '--algorithm', 'fast']):\n"
            "    output = ['--output', f'{sys.argv[1]}/{argv[0]}.txt']\n"
            "    assert run_cli([*argv, *output]) == 0, argv\n"
            "print('dataclasses' in sys.modules)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(btseq.cli.__file__).parents[1]))
        result = subprocess.run(
            [sys.executable, "-S", "-c", script, str(tmp_path)],
            capture_output=True,
            text=True,
            env=env,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout == "False\n"

    @pytest.mark.skipif(
        shutil.which("btseq") is None, reason="no installed btseq on PATH"
    )
    def test_installed_console_script_tangent(self):
        assert_tangent_3(
            subprocess.run(
                ["btseq", "tangent", "-n", "3"], capture_output=True, text=True
            )
        )


def assert_tangent_3(result: subprocess.CompletedProcess) -> None:
    assert result.returncode == 0, result.stderr
    assert result.stdout == "1 1\n2 2\n3 16\n"
