"""Closed-loop benchmark of the btseq command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; btseq is imported from its src/. One
client in one thread sends the seeded request list (see workloads.py) to
btseq.cli.run_cli in-process, each request writing to a file given by
--output, and sends the next request only when the previous one returned.
The list is sent in passes until --seconds have elapsed, at least once.

--trace 0 reports the end-to-end metrics from untraced passes. --trace 1
sends one untraced pass, then traced passes with a span around every
public function of the layer modules (see tracer.py), and reports the
per-layer metrics, with the tracing overhead as traced minus untraced
pass time. Outputs are checked by oracle.py after all timed passes. The
last line of standard output is the result; the line before it, and a
file under perfbench/results/, hold the details: the request list, the
environment, every failure by exit code, and the self-checks.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import importlib.util
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import Counter
from pathlib import Path
from typing import NamedTuple

import oracle
import tracer
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "work"
RESULTS = BENCH / "results"

SETUP_ROUNDS = 6
WARM_UP = (
    ["tangent", "-n", "4"],
    ["secant", "-n", "4"],
    ["bernoulli", "-n", "8"],
    ["verify", "-n", "4"],
)


class SetupError(Exception):
    pass


class Sent(NamedTuple):
    index: int
    code: int | None  # None: run_cli raised
    error: str
    start: float
    end: float
    output: Path


def environment() -> dict:
    fields = getattr(type(sys.int_info), "__match_args__", ())
    return {
        "python": sys.version,
        "implementation": platform.python_implementation(),
        "int_info": {f: getattr(sys.int_info, f) for f in fields} or str(sys.int_info),
        "int_max_str_digits": sys.get_int_max_str_digits()
        if hasattr(sys, "get_int_max_str_digits")
        else None,
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
    }


def quiet_cli(run_cli, argv: list[str]) -> tuple[int, str]:
    """run_cli with its stdout discarded and its stderr returned."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = run_cli(argv)
    return code, err.getvalue()


def set_up() -> tuple[list[float], object]:
    """Import btseq afresh from src/ and send one tiny request per command,
    SETUP_ROUNDS times; returns the time of each round and the cli module.

    A fresh import also starts the lru caches (pi_bounds, _primes_to) empty,
    so every round fills them again."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    times = []
    for _ in range(SETUP_ROUNDS):
        for name in [m for m in sys.modules if m == "btseq" or m.startswith("btseq.")]:
            del sys.modules[name]
        start = time.perf_counter()
        try:
            package = importlib.import_module("btseq")
            cli = importlib.import_module("btseq.cli")
        except ImportError as exc:
            raise SetupError(f"cannot import btseq from {SRC}: {exc}") from exc
        if not Path(package.__file__).resolve().is_relative_to(SRC.resolve()):
            raise SetupError(f"btseq was imported from {package.__file__}, not from {SRC}")
        for argv in WARM_UP:
            code, error = quiet_cli(cli.run_cli, [*argv, "--output", str(WORK / "warm_up.out")])
            if code != 0:
                raise SetupError(f"warm-up {argv} exited {code}: {error.strip()}")
        times.append(time.perf_counter() - start)
    return times, cli


def send(run_cli, index: int, argv: list[str], output: Path) -> Sent:
    start = time.perf_counter()
    try:
        code, error = quiet_cli(run_cli, [*argv, "--output", str(output)])
    except Exception:  # a crash is a failed request, not the end of the run
        code, error = None, traceback.format_exc(limit=-3)
    return Sent(index, code, error, start, time.perf_counter(), output)


def run_pass(cli, requests: list[list[str]], number: int, trace: tracer.Tracer | None) -> list[Sent]:
    folder = WORK / f"pass{number}"
    folder.mkdir()
    gc.collect()
    run_cli = cli.run_cli  # looked up now, so a traced pass calls the wrapper
    sent = []
    for index, argv in enumerate(requests):
        if trace is not None:
            trace.request = index
            if not index:
                trace.pass_starts.append(len(trace.spans))
        sent.append(send(run_cli, index, argv, folder / f"{index}.out"))
    return sent


def pass_wall(sent: list[Sent]) -> float:
    return sent[-1].end - sent[0].start


def measure(requests, seconds, trace: tracer.Tracer | None):
    """Send passes until `seconds` have elapsed, at least one (and with a
    tracer, one untraced pass and then traced ones).

    Untraced, each pass follows a block of set-up rounds and one more
    block follows the last pass, so the set-up median spans the whole run
    rather than the moment it started. Returns the set-up times, the
    untraced passes, the traced passes and the peak resident set in KiB.
    """
    setup_times, cli = set_up()
    start = time.perf_counter()
    untraced = [run_pass(cli, requests, 0, None)]
    traced = []
    if trace is not None:
        trace.install()
        while not traced or time.perf_counter() - start < seconds:
            traced.append(run_pass(cli, requests, len(untraced) + len(traced), trace))
        trace.uninstall()
    else:
        while time.perf_counter() - start < seconds:
            times, cli = set_up()
            setup_times += times
            untraced.append(run_pass(cli, requests, len(untraced), None))
    peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    setup_times += set_up()[0]
    return setup_times, untraced, traced, peak_rss_kib


class Judged(NamedTuple):
    verdicts: list[list[oracle.Verdict]]  # per pass, per request
    output_bytes: list[int]  # per pass
    checks_failed: list[int]  # per pass


def judge(requests, passes: list[list[Sent]]) -> Judged:
    """Check every output against the oracle; identical outputs once."""
    recurrences = sys.modules["btseq.recurrences"]
    with oracle.unlimited_int_strings():
        reference = oracle.Oracle(recurrences, requests)
        cache = {}
        verdicts, sizes, failed_checks = [], [], []
        for sent in passes:
            row, total = [], 0
            for s in sent:
                data = s.output.read_bytes() if s.output.exists() else None
                total += len(data or b"")
                key = (s.index, s.code, s.error, hashlib.sha256(data).digest() if data is not None else None)
                if key not in cache:
                    text = data.decode() if data is not None else None
                    cache[key] = reference.check(requests[s.index], s.code, s.error, text)
                row.append(cache[key])
            verdicts.append(row)
            sizes.append(total)
            failed_checks.append(sum(v.checks_failed for v in row))
    return Judged(verdicts, sizes, failed_checks)


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "btseq").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def count_drift(workload: str, requests, counts: dict) -> list[str]:
    """Compare exact counts with earlier runs of the same requests on the
    same sources (kept in perfbench/results/counts.json), then record them."""
    store_path = RESULTS / "counts.json"
    store = json.loads(store_path.read_text()) if store_path.exists() else {}
    key = hashlib.sha256(json.dumps([workload, requests, source_digest()]).encode()).hexdigest()
    earlier = store.setdefault(key, {})
    drift = [
        f"{name}: {value} now, {earlier[name]} in an earlier run"
        for name, value in counts.items()
        if name in earlier and earlier[name] != value
    ]
    earlier.update(counts)
    store_path.write_text(json.dumps(store, indent=1))
    return drift


def traced_figures(trace: tracer.Tracer, untraced, traced, judged, requests):
    """Per-layer figures from the traced passes, with the exact counts and
    any self-check faults they show."""
    bounds = [*trace.pass_starts, len(trace.spans)]
    summaries = [tracer.summarize(trace.spans, *bounds[k : k + 2], requests) for k in range(len(traced))]
    figures = tracer.median_figures([s["figures"] for s in summaries])
    figures["checks.failed"] = judged.checks_failed[-1]
    figures["cli.output_bytes"] = judged.output_bytes[-1]
    figures["trace.wall_s"] = statistics.median(pass_wall(p) for p in traced)
    figures["trace.overhead_s"] = figures["trace.wall_s"] - pass_wall(untraced[0])

    faults = [fault for s in summaries for fault in s["trip_faults"]]
    bits = [s["figures"]["intops.round_nearest_div.max_num_bits"] for s in summaries]
    if len(set(bits)) > 1:
        faults.append(f"intops.round_nearest_div.max_num_bits differs between passes: {bits}")
    counts = {
        "intops.round_nearest_div.max_num_bits": bits[0],
        "tangent_trip_checks": summaries[0]["trip_checks"],
    }
    return figures, counts, faults


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WINDOWS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    requests = workloads.generate(args.workload, args.seed)
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    RESULTS.mkdir(exist_ok=True)
    trace = tracer.Tracer() if args.trace else None
    try:
        setup_times, untraced, traced, peak_rss_kib = measure(requests, args.seconds, trace)
    except SetupError as exc:
        print(f"benchmark set-up failed: {exc}", file=sys.stderr)
        return 2
    judged = judge(requests, untraced + traced)
    verdicts = [v for row in judged.verdicts for v in row]

    faults = [
        f"{name} differs between passes: {per_pass}"
        for name, per_pass in (("cli.output_bytes", judged.output_bytes), ("checks.failed", judged.checks_failed))
        if len(set(per_pass)) > 1
    ]
    counts = {"cli.output_bytes": judged.output_bytes[0], "checks.failed": judged.checks_failed[0]}
    if trace is not None:
        figures, more_counts, more_faults = traced_figures(trace, untraced, traced, judged, requests)
        counts.update(more_counts)
        faults += more_faults
        wanted = spec["per_layer"]
    else:
        figures = {
            "wall_s": statistics.median(pass_wall(p) for p in untraced),
            "req_p50_s": statistics.median(s.end - s.start for p in untraced for s in p),
            "pass_ratio": sum(v.ok for v in verdicts) / len(verdicts),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mib": peak_rss_kib / (1 << 20 if sys.platform == "darwin" else 1 << 10),
        }
        wanted = spec["end_to_end"]
    faults += count_drift(args.workload, requests, counts)

    causes = Counter(v.cause for v in verdicts if not v.ok)
    by_exit = Counter()
    for cause, count in causes.items():
        by_exit[cause.split(":", 1)[0]] += count
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "requests": requests,
        "environment": environment(),
        "setup_s_rounds": setup_times,
        "passes": [
            {
                "traced": number >= len(untraced),
                "wall_s": pass_wall(sent),
                "latency_s": [s.end - s.start for s in sent],
                "exit_codes": [s.code for s in sent],
            }
            for number, sent in enumerate(untraced + traced)
        ],
        "fail_ratio": sum(causes.values()) / len(verdicts),
        "failures_by_exit": dict(by_exit),
        "failures_by_cause": dict(causes),
        "known_defects": {
            name: text
            for name, text in workloads.KNOWN_DEFECTS.items()
            if any(cause.endswith(": " + name) for cause in causes)
        },
        "counts": counts,
        "faults": faults,
    }
    result = {
        "correct": not faults and not any(v.wrong for v in verdicts),
        "attempted": len(verdicts),
        "failed": sum(causes.values()),
        "metrics": {m["name"]: {"value": figures.get(m["name"], 0), "unit": m["unit"]} for m in wanted},
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (RESULTS / f"{stem}.json").write_text(json.dumps({**details, "result": result}, indent=1))
    if trace is not None:
        spans = {"fields": ["name", "start", "end", "parent", "request"], "spans": [s.as_list() for s in trace.spans]}
        (RESULTS / f"{stem}-spans.json").write_text(json.dumps(spans))
    shutil.rmtree(WORK, ignore_errors=True)
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
