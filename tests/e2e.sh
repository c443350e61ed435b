#!/usr/bin/env bash
# End-to-end checks of the btseq command, one function per CI step.
#
#   bash tests/e2e.sh            run every step, then print "e2e: N/M passed"
#   bash tests/e2e.sh <step>     run one step (names are listed in STEPS)
#
# Uses the installed btseq when one is on PATH, and btseq.cli.main from
# src/ otherwise. Writes into $RUNNER_TEMP, or a temporary directory that
# is removed on exit when RUNNER_TEMP is unset.

cd "$(dirname "$0")/.." || exit 1

if [ -z "${RUNNER_TEMP:-}" ]; then
  RUNNER_TEMP=$(mktemp -d)
  trap 'rm -rf "$RUNNER_TEMP"' EXIT
fi
export RUNNER_TEMP

if command -v btseq > /dev/null; then
  echo "e2e: btseq is $(command -v btseq)"
else
  # a command on PATH, so that taskset can run it too; a Python script, as
  # the installed one is, since dash would reset an ignored SIGCHLD
  export PYTHONPATH="$PWD/src${PYTHONPATH:+:$PYTHONPATH}"
  mkdir -p "$RUNNER_TEMP/bin"
  printf '#!/usr/bin/env python\nfrom btseq.cli import main\nmain()\n' > "$RUNNER_TEMP/bin/btseq"
  chmod +x "$RUNNER_TEMP/bin/btseq"
  export PATH="$RUNNER_TEMP/bin:$PATH"
  echo "e2e: btseq is btseq.cli.main from $PWD/src"
fi

STEPS=(
  command
  rejects-bad-arguments
  verify-129
  verify-300
  verify-500
  verify-600-golden
  verify-600-one-cpu
  verify-small
  verify-128-one-cpu
  verify-golden
  verify-golden-json
  one-process-goldens
  bench-json
  engines-agree-300
  recurrences-match-atkinson
  bernoulli-matches-akiyama
  series-matches-tangent-route
  perfbench
)

step_command() {
  btseq tangent -n 3 > "$RUNNER_TEMP/tangent.txt"
  printf '1 1\n2 2\n3 16\n' | diff - "$RUNNER_TEMP/tangent.txt"
  # n = 1 takes the packed engines' one division too
  btseq tangent -n 1 --algorithm fast | diff <(printf '1 1\n') -
  btseq secant -n 1 --algorithm fast | diff <(printf '0 1\n1 1\n') -
}

step_rejects-bad-arguments() {
  refuse() {
    code=0
    btseq "$@" > /dev/null || code=$?
    if [ "$code" -ne 1 ]; then
      echo "btseq $* exited $code, expected 1"
      exit 1
    fi
  }
  for args in "tangent -n 0" "bench -n 1" "verify -n 3 --precision 23" "secant -n x" \
      "tangent -n 3 --output /nonexistent-dir/out.txt"; do
    refuse $args
  done
  # an empty path names no file, so it must not fall back to stdout
  refuse tangent -n 3 --output ''
}

step_verify-129() {
  btseq verify -n 129
}

step_verify-300() {
  btseq verify -n 300
}

step_verify-500() {
  btseq verify -n 500
}

step_verify-600-golden() {
  btseq verify -n 600 > "$RUNNER_TEMP/verify600.txt"
  diff tests/data/verify_n600.txt "$RUNNER_TEMP/verify600.txt"
}

step_verify-600-one-cpu() {
  taskset -c 0 btseq verify -n 600 > "$RUNNER_TEMP/verify600-one-cpu.txt"
  diff tests/data/verify_n600.txt "$RUNNER_TEMP/verify600-one-cpu.txt"
}

step_verify-small() {
  expect() {
    summary="$1"
    shift
    code=0
    btseq verify "$@" > "$RUNNER_TEMP/verify-small.txt" || code=$?
    last=$(tail -n 1 "$RUNNER_TEMP/verify-small.txt")
    if [ "$code" -ne 0 ] || [ "$last" != "$summary checks passed" ]; then
      echo "btseq verify $* exited $code with last line: $last"
      exit 1
    fi
  }
  expect 8/8 -n 1
  expect 9/9 -n 2
  expect 9/9 -n 50
  expect 9/9 -n 63
  expect 9/9 -n 64
  expect 9/9 -n 224
  expect 9/9 -n 225
  expect 12/12 -n 60 --precision 24
  expect 12/12 -n 60 --precision 56
  expect 11/11 -n 60 --precision 57
  expect 11/11 -n 60 --precision 100
  expect 12/12 -n 64 --precision 53
  expect 12/12 -n 129 --precision 53
}

step_verify-128-one-cpu() {
  btseq verify -n 128 > "$RUNNER_TEMP/verify128.txt"
  taskset -c 0 btseq verify -n 128 > "$RUNNER_TEMP/verify128-one-cpu.txt"
  diff "$RUNNER_TEMP/verify128.txt" "$RUNNER_TEMP/verify128-one-cpu.txt"
  # both sides of the split size, a forked child below it, and the float
  # contrast beside a forked child
  for args in "-n 75" "-n 224" "-n 225" "-n 129 --precision 53"; do
    btseq verify $args > "$RUNNER_TEMP/verify-two-cpus.txt"
    taskset -c 0 btseq verify $args > "$RUNNER_TEMP/verify-one-cpu.txt"
    diff "$RUNNER_TEMP/verify-two-cpus.txt" "$RUNNER_TEMP/verify-one-cpu.txt"
  done
  # with SIGCHLD ignored, as a shell trap or a supervisor leaves it, the
  # system reaps children itself, so verify makes no second process
  (trap '' CHLD; btseq verify -n 75) > "$RUNNER_TEMP/verify-sigchld-ignored.txt"
  taskset -c 0 btseq verify -n 75 > "$RUNNER_TEMP/verify-one-cpu.txt"
  diff "$RUNNER_TEMP/verify-sigchld-ignored.txt" "$RUNNER_TEMP/verify-one-cpu.txt"
  # a host's SIGCHLD handler may reap the child too; a handler does not
  # survive exec, so it is installed in the process that runs btseq.cli.main
  python - verify -n 129 > "$RUNNER_TEMP/verify-sigchld-handler.txt" <<'EOF'
import contextlib
import os
import signal

from btseq.cli import main


def reap_children(signum, frame):
    with contextlib.suppress(ChildProcessError):
        while os.waitpid(-1, os.WNOHANG)[0]:
            pass


signal.signal(signal.SIGCHLD, reap_children)
main()
EOF
  taskset -c 0 btseq verify -n 129 > "$RUNNER_TEMP/verify-one-cpu.txt"
  diff "$RUNNER_TEMP/verify-sigchld-handler.txt" "$RUNNER_TEMP/verify-one-cpu.txt"
}

step_verify-golden() {
  btseq verify -n 40 --precision 53 > "$RUNNER_TEMP/verify40.txt"
  diff tests/data/verify_n40_p53.txt "$RUNNER_TEMP/verify40.txt"
}

step_verify-golden-json() {
  btseq verify -n 40 --precision 53 --format json > "$RUNNER_TEMP/verify40.json"
  diff tests/data/verify_n40_p53.json "$RUNNER_TEMP/verify40.json"
}

step_one-process-goldens() {
  python - "$RUNNER_TEMP" <<'EOF'
import sys
from btseq.cli import run_cli

# (golden file or None, argv, expected exit code), in one process
runs = [
    ("tangent_n50.txt", ["tangent", "-n", "50"], 0),
    ("secant_n50.txt", ["secant", "-n", "50"], 0),
    ("bernoulli_n50.txt", ["bernoulli", "-n", "50"], 0),
    ("tangent_n5.txt", ["tangent", "-n", "5", "--algorithm", "all"], 0),
    ("secant_n5.txt", ["secant", "-n", "5", "--algorithm", "all"], 0),
    ("bernoulli_n14.txt", ["bernoulli", "-n", "14", "--algorithm", "all"], 0),
    (None, ["tangent", "-n", "0"], 1),
    ("verify_n40_p53.txt", ["verify", "-n", "40", "--precision", "53"], 0),
    (
        "verify_n40_p53.json",
        ["verify", "-n", "40", "--precision", "53", "--format", "json"],
        0,
    ),
]
for name, argv, expected in runs:
    output = ["--output", f"{sys.argv[1]}/shared-{name}"] if name else []
    code = run_cli([*argv, *output])
    if code != expected:
        sys.exit(f"btseq {' '.join(argv)} exited {code}, expected {expected}")
EOF
  for name in tangent_n50.txt secant_n50.txt bernoulli_n50.txt tangent_n5.txt secant_n5.txt bernoulli_n14.txt verify_n40_p53.txt verify_n40_p53.json; do
    diff "tests/data/$name" "$RUNNER_TEMP/shared-$name"
  done
}

step_bench-json() {
  btseq bench -n 5 40 --format json --output "$RUNNER_TEMP/bench.json"
  python -c 'import json, sys; records = json.load(open(sys.argv[1]))["records"]; sys.exit(len(records) != 10)' "$RUNNER_TEMP/bench.json"
  python - "$RUNNER_TEMP/bench.json" <<'EOF'
import json
import sys

payload = json.load(open(sys.argv[1]))
environment = payload.get("environment", {})
keys = {"python", "int_info", "platform", "sched_getaffinity", "decimal"}
if payload.get("schema") != 1 or set(environment) != keys:
    sys.exit(f"bench JSON: schema {payload.get('schema')!r}, environment {environment!r}")
if set(environment["decimal"]) != {"backend", "libmpdec"}:
    sys.exit(f"bench JSON: decimal {environment['decimal']!r}")
EOF
}

step_engines-agree-300() {
  btseq tangent -n 300 --algorithm all --output "$RUNNER_TEMP/tangent300.txt"
  btseq secant -n 300 --algorithm all --output "$RUNNER_TEMP/secant300.txt"
  btseq bernoulli -n 600 --algorithm all --output "$RUNNER_TEMP/bernoulli600.txt"
}

step_recurrences-match-atkinson() {
  for family in tangent secant; do
    btseq $family -n 1000 > "$RUNNER_TEMP/$family-1000.txt"
    btseq $family -n 1000 --algorithm atkinson | diff "$RUNNER_TEMP/$family-1000.txt" -
  done
}

step_bernoulli-matches-akiyama() {
  btseq bernoulli -n 2200 > "$RUNNER_TEMP/bernoulli-2200.txt"
  btseq bernoulli -n 2200 --algorithm akiyama | diff "$RUNNER_TEMP/bernoulli-2200.txt" -
}

step_series-matches-tangent-route() {
  # the least sizes, the top of cross_engine's Bernoulli window (m 235-335),
  # and a size past every benchmark workload
  for n in 1 2 3 335 1600; do
    btseq bernoulli -n $n > "$RUNNER_TEMP/bernoulli-$n.txt"
    btseq bernoulli -n $n --algorithm series | diff "$RUNNER_TEMP/bernoulli-$n.txt" -
  done
}

step_perfbench() {
  workloads=$(python -c 'import json; print(*(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
  for workload in $workloads; do
    for trace in 0 1; do
      python perfbench/run.py --workload "$workload" --seed 1 --seconds 1 --trace "$trace" > "$RUNNER_TEMP/perfbench.txt"
      last=$(tail -n 1 "$RUNNER_TEMP/perfbench.txt")
      if ! printf '%s' "$last" | python -c 'import json, sys; r = json.load(sys.stdin); sys.exit(r["correct"] is not True or r["failed"] != 0)'; then
        echo "perfbench $workload --trace $trace: $last"
        exit 1
      fi
    done
  done
}

# Run one step in a subshell with the shell options of a CI step, so that
# its first failing command ends that step alone. It is never called as a
# condition (if, ||), where bash would ignore its -e.
run() {
  (set -eo pipefail; "step_$1")
}

if [ $# -gt 0 ]; then
  for step in "$@"; do
    if ! declare -F "step_$step" > /dev/null; then
      echo "e2e: no step $step; the steps are: ${STEPS[*]}"
      exit 2
    fi
    run "$step"
    status=$?
    [ "$status" -eq 0 ] || exit "$status"
  done
  exit 0
fi

passed=0
for step in "${STEPS[@]}"; do
  echo "e2e: $step"
  run "$step"
  if [ $? -eq 0 ]; then
    passed=$((passed + 1))
  else
    echo "e2e: $step FAILED"
  fi
done
echo "e2e: $passed/${#STEPS[@]} passed"
[ "$passed" -eq "${#STEPS[@]}" ]
