#!/usr/bin/env bash
# Pre-PR gate: formatting, lints, and the full test suite — all
# offline (the workspace has no crates.io dependencies; proptest and
# criterion are vendored stubs gated behind off-by-default features).
#
# Usage: scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

echo "== cargo fmt --check =="
cargo fmt --all --check

echo "== cargo clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo test =="
cargo test --workspace -q

echo "== property tests =="
# Mirrors the CI step: every proptest-gated test target in the
# workspace (the vendored stub sits behind the `proptest` features).
cargo test --workspace -q --features proptest

echo "== flight-recorder alert smoke =="
# Mirrors the CI alert-smoke job: a 64-job fleet with 30 s scrapes and
# the default rules must fire and resolve the queue-backlog alert,
# write a timestamped series, and critical-path-attribute its trace.
smoke_dir="$(mktemp -d)"
trap 'rm -rf "$smoke_dir"' EXIT
cargo run -q -p ninja-fleet --bin ninja -- \
    fleet --jobs 64 --concurrency 4 \
    --scrape-interval 30 --alerts default \
    --timeseries-out "$smoke_dir/ts.prom" \
    --trace-out "$smoke_dir/fleet-trace.json" \
    > "$smoke_dir/fleet-report.txt"
grep -q 'ALERT queue-backlog fired' "$smoke_dir/fleet-report.txt"
grep -q 'resolved' "$smoke_dir/fleet-report.txt"
grep -q '# TYPE ninja_alerts_active gauge' "$smoke_dir/ts.prom"
# Through a file, as in CI: `grep -q` exits at its first match, and a
# writer still printing then fails the pipeline on a closed pipe.
cargo run -q -p ninja-fleet --bin ninja -- \
    trace critical-path "$smoke_dir/fleet-trace.json" \
    > "$smoke_dir/critical-path.txt"
grep -q 'per-phase breakdown' "$smoke_dir/critical-path.txt"

echo "== perfbench smoke =="
# Mirrors the CI perfbench-smoke job: a short traced run of the
# `observed` workload (every telemetry layer on) must report every
# invocation correct on its last line.
perf_line="$(python3 perfbench/run.py --workload observed --seed 1 --seconds 2 --trace 1 | tail -n 1)"
echo "$perf_line"
python3 -c 'import json, sys; sys.exit(0 if json.loads(sys.argv[1])["correct"] is True else 1)' \
    "$perf_line"
# ... and a short untraced run of the `queued` workload (1024 jobs at
# concurrency 4).
perf_line="$(python3 perfbench/run.py --workload queued --seed 1 --seconds 2 --trace 0 | tail -n 1)"
echo "$perf_line"
python3 -c 'import json, sys; sys.exit(0 if json.loads(sys.argv[1])["correct"] is True else 1)' \
    "$perf_line"

# A reader that hangs up early must end the run quietly: the 1024-job
# report piped into `head` may not panic on the closed pipe.
"${CARGO_TARGET_DIR:-.bench_build}/release/ninja" fleet --scenario evacuation --jobs 1024 --concurrency 4 --json \
    2> "$smoke_dir/closed-pipe.stderr" | head -c 64
echo
if grep -q panicked "$smoke_dir/closed-pipe.stderr"; then
    cat "$smoke_dir/closed-pipe.stderr"
    exit 1
fi

echo "== cargo build --benches =="
# Bench binaries (ninja-bench bins) and the criterion-stub [[bench]]
# targets, which sit behind the off-by-default `bench` feature.
cargo build --workspace --benches
cargo build --workspace --benches --features ninja-bench/bench

echo "all checks passed"
