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

echo "== rustdoc (deny warnings) =="
# Intra-doc links must resolve: a doc that still links to a deleted or
# private item fails here.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "== cargo test =="
cargo test --workspace -q

echo "== property tests =="
# Mirrors the CI step: every proptest-gated test target in the
# workspace (the vendored stub sits behind the `proptest` features).
cargo test --workspace -q --features proptest

echo "== examples =="
# Each example asserts its own claims (autopilot_week: fourteen moves,
# seven each way, and migration overhead under 1% of the week).
for example in examples/*.rs; do
    cargo run -q --release -p ninja-workloads --example "$(basename "$example" .rs)" > /dev/null
done

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
    --metrics-out "$smoke_dir/metrics.prom" \
    > "$smoke_dir/fleet-report.txt"
grep -q 'ALERT queue-backlog fired' "$smoke_dir/fleet-report.txt"
grep -q 'resolved' "$smoke_dir/fleet-report.txt"
grep -q '# TYPE ninja_alerts_active gauge' "$smoke_dir/ts.prom"
# Per-VM detail belongs in the trace: no metric series has a `vm` label.
if grep -q 'vm="' "$smoke_dir/metrics.prom" "$smoke_dir/ts.prom"; then
    echo "a metric series carries a vm label"
    exit 1
fi
# Through a file, as in CI: `grep -q` exits at its first match, and a
# writer still printing then fails the pipeline on a closed pipe.
cargo run -q -p ninja-fleet --bin ninja -- \
    trace critical-path "$smoke_dir/fleet-trace.json" \
    > "$smoke_dir/critical-path.txt"
grep -q '^64 migration(s), .* per-phase breakdown' "$smoke_dir/critical-path.txt"

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

# The trace is recorded only when a flag reads it: asking for it may not
# change the report.
queued=(fleet --scenario evacuation --jobs 1024 --concurrency 4 --json)
for seed in 1 2; do
    "${CARGO_TARGET_DIR:-.bench_build}/release/ninja" "${queued[@]}" --seed "$seed" \
        > "$smoke_dir/plain.json"
    "${CARGO_TARGET_DIR:-.bench_build}/release/ninja" "${queued[@]}" --seed "$seed" \
        --trace-out "$smoke_dir/identity-trace.json" > "$smoke_dir/traced.json" 2> /dev/null
    cmp "$smoke_dir/plain.json" "$smoke_dir/traced.json"
done

# Report times are integer nanoseconds printed as seconds: no
# time-valued number may carry float noise past the ninth decimal, on
# the `queued` report or on a faulted one.
"${CARGO_TARGET_DIR:-.bench_build}/release/ninja" "${queued[@]}" --seed 1 > "$smoke_dir/queued.json"
"${CARGO_TARGET_DIR:-.bench_build}/release/ninja" faults --jobs 3 --fault-seed 42 --json \
    > "$smoke_dir/faults.json" 2> /dev/null
python3 scripts/time_digits.py "$smoke_dir/queued.json" "$smoke_dir/faults.json"

# A trace file whose timestamps overflow nanoseconds is read past, not
# wrapped into a bogus migration row (release builds do not trap the
# overflow).
printf '{"traceEvents":[{"name":"ninja","cat":"ninja","ph":"X","ts":20000000000000000,"dur":1,"pid":1,"tid":"ninja","args":{"job":"0","mig":"0"}}]}' \
    > "$smoke_dir/out-of-range-trace.json"
"${CARGO_TARGET_DIR:-.bench_build}/release/ninja" trace critical-path \
    "$smoke_dir/out-of-range-trace.json" > "$smoke_dir/out-of-range.txt" \
    2> "$smoke_dir/out-of-range.stderr"
if [ "$(wc -l < "$smoke_dir/out-of-range.txt")" -ne 1 ] || grep -q panicked "$smoke_dir/out-of-range.stderr"; then
    echo "an out-of-range trace event was not skipped"
    cat "$smoke_dir/out-of-range.txt" "$smoke_dir/out-of-range.stderr"
    exit 1
fi

# A fleet past the IB fabric's 65 534 LIDs is a usage error, not a panic.
status=0
"${CARGO_TARGET_DIR:-.bench_build}/release/ninja" fleet --jobs 65535 \
    2> "$smoke_dir/lids.stderr" || status=$?
if [ "$status" -ne 2 ] || grep -q panicked "$smoke_dir/lids.stderr"; then
    echo "--jobs 65535 exited $status"
    cat "$smoke_dir/lids.stderr"
    exit 1
fi

# On x86-64 Linux the release `ninja` links its C runtime statically
# (.cargo/config.toml): no shared library may be loaded at start.
ninja="${CARGO_TARGET_DIR:-.bench_build}/release/ninja"
if [ "$(uname -s)-$(uname -m)" = Linux-x86_64 ] && readelf -d "$ninja" | grep -q NEEDED; then
    echo "the release ninja links shared libraries:"
    readelf -d "$ninja" | grep NEEDED
    exit 1
fi

# Output files are rewritten in place: a 4-job fleet over a 64-job
# fleet's files must leave exactly what a fresh directory gets.
overwrite_run() {
    mkdir -p "$smoke_dir/$1"
    "$ninja" fleet --jobs "$2" --concurrency 4 --json \
        --trace-out "$smoke_dir/$1/trace.json" \
        --metrics-out "$smoke_dir/$1/metrics.prom" \
        --timeseries-out "$smoke_dir/$1/series.jsonl" > /dev/null 2>&1
}
overwrite_run reused 64
overwrite_run reused 4
overwrite_run fresh 4
for f in trace.json metrics.prom series.jsonl; do
    cmp "$smoke_dir/reused/$f" "$smoke_dir/fresh/$f"
done

echo "== telemetry_cost smoke =="
# Mirrors the CI bench-smoke step: everything off vs. everything on at
# 256/8 and 1024/4, each run in a fresh child process. Records only (the
# 4096-job gate is the full run's); run from the smoke directory so
# the committed BENCH_telemetry.json is left alone.
root="$(pwd)"
(cd "$smoke_dir" && TMPDIR="$smoke_dir" cargo run -q --release \
    --manifest-path "$root/Cargo.toml" -p ninja-bench --bin telemetry_cost -- --quick)

echo "== cargo build --benches =="
# Bench binaries (ninja-bench bins) and the criterion-stub [[bench]]
# targets, which sit behind the off-by-default `bench` feature.
cargo build --workspace --benches
cargo build --workspace --benches --features ninja-bench/bench

echo "all checks passed"
