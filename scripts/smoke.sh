#!/usr/bin/env bash
# End-to-end smoke checks of the release `ninja` binary: the perfbench
# workloads, the flight recorder's alerts, critical-path attribution,
# report streaming and byte-identity, time digits, out-of-range trace
# input, LID exhaustion, static linking and in-place output rewrites.
# `scripts/check.sh` and CI both run it.
#
# Usage: scripts/smoke.sh [OUT_DIR]
#
# Artifacts worth keeping (perfbench-observed.json, perfbench-queued.json,
# fleet-report.txt, ts.prom, metrics.prom, critical-path.txt) land in
# OUT_DIR; without one they go to a temporary directory that is removed
# on exit. The binary is the one perfbench/run.py builds, under
# $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

if [ $# -gt 0 ]; then
    out="$1"
    mkdir -p "$out"
else
    out="$(mktemp -d)"
    trap 'rm -rf "$out"' EXIT
fi
ninja="${CARGO_TARGET_DIR:-.bench_build}/release/ninja"

# Prints the JSON line in file $1 and fails unless it reports every
# invocation correct.
check_correct() {
    cat "$1"
    python3 -c 'import json, sys; sys.exit(0 if json.load(open(sys.argv[1]))["correct"] is True else 1)' "$1"
}

echo "== perfbench smoke =="
# A short traced run of the `observed` workload (trace, metrics,
# recorder and default alerts on): every invocation must pass the
# benchmark's own output checks, reported as `"correct": true` on the
# last line, which is kept as the per-layer record. This also builds
# the release binary the checks below use.
python3 perfbench/run.py --workload observed --seed 1 --seconds 2 --trace 1 \
    | tail -n 1 > "$out/perfbench-observed.json"
check_correct "$out/perfbench-observed.json"
# ... and a short untraced run of the `queued` workload (1024 jobs at
# concurrency 4): the per-migration hotplug and telemetry path at
# fleet scale.
python3 perfbench/run.py --workload queued --seed 1 --seconds 2 --trace 0 \
    | tail -n 1 > "$out/perfbench-queued.json"
check_correct "$out/perfbench-queued.json"

echo "== flight-recorder alert smoke =="
# A 64-job evacuation with 30 s scrapes and the default rules: the
# queue-backlog alert must fire and resolve, the time series must be
# written, and the critical-path analyzer must attribute every
# migration's blackout from the exported trace.
"$ninja" fleet --jobs 64 --concurrency 4 \
    --scrape-interval 30 --alerts default \
    --timeseries-out "$out/ts.prom" \
    --trace-out "$out/fleet-trace.json" \
    --metrics-out "$out/metrics.prom" \
    > "$out/fleet-report.txt"
grep -q 'ALERT queue-backlog fired' "$out/fleet-report.txt"
grep -q 'resolved' "$out/fleet-report.txt"
grep -q '# TYPE ninja_alerts_active gauge' "$out/ts.prom"
# Per-VM detail belongs in the trace: no metric series has a `vm` label.
if grep -q 'vm="' "$out/metrics.prom" "$out/ts.prom"; then
    echo "a metric series carries a vm label"
    exit 1
fi
# Through a file: `grep -q` exits at its first match, and a writer
# still printing then fails the pipeline on a closed pipe.
"$ninja" trace critical-path "$out/fleet-trace.json" > "$out/critical-path.txt"
grep -q '^64 migration(s), .* per-phase breakdown' "$out/critical-path.txt"

echo "== CLI smoke =="
# A reader that hangs up early must end the run quietly: the 1024-job
# report piped into `head` may not panic on the closed pipe.
queued=(fleet --scenario evacuation --jobs 1024 --concurrency 4 --json)
"$ninja" "${queued[@]}" 2> "$out/closed-pipe.stderr" | head -c 64
echo
if grep -q panicked "$out/closed-pipe.stderr"; then
    cat "$out/closed-pipe.stderr"
    exit 1
fi

# The trace is recorded only when a flag reads it: asking for it may not
# change the report.
for seed in 1 2; do
    "$ninja" "${queued[@]}" --seed "$seed" > "$out/plain.json"
    "$ninja" "${queued[@]}" --seed "$seed" --trace-out "$out/identity-trace.json" \
        > "$out/traced.json" 2> /dev/null
    cmp "$out/plain.json" "$out/traced.json"
done

# Report times are integer nanoseconds printed as seconds: no
# time-valued number may carry float noise past the ninth decimal, on
# the `queued` report or on a faulted one.
"$ninja" "${queued[@]}" --seed 1 > "$out/queued.json"
"$ninja" faults --jobs 3 --fault-seed 42 --json > "$out/faults.json" 2> /dev/null
python3 scripts/time_digits.py "$out/queued.json" "$out/faults.json"

# A trace file whose timestamps overflow nanoseconds is read past, not
# wrapped into a bogus migration row (release builds do not trap the
# overflow).
printf '{"traceEvents":[{"name":"ninja","cat":"ninja","ph":"X","ts":20000000000000000,"dur":1,"pid":1,"tid":"ninja","args":{"job":"0","mig":"0"}}]}' \
    > "$out/out-of-range-trace.json"
"$ninja" trace critical-path "$out/out-of-range-trace.json" > "$out/out-of-range.txt" \
    2> "$out/out-of-range.stderr"
if [ "$(wc -l < "$out/out-of-range.txt")" -ne 1 ] || grep -q panicked "$out/out-of-range.stderr"; then
    echo "an out-of-range trace event was not skipped"
    cat "$out/out-of-range.txt" "$out/out-of-range.stderr"
    exit 1
fi

# A fleet past the IB fabric's 65 534 LIDs is a usage error, not a panic.
status=0
"$ninja" fleet --jobs 65535 2> "$out/lids.stderr" || status=$?
if [ "$status" -ne 2 ] || grep -q panicked "$out/lids.stderr"; then
    echo "--jobs 65535 exited $status"
    cat "$out/lids.stderr"
    exit 1
fi

# On x86-64 Linux the release `ninja` links its C runtime statically
# (.cargo/config.toml): no shared library may be loaded at start.
if [ "$(uname -s)-$(uname -m)" = Linux-x86_64 ] && readelf -d "$ninja" | grep -q NEEDED; then
    echo "the release ninja links shared libraries:"
    readelf -d "$ninja" | grep NEEDED
    exit 1
fi

# Output files are rewritten in place: a 4-job fleet over a 64-job
# fleet's files must leave exactly what a fresh directory gets.
overwrite_run() {
    mkdir -p "$out/$1"
    "$ninja" fleet --jobs "$2" --concurrency 4 --json \
        --trace-out "$out/$1/trace.json" \
        --metrics-out "$out/$1/metrics.prom" \
        --timeseries-out "$out/$1/series.jsonl" > /dev/null 2>&1
}
overwrite_run reused 64
overwrite_run reused 4
overwrite_run fresh 4
for f in trace.json metrics.prom series.jsonl; do
    cmp "$out/reused/$f" "$out/fresh/$f"
done

echo "smoke checks passed"
