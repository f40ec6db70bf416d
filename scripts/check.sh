#!/usr/bin/env bash
# Pre-PR gate: formatting, lints, and the full test suite — all
# offline (the workspace has no crates.io dependencies; proptest is a
# vendored stub gated behind an off-by-default feature).
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

echo "== non-test lines (record only) =="
bash scripts/loc.sh

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

echo "== paper regenerators =="
# Mirrors the CI step: every regenerator (Table II, Figs. 6-8 and the
# extension studies) asserts its EXPERIMENTS.md claims and exits
# nonzero on a regression. Release build; each binary runs in well
# under a second.
bash scripts/reproduce.sh
# The committed results/ are the regenerators' pinned outputs: a byte
# that moves fails here, so a rebless is a reviewable diff.
git diff --exit-code results/

echo "== smoke checks =="
# The end-to-end checks of the release binary; CI runs the same script.
bash scripts/smoke.sh

echo "== telemetry_cost smoke =="
# Mirrors the CI bench-smoke step: everything off vs. everything on at
# 256/8 and 1024/4, each run in a fresh child process. Records only (the
# 4096-job gate is the full run's); run from the smoke directory so
# the committed BENCH_telemetry.json is left alone.
smoke_dir="$(mktemp -d)"
trap 'rm -rf "$smoke_dir"' EXIT
root="$(pwd)"
(cd "$smoke_dir" && TMPDIR="$smoke_dir" cargo run -q --release \
    --manifest-path "$root/Cargo.toml" -p ninja-bench --bin telemetry_cost -- --quick)

echo "all checks passed"
