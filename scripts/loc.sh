#!/usr/bin/env bash
# Non-test lines of code: every `.rs` file under `crates/*/src`, cut at
# its first top-level `#[cfg(test)]`, counted per crate and in total.
#
# Usage: scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

total=0
for dir in crates/*/src; do
    crate="$(basename "$(dirname "$dir")")"
    n="$(find "$dir" -name '*.rs' -print0 | sort -z |
        xargs -0 awk 'FNR == 1 { cut = 0 } /^#\[cfg\(test\)\]/ { cut = 1 } !cut { n++ } END { print n + 0 }' |
        awk '{ n += $1 } END { print n + 0 }')"
    printf '%-10s %6d\n' "$crate" "$n"
    total=$((total + n))
done
printf '%-10s %6d\n' total "$total"
