//! Seeded argv fuzzer for the `ninja` CLI (behind `--features
//! proptest`).
//!
//! Each case is a command and up to four flags from the CLI's grammar,
//! with values drawn from edge cases: the integer boundaries around 0,
//! 2³² and `u64::MAX`, `nan`, `inf`, `-0`, `1e-9`, `1e30`, and
//! 18446744073 seconds (the last whole second the nanosecond clock
//! holds), plus each flag's own words. Whatever the draw, the run must
//! end within 10 s with exit code 0 (ran), 1 (the run failed) or 2
//! (usage error), and must not panic.

mod timed;

use proptest::prelude::*;
use timed::run_within_10_s;

const COMMANDS: [&str; 9] = [
    "migrate",
    "fallback",
    "roundtrip",
    "selfmig",
    "checkpoint",
    "fig8",
    "evacuate",
    "fleet",
    "faults",
];

const EDGES: [&str; 12] = [
    "0",
    "1",
    "2",
    "4294967295",
    "4294967297",
    "18446744073709551615",
    "nan",
    "inf",
    "-0",
    "1e-9",
    "1e30",
    "18446744073",
];

/// Every flag, and the words it takes besides the edge values (`None`
/// for a switch).
const FLAGS: [(&str, Option<&[&str]>); 26] = [
    ("--vms", Some(&[])),
    ("--procs", Some(&[])),
    ("--ppv", Some(&[])),
    ("--to", Some(&["eth", "ib"])),
    ("--footprint-gib", Some(&[])),
    ("--seed", Some(&[])),
    ("--jobs", Some(&[])),
    ("--vms-per-job", Some(&[])),
    ("--concurrency", Some(&[])),
    ("--arrival", Some(&[])),
    ("--deadline", Some(&[])),
    ("--uplink-gbps", Some(&[])),
    (
        "--scenario",
        Some(&["evacuation", "drain", "rebalance", "failover"]),
    ),
    ("--fault", Some(&FAULTS)),
    ("--fault-seed", Some(&[])),
    ("--max-retries", Some(&[])),
    ("--backoff", Some(&[])),
    ("--json", None),
    ("--trace", None),
    ("--trace-out", Some(&["fuzz-trace.json"])),
    (
        "--metrics-out",
        Some(&["fuzz-metrics.prom", "fuzz-metrics.json"]),
    ),
    ("--trace-cap", Some(&[])),
    ("--scrape-interval", Some(&[])),
    ("--timeseries-out", Some(&["fuzz-series.jsonl"])),
    (
        "--alerts",
        Some(&["default", "bogus rule", "@/nonexistent"]),
    ),
    ("--chrome-trace", Some(&["fuzz-trace.json"])),
];

/// Fault specs; `{}` takes an edge value.
const FAULTS: [&str; 6] = [
    "precopy-stall:stall={}",
    "precopy-stall:times={}:stall=1",
    "qmp-timeout:times={}",
    "hotplug-attach:job={}",
    "agent-disconnect:mig={}",
    "precopy-abort",
];

/// The argv for one draw: a command index and (flag, value) indices.
fn argv(cmd: usize, flags: &[(usize, usize)]) -> Vec<String> {
    let dir = env!("CARGO_TARGET_TMPDIR");
    let mut argv = vec![COMMANDS[cmd].to_string()];
    for &(f, v) in flags {
        let (name, words) = FLAGS[f];
        argv.push(name.to_string());
        let Some(words) = words else { continue };
        // Output paths always name a file under the test's scratch
        // directory; other flags take an edge value or one of their
        // words.
        let path = words.first().is_some_and(|w| w.starts_with("fuzz-"));
        let value = match v.checked_sub(EDGES.len()) {
            _ if path => format!("{dir}/{}", words[v % words.len()]),
            None => EDGES[v].to_string(),
            Some(w) if !words.is_empty() => words[w % words.len()].to_string(),
            Some(w) => EDGES[w % EDGES.len()].to_string(),
        };
        argv.push(value.replace("{}", EDGES[v % EDGES.len()]));
    }
    argv
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn every_argv_ends_with_a_verdict(
        cmd in 0..COMMANDS.len(),
        flags in prop::collection::vec((0..FLAGS.len(), 0..2 * EDGES.len()), 0..5),
    ) {
        let argv = argv(cmd, &flags);
        let run = run_within_10_s(&argv);
        prop_assert!(matches!(run.code, 0..=2), "{argv:?} exited {}: {}", run.code, run.stderr);
        prop_assert!(!run.stderr.contains("panicked"), "{argv:?}: {}", run.stderr);
    }
}
