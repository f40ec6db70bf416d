//! Integration tests of the `ninja` CLI binary.

mod timed;

use std::process::Command;
use timed::run_within_10_s;

fn ninja() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ninja"))
}

#[test]
fn fallback_prints_report() {
    let out = ninja().args(["fallback", "--vms", "2"]).output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("openib -> tcp"));
    assert!(stdout.contains("hotplug"));
    assert!(stdout.contains("total"));
}

#[test]
fn json_output_parses() {
    let out = ninja()
        .args(["fallback", "--vms", "2", "--json"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let v = ninja_sim::parse(&String::from_utf8_lossy(&out.stdout)).expect("valid JSON");
    assert_eq!(v["vm_count"].as_u64(), Some(2));
    assert_eq!(v["transport_after"].as_str(), Some("tcp"));
}

#[test]
fn deterministic_across_runs() {
    let run = || {
        ninja()
            .args(["roundtrip", "--vms", "2", "--seed", "99", "--json"])
            .output()
            .unwrap()
            .stdout
    };
    assert_eq!(run(), run(), "same seed, same bytes");
}

#[test]
fn seeds_change_output() {
    let run = |seed: &str| {
        ninja()
            .args(["fallback", "--vms", "2", "--seed", seed, "--json"])
            .output()
            .unwrap()
            .stdout
    };
    assert_ne!(run("1"), run("2"));
}

#[test]
fn checkpoint_roundtrip() {
    let out = ninja()
        .args(["checkpoint", "--vms", "2", "--footprint-gib", "4"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("checkpoint:"));
    assert!(stdout.contains("restart:"));
    assert!(stdout.contains("-> tcp"));

    let out = ninja()
        .args(["checkpoint", "--vms", "2", "--footprint-gib", "4", "--json"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let fixture = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/checkpoint-vms2-footprint4.json"
    );
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        std::fs::read_to_string(fixture).unwrap(),
        "checkpoint --json bytes"
    );
}

/// `--trace` prints the trace to stderr for `checkpoint` too, and
/// recording it leaves the report's bytes alone.
#[test]
fn checkpoint_prints_its_trace() {
    let out = ninja()
        .args([
            "checkpoint",
            "--vms",
            "2",
            "--footprint-gib",
            "4",
            "--json",
            "--trace",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let fixture = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/checkpoint-vms2-footprint4.json"
    );
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        std::fs::read_to_string(fixture).unwrap(),
        "checkpoint --json --trace bytes"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--- trace ---"), "{stderr}");
    // Spans print by start time: the enclosing checkpoint (29.747 s),
    // the per-VM detaches (29.747 s), then the save, the machine's
    // transfer phase (32.567 s).
    let spans: Vec<&str> = stderr.lines().filter(|l| l.contains("] SPAN ")).collect();
    let start = |line: &str| -> f64 {
        let stamp = line[1..line.find(']').unwrap()].trim();
        stamp.trim_end_matches('s').parse().unwrap()
    };
    assert!(
        spans.windows(2).all(|w| start(w[0]) <= start(w[1])),
        "{stderr}"
    );
    let at = |what: &str| spans.iter().position(|l| l.contains(what)).unwrap();
    assert!(at("ninja checkpoint") < at("symvirt detach"), "{stderr}");
    assert!(at("symvirt detach") < at("ninja migration"), "{stderr}");
}

/// Every stream opens at the world clock: a precopy stall that holds
/// job 0's machine back leaves job 1's streams, opened meanwhile, alone.
#[test]
fn a_stall_delays_only_its_own_job() {
    let migration_of_job_1 = |faults: &[&str]| {
        let out = ninja()
            .args(["fleet", "--jobs", "2", "--concurrency", "2"])
            .args(["--arrival", "0", "--json"])
            .args(faults)
            .output()
            .unwrap();
        assert!(out.status.success());
        let v = ninja_sim::parse(&String::from_utf8_lossy(&out.stdout)).expect("valid JSON");
        let outcomes = v["outcomes"].as_array().unwrap();
        let job = outcomes.iter().find(|o| o["job"].as_u64() == Some(1));
        job.expect("job 1 finished")["report"]["migration"]
            .as_f64()
            .unwrap()
    };
    let clean = migration_of_job_1(&[]);
    let stalled = migration_of_job_1(&["--fault", "precopy-stall:job=0:stall=100"]);
    assert_eq!(stalled, clean, "job 1 has no fault");
}

#[test]
fn chrome_trace_written() {
    let dir = std::env::temp_dir().join("ninja-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("trace.json");
    let out = ninja()
        .args([
            "selfmig",
            "--vms",
            "2",
            "--chrome-trace",
            path.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let data = std::fs::read_to_string(&path).unwrap();
    let v = ninja_sim::parse(&data).expect("valid trace JSON");
    assert!(v["traceEvents"].as_array().unwrap().len() > 5);
}

#[test]
fn migrate_writes_trace_and_metrics() {
    let dir = std::env::temp_dir().join("ninja-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("migrate-trace.json");
    let metrics = dir.join("migrate-metrics.prom");
    let out = ninja()
        .args([
            "migrate",
            "--vms",
            "2",
            "--trace-out",
            trace.to_str().unwrap(),
            "--metrics-out",
            metrics.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // The Chrome trace holds one complete ("X") per-VM span per
    // migration phase per VM, on the "symvirt" track.
    let v = ninja_sim::parse(&std::fs::read_to_string(&trace).unwrap()).unwrap();
    let events = v["traceEvents"].as_array().unwrap();
    for phase in ["coordination", "detach", "migration", "attach", "linkup"] {
        let per_vm = events
            .iter()
            .filter(|e| {
                e["ph"].as_str() == Some("X")
                    && e["cat"].as_str() == Some("symvirt")
                    && e["name"].as_str() == Some(phase)
            })
            .count();
        assert_eq!(per_vm, 2, "one {phase} span per VM");
    }

    // The Prometheus text names the headline metrics.
    let prom = std::fs::read_to_string(&metrics).unwrap();
    for needle in [
        "ninja_migrations_total 1",
        "ninja_wire_bytes_total",
        "ninja_phase_duration_seconds_bucket",
        "ninja_trace_dropped_records",
    ] {
        assert!(prom.contains(needle), "metrics output mentions {needle}");
    }
}

#[test]
fn trace_summarize_reads_back_trace() {
    let dir = std::env::temp_dir().join("ninja-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("summarize-trace.json");
    let out = ninja()
        .args([
            "migrate",
            "--vms",
            "2",
            "--trace-out",
            trace.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let out = ninja()
        .args(["trace", "summarize", trace.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("component"));
    assert!(stdout.contains("migration"));
    assert!(stdout.contains("symvirt"));
}

#[test]
fn bad_usage_exits_nonzero() {
    let out = ninja().args(["frobnicate"]).output().unwrap();
    assert!(!out.status.success());
    let out = ninja().args(["fallback", "--vms", "99"]).output().unwrap();
    assert!(!out.status.success());
}

#[test]
fn fleet_json_is_deterministic_and_reports_slos() {
    let run = || {
        ninja()
            .args([
                "fleet",
                "--jobs",
                "8",
                "--concurrency",
                "4",
                "--seed",
                "2013",
                "--json",
            ])
            .output()
            .unwrap()
    };
    let out = run();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(out.stdout, run().stdout, "same seed, same bytes");
    let v = ninja_sim::parse(&String::from_utf8_lossy(&out.stdout)).expect("valid JSON");
    assert_eq!(v["jobs"].as_u64(), Some(8));
    assert_eq!(v["concurrency"].as_u64(), Some(4));
    assert!(v["makespan_s"].as_f64().unwrap() > 0.0);
    for key in [
        "p50_blackout_s",
        "p99_blackout_s",
        "p50_queue_wait_s",
        "p99_queue_wait_s",
    ] {
        assert!(v[key].as_f64().is_some(), "report carries {key}");
    }
    assert_eq!(v["outcomes"].as_array().unwrap().len(), 8);
}

#[test]
fn fleet_concurrency_shrinks_makespan_and_conserves_bytes() {
    let run = |conc: &str| {
        let out = ninja()
            .args([
                "fleet",
                "--jobs",
                "8",
                "--concurrency",
                conc,
                "--seed",
                "7",
                "--json",
            ])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        ninja_sim::parse(&String::from_utf8_lossy(&out.stdout)).unwrap()
    };
    let serial = run("1");
    let fleet = run("4");
    assert!(
        fleet["makespan_s"].as_f64().unwrap() < serial["makespan_s"].as_f64().unwrap(),
        "concurrency 4 must drain strictly faster than 1 ({} vs {})",
        fleet["makespan_s"],
        serial["makespan_s"]
    );
    assert_eq!(
        fleet["total_wire_bytes"].as_u64(),
        serial["total_wire_bytes"].as_u64(),
        "contention reshuffles time, not bytes"
    );
}

#[test]
fn fleet_writes_queue_metrics() {
    let dir = std::env::temp_dir().join("ninja-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let metrics = dir.join("fleet-metrics.prom");
    let out = ninja()
        .args([
            "fleet",
            "--jobs",
            "4",
            "--concurrency",
            "2",
            "--scenario",
            "drain",
            "--metrics-out",
            metrics.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let prom = std::fs::read_to_string(&metrics).unwrap();
    for needle in [
        "ninja_fleet_queue_depth",
        "ninja_fleet_queue_wait_seconds",
        "ninja_fleet_inflight_migrations",
    ] {
        assert!(prom.contains(needle), "metrics output mentions {needle}");
    }
}

#[test]
fn fleet_deadline_accounting_shows_up() {
    let out = ninja()
        .args([
            "fleet",
            "--jobs",
            "6",
            "--concurrency",
            "1",
            "--deadline",
            "60",
            "--json",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let v = ninja_sim::parse(&String::from_utf8_lossy(&out.stdout)).unwrap();
    assert_eq!(v["deadline_s"].as_f64(), Some(60.0));
    // Serial drains of 6 jobs take far longer than 60 s for the tail.
    assert!(v["deadline_misses"].as_u64().unwrap() >= 1);
}

#[test]
fn evacuate_reports_queue_wait() {
    let out = ninja()
        .args(["evacuate", "--vms", "4", "--json"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let v = ninja_sim::parse(&String::from_utf8_lossy(&out.stdout)).unwrap();
    let jobs = v["jobs"].as_u64().unwrap();
    let waits = v["queue_wait_s"].as_array().unwrap();
    assert_eq!(waits.len() as u64, jobs);
    // Serial default: the second job waits for the first.
    assert!(waits[1].as_f64().unwrap() > 0.0);
}

/// The text report of the drill, byte for byte: the golden harness only
/// pins `--json`.
#[test]
fn evacuate_text_report_matches_fixture() {
    let out = ninja()
        .args(["evacuate", "--vms", "4", "--concurrency", "2"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let fixture = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/evacuate-vms4-c2.txt"
    );
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        std::fs::read_to_string(fixture).unwrap(),
        "evacuate text bytes"
    );
}

#[test]
fn bad_fleet_flags_exit_nonzero() {
    let out = ninja().args(["fleet", "--jobs", "0"]).output().unwrap();
    assert!(!out.status.success(), "a zero-job fleet is an error");
    let out = ninja()
        .args(["fleet", "--scenario", "bogus"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let out = ninja()
        .args(["fleet", "--scrape-interval", "0"])
        .output()
        .unwrap();
    assert!(!out.status.success(), "scrape interval must be positive");
    let out = ninja()
        .args(["fleet", "--alerts", "bogus rule !!"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "bad alert grammar exits 2");
    assert!(String::from_utf8_lossy(&out.stderr).contains("alert rule"));
}

/// Values that used to be truncated, wrapped, panicked on or ignored:
/// each is a usage error (exit 2) whose first stderr line names the
/// problem.
#[test]
fn out_of_range_flag_values_are_usage_errors() {
    let cases: [(&[&str], &str); 11] = [
        (&["fleet", "--uplink-gbps", "inf"], "--uplink-gbps"),
        // Below 0.5 bit/s rounds to a link that carries nothing; 1e30
        // Gb/s does not fit a whole bit/s count.
        (&["fleet", "--uplink-gbps", "1e-10"], "1e-9 to 1.8e10 Gb/s"),
        (&["fleet", "--uplink-gbps", "1e30"], "1e-9 to 1.8e10 Gb/s"),
        (&["migrate", "--procs", "4294967297"], "--procs"),
        (&["faults", "--max-retries", "4294967296"], "--max-retries"),
        (
            &["fleet", "--deadline", "18446744074", "--jobs", "3"],
            "--deadline",
        ),
        (
            &["checkpoint", "--footprint-gib", "17179869184"],
            "--footprint-gib",
        ),
        (&["fleet", "--scenario", "bogus"], "rebalance or failover"),
        // A checkpoint runs no migration for a fault plan to strike.
        (&["checkpoint", "--fault", "qmp-timeout"], "--fault "),
        (&["checkpoint", "--fault-seed", "3"], "--fault-seed "),
        // A scrape every nanosecond of a ~20 s run would not finish.
        (&["fleet", "--scrape-interval", "1e-9"], "at least 1 second"),
    ];
    for (args, problem) in cases {
        let out = ninja().args(args).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        let first = stderr.lines().next().unwrap_or_default();
        assert!(first.contains(problem), "{args:?}: {stderr}");
    }
}

#[test]
fn zero_processes_per_vm_is_a_usage_error() {
    for args in [["fig8", "--ppv", "0"], ["migrate", "--procs", "0"]] {
        let out = ninja().args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?} exits 2, not a panic");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(args[1]), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}

#[test]
fn fleet_scales_past_the_source_testbed() {
    // Over 8 VMs the CLI transparently builds a scaled cluster instead
    // of rejecting the job count.
    let out = ninja()
        .args(["fleet", "--jobs", "9", "--concurrency", "3", "--json"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let v = ninja_sim::parse(&String::from_utf8_lossy(&out.stdout)).unwrap();
    assert_eq!(v["outcomes"].as_array().unwrap().len(), 9);
}

#[test]
fn recorder_flags_leave_report_stdout_byte_identical() {
    let dir = std::env::temp_dir().join("ninja-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let ts = dir.join("identity-ts.prom");
    let base = ["fleet", "--jobs", "4", "--concurrency", "2", "--json"];
    let plain = ninja().args(base).output().unwrap();
    let recorded = ninja()
        .args(base)
        .args([
            "--scrape-interval",
            "30",
            "--timeseries-out",
            ts.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(plain.status.success() && recorded.status.success());
    // The flight recorder observes the run; it must not perturb it.
    assert_eq!(plain.stdout, recorded.stdout, "recorder changed the run");
    let text = std::fs::read_to_string(&ts).unwrap();
    assert!(text.contains("# TYPE"), "time series written: {text}");
}

#[test]
fn plain_metrics_out_carries_no_recorder_series() {
    // Without any flight-recorder flag, the alert engine's series must
    // not leak into the classic metrics export. The deadline-miss
    // counter is the engine's, recorder or not.
    let dir = std::env::temp_dir().join("ninja-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let metrics = dir.join("gating-metrics.prom");
    let out = ninja()
        .args([
            "fleet",
            "--jobs",
            "6",
            "--concurrency",
            "1",
            "--deadline",
            "60",
            "--metrics-out",
            metrics.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let prom = std::fs::read_to_string(&metrics).unwrap();
    for absent in ["ninja_alerts_fired_total", "ninja_alerts_active"] {
        assert!(!prom.contains(absent), "{absent} leaked without recorder");
    }
    assert!(
        prom.contains("\nninja_fleet_deadline_misses_total "),
        "{prom}"
    );
}

#[test]
fn timeseries_out_picks_format_from_extension() {
    let dir = std::env::temp_dir().join("ninja-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    for (ext, probe) in [("jsonl", "{\"t_ns\":"), ("csv", "t_ns,name,labels,value\n")] {
        let path = dir.join(format!("fmt-ts.{ext}"));
        let out = ninja()
            .args([
                "fleet",
                "--jobs",
                "2",
                "--scrape-interval",
                "30",
                "--timeseries-out",
                path.to_str().unwrap(),
            ])
            .output()
            .unwrap();
        assert!(out.status.success());
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with(probe), ".{ext} output: {text}");
    }
}

#[test]
fn fleet_alerts_fire_and_land_in_the_report() {
    // A 16-job burst through 2 slots builds a >8-deep queue: the
    // default queue-backlog rule fires, then resolves as it drains.
    let base = [
        "fleet",
        "--jobs",
        "16",
        "--concurrency",
        "2",
        "--scrape-interval",
        "30",
        "--alerts",
        "default",
    ];
    let human = ninja().args(base).output().unwrap();
    assert!(
        human.status.success(),
        "{}",
        String::from_utf8_lossy(&human.stderr)
    );
    let text = String::from_utf8_lossy(&human.stdout);
    assert!(text.contains("ALERT"), "incidents listed:\n{text}");
    let json = ninja().args(base).arg("--json").output().unwrap();
    let v = ninja_sim::parse(&String::from_utf8_lossy(&json.stdout)).unwrap();
    let alerts = v["alerts"].as_array().expect("alerts array present");
    assert!(alerts.iter().any(
        |a| a["rule"].as_str() == Some("queue-backlog") && a["resolved_at"].as_f64().is_some()
    ));
}

#[test]
fn trace_subcommands_accept_an_empty_file() {
    let dir = std::env::temp_dir().join("ninja-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let empty = dir.join("empty-trace.json");
    std::fs::write(&empty, "").unwrap();
    for sub in ["summarize", "critical-path"] {
        let out = ninja()
            .args(["trace", sub, empty.to_str().unwrap()])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "trace {sub} on empty file: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        let mut lines = stdout.lines();
        let header = lines.next().unwrap_or("");
        assert!(
            header.contains("component") || header.contains("job"),
            "trace {sub} prints its header: {stdout}"
        );
        assert_eq!(lines.count(), 0, "trace {sub} prints only the header");
    }
}

#[test]
fn critical_path_skips_events_past_the_nanosecond_range() {
    // `ts` and `dur` are microseconds; each of these overflows a `u64`
    // of nanoseconds in `ts`, in `dur`, or only in their sum.
    let dir = std::env::temp_dir().join("ninja-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("out-of-range-trace.json");
    let event = |ts: u64, dur: u64| {
        format!(
            r#"{{"name":"ninja","cat":"ninja","ph":"X","ts":{ts},"dur":{dur},"pid":1,"tid":"ninja","args":{{"job":"0","mig":"0"}}}}"#
        )
    };
    let max_us = u64::MAX / 1_000;
    let events = [
        event(20_000_000_000_000_000, 1),
        event(0, 20_000_000_000_000_000),
        event(max_us, max_us),
    ];
    std::fs::write(
        &path,
        format!(r#"{{"traceEvents":[{}]}}"#, events.join(",")),
    )
    .unwrap();
    let out = ninja()
        .args(["trace", "critical-path", path.to_str().unwrap()])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(stdout.lines().count(), 1, "only the header: {stdout}");
}

#[test]
fn trace_subcommands_skip_fractional_and_negative_durations_alike() {
    // `dur` is a whole number of microseconds; both subcommands read the
    // file through the same rule, so an event with a fractional or a
    // negative `dur` is skipped by each, leaving its output as if the
    // event were not there.
    let dir = std::env::temp_dir().join("ninja-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let event = |name: &str, ts: &str, dur: &str| {
        format!(
            r#"{{"name":"{name}","cat":"ninja","ph":"X","ts":{ts},"dur":{dur},"pid":1,"tid":"ninja","args":{{"job":"0","mig":"0"}}}}"#
        )
    };
    let instant = r#"{"name":"fault","cat":"ninja","ph":"i","ts":3,"s":"t"}"#.to_string();
    let good = [
        event("ninja", "0", "5000000"),
        event("migration", "0", "4000000"),
        event("attach", "4000000", "1000000"),
        instant,
    ];
    let bad = [
        event("migration", "0", "2500000.5"),
        event("attach", "10", "-3"),
    ];
    let clean = dir.join("durations-clean.json");
    let mixed = dir.join("durations-mixed.json");
    let doc = |events: &[String]| format!(r#"{{"traceEvents":[{}]}}"#, events.join(","));
    std::fs::write(&clean, doc(&good)).unwrap();
    let mut all = bad.to_vec();
    all.extend(good.iter().cloned());
    std::fs::write(&mixed, doc(&all)).unwrap();
    for sub in ["summarize", "critical-path"] {
        let run = |path: &std::path::Path| {
            let out = ninja()
                .args(["trace", sub, path.to_str().unwrap()])
                .output()
                .unwrap();
            assert!(
                out.status.success(),
                "{}",
                String::from_utf8_lossy(&out.stderr)
            );
            String::from_utf8(out.stdout).unwrap()
        };
        let want = run(&clean);
        assert!(
            want.lines().count() > 1,
            "trace {sub} reads the good events: {want}"
        );
        assert_eq!(run(&mixed), want, "trace {sub} skips the bad events");
    }
}

#[test]
fn trace_summarize_rows_sort_by_component_then_span() {
    let dir = std::env::temp_dir().join("ninja-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("sorted-trace.json");
    let out = ninja()
        .args([
            "migrate",
            "--vms",
            "2",
            "--trace-out",
            trace.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let out = ninja()
        .args(["trace", "summarize", trace.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let keys: Vec<(String, String)> = stdout
        .lines()
        .skip(1)
        .take_while(|l| !l.starts_with('('))
        .filter_map(|l| {
            let mut it = l.split_whitespace();
            Some((it.next()?.to_string(), it.next()?.to_string()))
        })
        .collect();
    assert!(keys.len() > 3, "several rows: {stdout}");
    let mut sorted = keys.clone();
    sorted.sort();
    assert_eq!(keys, sorted, "rows are (component, span)-sorted");
}

#[test]
fn trace_critical_path_attributes_fleet_blackout() {
    let dir = std::env::temp_dir().join("ninja-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("critical-trace.json");
    let out = ninja()
        .args([
            "fleet",
            "--jobs",
            "4",
            "--concurrency",
            "2",
            "--trace-out",
            trace.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let out = ninja()
        .args(["trace", "critical-path", trace.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("dominant"), "{stdout}");
    let rows: Vec<&str> = stdout
        .lines()
        .skip(1)
        .take_while(|l| !l.is_empty())
        .collect();
    assert_eq!(rows.len(), 4, "one row per migration:\n{stdout}");
    // Every migration's blackout is ≥99% attributed (cover% column).
    for row in rows {
        let cover: f64 = row.split_whitespace().nth(4).unwrap().parse().unwrap();
        assert!(cover >= 99.0, "low coverage row: {row}");
    }
    assert!(stdout.contains("per-phase breakdown"), "{stdout}");
    assert!(stdout.contains("p50_s"), "{stdout}");
}

#[test]
fn closed_stdout_pipe_ends_the_run_quietly() {
    use std::io::Read;
    use std::process::Stdio;
    // The 1024-job report is far larger than a pipe buffer, so the
    // writer is still going when the reader hangs up (`| head -c 20`).
    let mut child = ninja()
        .args(["fleet", "--jobs", "1024", "--concurrency", "4", "--json"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let mut head = [0u8; 20];
    child.stdout.take().unwrap().read_exact(&mut head).unwrap();
    assert_eq!(&head[..1], b"{");
    let out = child.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "exit {:?}: {stderr}", out.status);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(!stderr.contains("could not write report"), "{stderr}");
}

#[test]
fn failed_stdout_write_is_reported_and_exits_1() {
    let Ok(full) = std::fs::OpenOptions::new().write(true).open("/dev/full") else {
        return; // no /dev/full on this platform
    };
    for args in [
        &["fleet", "--jobs", "64", "--concurrency", "8", "--json"][..],
        &["fleet", "--jobs", "8"][..],
        &["migrate", "--json"][..],
    ] {
        let out = ninja()
            .args(args)
            .stdout(full.try_clone().unwrap())
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(
            stderr.contains("could not write report: "),
            "{args:?}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}

#[test]
fn fleets_past_the_lid_space_exit_2_without_a_panic() {
    for args in [
        ["fleet", "--scenario", "evacuation", "--jobs", "65535"],
        ["fleet", "--scenario", "failover", "--jobs", "32768"],
    ] {
        let out = ninja().args(args).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("InfiniBand LIDs"), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}

/// Runs `args`, once as given and once with `--trace-out` added, each
/// with `--metrics-out`; returns both runs' stdout and metrics bytes.
fn with_and_without_trace_out(name: &str, args: &[&str]) -> [(Vec<u8>, Vec<u8>); 2] {
    let dir = std::env::temp_dir().join("ninja-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join(format!("{name}-trace.json"));
    [false, true].map(|traced| {
        let metrics = dir.join(format!("{name}-{traced}.prom"));
        let mut cmd = ninja();
        cmd.args(args)
            .args(["--metrics-out", metrics.to_str().unwrap()]);
        if traced {
            cmd.args(["--trace-out", trace.to_str().unwrap()]);
        }
        let out = cmd.output().unwrap();
        assert!(
            out.status.success(),
            "{args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        (out.stdout, std::fs::read(&metrics).unwrap())
    })
}

#[test]
fn recording_the_trace_changes_no_other_output() {
    // Without a trace flag the run records no trace; nothing else may
    // notice.
    for (name, args) in [
        (
            "fleet",
            &["fleet", "--jobs", "32", "--concurrency", "4", "--json"][..],
        ),
        ("migrate", &["migrate", "--vms", "2", "--json"][..]),
    ] {
        let [plain, traced] = with_and_without_trace_out(name, args);
        assert_eq!(plain.0, traced.0, "{name}: stdout changed");
        assert_eq!(plain.1, traced.1, "{name}: metrics changed");
    }
}

#[test]
fn trace_cap_alone_still_counts_dropped_records() {
    let dir = std::env::temp_dir().join("ninja-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let metrics = dir.join("cap-only.prom");
    let out = ninja()
        .args(["fleet", "--jobs", "16", "--trace-cap", "5", "--metrics-out"])
        .arg(&metrics)
        .output()
        .unwrap();
    assert!(out.status.success());
    let prom = std::fs::read_to_string(&metrics).unwrap();
    let dropped: f64 = prom
        .lines()
        .find_map(|l| l.strip_prefix("ninja_trace_dropped_records "))
        .expect("gauge present")
        .parse()
        .unwrap();
    assert!(dropped > 0.0, "{prom}");
}

/// Output files are rewritten in place: a small run over a large run's
/// files must leave exactly what a fresh directory gets, with no tail
/// of the old contents.
#[test]
fn rewriting_outputs_in_place_leaves_no_stale_tail() {
    let root = std::env::temp_dir().join("ninja-cli-test");
    let (reused, fresh) = (root.join("rewrite-reused"), root.join("rewrite-fresh"));
    for dir in [&reused, &fresh] {
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir).unwrap();
    }
    let files = ["trace.json", "metrics.prom", "series.jsonl"];
    let run = |dir: &std::path::Path, jobs: &str| {
        let path = |f: &str| dir.join(f).to_str().unwrap().to_string();
        let out = ninja()
            .args(["fleet", "--jobs", jobs, "--concurrency", "4", "--json"])
            .args(["--trace-out", &path(files[0])])
            .args(["--metrics-out", &path(files[1])])
            .args(["--timeseries-out", &path(files[2])])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        files.map(|f| std::fs::read(dir.join(f)).unwrap())
    };
    let big = run(&reused, "64");
    let rewritten = run(&reused, "4");
    let expected = run(&fresh, "4");
    for ((f, old), (new, want)) in files.iter().zip(&big).zip(rewritten.iter().zip(&expected)) {
        assert!(old.len() > want.len(), "{f}: the first run writes more");
        assert!(new == want, "{f}: rewrite differs from a fresh write");
    }
}

#[cfg(unix)]
#[test]
fn metrics_to_dev_null_succeeds() {
    let out = ninja()
        .args(["fleet", "--jobs", "4", "--metrics-out", "/dev/null"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(!String::from_utf8_lossy(&out.stderr).contains("could not write"));
}

/// A failed migration in a single-job command is reported the way
/// `migrate` reports it: `migration failed: ...` and exit 1.
#[test]
fn single_job_commands_report_failed_migrations() {
    for args in [
        &["roundtrip", "--fault", "qmp-timeout:phase=migration"][..],
        &["selfmig", "--fault", "precopy-abort"],
        &["fig8", "--fault", "qmp-timeout"],
    ] {
        let run = run_within_10_s(args);
        assert_eq!(run.code, 1, "{args:?}: {}", run.stderr);
        assert!(
            run.stderr.starts_with("migration failed: "),
            "{args:?}: {}",
            run.stderr
        );
        assert!(!run.stderr.contains("panicked"), "{args:?}: {}", run.stderr);
    }
}

/// A stall or backoff that runs a migration to the end of simulated
/// time fails it, and a scrape interval that long ends the recorder;
/// none of these runs hangs or drops a job.
#[test]
fn runs_that_reach_the_end_of_the_clock_finish() {
    let end = "the migration ran past the end of simulated time";
    for (args, code) in [
        (
            &["migrate", "--fault", "precopy-stall:stall=18446744073"][..],
            1,
        ),
        (
            &[
                "migrate",
                "--backoff",
                "18446744073",
                "--fault",
                "qmp-timeout:times=1",
            ],
            1,
        ),
        (
            &["fleet", "--jobs", "2", "--scrape-interval", "18446744073"],
            0,
        ),
    ] {
        let run = run_within_10_s(args);
        assert_eq!(run.code, code, "{args:?}: {}", run.stderr);
        assert!(
            code == 0 || run.stderr.contains(end),
            "{args:?}: {}",
            run.stderr
        );
    }
    let args = [
        "fleet",
        "--jobs",
        "2",
        "--fault",
        "precopy-stall:stall=18446744073",
        "--json",
    ];
    let run = run_within_10_s(&args);
    assert_eq!(run.code, 0, "{}", run.stderr);
    let report = ninja_sim::parse(&run.stdout).expect("report JSON");
    let failures = report["failures"].as_array().expect("failures listed");
    assert_eq!(failures.len(), 1, "the one-shot stall fails one job");
    assert_eq!(failures[0]["error"].as_str(), Some(end));
    let finished = report["outcomes"].as_array().map_or(0, |o| o.len());
    assert_eq!(finished + failures.len(), 2, "both jobs are reported");
}

#[test]
fn job_count_products_that_overflow_are_usage_errors() {
    let run = run_within_10_s(&[
        "fleet",
        "--jobs",
        "4294967296",
        "--vms-per-job",
        "4294967296",
    ]);
    assert_eq!(run.code, 2, "{}", run.stderr);
    assert!(run.stderr.contains("machine word"), "{}", run.stderr);
    assert!(!run.stderr.contains("panicked"), "{}", run.stderr);
}

/// Edge values that hung, ran away or were accepted past the testbed:
/// each run now ends within 10 s with its own exit code.
#[test]
fn edge_values_end_with_a_verdict() {
    for (args, code) in [
        // A persistent fault under four billion retries, with and
        // without backoff: the retries are taken as one run.
        (&["faults", "--max-retries", "4294967295"][..], 0),
        (
            &[
                "migrate",
                "--max-retries",
                "4294967295",
                "--backoff",
                "0",
                "--fault",
                "qmp-timeout",
            ],
            1,
        ),
        // A 1 b/s uplink with 1 s scrapes: the gap is crossed in one jump.
        (
            &["fleet", "--uplink-gbps", "1e-9", "--scrape-interval", "1"],
            0,
        ),
        // An uplink below 1 b/s, or past 2^64 b/s, is no whole rate.
        (&["fleet", "--uplink-gbps", "1e-10"], 2),
        (&["fleet", "--uplink-gbps", "1e30"], 2),
        // Arrivals past the end of the clock can never be served.
        (
            &["fleet", "--scenario", "drain", "--arrival", "18446744073"],
            1,
        ),
        // The AGC blade has 8 cores.
        (&["fig8", "--ppv", "9"], 2),
        (&["fleet", "--deadline", "nan"], 2),
        (&["fleet", "--arrival", "inf"], 2),
        (&["faults", "--fault", "precopy-stall:stall=1e30"], 2),
    ] {
        let run = run_within_10_s(args);
        assert_eq!(run.code, code, "{args:?}: {}", run.stderr);
        assert!(!run.stderr.contains("panicked"), "{args:?}: {}", run.stderr);
    }
}
