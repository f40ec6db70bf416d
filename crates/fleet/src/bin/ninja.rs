//! `ninja` — command-line driver for the Ninja migration simulator.
//!
//! ```text
//! ninja migrate    [--vms N] [--procs P] [--to eth|ib] [--seed S] [--json]
//! ninja fallback   [--vms N] [--procs P] [--seed S] [--json] [--trace]
//! ninja roundtrip  [--vms N] [--procs P] [--seed S] [--json] [--trace]
//! ninja selfmig    [--vms N] [--seed S] [--json]
//! ninja checkpoint [--vms N] [--footprint-gib G] [--seed S] [--json]
//! ninja fig8       [--ppv P] [--seed S]
//! ninja evacuate   [--vms N] [--concurrency C] [--seed S] [--json]
//! ninja fleet      [--jobs J] [--vms-per-job V] [--concurrency C]
//!                  [--arrival SECS] [--deadline SECS] [--uplink-gbps G]
//!                  [--scenario evacuation|drain|rebalance|failover]
//!                  [--seed S] [--json]
//! ninja faults     [--jobs J] [--vms-per-job V] [--fault SPEC]...
//!                  [--fault-seed S] [--max-retries N] [--backoff SECS]
//!                  [--concurrency C] [--seed S] [--json]
//! ninja trace summarize FILE
//! ```
//!
//! `ninja faults` is the chaos drill: a failover burst onto spare IB
//! nodes under an injected fault plan. `--fault` takes
//! `KIND[:phase=P][:job=J][:mig=M][:times=N][:stall=SECS]` (kinds:
//! `qmp-timeout`, `precopy-stall`, `precopy-abort`, `hotplug-attach`,
//! `agent-disconnect`; repeatable); without `--fault` a random plan is
//! drawn from `--fault-seed`. Transient faults retry with bounded
//! exponential backoff (`--max-retries`, `--backoff`) in virtual time;
//! a persistent `hotplug-attach` degrades the job to TCP and the fleet
//! engine schedules an automatic recovery migration that restores
//! InfiniBand. `--fault` also works with `fleet` and the single-job
//! commands (there, faults target job 0, migration 0).
//!
//! `ninja fleet` runs many overlapping Ninja migrations through the
//! fleet engine: jobs are triggered by a cloud-scheduler schedule,
//! admitted under a concurrency cap, and their precopy streams split a
//! shared switch uplink max-min fairly. The output is an SLO report:
//! p50/p99 blackout, p50/p99 queue wait, drain makespan, wire bytes,
//! deadline misses. `ninja evacuate` is the same engine at
//! `--concurrency 1` (the backward-compatible serial drill).
//!
//! Telemetry flags (any run command):
//!
//! - `--trace-out FILE` (alias `--chrome-trace FILE`) writes the run's
//!   phase spans as Chrome trace-event JSON (open in chrome://tracing
//!   or <https://ui.perfetto.dev>).
//! - `--metrics-out FILE` writes the run's metric registry in
//!   Prometheus text exposition format (or as a JSON document when
//!   FILE ends in `.json`).
//! - `--trace-cap N` bounds the in-memory trace ring buffer; dropped
//!   records are counted in `ninja_trace_dropped_records`.
//!
//! The run records its trace only when one of `--trace-out`,
//! `--trace-cap` or `--trace` (print the trace to stderr) is given;
//! nothing else reads it, so every other output is the same either way.
//!
//! Flight-recorder flags (any run command; passing any of them installs
//! a virtual-time metric scraper, everything off by default so runs
//! without them stay byte-identical):
//!
//! - `--scrape-interval SECS` scrapes the metric registry every SECS of
//!   simulated time (default 30 when another recorder flag is given).
//! - `--timeseries-out FILE` writes the scraped series: timestamped
//!   Prometheus text by default, JSONL when FILE ends in `.jsonl`, CSV
//!   when it ends in `.csv`.
//! - `--alerts SPEC` evaluates alert rules at each scrape: `default`
//!   for the built-in rule set, `@FILE` to load rules from a file, or
//!   inline rules (see `docs/observability.md` for the grammar).
//!   Fire/resolve transitions land in the trace, the
//!   `ninja_alerts_fired_total` / `ninja_alerts_active` series, and the
//!   fleet SLO report's `alerts` section.
//!
//! `ninja trace summarize FILE` reads a previously written Chrome
//! trace file back and prints a per-(component, span) latency table.
//! `ninja trace critical-path FILE` reconstructs each migration's span
//! tree from such a file and attributes its blackout to the Fig. 4
//! phases, with fleet-wide per-phase p50/p99.
//!
//! Every run is deterministic in `--seed`.

use ninja_fleet::{
    build_auto, percentile, run_fleet, DrillView, FleetConfig, ScenarioKind, ScenarioSpec,
};
use ninja_migration::{
    boot_drill_jobs, plan_evacuation, CloudScheduler, NinjaOrchestrator, NinjaReport,
    TriggerReason, World, PHASE_NAMES,
};
use ninja_sim::export::{overwrite_file, stream_to, IoSink};
use ninja_sim::{
    AlertEngine, Bandwidth, Bytes, Json, JsonWriter, SimDuration, TimeSeriesRecorder, Trace,
    WriteJson,
};
use ninja_symvirt::{FaultPlan, FaultSpec, GuestCooperative, RetryPolicy};
use ninja_vmm::SnapshotStore;
use ninja_workloads::{install_memory_profile, MemoryProfile};
use std::collections::BTreeMap;
use std::fmt::{self, Write};
use std::fs::File;
use std::io::{self, BufWriter, StdoutLock};
use std::mem;
use std::process::exit;

struct Args {
    vms: usize,
    procs: u32,
    seed: u64,
    footprint_gib: u64,
    ppv: u32,
    to: String,
    jobs: usize,
    /// Whether `--jobs` was given (the `faults` drill defaults to 2).
    jobs_set: bool,
    vms_per_job: usize,
    concurrency: usize,
    arrival: u64,
    deadline: Option<u64>,
    uplink_gbps: f64,
    scenario: String,
    faults: Vec<String>,
    fault_seed: Option<u64>,
    max_retries: u32,
    backoff_s: f64,
    json: bool,
    trace: bool,
    trace_out: Option<String>,
    metrics_out: Option<String>,
    trace_cap: Option<usize>,
    /// Virtual-time scrape interval in seconds; `None` leaves the
    /// flight recorder uninstalled unless another recorder flag asks
    /// for it (then 30 s is the default).
    scrape_interval: Option<f64>,
    timeseries_out: Option<String>,
    /// Alert rules: `default`, `@FILE`, or inline rule text.
    alerts: Option<String>,
}

impl Args {
    fn retry_policy(&self) -> RetryPolicy {
        RetryPolicy {
            max_retries: self.max_retries,
            backoff: SimDuration::from_secs_f64(self.backoff_s),
        }
    }

    /// The fault plan the flags describe: explicit `--fault` specs, a
    /// random plan when only `--fault-seed` was given, or the empty
    /// plan (which fires nothing and leaves runs bit-identical).
    fn fault_plan(&self, jobs: usize) -> FaultPlan {
        if !self.faults.is_empty() {
            let specs = self
                .faults
                .iter()
                .map(|s| {
                    FaultSpec::parse(s).unwrap_or_else(|e| {
                        eprintln!("--fault {s}: {e}");
                        exit(2)
                    })
                })
                .collect();
            FaultPlan::from_specs(specs)
        } else if let Some(seed) = self.fault_seed {
            FaultPlan::random(seed, jobs)
        } else {
            FaultPlan::new()
        }
    }

    /// Sets up the run's trace. It records only when a flag reads it:
    /// `--trace-out` and `--trace` print it, and `--trace-cap` bounds it
    /// and reports its evictions in `ninja_trace_dropped_records`.
    /// Nothing else reads the trace, so without those flags it is
    /// disabled and the run skips recording it.
    fn setup_trace(&self, trace: &mut Trace) {
        if self.traced() {
            trace.set_capacity(self.trace_cap);
        } else {
            *trace = Trace::disabled();
        }
    }

    /// Whether a flag reads the trace: `--trace-out`, `--trace` or
    /// `--trace-cap`.
    fn traced(&self) -> bool {
        self.trace_out.is_some() || self.trace || self.trace_cap.is_some()
    }

    /// The flight recorder the flags describe, or `None` when no
    /// recorder flag was passed (runs stay byte-identical then).
    fn build_recorder(&self) -> Option<TimeSeriesRecorder> {
        if self.scrape_interval.is_none() && self.timeseries_out.is_none() && self.alerts.is_none()
        {
            return None;
        }
        let interval = SimDuration::from_secs_f64(self.scrape_interval.unwrap_or(30.0));
        let mut rec = TimeSeriesRecorder::new(interval);
        if let Some(spec) = &self.alerts {
            let text = if spec == "default" {
                ninja_sim::alerts::default_rules().to_string()
            } else if let Some(path) = spec.strip_prefix('@') {
                std::fs::read_to_string(path).unwrap_or_else(|e| {
                    eprintln!("--alerts: could not read {path}: {e}");
                    exit(2)
                })
            } else {
                spec.clone()
            };
            let rules = ninja_sim::alerts::parse_rules(&text).unwrap_or_else(|e| {
                eprintln!("--alerts: {e}");
                exit(2)
            });
            rec = rec.with_alerts(AlertEngine::new(rules));
        }
        Some(rec)
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: ninja <migrate|fallback|roundtrip|selfmig|checkpoint|fig8|evacuate|fleet|faults> \
         [--vms N] [--procs P] [--ppv P] [--to eth|ib] [--footprint-gib G] [--seed S] \
         [--jobs J] [--vms-per-job V] [--concurrency C] [--arrival SECS] [--deadline SECS] \
         [--uplink-gbps G] [--scenario evacuation|drain|rebalance|failover] \
         [--fault SPEC]... [--fault-seed S] [--max-retries N] [--backoff SECS] \
         [--json] [--trace] [--trace-out FILE] [--metrics-out FILE] [--trace-cap N] \
         [--scrape-interval SECS] [--timeseries-out FILE] [--alerts default|@FILE|RULES]\n\
         \x20      ninja trace <summarize|critical-path> FILE"
    );
    exit(2)
}

fn parse(mut it: impl Iterator<Item = String>) -> Args {
    let mut args = Args {
        vms: 4,
        procs: 1,
        seed: 2013,
        footprint_gib: 8,
        ppv: 1,
        to: "eth".into(),
        jobs: 8,
        jobs_set: false,
        vms_per_job: 1,
        concurrency: 1,
        arrival: 30,
        deadline: None,
        uplink_gbps: 10.0,
        scenario: "evacuation".into(),
        faults: Vec::new(),
        fault_seed: None,
        max_retries: 2,
        backoff_s: 5.0,
        json: false,
        trace: false,
        trace_out: None,
        metrics_out: None,
        trace_cap: None,
        scrape_interval: None,
        timeseries_out: None,
        alerts: None,
    };
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> u64 {
            it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                eprintln!("{name} needs a numeric value");
                usage()
            })
        };
        match flag.as_str() {
            "--vms" => args.vms = value("--vms") as usize,
            "--procs" => args.procs = value("--procs") as u32,
            "--ppv" => args.ppv = value("--ppv") as u32,
            "--seed" => args.seed = value("--seed"),
            "--footprint-gib" => args.footprint_gib = value("--footprint-gib"),
            "--jobs" => {
                args.jobs = value("--jobs") as usize;
                args.jobs_set = true;
            }
            "--vms-per-job" => args.vms_per_job = value("--vms-per-job") as usize,
            "--concurrency" => args.concurrency = value("--concurrency") as usize,
            "--arrival" => args.arrival = value("--arrival"),
            "--deadline" => args.deadline = Some(value("--deadline")),
            "--fault-seed" => args.fault_seed = Some(value("--fault-seed")),
            "--max-retries" => args.max_retries = value("--max-retries") as u32,
            "--trace-cap" => args.trace_cap = Some(value("--trace-cap") as usize),
            "--fault" => {
                args.faults.push(it.next().unwrap_or_else(|| usage()));
            }
            "--backoff" => {
                args.backoff_s = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|s: &f64| *s >= 0.0)
                    .unwrap_or_else(|| {
                        eprintln!("--backoff needs a non-negative number of seconds");
                        usage()
                    });
            }
            "--json" => args.json = true,
            "--trace" => args.trace = true,
            "--uplink-gbps" => {
                args.uplink_gbps = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|g: &f64| *g > 0.0)
                    .unwrap_or_else(|| {
                        eprintln!("--uplink-gbps needs a positive numeric value");
                        usage()
                    });
            }
            "--scenario" => {
                args.scenario = it.next().unwrap_or_else(|| usage());
                if ScenarioKind::parse(&args.scenario).is_none() {
                    eprintln!("--scenario must be evacuation, drain, or rebalance");
                    usage()
                }
            }
            "--to" => {
                args.to = it.next().unwrap_or_else(|| usage());
                if args.to != "eth" && args.to != "ib" {
                    eprintln!("--to must be eth or ib");
                    usage()
                }
            }
            "--trace-out" | "--chrome-trace" => {
                args.trace_out = Some(it.next().unwrap_or_else(|| usage()));
            }
            "--metrics-out" => {
                args.metrics_out = Some(it.next().unwrap_or_else(|| usage()));
            }
            "--scrape-interval" => {
                args.scrape_interval = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .filter(|s: &f64| *s > 0.0)
                        .unwrap_or_else(|| {
                            eprintln!("--scrape-interval needs a positive number of seconds");
                            usage()
                        }),
                );
            }
            "--timeseries-out" => {
                args.timeseries_out = Some(it.next().unwrap_or_else(|| usage()));
            }
            "--alerts" => {
                args.alerts = Some(it.next().unwrap_or_else(|| usage()));
            }
            _ => usage(),
        }
    }
    if args.vms == 0 || args.vms > 8 || args.procs == 0 || args.procs > 8 {
        eprintln!("--vms must be 1..=8 and --procs 1..=8 (AGC testbed limits)");
        exit(2);
    }
    if args.jobs == 0 || args.vms_per_job == 0 || args.concurrency == 0 || args.ppv == 0 {
        eprintln!("--jobs, --vms-per-job, --concurrency and --ppv must all be at least 1");
        exit(2);
    }
    args
}

/// Streams a report to stdout through one locked, buffered handle. A
/// closed pipe (`ninja ... | head`) ends the run quietly; any other
/// write error is reported and exits 1.
fn print_report(export: impl FnOnce(&mut IoSink<BufWriter<StdoutLock<'static>>>) -> fmt::Result) {
    if let Err(e) = stream_to(BufWriter::new(io::stdout().lock()), export) {
        if e.kind() == io::ErrorKind::BrokenPipe {
            exit(0);
        }
        eprintln!("could not write report: {e}");
        exit(1);
    }
}

/// Prints `report` pretty-printed as JSON, or as text, then a newline.
fn print_json_or_text(json: bool, report: &(impl WriteJson + fmt::Display)) {
    print_report(|out| {
        if json {
            report.write_json(&mut JsonWriter::pretty(out))?;
            out.write_char('\n')
        } else {
            writeln!(out, "{report}")
        }
    });
}

fn emit(report: &NinjaReport, args: &Args, world: &World) {
    print_json_or_text(args.json, report);
    if args.trace {
        eprintln!("\n--- trace ---\n{}", world.trace.render());
    }
}

/// `ninja fleet` / `ninja faults`: builds the `kind` scenario with `jobs`
/// jobs under the fault plan `faults`, runs it on the fleet engine with
/// the flags' admission and retry settings, and prints the SLO report.
/// Returns the world for the telemetry outputs; `what` names the run in
/// the error message.
fn fleet_cmd(args: &Args, kind: ScenarioKind, jobs: usize, faults: FaultPlan, what: &str) -> World {
    let spec = ScenarioSpec {
        kind,
        jobs,
        vms_per_job: args.vms_per_job,
        arrival: SimDuration::from_secs(args.arrival),
        seed: args.seed,
    };
    // Fleets beyond the 8-node paper testbed run on a synthetic cluster
    // sized to fit. An untraced run records nothing from the first boot
    // on; a traced one gets its ring cap after the build, so the boot's
    // records are evicted like the run's.
    let trace = if args.traced() {
        Trace::new()
    } else {
        Trace::disabled()
    };
    let mut s = build_auto(&spec, trace).unwrap_or_else(|e| {
        eprintln!("{e}");
        exit(2)
    });
    args.setup_trace(&mut s.world.trace);
    s.world.faults = faults;
    if let Some(rec) = args.build_recorder() {
        s.world.install_recorder(rec);
    }
    let cfg = FleetConfig {
        concurrency: args.concurrency,
        deadline: args.deadline.map(SimDuration::from_secs),
        uplink: Bandwidth::from_gbps(args.uplink_gbps),
        retry: args.retry_policy(),
        ..FleetConfig::default()
    };
    let report = {
        let mut jobs: Vec<&mut dyn GuestCooperative> = s
            .jobs
            .iter_mut()
            .map(|j| j as &mut dyn GuestCooperative)
            .collect();
        run_fleet(&mut s.world, &mut jobs, s.scheduler, &cfg).unwrap_or_else(|e| {
            eprintln!("{what} failed: {e}");
            exit(1)
        })
    };
    for job in &s.jobs {
        s.world.record_wire_metrics(job);
    }
    print_json_or_text(args.json, &report);
    // `main` exits without teardown once the outputs are written;
    // freeing the jobs and the report here would only cost time.
    mem::forget((report, s.jobs));
    s.world
}

/// Streams one exporter straight into `path` through a buffered writer,
/// overwriting an existing file in place.
fn write_file(
    what: &str,
    path: &str,
    export: impl FnOnce(&mut IoSink<BufWriter<&File>>) -> std::fmt::Result,
) {
    match overwrite_file(path, export) {
        Ok(()) => eprintln!("(wrote {what} to {path})"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

/// `ninja trace <summarize|critical-path> FILE` — read a Chrome trace
/// file back and print either per-(component, span) duration statistics
/// or the per-migration blackout attribution. An empty or span-free
/// file prints the table header and exits 0.
fn trace_cmd(mut argv: impl Iterator<Item = String>) {
    let sub = argv.next().unwrap_or_else(|| usage());
    if sub != "summarize" && sub != "critical-path" {
        usage()
    }
    let path = argv.next().unwrap_or_else(|| usage());
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        eprintln!("could not read {path}: {e}");
        exit(1)
    });
    // An empty file is an empty trace, not an error: runs that record
    // nothing still compose with shell pipelines.
    let json = if text.trim().is_empty() {
        Json::obj::<&str>(vec![])
    } else {
        ninja_sim::parse(&text).unwrap_or_else(|e| {
            eprintln!("{path}: not valid JSON: {e}");
            exit(1)
        })
    };
    print_report(|out| match sub.as_str() {
        "summarize" => summarize_trace(&json, out),
        _ => critical_path_cmd(&json, out),
    });
}

/// Per-(component, span) duration statistics over a trace document's
/// complete ("X") events, read by the same rule as `critical-path`
/// ([`ninja_sim::spans_from_chrome`]): an event without a name, or
/// whose `ts` or `dur` is not a whole, in-range number of microseconds,
/// is skipped. Durations add up in integer nanoseconds. Rows sort by
/// (component, span), lexicographically — the pinned, deterministic
/// order.
fn summarize_trace(json: &Json, out: &mut impl Write) -> fmt::Result {
    let spans = ninja_sim::spans_from_chrome(json);
    // (component, span) -> (count, total, min, max).
    let mut groups: BTreeMap<(&str, &str), (u64, SimDuration, SimDuration, SimDuration)> =
        BTreeMap::new();
    for span in spans.all_spans() {
        let d = span.duration();
        let g = groups.entry((span.component(), span.name())).or_insert((
            0,
            SimDuration::ZERO,
            SimDuration::MAX,
            SimDuration::ZERO,
        ));
        g.0 += 1;
        g.1 += d;
        g.2 = g.2.min(d);
        g.3 = g.3.max(d);
    }
    let instants = json["traceEvents"]
        .as_array()
        .unwrap_or(&[])
        .iter()
        .filter(|ev| ev["ph"].as_str() != Some("X"))
        .count();
    writeln!(
        out,
        "{:<10} {:<24} {:>6} {:>10} {:>10} {:>10} {:>10}",
        "component", "span", "count", "total_s", "min_s", "mean_s", "max_s"
    )?;
    for ((cat, name), (count, total, min, max)) in &groups {
        writeln!(
            out,
            "{:<10} {:<24} {:>6} {:>10.3} {:>10.3} {:>10.3} {:>10.3}",
            cat,
            name,
            count,
            total.as_secs_f64(),
            min.as_secs_f64(),
            total.as_secs_f64() / *count as f64,
            max.as_secs_f64()
        )?;
    }
    if instants > 0 {
        writeln!(out, "({instants} instant events not summarized)")?;
    }
    Ok(())
}

/// Per-migration blackout attribution: one row per `("ninja","ninja")`
/// envelope span, then a fleet-wide per-phase p50/p99 breakdown.
fn critical_path_cmd(json: &Json, out: &mut impl Write) -> fmt::Result {
    let spans = ninja_sim::spans_from_chrome(json);
    let paths = ninja_sim::critical_paths(&spans, &PHASE_NAMES);
    writeln!(
        out,
        "{:>4} {:>4} {:>10} {:>11} {:>9} {:<13} {:<14} {:>9}",
        "job", "mig", "start_s", "blackout_s", "cover%", "dominant", "critical_vm", "crit_s"
    )?;
    for p in &paths {
        let crit = p
            .phases
            .iter()
            .find(|ph| ph.phase == p.dominant)
            .and_then(|ph| {
                ph.critical_vm
                    .as_deref()
                    .map(|vm| (vm, ph.critical_vm_duration))
            });
        writeln!(
            out,
            "{:>4} {:>4} {:>10.1} {:>11.3} {:>9.2} {:<13} {:<14} {:>9.3}",
            p.job.map_or("-".into(), |j| j.to_string()),
            p.mig.map_or("-".into(), |m| m.to_string()),
            p.start.as_secs_f64(),
            p.blackout.as_secs_f64(),
            100.0 * p.coverage(),
            p.dominant,
            crit.map_or("-", |(vm, _)| vm),
            crit.map_or(0.0, |(_, d)| d.as_secs_f64()),
        )?;
    }
    if paths.is_empty() {
        return Ok(());
    }
    let total_blackout: SimDuration = paths.iter().map(|p| p.blackout).sum();
    writeln!(
        out,
        "\n{} migration(s), {:.3}s total blackout — per-phase breakdown:",
        paths.len(),
        total_blackout.as_secs_f64()
    )?;
    writeln!(
        out,
        "{:<13} {:>10} {:>10} {:>8}",
        "phase", "p50_s", "p99_s", "share%"
    )?;
    for name in PHASE_NAMES {
        let samples: Vec<SimDuration> = paths
            .iter()
            .flat_map(|p| p.phases.iter())
            .filter(|ph| ph.phase == name)
            .map(|ph| ph.duration)
            .collect();
        let sum: SimDuration = samples.iter().copied().sum();
        let share = if total_blackout.is_zero() {
            0.0
        } else {
            100.0 * sum.as_secs_f64() / total_blackout.as_secs_f64()
        };
        writeln!(
            out,
            "{:<13} {:>10.3} {:>10.3} {:>8.2}",
            name,
            percentile(&samples, 50.0).as_secs_f64(),
            percentile(&samples, 99.0).as_secs_f64(),
            share
        )?;
    }
    Ok(())
}

fn main() {
    let mut argv = std::env::args().skip(1);
    let cmd = argv.next().unwrap_or_else(|| usage());
    if cmd == "trace" {
        trace_cmd(argv);
        return;
    }
    let args = parse(argv);
    let mut world = World::agc(args.seed);
    args.setup_trace(&mut world.trace);
    // Single-job commands run as fleet job 0, migration 0 — that is
    // what untargeted `--fault` specs hit. The empty plan (no fault
    // flags) fires nothing and leaves every run bit-identical.
    world.faults = args.fault_plan(1);
    if let Some(rec) = args.build_recorder() {
        world.install_recorder(rec);
    }
    let orch = NinjaOrchestrator::default().with_retry(args.retry_policy());
    match cmd.as_str() {
        // `migrate` is the telemetry-first entry point: one Ninja
        // migration with the destination fabric chosen by `--to`.
        // `fallback` is the historical alias for `migrate --to eth`.
        "migrate" | "fallback" => {
            let vms = world.boot_ib_vms(args.vms);
            let mut rt = world.start_job(vms, args.procs);
            let dsts: Vec<_> = (0..args.vms)
                .map(|i| {
                    if cmd == "fallback" || args.to == "eth" {
                        world.eth_node(i)
                    } else {
                        world.ib_node(i)
                    }
                })
                .collect();
            let report = orch
                .migrate(&mut world, &mut rt, &dsts)
                .unwrap_or_else(|e| {
                    eprintln!("migration failed: {e}");
                    exit(1)
                });
            world.record_wire_metrics(&rt);
            emit(&report, &args, &world);
        }
        "roundtrip" => {
            let vms = world.boot_ib_vms(args.vms);
            let mut rt = world.start_job(vms, args.procs);
            let eth: Vec<_> = (0..args.vms).map(|i| world.eth_node(i)).collect();
            let ib: Vec<_> = (0..args.vms).map(|i| world.ib_node(i)).collect();
            let fallback = orch.migrate(&mut world, &mut rt, &eth).expect("fallback");
            let recovery = orch.migrate(&mut world, &mut rt, &ib).expect("recovery");
            world.record_wire_metrics(&rt);
            print_report(|out| {
                if args.json {
                    let mut w = JsonWriter::compact(out);
                    w.begin_object()?;
                    w.field("fallback", &fallback)?;
                    w.field("recovery", &recovery)?;
                    w.end_object()?;
                    out.write_char('\n')
                } else {
                    writeln!(
                        out,
                        "--- fallback ---\n{fallback}\n--- recovery ---\n{recovery}"
                    )
                }
            });
            if args.trace {
                eprintln!("\n--- trace ---\n{}", world.trace.render());
            }
        }
        "selfmig" => {
            let vms = world.boot_ib_vms(args.vms);
            let mut rt = world.start_job(vms, args.procs);
            let same: Vec<_> = (0..args.vms).map(|i| world.ib_node(i)).collect();
            let report = orch
                .migrate(&mut world, &mut rt, &same)
                .expect("self-migration");
            world.record_wire_metrics(&rt);
            emit(&report, &args, &world);
        }
        "checkpoint" => {
            let vms = world.boot_ib_vms(args.vms);
            let mut rt = world.start_job(vms.clone(), args.procs);
            let profile = MemoryProfile {
                touched: Bytes::from_gib(args.footprint_gib),
                uniform_frac: 0.3,
                dirty_bytes_per_sec: 1e9,
            };
            install_memory_profile(&mut world, &rt, profile);
            let mut store = SnapshotStore::new();
            let (handle, ck) = orch
                .checkpoint(&mut world, &mut rt, &mut store)
                .expect("checkpoint");
            for &vm in &vms {
                world.pool.destroy(vm, &mut world.dc);
            }
            let dsts: Vec<_> = (0..args.vms).map(|i| world.eth_node(i)).collect();
            let rs = orch
                .restart(&mut world, &mut rt, &handle, &store, &dsts)
                .expect("restart");
            world.record_wire_metrics(&rt);
            print_report(|out| {
                if args.json {
                    let mut w = JsonWriter::compact(out);
                    w.begin_object()?;
                    w.field("checkpoint", &ck)?;
                    w.field("restart", &rs)?;
                    w.end_object()?;
                    out.write_char('\n')
                } else {
                    let s = SimDuration::as_secs_f64;
                    writeln!(
                        out,
                        "checkpoint: coordination {:.2}s detach {:.2}s save {:.2}s attach {:.2}s linkup {:.2}s (total {:.2}s)",
                        s(ck.coordination), s(ck.detach), s(ck.save), s(ck.attach), s(ck.linkup), s(ck.total())
                    )?;
                    writeln!(
                        out,
                        "restart:    restore {:.2}s attach {:.2}s linkup {:.2}s -> {} (total {:.2}s)",
                        s(rs.restore),
                        s(rs.attach),
                        s(rs.linkup),
                        rs.transport_after.as_deref().unwrap_or("?"),
                        s(rs.total())
                    )
                }
            });
        }
        "evacuate" => {
            // Two jobs share the failing IB cluster; the drill moves
            // everything to the Ethernet site, capacity-aware. Runs on
            // the fleet engine — `--concurrency 1` (the default) is the
            // classic serial drill, higher caps overlap the jobs.
            let (mut job_a, mut job_b) = boot_drill_jobs(&mut world, args.vms, args.procs);
            let from = world.ib_cluster;
            let to = world.eth_cluster;
            let plans = plan_evacuation(&world, &[&job_a, &job_b], from, to).unwrap_or_else(|e| {
                eprintln!("evacuation failed: {e}");
                exit(1)
            });
            let mut sched = CloudScheduler::new();
            for (j, dsts) in plans.iter().enumerate() {
                if !dsts.is_empty() {
                    sched.push_job(world.clock(), dsts.clone(), TriggerReason::Fallback, j);
                }
            }
            let cfg = FleetConfig {
                concurrency: args.concurrency,
                ..FleetConfig::default()
            };
            let fleet = {
                let mut jobs: Vec<&mut dyn GuestCooperative> = vec![&mut job_a, &mut job_b];
                run_fleet(&mut world, &mut jobs, sched, &cfg).unwrap_or_else(|e| {
                    eprintln!("evacuation failed: {e}");
                    exit(1)
                })
            };
            world.record_wire_metrics(&job_a);
            world.record_wire_metrics(&job_b);
            print_json_or_text(args.json, &DrillView(&fleet));
        }
        "fleet" => {
            let kind = ScenarioKind::parse(&args.scenario).unwrap_or_else(|| usage());
            world = fleet_cmd(
                &args,
                kind,
                args.jobs,
                args.fault_plan(args.jobs),
                "fleet run",
            );
        }
        "faults" => {
            // The chaos drill: failover burst onto spare IB nodes under
            // an injected fault plan. Defaults to 2 jobs so the spare
            // half of the 8-node cluster can absorb them.
            let jobs = if args.jobs_set { args.jobs } else { 2 };
            // Explicit --fault specs win; otherwise draw a random plan
            // from --fault-seed (default: the world seed).
            let plan = if args.faults.is_empty() && args.fault_seed.is_none() {
                FaultPlan::random(args.seed, jobs)
            } else {
                args.fault_plan(jobs)
            };
            eprintln!("fault plan: {:?}", plan.specs());
            world = fleet_cmd(&args, ScenarioKind::Failover, jobs, plan, "faults drill");
        }
        "fig8" => {
            // Convenience alias for the bench binary's scenario at one
            // setting, without claims/JSON output.
            let vms = world.boot_ib_vms(4);
            let mut rt = world.start_job(vms, args.ppv);
            let eth2: Vec<_> = (0..2).map(|i| world.eth_node(i)).collect();
            let ib4: Vec<_> = (0..4).map(|i| world.ib_node(i)).collect();
            let eth4: Vec<_> = (0..4).map(|i| world.eth_node(i)).collect();
            for (label, dsts) in [
                ("fallback to 2 hosts (TCP)", eth2),
                ("recovery to 4 hosts (IB)", ib4),
                ("fallback to 4 hosts (TCP)", eth4),
            ] {
                let report = orch.migrate(&mut world, &mut rt, &dsts).expect("phase");
                print_report(|out| writeln!(out, "== {label} ==\n{report}\n"));
            }
            world.record_wire_metrics(&rt);
        }
        _ => usage(),
    }
    // Idempotent: the fleet engines have already drained their
    // recorder; this covers the single-job commands.
    world.finish_recorder();
    if let Some(path) = &args.trace_out {
        write_file("Chrome trace", path, |w| world.trace.write_chrome_json(w));
    }
    if let Some(path) = &args.metrics_out {
        // Prometheus text exposition by default; a `.json` suffix
        // selects the JSON document form instead.
        if path.ends_with(".json") {
            write_file("metrics JSON", path, |w| world.metrics.write_json(w));
        } else {
            write_file("Prometheus metrics", path, |w| {
                world.metrics.write_prometheus(w)
            });
        }
    }
    if let Some(path) = &args.timeseries_out {
        if let Some(rec) = &world.recorder {
            // Timestamped Prometheus text by default; the extension
            // selects the JSONL or CSV form.
            write_file("time series", path, |w| {
                if path.ends_with(".jsonl") {
                    rec.write_jsonl(w)
                } else if path.ends_with(".csv") {
                    rec.write_csv(w)
                } else {
                    rec.write_prometheus(w)
                }
            });
        }
    }
    // Every output is flushed: end the process without dropping the
    // world (its trace, registry and data center are freed by the OS).
    exit(0)
}
