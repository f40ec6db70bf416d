//! `ninja` — command-line driver for the Ninja migration simulator.
//!
//! ```text
//! ninja <migrate|fallback|roundtrip|selfmig|checkpoint|fig8|evacuate|fleet|faults> [FLAG]...
//! ninja trace <summarize|critical-path> FILE
//! ```
//!
//! `migrate` moves a `--vms`-VM job to the `--to` fabric (`fallback`:
//! to Ethernet); `roundtrip` falls back and recovers; `selfmig` stays on
//! its IB nodes; `checkpoint` checkpoints and restarts; `fig8` runs the
//! Fig. 8 sequence. `fleet` runs a `--scenario` through the fleet engine
//! (jobs admitted under `--concurrency`, their precopy streams sharing
//! a switch uplink max-min fairly) and prints its SLO report;
//! `evacuate` runs the two-job evacuation drill on the same engine, and
//! `faults` a failover burst under a fault plan (`--fault`, else drawn
//! from `--fault-seed`, else from `--seed`). `trace` reads a Chrome
//! trace back: per-span latencies, or each migration's blackout split
//! over the Fig. 4 phases.
//!
//! Every run command takes every flag but one pair (`checkpoint` runs no
//! migration, so it refuses `--fault` and `--fault-seed`); each flag is
//! declared once, in `FLAGS`, with its value's type and range:
//!
//! | flag | value |
//! |---|---|
//! | `--vms`, `--procs`, `--ppv` | count, 1..=8 (AGC testbed: 8 nodes, 8 cores each) |
//! | `--jobs` (8; `faults`: 2), `--vms-per-job`, `--concurrency` | count, at least 1 |
//! | `--max-retries` (2), `--trace-cap` | count |
//! | `--seed` (2013), `--fault-seed` | 64-bit seed |
//! | `--footprint-gib` (8) | GiB whose bytes fit 64 bits |
//! | `--arrival` (30), `--deadline`, `--backoff` (5) | seconds, whole or fractional, that fit the nanosecond clock |
//! | `--scrape-interval` | seconds as above, at least 1 |
//! | `--uplink-gbps` (10) | 1e-9 to 1.8e10 Gb/s (whole bit/s) |
//! | `--to` | `eth` (default) or `ib` |
//! | `--scenario` | `evacuation` (default), `drain`, `rebalance` or `failover` |
//! | `--fault` | `KIND[:phase=P][:job=J][:mig=M][:times=N][:stall=SECS]`, repeatable |
//! | `--alerts` | `default`, `@FILE` (read while the flags are checked) or inline rules |
//! | `--trace-out` (alias `--chrome-trace`), `--metrics-out`, `--timeseries-out` | output path |
//! | `--json`, `--trace` | switch |
//!
//! `fleet` and `faults` also check that the fleet can be built (its VM
//! count, the IB fabric's 65 534 LIDs). Fault kinds are `qmp-timeout`,
//! `precopy-stall`, `precopy-abort`, `hotplug-attach` and
//! `agent-disconnect`; faults retry with bounded exponential backoff in
//! virtual time. To a fault plan, every migration of a single-job
//! command is job 0, migration 0.
//!
//! Telemetry: `--trace-out` writes the run's spans as Chrome trace-event
//! JSON; `--metrics-out` the metric registry as Prometheus text (JSON
//! for a `.json` path); `--trace-cap` bounds the trace's ring buffer
//! (evictions count in `ninja_trace_dropped_records`); `--trace` prints
//! the trace to stderr. The trace is recorded only under one of those
//! three, so every other output is the same either way. Any of
//! `--scrape-interval` (default 30), `--timeseries-out` (timestamped
//! Prometheus text, or JSONL / CSV by extension) and `--alerts`
//! installs a virtual-time flight recorder; the alert grammar is in
//! `docs/observability.md`.
//!
//! Exit codes: 0 the run succeeded; 1 it failed (a migration failed,
//! the fleet engine stopped, the report could not be written, a trace
//! file could not be read); 2 usage error. All input is checked before
//! the run starts, and a usage error prints what is wrong above the
//! usage line. Every run is deterministic in `--seed`.

use ninja_fleet::{
    build_auto, percentile, run_fleet, DrillView, FleetConfig, FleetReport, ScenarioKind,
    ScenarioSpec,
};
use ninja_migration::{
    boot_drill_jobs, plan_evacuation, CloudScheduler, NinjaOrchestrator, TriggerReason, World,
    PHASE_NAMES,
};
use ninja_mpi::MpiRuntime;
use ninja_sim::alerts::{default_rules, parse_rules};
use ninja_sim::export::{overwrite_file, stream_to, IoSink};
use ninja_sim::{
    AlertEngine, AlertRule, Bandwidth, Bytes, JsonWriter, SimDuration, TimeSeriesRecorder, Trace,
    WriteJson,
};
use ninja_symvirt::{FaultPlan, FaultSpec, GuestCooperative, RetryPolicy};
use ninja_workloads::{install_memory_profile, MemoryProfile};
use std::collections::BTreeMap;
use std::fmt::{self, Display, Write};
use std::fs::File;
use std::io::{self, BufWriter, StdoutLock};
use std::mem;
use std::process::exit;
use std::str::FromStr;

/// What to run: a command word, or a `trace` reader and its file.
#[derive(Clone, PartialEq, Eq)]
enum Cmd {
    Migrate,
    Fallback,
    Roundtrip,
    Selfmig,
    Checkpoint,
    Fig8,
    Evacuate,
    Fleet,
    Faults,
    Summarize(String),
    CriticalPath(String),
}

#[rustfmt::skip]
const COMMANDS: [(&str, Cmd); 9] = [
    ("migrate", Cmd::Migrate), ("fallback", Cmd::Fallback), ("roundtrip", Cmd::Roundtrip),
    ("selfmig", Cmd::Selfmig), ("checkpoint", Cmd::Checkpoint), ("fig8", Cmd::Fig8),
    ("evacuate", Cmd::Evacuate), ("fleet", Cmd::Fleet), ("faults", Cmd::Faults),
];

/// The fabric `migrate --to` lands the job on.
#[derive(Clone, Copy, PartialEq, Eq)]
enum To {
    Eth,
    Ib,
}

/// The checked command line. No field is re-read as a string after
/// `parse`, except the output paths.
struct Args {
    cmd: Cmd,
    vms: usize,
    procs: u32,
    seed: u64,
    footprint: Bytes,
    ppv: u32,
    to: To,
    /// `None` is the command's default: 8 jobs, or 2 for `faults`.
    jobs: Option<usize>,
    vms_per_job: usize,
    concurrency: usize,
    arrival: SimDuration,
    deadline: Option<SimDuration>,
    uplink: Bandwidth,
    scenario: ScenarioKind,
    faults: Vec<FaultSpec>,
    fault_seed: Option<u64>,
    retry: RetryPolicy,
    json: bool,
    trace: bool,
    trace_out: Option<String>,
    metrics_out: Option<String>,
    trace_cap: Option<usize>,
    /// `None` leaves the flight recorder uninstalled unless another
    /// recorder flag asks for it (then 30 s is the default).
    scrape_interval: Option<SimDuration>,
    timeseries_out: Option<String>,
    alerts: Option<Vec<AlertRule>>,
}

/// Why the command line was refused: the word at fault (a command,
/// a flag, or `ninja` itself) and what is wrong with it. `main` prints
/// it above the usage line and exits 2.
#[derive(Debug)]
struct ArgError {
    word: String,
    problem: String,
}

impl ArgError {
    fn new(word: impl Into<String>, problem: impl Into<String>) -> Self {
        let (word, problem) = (word.into(), problem.into());
        ArgError { word, problem }
    }
}

impl Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.word, self.problem)
    }
}

/// How a flag takes its value: a switch takes none; the rest parse and
/// range-check theirs into `Args`, or say what is wrong with it.
enum Flag {
    Switch(fn(&mut Args)),
    Value(&'static str, fn(&mut Args, &str) -> Result<(), String>),
}
use Flag::{Switch, Value};

/// Every flag, once: its name, its value's placeholder in the usage
/// line, and its parser, which gives the value's type and range.
#[rustfmt::skip]
const FLAGS: [(&str, Flag); 26] = [
    ("--vms", Value("N", |a, v| testbed(v).map(|n| a.vms = n.into()))),
    ("--procs", Value("P", |a, v| testbed(v).map(|n| a.procs = n.into()))),
    ("--ppv", Value("P", |a, v| testbed(v).map(|n| a.ppv = n.into()))),
    ("--to", Value("eth|ib", |a, v| to(v).map(|t| a.to = t))),
    ("--footprint-gib", Value("G", |a, v| gib(v).map(|b| a.footprint = b))),
    ("--seed", Value("S", |a, v| number(v).map(|s| a.seed = s))),
    ("--jobs", Value("J", |a, v| nonzero(v).map(|n| a.jobs = Some(n)))),
    ("--vms-per-job", Value("V", |a, v| nonzero(v).map(|n| a.vms_per_job = n))),
    ("--concurrency", Value("C", |a, v| nonzero(v).map(|n| a.concurrency = n))),
    ("--arrival", Value("SECS", |a, v| seconds(v).map(|d| a.arrival = d))),
    ("--deadline", Value("SECS", |a, v| seconds(v).map(|d| a.deadline = Some(d)))),
    ("--uplink-gbps", Value("G", |a, v| gbps(v).map(|b| a.uplink = b))),
    ("--scenario", Value(SCENARIOS, |a, v| scenario(v).map(|k| a.scenario = k))),
    ("--fault", Value("SPEC", |a, v| FaultSpec::parse(v).map(|f| a.faults.push(f)))),
    ("--fault-seed", Value("S", |a, v| number(v).map(|s| a.fault_seed = Some(s)))),
    ("--max-retries", Value("N", |a, v| number(v).map(|n| a.retry.max_retries = n))),
    ("--backoff", Value("SECS", |a, v| seconds(v).map(|d| a.retry.backoff = d))),
    ("--json", Switch(|a| a.json = true)),
    ("--trace", Switch(|a| a.trace = true)),
    ("--trace-out", Value("FILE", |a, v| path(v).map(|p| a.trace_out = p))),
    ("--metrics-out", Value("FILE", |a, v| path(v).map(|p| a.metrics_out = p))),
    ("--trace-cap", Value("N", |a, v| number(v).map(|n| a.trace_cap = Some(n)))),
    ("--scrape-interval", Value("SECS", |a, v| scrape(v).map(|d| a.scrape_interval = Some(d)))),
    ("--timeseries-out", Value("FILE", |a, v| path(v).map(|p| a.timeseries_out = p))),
    ("--alerts", Value("default|@FILE|RULES", |a, v| alert_rules(v).map(|r| a.alerts = Some(r)))),
    // An alias: `--trace-out` under its older name.
    ("--chrome-trace", Value("FILE", |a, v| path(v).map(|p| a.trace_out = p))),
];

const SCENARIOS: &str = "evacuation|drain|rebalance|failover";

/// A number at the field's own width.
fn number<T: FromStr<Err: Display>>(v: &str) -> Result<T, String> {
    v.parse().map_err(|e| format!("{v}: {e}"))
}

/// A count of at least 1.
fn nonzero(v: &str) -> Result<usize, String> {
    match number(v)? {
        0 => Err(format!("{v}: must be at least 1")),
        n => Ok(n),
    }
}

/// A count the AGC testbed holds: 1..=8 (8 nodes a side, 8 cores a
/// node).
fn testbed(v: &str) -> Result<u8, String> {
    match number(v)? {
        n @ 1..=8 => Ok(n),
        _ => Err(format!("{v}: must be 1..=8 (AGC testbed limit)")),
    }
}

/// GiB whose byte count fits 64 bits.
fn gib(v: &str) -> Result<Bytes, String> {
    let gib: u64 = number(v)?;
    gib.checked_mul(1 << 30)
        .map(Bytes::new)
        .ok_or_else(|| format!("{v}: more bytes than 64 bits count"))
}

/// Whole or fractional seconds that fit the nanosecond clock: a whole
/// number converts exactly, a fraction rounds down to the tick.
fn seconds(v: &str) -> Result<SimDuration, String> {
    let fits = match v.parse::<u64>() {
        Ok(secs) => secs.checked_mul(1_000_000_000).map(SimDuration::from_nanos),
        Err(_) => SimDuration::checked_from_secs_f64(number(v)?),
    };
    fits.ok_or_else(|| format!("{v}: needs finite, non-negative seconds the clock holds"))
}

/// Seconds, at least 1: a scrape every nanosecond of a ~20 s run would
/// not finish.
fn scrape(v: &str) -> Result<SimDuration, String> {
    match seconds(v) {
        Ok(d) if d >= SimDuration::from_secs(1) => Ok(d),
        _ => Err(format!("{v}: needs at least 1 second")),
    }
}

/// Gb/s that round to a whole bit/s rate of at least 1 and below 2^64.
fn gbps(v: &str) -> Result<Bandwidth, String> {
    match number(v)? {
        g if (0.5..u64::MAX as f64).contains(&(g * 1e9)) => Ok(Bandwidth::from_gbps(g)),
        _ => Err(format!(
            "{v}: needs 1e-9 to 1.8e10 Gb/s (1 bit/s up to 2^64 bit/s)"
        )),
    }
}

/// `eth` or `ib`.
fn to(v: &str) -> Result<To, String> {
    match v {
        "eth" => Ok(To::Eth),
        "ib" => Ok(To::Ib),
        _ => Err(format!("{v}: must be eth or ib")),
    }
}

/// A fleet scenario.
fn scenario(v: &str) -> Result<ScenarioKind, String> {
    ScenarioKind::parse(v)
        .ok_or_else(|| format!("{v}: must be evacuation, drain, rebalance or failover"))
}

/// An output path.
fn path(v: &str) -> Result<Option<String>, String> {
    Ok(Some(v.to_string()))
}

/// `default`, `@FILE` (read now) or inline rule text.
fn alert_rules(v: &str) -> Result<Vec<AlertRule>, String> {
    let text = match v.strip_prefix('@') {
        _ if v == "default" => default_rules().to_string(),
        Some(path) => {
            std::fs::read_to_string(path).map_err(|e| format!("could not read {path}: {e}"))?
        }
        None => v.to_string(),
    };
    parse_rules(&text).map_err(|e| e.to_string())
}

/// The usage line, from the command list and the flag table.
fn usage() -> String {
    let cmds: Vec<&str> = COMMANDS.iter().map(|(name, _)| *name).collect();
    let mut line = format!("usage: ninja <{}>", cmds.join("|"));
    for (name, flag) in &FLAGS {
        line += &match flag {
            Switch(_) => format!(" [{name}]"),
            Value(hint, _) => format!(" [{name} {hint}]"),
        };
    }
    line + "\n       ninja trace <summarize|critical-path> FILE"
}

/// Checks the whole command line: the command, every flag and, for the
/// fleet commands, that the fleet can be built.
fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, ArgError> {
    let word = argv
        .next()
        .ok_or(ArgError::new("ninja", "needs a command"))?;
    let cmd = match COMMANDS.iter().find(|(name, _)| *name == word) {
        Some((_, cmd)) => cmd.clone(),
        None if word == "trace" => match (argv.next().as_deref(), argv.next()) {
            (Some("summarize"), Some(file)) => Cmd::Summarize(file),
            (Some("critical-path"), Some(file)) => Cmd::CriticalPath(file),
            _ => return Err(ArgError::new(word, "needs summarize|critical-path FILE")),
        },
        None => return Err(ArgError::new(word, "is not a command")),
    };
    let mut args = Args {
        cmd,
        vms: 4,
        procs: 1,
        seed: 2013,
        footprint: Bytes::from_gib(8),
        ppv: 1,
        to: To::Eth,
        jobs: None,
        vms_per_job: 1,
        concurrency: 1,
        arrival: SimDuration::from_secs(30),
        deadline: None,
        uplink: Bandwidth::from_gbps(10.0),
        scenario: ScenarioKind::Evacuation,
        faults: Vec::new(),
        fault_seed: None,
        retry: RetryPolicy::default(),
        json: false,
        trace: false,
        trace_out: None,
        metrics_out: None,
        trace_cap: None,
        scrape_interval: None,
        timeseries_out: None,
        alerts: None,
    };
    while let Some(word) = argv.next() {
        let flag = FLAGS.iter().find(|(name, _)| *name == word);
        match (flag, &args.cmd) {
            (None, _) | (_, Cmd::Summarize(_) | Cmd::CriticalPath(_)) => {
                return Err(ArgError::new(word, "is not a flag"))
            }
            (Some((_, Switch(set))), _) => set(&mut args),
            (Some((_, Value(_, set))), _) => {
                let v = argv.next().ok_or(ArgError::new(&word, "needs a value"))?;
                set(&mut args, &v).map_err(|problem| ArgError::new(word, problem))?;
            }
        }
    }
    // A checkpoint runs no migration for a fault plan to strike.
    if args.cmd == Cmd::Checkpoint {
        if !args.faults.is_empty() {
            return Err(ArgError::new("--fault", "does not apply to checkpoint"));
        }
        if args.fault_seed.is_some() {
            return Err(ArgError::new(
                "--fault-seed",
                "does not apply to checkpoint",
            ));
        }
    }
    if let Some(spec) = args.scenario_spec() {
        spec.auto_nodes()
            .map_err(|e| ArgError::new("fleet", format!("cannot be built: {e}")))?;
    }
    Ok(args)
}

impl Args {
    /// The fleet `fleet` or `faults` runs; `None` for other commands.
    fn scenario_spec(&self) -> Option<ScenarioSpec> {
        let (kind, jobs) = match self.cmd {
            Cmd::Fleet => (self.scenario, self.jobs.unwrap_or(8)),
            // The chaos drill: a failover burst onto spare IB nodes; 2
            // jobs by default, so the spare half of the 8-node cluster
            // can absorb them.
            Cmd::Faults => (ScenarioKind::Failover, self.jobs.unwrap_or(2)),
            _ => return None,
        };
        Some(ScenarioSpec {
            kind,
            jobs,
            vms_per_job: self.vms_per_job,
            arrival: self.arrival,
            seed: self.seed,
        })
    }

    /// The fault plan over `jobs` jobs: the `--fault` specs; else a
    /// plan drawn from `--fault-seed` (for `faults`, from `--seed`
    /// without it); else the empty plan, which fires nothing and leaves
    /// runs bit-identical.
    fn fault_plan(&self, jobs: usize) -> FaultPlan {
        let drill = (self.cmd == Cmd::Faults).then_some(self.seed);
        if !self.faults.is_empty() {
            FaultPlan::from_specs(self.faults.clone())
        } else if let Some(seed) = self.fault_seed.or(drill) {
            FaultPlan::random(seed, jobs)
        } else {
            FaultPlan::new()
        }
    }

    /// Readies `world`'s trace and flight recorder for the run.
    fn instrument(&self, world: &mut World) {
        // The trace records only when a flag reads it: `--trace-out`
        // and `--trace` print it, and `--trace-cap` bounds it and
        // reports its evictions in `ninja_trace_dropped_records`.
        if self.traced() {
            world.trace.set_capacity(self.trace_cap);
        } else {
            world.trace = Trace::disabled();
        }
        if self.scrape_interval.is_some() || self.timeseries_out.is_some() || self.alerts.is_some()
        {
            let interval = self.scrape_interval.unwrap_or(SimDuration::from_secs(30));
            let mut rec = TimeSeriesRecorder::new(interval);
            if let Some(rules) = &self.alerts {
                rec = rec.with_alerts(AlertEngine::new(rules.clone()));
            }
            world.install_recorder(rec);
        }
    }

    /// What the run is called when it fails.
    fn what(&self) -> &'static str {
        match self.cmd {
            Cmd::Evacuate => "evacuation",
            Cmd::Fleet => "fleet run",
            Cmd::Faults => "faults drill",
            _ => "migration",
        }
    }

    /// Whether a flag reads the trace: `--trace-out`, `--trace` or
    /// `--trace-cap`.
    fn traced(&self) -> bool {
        self.trace_out.is_some() || self.trace || self.trace_cap.is_some()
    }
}

/// Reports a failed run on stderr and exits 1.
fn fail(what: &str, e: impl Display) -> ! {
    eprintln!("{what} failed: {e}");
    exit(1)
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

/// Prints two reports as one compact JSON object, or as text.
fn print_pair(
    json: bool,
    (a_name, a): (&str, &impl WriteJson),
    (b_name, b): (&str, &impl WriteJson),
    text: impl Display,
) {
    print_report(|out| {
        if json {
            let mut w = JsonWriter::compact(out);
            w.begin_object()?;
            w.field(a_name, a)?;
            w.field(b_name, b)?;
            w.end_object()?;
            out.write_char('\n')
        } else {
            writeln!(out, "{text}")
        }
    });
}

/// `evacuate`, `fleet` and `faults`: runs the fleet engine over `jobs`
/// with the flags' settings and fault plan, then records the jobs'
/// wire metrics.
fn fleet_run(
    args: &Args,
    world: &mut World,
    jobs: &mut [MpiRuntime],
    sched: CloudScheduler,
) -> FleetReport {
    world.faults = args.fault_plan(jobs.len());
    if args.cmd == Cmd::Faults {
        eprintln!("fault plan: {:?}", world.faults.specs());
    }
    let cfg = FleetConfig {
        concurrency: args.concurrency,
        deadline: args.deadline,
        uplink: args.uplink,
        retry: args.retry,
        ..FleetConfig::default()
    };
    let mut guests: Vec<&mut dyn GuestCooperative> = jobs
        .iter_mut()
        .map(|j| j as &mut dyn GuestCooperative)
        .collect();
    let report =
        run_fleet(world, &mut guests, sched, &cfg).unwrap_or_else(|e| fail(args.what(), e));
    world.record_wire_metrics(jobs.iter());
    report
}

/// `ninja fleet` / `ninja faults`: builds the scenario `spec` on a
/// world sized to it, runs it on the fleet engine, and prints the SLO
/// report. Returns the world for the telemetry outputs.
fn fleet_cmd(args: &Args) -> World {
    let spec = args.scenario_spec().expect("a fleet command");
    // An untraced run records nothing from the first boot on; a traced
    // one gets its ring cap after the build, so the boot's records are
    // evicted like the run's.
    let trace = if args.traced() {
        Trace::new()
    } else {
        Trace::disabled()
    };
    let mut s = build_auto(&spec, trace).unwrap_or_else(|e| fail(args.what(), e));
    args.instrument(&mut s.world);
    let report = fleet_run(args, &mut s.world, &mut s.jobs, s.scheduler);
    print_json_or_text(args.json, &report);
    // `main` exits without teardown once the outputs are written;
    // freeing the jobs and the report here would only cost time.
    mem::forget((report, s.jobs));
    s.world
}

/// `ninja evacuate`: two jobs share the failing IB cluster; the drill
/// moves everything to the Ethernet site, capacity-aware, on the fleet
/// engine (`--concurrency 1`, the default, is the classic serial drill).
fn evacuate_cmd(args: &Args) -> World {
    let mut world = World::agc(args.seed);
    args.instrument(&mut world);
    let (job_a, job_b) = boot_drill_jobs(&mut world, args.vms, args.procs);
    let (from, to) = (world.ib_cluster, world.eth_cluster);
    let plans = plan_evacuation(&world, &[&job_a, &job_b], from, to)
        .unwrap_or_else(|e| fail(args.what(), e));
    let mut sched = CloudScheduler::new();
    for (j, dsts) in plans.iter().enumerate() {
        if !dsts.is_empty() {
            sched.push_job(world.clock(), dsts.clone(), TriggerReason::Fallback, j);
        }
    }
    let report = fleet_run(args, &mut world, &mut [job_a, job_b], sched);
    print_json_or_text(args.json, &DrillView(&report));
    world
}

/// The single-job commands: one job on the 8-node testbed, migrated by
/// the serial orchestrator as fleet job 0, migration 0 (what untargeted
/// `--fault` specs hit). A failed migration, checkpoint or restart
/// prints `migration failed: ...` and exits 1.
fn single_job_cmd(args: &Args) -> World {
    let mut world = World::agc(args.seed);
    args.instrument(&mut world);
    world.faults = args.fault_plan(1);
    let orch = NinjaOrchestrator::default().with_retry(args.retry);
    let fig8 = args.cmd == Cmd::Fig8;
    let vms = world.boot_ib_vms(if fig8 { 4 } else { args.vms });
    let mut rt = world.start_job(vms.clone(), if fig8 { args.ppv } else { args.procs });
    let n = vms.len();
    let eth: Vec<_> = (0..n).map(|i| world.eth_node(i)).collect();
    let ib: Vec<_> = (0..n).map(|i| world.ib_node(i)).collect();
    let mut migrate = |world: &mut World, dsts: &[_]| {
        orch.migrate(world, &mut rt, dsts)
            .unwrap_or_else(|e| fail(args.what(), e))
    };
    match args.cmd {
        // `migrate` is the telemetry-first entry point: one Ninja
        // migration with the destination fabric chosen by `--to`.
        // `fallback` is the historical alias for `migrate --to eth`.
        Cmd::Migrate | Cmd::Fallback | Cmd::Selfmig => {
            let to_ib = args.cmd == Cmd::Selfmig || args.cmd == Cmd::Migrate && args.to == To::Ib;
            let report = migrate(&mut world, if to_ib { &ib } else { &eth });
            world.record_wire_metrics([&rt]);
            print_json_or_text(args.json, &report);
        }
        Cmd::Roundtrip => {
            let fallback = migrate(&mut world, &eth);
            let recovery = migrate(&mut world, &ib);
            world.record_wire_metrics([&rt]);
            print_pair(
                args.json,
                ("fallback", &fallback),
                ("recovery", &recovery),
                format_args!("--- fallback ---\n{fallback}\n--- recovery ---\n{recovery}"),
            );
        }
        Cmd::Fig8 => {
            // Convenience alias for the bench binary's scenario at one
            // setting, without claims/JSON output.
            for (label, dsts) in [
                ("fallback to 2 hosts (TCP)", &eth[..2]),
                ("recovery to 4 hosts (IB)", &ib[..]),
                ("fallback to 4 hosts (TCP)", &eth[..]),
            ] {
                let report = migrate(&mut world, dsts);
                print_report(|out| writeln!(out, "== {label} ==\n{report}\n"));
            }
            world.record_wire_metrics([&rt]);
        }
        Cmd::Checkpoint => {
            let profile = MemoryProfile {
                touched: args.footprint,
                uniform_frac: 0.3,
                dirty_bytes_per_sec: 1e9,
            };
            install_memory_profile(&mut world, &rt, profile);
            let (handle, ck) = orch
                .checkpoint(&mut world, &mut rt)
                .unwrap_or_else(|e| fail(args.what(), e));
            for &vm in &vms {
                world.pool.destroy(vm, &mut world.dc);
            }
            let rs = orch
                .restart(&mut world, &mut rt, &handle, &eth)
                .unwrap_or_else(|e| fail(args.what(), e));
            world.record_wire_metrics([&rt]);
            let s = SimDuration::as_secs_f64;
            print_pair(
                args.json,
                ("checkpoint", &ck),
                ("restart", &rs),
                format_args!(
                    "checkpoint: coordination {:.2}s detach {:.2}s save {:.2}s attach {:.2}s linkup {:.2}s (total {:.2}s)\n\
                     restart:    restore {:.2}s attach {:.2}s linkup {:.2}s -> {} (total {:.2}s)",
                    s(ck.coordination), s(ck.detach), s(ck.save), s(ck.attach), s(ck.linkup), s(ck.total()),
                    s(rs.restore), s(rs.attach), s(rs.linkup), rs.transport_after.unwrap_or("?"), s(rs.total())
                ),
            );
        }
        _ => unreachable!("not a single-job command"),
    }
    if args.trace {
        eprintln!("\n--- trace ---\n{}", world.trace.render());
    }
    world
}

/// `ninja trace <summarize|critical-path> FILE` — read a Chrome trace
/// file back and print either per-(component, span) duration statistics
/// or the per-migration blackout attribution. An empty or span-free
/// file prints the table header and exits 0.
fn trace_cmd(critical_path: bool, path: &str) {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("could not read {path}: {e}");
        exit(1)
    });
    // An empty file is an empty trace, not an error: runs that record
    // nothing still compose with shell pipelines.
    let (spans, others) = ninja_sim::spans_from_chrome(&text).unwrap_or_else(|e| {
        eprintln!("{path}: not valid JSON: {e}");
        exit(1)
    });
    print_report(|out| {
        if critical_path {
            critical_path_cmd(&spans, out)
        } else {
            summarize_trace(&spans, others, out)
        }
    });
}

/// Per-(component, span) duration statistics over the spans a trace
/// document's complete ("X") events give, read by the same rule as
/// `critical-path` ([`ninja_sim::spans_from_chrome`]): an event without
/// a name, or whose `ts` or `dur` is not a whole, in-range number of
/// microseconds, is skipped. `instants` counts the document's other
/// events. Durations add up in integer nanoseconds. Rows sort by
/// (component, span), lexicographically — the pinned, deterministic
/// order.
fn summarize_trace(spans: &Trace, instants: u64, out: &mut impl Write) -> fmt::Result {
    // (component, span) -> (count, total, min, max).
    let mut groups: BTreeMap<(&str, &str), (u64, SimDuration, SimDuration, SimDuration)> =
        BTreeMap::new();
    for span in spans.all_spans() {
        let d = span.duration();
        let zero = SimDuration::ZERO;
        let g = groups
            .entry((span.component(), span.name()))
            .or_insert((0, zero, d, zero));
        g.0 += 1;
        g.1 += d;
        g.2 = g.2.min(d);
        g.3 = g.3.max(d);
    }
    writeln!(
        out,
        "{:<10} {:<24} {:>6} {:>10} {:>10} {:>10} {:>10}",
        "component", "span", "count", "total_s", "min_s", "mean_s", "max_s"
    )?;
    for ((cat, name), (count, total, min, max)) in &groups {
        let [total, min, max] = [total, min, max].map(|d| d.as_secs_f64());
        let mean = total / *count as f64;
        writeln!(
            out,
            "{cat:<10} {name:<24} {count:>6} {total:>10.3} {min:>10.3} {mean:>10.3} {max:>10.3}"
        )?;
    }
    if instants > 0 {
        writeln!(out, "({instants} instant events not summarized)")?;
    }
    Ok(())
}

/// Per-migration blackout attribution: one row per `("ninja","ninja")`
/// envelope span, then a fleet-wide per-phase p50/p99 breakdown.
fn critical_path_cmd(spans: &Trace, out: &mut impl Write) -> fmt::Result {
    let paths = ninja_sim::critical_paths(spans, &PHASE_NAMES);
    writeln!(
        out,
        "{:>4} {:>4} {:>10} {:>11} {:>9} {:<13} {:<14} {:>9}",
        "job", "mig", "start_s", "blackout_s", "cover%", "dominant", "critical_vm", "crit_s"
    )?;
    for p in &paths {
        let dominant = p.phases.iter().find(|ph| ph.phase == p.dominant);
        let crit =
            dominant.and_then(|ph| Some((ph.critical_vm.as_deref()?, ph.critical_vm_duration)));
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

fn main() {
    let args = parse(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("{e}\n{}", usage());
        exit(2)
    });
    let mut world = match &args.cmd {
        Cmd::Summarize(file) | Cmd::CriticalPath(file) => {
            trace_cmd(matches!(args.cmd, Cmd::CriticalPath(_)), file);
            return;
        }
        Cmd::Evacuate => evacuate_cmd(&args),
        Cmd::Fleet | Cmd::Faults => fleet_cmd(&args),
        _ => single_job_cmd(&args),
    };
    // Idempotent: the fleet engine has already drained its
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
    if let (Some(path), Some(rec)) = (&args.timeseries_out, &world.recorder) {
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
    // Every output is flushed: end the process without dropping the
    // world (its trace, registry and data center are freed by the OS).
    exit(0)
}
