//! **Telemetry cost**: what leaving every telemetry layer on costs a
//! fleet run, in host wall time and peak RSS.
//!
//! Each configuration is an evacuation fleet run the way `ninja fleet
//! --json` runs it, once with every telemetry output off and once with
//! all of them on: the Chrome trace (`--trace-out`), the metrics registry
//! (`--metrics-out`, Prometheus text), the flight recorder scraping
//! every 30 s with its JSONL export (`--scrape-interval 30
//! --timeseries-out x.jsonl`) and the default alert rules (`--alerts
//! default`). The "off" run records no trace at all (`Trace::disabled()`),
//! as `ninja fleet` runs without a trace flag. Every run happens in a
//! fresh child process (this binary re-executed with `--child`), which
//! reports its own wall time and peak RSS (`VmHWM` from
//! `/proc/self/status`), so no run inherits another's heap. The off and
//! on runs of a shape alternate, so host drift lands in both rows alike;
//! a row is the median of its runs.
//!
//! ```text
//! cargo run --release -p ninja-bench --bin telemetry_cost            # 4 shapes, asserts the gate
//! cargo run --release -p ninja-bench --bin telemetry_cost -- --quick # 256/8 and 1024/4, records only
//! ```
//!
//! Rows append to `BENCH_telemetry.json` in the current directory. The
//! full run asserts the gate: at 4096 jobs, everything on costs at most
//! 1.5x the wall time and at most +20% of the peak RSS of everything
//! off, at concurrency 4 and 256.

use ninja_bench::{claim, finish, render_table};
use ninja_fleet::{build_auto, run_fleet, FleetConfig, ScenarioKind, ScenarioSpec};
use ninja_sim::alerts::{default_rules, parse_rules};
use ninja_sim::export::overwrite_file;
use ninja_sim::{
    parse, AlertEngine, Json, JsonWriter, SimDuration, TimeSeriesRecorder, Trace, WriteJson,
};
use ninja_symvirt::GuestCooperative;
use std::fmt::{self, Write as _};
use std::path::Path;
use std::process::{exit, Command};
use std::time::Instant;

/// Fleet shapes, `(jobs, concurrency)`; `--quick` runs the first two.
const SHAPES: [(usize, usize); 4] = [(256, 8), (1024, 4), (4096, 4), (4096, 256)];
/// Child runs per configuration.
const RUNS: usize = 5;
/// The gate's bounds, on over off at 4096 jobs.
const MAX_WALL_RATIO: f64 = 1.5;
const MAX_RSS_RATIO: f64 = 1.2;

/// What one child run measured, or the medians of a configuration's
/// runs.
struct Sample {
    wall_ms: f64,
    peak_rss_mib: f64,
    series_points: u64,
    trace_bytes: u64,
}

/// One configuration's row.
struct Row {
    jobs: usize,
    concurrency: usize,
    telemetry: bool,
    runs: usize,
    median: Sample,
}

impl WriteJson for Row {
    fn write_json<W: fmt::Write + ?Sized>(&self, w: &mut JsonWriter<'_, W>) -> fmt::Result {
        w.begin_object()?;
        w.field("jobs", &self.jobs)?;
        w.field("concurrency", &self.concurrency)?;
        w.field("telemetry", if self.telemetry { "on" } else { "off" })?;
        w.field("runs", &self.runs)?;
        w.field("wall_ms", &self.median.wall_ms)?;
        w.field("peak_rss_mib", &self.median.peak_rss_mib)?;
        w.field("series_points", &self.median.series_points)?;
        w.field("trace_bytes", &self.median.trace_bytes)?;
        w.end_object()
    }
}

/// One invocation's record in `BENCH_telemetry.json`.
struct Record<'a> {
    unix_time: u64,
    mode: &'a str,
    rows: &'a [Row],
}

impl WriteJson for Record<'_> {
    fn write_json<W: fmt::Write + ?Sized>(&self, w: &mut JsonWriter<'_, W>) -> fmt::Result {
        w.begin_object()?;
        w.field("unix_time", &self.unix_time)?;
        w.field("mode", self.mode)?;
        w.field("bench", "telemetry_cost")?;
        w.field("rows", self.rows)?;
        w.end_object()
    }
}

/// This process's peak resident set in MiB (`VmHWM`, Linux).
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Writes one exporter's output to `path`, or exits: a lost output
/// would make the row meaningless.
fn write_out(path: &Path, export: impl FnOnce(&mut dyn fmt::Write) -> fmt::Result) {
    if let Err(e) = overwrite_file(path, |w| export(w)) {
        eprintln!("could not write {}: {e}", path.display());
        exit(1);
    }
}

/// The child: one fleet run as `ninja fleet --json` does it, with the
/// report and (when `on`) every telemetry output written under `dir`.
/// Prints one JSON line: wall time, peak RSS, series points, trace
/// bytes.
fn child(jobs_n: usize, concurrency: usize, on: bool, dir: &Path) {
    let t0 = Instant::now();
    let spec = ScenarioSpec {
        kind: ScenarioKind::Evacuation,
        jobs: jobs_n,
        vms_per_job: 1,
        arrival: SimDuration::from_secs(30),
        seed: 2013,
    };
    let trace = if on { Trace::new() } else { Trace::disabled() };
    let mut s = build_auto(&spec, trace).expect("scenario fits");
    if on {
        let rules = parse_rules(default_rules()).expect("default rules parse");
        let rec = TimeSeriesRecorder::new(SimDuration::from_secs(30))
            .with_alerts(AlertEngine::new(rules));
        s.world.install_recorder(rec);
    }
    let cfg = FleetConfig {
        concurrency,
        ..FleetConfig::default()
    };
    let report = {
        let mut jobs: Vec<&mut dyn GuestCooperative> = s
            .jobs
            .iter_mut()
            .map(|j| j as &mut dyn GuestCooperative)
            .collect();
        run_fleet(&mut s.world, &mut jobs, s.scheduler, &cfg).expect("fleet run")
    };
    s.world.record_wire_metrics(&s.jobs);
    write_out(&dir.join("report.json"), |w| {
        report.write_json(&mut JsonWriter::pretty(w))
    });
    let world = &mut s.world;
    world.finish_recorder();
    let trace_path = dir.join("trace.json");
    if on {
        write_out(&trace_path, |w| world.trace.write_chrome_json(w));
        write_out(&dir.join("metrics.prom"), |w| {
            world.metrics.write_prometheus(w)
        });
        let rec = world.recorder.as_ref().expect("recorder installed");
        write_out(&dir.join("series.jsonl"), |w| rec.write_jsonl(w));
    }
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    // Read before counting points: the row view below allocates.
    let peak = peak_rss_mib();
    let series_points = world.recorder.as_ref().map_or(0, |rec| {
        rec.samples().iter().map(|s| s.points.len() as u64).sum()
    });
    let trace_bytes = std::fs::metadata(&trace_path).map_or(0, |m| m.len());
    println!(
        "{}",
        Json::obj(vec![
            ("wall_ms", Json::Num(wall_ms)),
            ("peak_rss_mib", Json::Num(peak)),
            ("series_points", Json::UInt(series_points)),
            ("trace_bytes", Json::UInt(trace_bytes)),
        ])
    );
}

/// Runs one configuration in a fresh child process.
fn spawn(jobs: usize, concurrency: usize, on: bool) -> Sample {
    let dir = std::env::temp_dir().join(format!("telemetry_cost-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create work dir");
    let exe = std::env::current_exe().expect("own executable");
    let out = Command::new(exe)
        .args(["--child", &jobs.to_string(), &concurrency.to_string()])
        .arg(if on { "on" } else { "off" })
        .arg(&dir)
        .output()
        .expect("spawn child");
    let _ = std::fs::remove_dir_all(&dir);
    if !out.status.success() {
        eprintln!(
            "child {jobs}/{concurrency} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        exit(1);
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let doc = parse(text.trim()).expect("child prints one JSON line");
    let num = |k: &str| doc[k].as_f64().expect("numeric field");
    Sample {
        wall_ms: num("wall_ms"),
        peak_rss_mib: num("peak_rss_mib"),
        series_points: doc["series_points"].as_u64().unwrap_or(0),
        trace_bytes: doc["trace_bytes"].as_u64().unwrap_or(0),
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Appends this invocation's record to `BENCH_telemetry.json` (a JSON
/// array of records) in the current directory.
fn append_bench(record: &Record<'_>) {
    let path = "BENCH_telemetry.json";
    let old: Vec<Json> = std::fs::read_to_string(path)
        .ok()
        .and_then(|s| parse(&s).ok())
        .and_then(|j| j.as_array().map(<[Json]>::to_vec))
        .unwrap_or_default();
    let written = overwrite_file(path, |out| {
        let mut w = JsonWriter::pretty(out);
        w.begin_array()?;
        for run in &old {
            run.write_json(&mut w)?;
        }
        record.write_json(&mut w)?;
        w.end_array()?;
        out.write_char('\n')
    });
    match written {
        Ok(()) => println!("(appended to {path})"),
        Err(e) => eprintln!("warning: could not write {path}: {e}"),
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--child") {
        let num = |i: usize| {
            argv.get(i)
                .and_then(|v| v.parse().ok())
                .expect("child shape")
        };
        let dir = argv.get(4).expect("child work dir");
        child(num(1), num(2), argv[3] == "on", Path::new(dir));
        return;
    }
    let quick = argv.iter().any(|a| a == "--quick");
    let shapes = if quick { &SHAPES[..2] } else { &SHAPES[..] };
    println!(
        "== telemetry_cost: everything off vs. everything on, {} ==\n",
        if quick { "quick" } else { "full" }
    );

    let mut rows = Vec::new();
    for &(jobs, concurrency) in shapes {
        // Off and on alternate, run by run.
        let mut samples: [Vec<Sample>; 2] = [Vec::new(), Vec::new()];
        for _ in 0..RUNS {
            for on in [false, true] {
                samples[usize::from(on)].push(spawn(jobs, concurrency, on));
            }
        }
        for (on, samples) in [false, true].into_iter().zip(samples) {
            rows.push(Row {
                jobs,
                concurrency,
                telemetry: on,
                runs: RUNS,
                // Points and bytes are the same in every run.
                median: Sample {
                    wall_ms: median(samples.iter().map(|s| s.wall_ms).collect()),
                    peak_rss_mib: median(samples.iter().map(|s| s.peak_rss_mib).collect()),
                    ..samples[0]
                },
            });
        }
    }

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.jobs.to_string(),
                r.concurrency.to_string(),
                if r.telemetry { "on" } else { "off" }.to_string(),
                format!("{:.1}", r.median.wall_ms),
                format!("{:.1}", r.median.peak_rss_mib),
                r.median.series_points.to_string(),
                r.median.trace_bytes.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "jobs",
                "conc",
                "telemetry",
                "wall ms (median)",
                "peak RSS MiB",
                "series points",
                "trace bytes",
            ],
            &table
        )
    );

    let unix_time = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    append_bench(&Record {
        unix_time,
        mode: if quick { "quick" } else { "full" },
        rows: &rows,
    });

    let mut ok = true;
    if !quick {
        println!("claims:");
        for pair in rows.chunks(2).filter(|p| p[0].jobs == 4096) {
            let (off, on) = (&pair[0].median, &pair[1].median);
            let concurrency = pair[0].concurrency;
            let wall = on.wall_ms / off.wall_ms;
            let rss = on.peak_rss_mib / off.peak_rss_mib;
            ok &= claim(
                &format!(
                    "4096 jobs at concurrency {}: everything on within {MAX_WALL_RATIO}x wall \
                     ({:.1} vs {:.1} ms, {wall:.2}x)",
                    concurrency, on.wall_ms, off.wall_ms
                ),
                wall <= MAX_WALL_RATIO,
            );
            ok &= claim(
                &format!(
                    "4096 jobs at concurrency {}: everything on within +{:.0}% peak RSS \
                     ({:.1} vs {:.1} MiB, {:+.1}%)",
                    concurrency,
                    (MAX_RSS_RATIO - 1.0) * 100.0,
                    on.peak_rss_mib,
                    off.peak_rss_mib,
                    (rss - 1.0) * 100.0
                ),
                rss <= MAX_RSS_RATIO,
            );
        }
    }
    finish(ok);
}
