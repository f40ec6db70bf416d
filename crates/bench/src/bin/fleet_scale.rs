//! **Perf trajectory**: the event-driven fleet engine swept over fleet
//! size.
//!
//! The same evacuation fleet shape is built by [`build_auto`] and driven
//! by [`run_fleet`] at each size, with tracing off as `ninja fleet` runs
//! without a trace flag. Each row times three layers, each the best of
//! [`RUNS`] runs over freshly built fleets: the build
//! (`build_wall_s`), the engine loop (`event_wall_s`) and the pretty
//! JSON report rendered into memory (`report_wall_s`). Results append to `BENCH_fleet.json` at the workspace root so
//! the trend survives across changes. The engine's outputs at these
//! shapes are pinned by the digest table
//! `crates/fleet/tests/golden/matrix.sha256`, not here.
//!
//! ```text
//! cargo run --release -p ninja-bench --bin fleet_scale           # full sweep, 16..4096 jobs
//! cargo run --release -p ninja-bench --bin fleet_scale -- --quick  # CI smoke, 16..256 jobs
//! ```
//!
//! The full sweep asserts two scaling bounds: host time per job at
//! 4096 jobs is at most 3x that at 256 jobs, and per-iteration cost
//! grows far slower than the fleet.

use ninja_bench::{append_bench, claim, finish, render_table};
use ninja_fleet::{build_auto, run_fleet, FleetConfig, ScenarioKind, ScenarioSpec};
use ninja_sim::{SimDuration, Trace, WriteJson};
use ninja_symvirt::GuestCooperative;
use std::time::Instant;

/// Runs per row; the row keeps the fastest, which is the stablest
/// figure on a shared host.
const RUNS: usize = 3;

struct Row {
    jobs: usize,
    concurrency: usize,
    build_wall_s: f64,
    event_wall_s: f64,
    report_wall_s: f64,
    iterations: u64,
    /// Machine steps the engine made (`FleetReport::machine_steps`).
    steps: u64,
    wall_us_per_iteration: f64,
    makespan_s: f64,
}
ninja_bench::impl_write_json!(Row {
    jobs,
    concurrency,
    build_wall_s,
    event_wall_s,
    report_wall_s,
    iterations,
    steps,
    wall_us_per_iteration,
    makespan_s
});

impl Row {
    fn wall_us_per_job(&self) -> f64 {
        self.event_wall_s / self.jobs as f64 * 1e6
    }
}

/// The host wall-clock seconds of one run's three layers.
struct Walls {
    build: f64,
    event: f64,
    report: f64,
}

/// What one run counted: engine iterations, machine steps and the
/// simulated makespan in seconds.
struct Counts {
    iterations: u64,
    steps: u64,
    makespan_s: f64,
}

/// One run over one freshly built evacuation fleet. Returns the layers'
/// host wall-clock and the run's counts.
fn run_engine(jobs_n: usize, concurrency: usize) -> (Walls, Counts) {
    let spec = ScenarioSpec {
        kind: ScenarioKind::Evacuation,
        jobs: jobs_n,
        vms_per_job: 1,
        arrival: SimDuration::from_secs(20),
        seed: 2013,
    };
    // The trajectory tracks the untraced layers: a 4096-job trace is
    // ring-buffer churn that would swamp them.
    let t0 = Instant::now();
    let mut s = build_auto(&spec, Trace::disabled()).expect("scenario fits");
    let build = t0.elapsed().as_secs_f64();
    let cfg = FleetConfig {
        concurrency,
        ..FleetConfig::default()
    };
    let mut jobs: Vec<&mut dyn GuestCooperative> = s
        .jobs
        .iter_mut()
        .map(|j| j as &mut dyn GuestCooperative)
        .collect();
    let t0 = Instant::now();
    let report = run_fleet(&mut s.world, &mut jobs, s.scheduler, &cfg).expect("fleet run");
    let event = t0.elapsed().as_secs_f64();
    drop(jobs);
    let t0 = Instant::now();
    let json = report.to_json_pretty();
    let report_wall = t0.elapsed().as_secs_f64();
    assert!(json.ends_with('}'));
    let iterations = s
        .world
        .metrics
        .counter_total("ninja_fleet_engine_iterations_total");
    let walls = Walls {
        build,
        event,
        report: report_wall,
    };
    let counts = Counts {
        iterations,
        steps: report.machine_steps,
        makespan_s: report.makespan.as_secs_f64(),
    };
    (walls, counts)
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let sweep: &[usize] = if quick {
        &[16, 64, 256]
    } else {
        &[16, 64, 256, 1024, 4096]
    };
    println!(
        "== fleet_scale: event-driven engine, {} sweep, best of {RUNS} ==\n",
        if quick { "quick" } else { "full" }
    );

    let mut rows = Vec::new();
    for &n in sweep {
        // A capped admission window keeps contention bounded (256
        // senders × 1.3 Gb/s caps on a 10 Gb/s uplink ≈ 33× oversub)
        // while the fleet and its admission queue grow.
        let concurrency = (n / 2).clamp(2, 256);
        let runs: Vec<(Walls, Counts)> = (0..RUNS).map(|_| run_engine(n, concurrency)).collect();
        let best = |layer: fn(&Walls) -> f64| {
            runs.iter()
                .map(|r| layer(&r.0))
                .fold(f64::INFINITY, f64::min)
        };
        let wall = best(|w| w.event);
        let counts = &runs[0].1;
        rows.push(Row {
            jobs: n,
            concurrency,
            build_wall_s: best(|w| w.build),
            event_wall_s: wall,
            report_wall_s: best(|w| w.report),
            iterations: counts.iterations,
            steps: counts.steps,
            wall_us_per_iteration: wall / counts.iterations as f64 * 1e6,
            makespan_s: counts.makespan_s,
        });
    }

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.jobs.to_string(),
                r.concurrency.to_string(),
                format!("{:.4}", r.build_wall_s),
                format!("{:.4}", r.event_wall_s),
                format!("{:.4}", r.report_wall_s),
                format!("{:.1}", r.wall_us_per_job()),
                r.iterations.to_string(),
                r.steps.to_string(),
                format!("{:.2}", r.wall_us_per_iteration),
                format!("{:.0}", r.makespan_s),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "jobs",
                "conc",
                "build (s)",
                "wall (s)",
                "report (s)",
                "us/job",
                "iterations",
                "steps",
                "us/iter",
                "sim makespan (s)"
            ],
            &table
        )
    );

    let mut ok = true;
    if !quick {
        println!("claims:");
        let last = rows.last().expect("nonempty sweep");
        let mid = rows.iter().find(|r| r.jobs == 256).expect("256-job row");
        // Host time per job may grow with the admission window and the
        // fleet, but boundedly: 16x the fleet, at most 3x the cost.
        ok &= claim(
            &format!(
                "host time per job at {} jobs <= 3x that at {} ({:.1} vs {:.1} us/job)",
                last.jobs,
                mid.jobs,
                last.wall_us_per_job(),
                mid.wall_us_per_job()
            ),
            last.wall_us_per_job() <= 3.0 * mid.wall_us_per_job(),
        );
        // Per-iteration cost must stop growing linearly with fleet
        // size: 16 → 4096 is a 256× fleet; allow far-sublinear growth.
        let first = rows.first().expect("nonempty sweep");
        let growth = last.wall_us_per_iteration / first.wall_us_per_iteration.max(1e-9);
        ok &= claim(
            &format!(
                "per-iteration cost sublinear in fleet size ({:.2} -> {:.2} us/iter, {growth:.1}x over a 256x fleet)",
                first.wall_us_per_iteration, last.wall_us_per_iteration
            ),
            growth < 32.0,
        );
    }

    // A JSON array of run records at the workspace root.
    let root =
        std::env::var("CARGO_MANIFEST_DIR").map_or_else(|_| ".".into(), |d| format!("{d}/../.."));
    let mode = if quick { "quick" } else { "full" };
    append_bench(
        &format!("{root}/BENCH_fleet.json"),
        "fleet_scale",
        mode,
        &rows,
    );
    finish(ok);
}
