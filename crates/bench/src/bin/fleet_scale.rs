//! **Perf trajectory**: the event-driven fleet engine vs. the
//! pre-optimization baseline, swept over fleet size.
//!
//! This is the measurement half of the engine rewrite: the same
//! evacuation fleet is driven once by the event-driven [`run_fleet`]
//! (heap-keyed wake/recovery queues, incremental water-filling link)
//! and once by [`run_fleet_reference`] (the shipped O(J)-per-iteration
//! loop over the from-scratch link). Both runs must produce
//! bit-identical reports; only the host wall-clock may differ. Results
//! append to `BENCH_fleet.json` at the workspace root so the speedup
//! trend survives across PRs.
//!
//! ```text
//! cargo run --release -p ninja-bench --bin fleet_scale           # full sweep, 16..4096 jobs
//! cargo run --release -p ninja-bench --bin fleet_scale -- --quick  # CI smoke, 16..256 jobs
//! ```
//!
//! The full sweep asserts the headline gate: ≥ 10× wall-clock speedup
//! at 4096 jobs, and per-iteration cost that no longer grows linearly
//! with fleet size.

use ninja_bench::{claim, finish, render_table};
use ninja_fleet::{
    build_scaled, run_fleet, run_fleet_reference, FleetConfig, ScenarioKind, ScenarioSpec,
};
use ninja_sim::export::overwrite_file;
use ninja_sim::{parse, Json, JsonWriter, SimDuration, Trace, WriteJson};
use ninja_symvirt::GuestCooperative;
use std::time::Instant;

struct Row {
    jobs: usize,
    concurrency: usize,
    event_wall_s: f64,
    reference_wall_s: f64,
    speedup: f64,
    iterations: u64,
    wall_us_per_iteration: f64,
    makespan_s: f64,
}
ninja_bench::impl_write_json!(Row {
    jobs,
    concurrency,
    event_wall_s,
    reference_wall_s,
    speedup,
    iterations,
    wall_us_per_iteration,
    makespan_s
});

/// One engine over one freshly built evacuation fleet. Returns host
/// wall-clock seconds, engine iterations, simulated makespan, and the
/// report JSON (for the bit-identity cross-check).
fn run_engine(jobs_n: usize, concurrency: usize, reference: bool) -> (f64, u64, f64, String) {
    let spec = ScenarioSpec {
        kind: ScenarioKind::Evacuation,
        jobs: jobs_n,
        vms_per_job: 1,
        arrival: SimDuration::from_secs(20),
        seed: 2013,
    };
    let mut s = build_scaled(&spec, jobs_n.max(8)).expect("scenario fits");
    // The trajectory tracks the engine loop alone: a 4096-job trace is
    // ring-buffer churn that would swamp it.
    s.world.trace = Trace::disabled();
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
    let report = if reference {
        run_fleet_reference(&mut s.world, &mut jobs, s.scheduler, &cfg)
    } else {
        run_fleet(&mut s.world, &mut jobs, s.scheduler, &cfg)
    }
    .expect("fleet run");
    let wall = t0.elapsed().as_secs_f64();
    drop(jobs);
    let iterations = s
        .world
        .metrics
        .counter_total("ninja_fleet_engine_iterations_total");
    (
        wall,
        iterations,
        report.makespan.as_secs_f64(),
        report.to_json_compact(),
    )
}

/// Append this run's rows to `BENCH_fleet.json` (a JSON array of run
/// records) at the workspace root.
fn append_bench(mode: &str, rows: &[Row]) {
    let root = std::env::var("CARGO_MANIFEST_DIR")
        .map(|d| format!("{d}/../.."))
        .unwrap_or_else(|_| ".".into());
    let path = format!("{root}/BENCH_fleet.json");
    let runs: Vec<Json> = std::fs::read_to_string(&path)
        .ok()
        .and_then(|s| parse(&s).ok())
        .and_then(|j| j.as_array().map(<[Json]>::to_vec))
        .unwrap_or_default();
    let unix_s = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let written = overwrite_file(&path, |out| {
        let mut w = JsonWriter::pretty(out);
        w.begin_array()?;
        for run in &runs {
            run.write_json(&mut w)?;
        }
        w.begin_object()?;
        w.field("unix_time", &unix_s)?;
        w.field("mode", mode)?;
        w.field("bench", "fleet_scale")?;
        w.field("rows", rows)?;
        w.end_object()?;
        w.end_array()
    });
    match written {
        Ok(()) => println!("(appended to {path})"),
        Err(e) => eprintln!("warning: could not write {path}: {e}"),
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let sweep: &[usize] = if quick {
        &[16, 64, 256]
    } else {
        &[16, 64, 256, 1024, 4096]
    };
    println!(
        "== fleet_scale: event-driven engine vs. reference, {} sweep ==\n",
        if quick { "quick" } else { "full" }
    );

    let mut rows = Vec::new();
    for &n in sweep {
        // A capped admission window keeps contention bounded (256
        // senders × 1.3 Gb/s caps on a 10 Gb/s uplink ≈ 33× oversub)
        // while the fleet — and so the reference engine's per-iteration
        // sweep — grows: exactly the axis the rewrite targets.
        let concurrency = (n / 2).clamp(2, 256);
        let (ew, ei, em, ej) = run_engine(n, concurrency, false);
        let (rw, ri, rm, rj) = run_engine(n, concurrency, true);
        assert_eq!(ej, rj, "engines diverged at {n} jobs — bit-identity broken");
        assert_eq!(ei, ri, "iteration counts diverged at {n} jobs");
        assert_eq!(em, rm, "makespans diverged at {n} jobs");
        rows.push(Row {
            jobs: n,
            concurrency,
            event_wall_s: ew,
            reference_wall_s: rw,
            speedup: rw / ew,
            iterations: ei,
            wall_us_per_iteration: ew / ei as f64 * 1e6,
            makespan_s: em,
        });
    }

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.jobs.to_string(),
                r.concurrency.to_string(),
                format!("{:.4}", r.event_wall_s),
                format!("{:.4}", r.reference_wall_s),
                format!("{:.1}x", r.speedup),
                r.iterations.to_string(),
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
                "event wall (s)",
                "reference wall (s)",
                "speedup",
                "iterations",
                "event us/iter",
                "sim makespan (s)"
            ],
            &table
        )
    );

    println!("claims:");
    let mut ok = true;
    ok &= claim(
        "engines produce bit-identical reports at every scale",
        true, // asserted hard above; reaching here means it held
    );
    if !quick {
        let last = rows.last().expect("nonempty sweep");
        ok &= claim(
            &format!(
                "event engine ≥ 10x faster at {} jobs ({:.1}x)",
                last.jobs, last.speedup
            ),
            last.speedup >= 10.0,
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

    append_bench(if quick { "quick" } else { "full" }, &rows);
    finish(ok);
}
