//! Placement autopilot: a simulated week of day/night policy.
//!
//! Composes the power-aware planner, the cloud scheduler and the workload
//! runner into the operations loop the paper's
//! "high resource utilization" use case sketches: every evening the job
//! is packed onto two Ethernet hosts (freeing the InfiniBand rack for
//! power-down), every morning it spreads back across four IB hosts for
//! daytime throughput. A long-running bcast+reduce job rides through
//! all fourteen migrations; the example closes with the week's energy
//! and migration overhead.
//!
//! ```text
//! cargo run --release --example autopilot_week
//! ```

use ninja_migration::{
    CloudScheduler, NinjaOrchestrator, NinjaReport, PlacementPlanner, PlacementPolicy,
    TriggerReason, World,
};
use ninja_sim::SimDuration;
use ninja_workloads::{run_workload, BcastReduce, IterativeWorkload};

const HOUR: u64 = 3_600;

fn main() {
    let mut world = World::agc(7_2013);
    let vms = world.boot_ib_vms(4);
    let mut job = world.start_job(vms, 8);
    let planner = PlacementPlanner::default();
    let orch = NinjaOrchestrator::default();

    // Plan the week: pack at 20:00, spread at 08:00, every day.
    let day_plan = planner.plan(&world, &job, PlacementPolicy::Spread);
    let night_plan = planner.plan(&world, &job, PlacementPolicy::PowerSave);
    let mut scheduler = CloudScheduler::new();
    let t0 = world.clock();
    for day in 0..7u64 {
        scheduler.push(
            t0 + SimDuration::from_secs(day * 24 * HOUR + 20 * HOUR),
            night_plan.dsts.clone(),
            TriggerReason::Placement,
        );
        scheduler.push(
            t0 + SimDuration::from_secs(day * 24 * HOUR + 32 * HOUR),
            day_plan.dsts.clone(),
            TriggerReason::Placement,
        );
    }

    // A job long enough to outlive the week. Iterations are ~5 s on IB,
    // so a generous count covers 7 x 24 h even at TCP speeds.
    let bench = BcastReduce::new(150_000, 8);
    let record =
        run_workload(&mut world, &mut job, &bench, &mut scheduler, &orch).expect("autopilot week");

    // Collect every migration and integrate energy over the
    // piecewise-constant placement intervals: watts change only at
    // migrations, so each iteration is charged the watts of its
    // placement (day or night pattern known from the plan).
    let mut moves: Vec<&NinjaReport> = Vec::new();
    let mut energy_joules = 0.0;
    let day_watts = day_plan.watts;
    let night_watts = night_plan.watts;
    let mut at_night = false;
    for it in &record.iterations {
        if let Some(m) = &it.migration {
            moves.push(m);
            at_night = !at_night;
        }
        let w = if at_night { night_watts } else { day_watts };
        energy_joules += w * it.elapsed().as_secs_f64();
    }
    let overhead = moves
        .iter()
        .map(|m| m.total())
        .sum::<SimDuration>()
        .as_secs_f64();
    let wire_bytes: u64 = moves.iter().map(|m| m.wire_bytes).sum();
    let transitions = |from: &str, to: &str| {
        moves
            .iter()
            .filter(|m| m.transport_before == Some(from) && m.transport_after == Some(to))
            .count()
    };

    let week_secs = record.total.as_secs_f64();
    let always_day_joules = day_watts * week_secs;
    println!(
        "autopilot week: {:.1} h simulated, {} placement moves",
        week_secs / 3600.0,
        moves.len()
    );
    println!(
        "\n{} migrations, {:.1}s total overhead, {:.2} GiB on wire",
        moves.len(),
        overhead,
        wire_bytes as f64 / (1u64 << 30) as f64
    );
    println!(
        "  openib -> tcp: {}, tcp -> openib: {}\n",
        transitions("openib", "tcp"),
        transitions("tcp", "openib")
    );
    println!(
        "day placement  : {:>4} hosts, {:>6.0} W",
        day_plan.hosts, day_watts
    );
    println!(
        "night placement: {:>4} hosts, {:>6.0} W",
        night_plan.hosts, night_watts
    );
    println!(
        "energy: {:.1} kWh vs {:.1} kWh if always spread ({:.0}% saved)",
        energy_joules / 3.6e6,
        always_day_joules / 3.6e6,
        100.0 * (1.0 - energy_joules / always_day_joules)
    );
    println!(
        "migration overhead for the week: {:.0}s ({:.3}% of wall time)",
        overhead,
        100.0 * overhead / week_secs
    );

    assert_eq!(moves.len(), 14, "7 nights + 7 mornings");
    assert!(energy_joules < always_day_joules, "autopilot saves energy");
    assert!(
        overhead / week_secs < 0.01,
        "overhead is noise at weekly scale"
    );
    assert_eq!(transitions("openib", "tcp"), 7);
    assert_eq!(transitions("tcp", "openib"), 7);
    println!("\nok: fourteen interconnect-transparent moves, one uninterrupted job.");
    let _ = bench.iterations();
}
