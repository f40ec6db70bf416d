//! Placement autopilot: a simulated week of day/night policy.
//!
//! Composes the power-aware planner, the cloud scheduler, the workload
//! runner and the migration ledger into the operations loop the paper's
//! "high resource utilization" use case sketches: every evening the job
//! is packed onto two Ethernet hosts (freeing the InfiniBand rack for
//! power-down), every morning it spreads back across four IB hosts for
//! daytime throughput. A long-running bcast+reduce job rides through
//! all fourteen migrations; the example closes with the week's energy
//! and overhead ledger.
//!
//! ```text
//! cargo run --release --example autopilot_week
//! ```

use ninja_migration::{
    CloudScheduler, MigrationLedger, NinjaOrchestrator, PlacementPlanner, PlacementPolicy,
    PowerModel, TriggerReason, World,
};
use ninja_sim::SimDuration;
use ninja_workloads::{run_workload, BcastReduce, IterativeWorkload};

const HOUR: u64 = 3_600;

fn main() {
    let mut world = World::agc(7_2013);
    let vms = world.boot_ib_vms(4);
    let mut job = world.start_job(vms, 8);
    let planner = PlacementPlanner::default();
    let power = PowerModel::agc_blade();
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

    // Ledger: collect every migration and integrate energy over the
    // piecewise-constant placement intervals.
    let mut ledger = MigrationLedger::new();
    let mut energy_joules = 0.0;
    let mut watts_now = power.world_watts(&world); // final placement watts
                                                   // Recompute energy by replaying iteration records: watts change only
                                                   // at migrations; approximate by attributing each iteration the watts
                                                   // of its placement (day or night pattern known from the plan).
    let day_watts = day_plan.watts;
    let night_watts = night_plan.watts;
    let mut at_night = false;
    for it in &record.iterations {
        if let Some(m) = &it.migration {
            ledger.push(m.clone());
            at_night = !at_night;
        }
        let w = if at_night { night_watts } else { day_watts };
        energy_joules += w * it.elapsed().as_secs_f64();
        watts_now = w;
    }

    let week_secs = record.total.as_secs_f64();
    let always_day_joules = day_watts * week_secs;
    println!(
        "autopilot week: {:.1} h simulated, {} placement moves",
        week_secs / 3600.0,
        ledger.len()
    );
    println!("\n{ledger}\n");
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
        ledger.total_overhead(),
        100.0 * ledger.total_overhead() / week_secs
    );
    let _ = watts_now;

    assert_eq!(ledger.len(), 14, "7 nights + 7 mornings");
    assert!(energy_joules < always_day_joules, "autopilot saves energy");
    assert!(
        ledger.total_overhead() / week_secs < 0.01,
        "overhead is noise at weekly scale"
    );
    let transitions = ledger.transitions();
    assert_eq!(transitions.get(&("openib".into(), "tcp".into())), Some(&7));
    assert_eq!(transitions.get(&("tcp".into(), "openib".into())), Some(&7));
    println!("\nok: fourteen interconnect-transparent moves, one uninterrupted job.");
    let _ = bench.iterations();
}
