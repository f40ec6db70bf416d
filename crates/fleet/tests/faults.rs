//! Chaos soak: seeded random fault plans over the failover scenario.
//!
//! The ISSUE's contract for the fault subsystem, asserted over a seed
//! matrix: every injected fault either **retries to success**,
//! **degrades the job to TCP** (with an automatic recovery migration
//! following), or **fails the job cleanly** (typed error, captured in
//! the report) — the run itself always terminates and returns `Ok`,
//! and per-VM Fig. 4 phase spans stay causally ordered however the
//! faults perturb the interleaving.

use ninja_fleet::{
    build, run_fleet, FleetConfig, FleetError, FleetReport, ScenarioKind, ScenarioSpec,
};
use ninja_migration::{CloudScheduler, TriggerReason, World};
use ninja_sim::{SimDuration, SimTime};
use ninja_symvirt::{FaultKind, FaultPlan, FaultSpec, GuestCooperative};

const JOBS: usize = 3;
const PHASES: [&str; 5] = ["coordination", "detach", "migration", "attach", "linkup"];

fn run_soak(fault_seed: u64, concurrency: usize) -> (World, FleetReport) {
    let spec = ScenarioSpec {
        kind: ScenarioKind::Failover,
        jobs: JOBS,
        vms_per_job: 1,
        arrival: SimDuration::from_secs(20),
        seed: 2013,
    };
    let mut s = build(&spec).expect("scenario fits");
    s.world.faults = FaultPlan::random(fault_seed, JOBS);
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
        run_fleet(&mut s.world, &mut jobs, s.scheduler, &cfg)
            .unwrap_or_else(|e| panic!("fault seed {fault_seed}: structural failure: {e}"))
    };
    (s.world, report)
}

/// However faults reorder work, each VM's phase spans must be
/// non-overlapping and causally ordered in time (a VM may migrate
/// twice — degraded run plus recovery — so phases can repeat, but
/// never interleave).
fn assert_vm_causal_order(world: &World, ctx: &str) {
    use std::collections::BTreeMap;
    let mut per_vm: BTreeMap<String, Vec<(f64, f64, String)>> = BTreeMap::new();
    let json = ninja_sim::parse(&world.trace.to_chrome_json()).expect("trace JSON");
    for ev in json["traceEvents"].as_array().expect("traceEvents") {
        if ev["ph"].as_str() != Some("X") || ev["cat"].as_str() != Some("symvirt") {
            continue;
        }
        let name = ev["name"].as_str().unwrap_or("?");
        if !PHASES.contains(&name) {
            continue;
        }
        let vm = ev["args"]["vm"].as_str().unwrap_or("?").to_string();
        let ts = ev["ts"].as_f64().unwrap();
        let dur = ev["dur"].as_f64().unwrap_or(0.0);
        per_vm
            .entry(vm)
            .or_default()
            .push((ts, ts + dur, name.to_string()));
    }
    for (vm, mut spans) in per_vm {
        spans.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1)));
        let mut prev_end = f64::NEG_INFINITY;
        let mut prev_name = "-";
        for (start, end, name) in &spans {
            assert!(
                *start + 1e-6 >= prev_end,
                "{ctx}: {vm}: {name} at {start} overlaps {prev_name} ending at {prev_end}"
            );
            prev_end = *end;
            prev_name = name;
        }
        // A complete migration starts its phase cycle with coordination.
        assert_eq!(spans[0].2, "coordination", "{ctx}: {vm} skipped quiesce");
    }
}

#[test]
fn chaos_soak_every_fault_resolves_and_order_holds() {
    for fault_seed in 0..12u64 {
        for concurrency in [1, 2] {
            let ctx = format!("fault seed {fault_seed}, concurrency {concurrency}");
            let (world, report) = run_soak(fault_seed, concurrency);
            assert!(
                !world.faults.is_empty(),
                "{ctx}: random plan always arms something"
            );
            assert!(
                world.metrics.counter_total("ninja_fault_injections_total") >= 1,
                "{ctx}: every armed spec targets a triggered job, so it fires"
            );

            // Every job resolves exactly one way: clean success,
            // degrade + automatic recovery, or clean failure.
            for j in 0..JOBS {
                let outcomes: Vec<_> = report.jobs.iter().filter(|o| o.job == j).collect();
                let failed: Vec<_> = report.failures.iter().filter(|f| f.job == j).collect();
                let degraded = outcomes.iter().any(|o| o.degraded());
                match (outcomes.is_empty(), failed.len()) {
                    (false, 0) if degraded => {
                        assert!(
                            outcomes.iter().any(|o| o.reason == TriggerReason::Recovery),
                            "{ctx}: job {j} degraded but got no recovery migration"
                        );
                    }
                    (false, 0) => {
                        assert_eq!(outcomes.len(), 1, "{ctx}: job {j} migrated once");
                    }
                    (true, 1) => {
                        assert!(
                            !failed[0].error.is_empty(),
                            "{ctx}: job {j} failed without a typed error"
                        );
                    }
                    other => panic!("{ctx}: job {j} in impossible state {other:?}"),
                }
            }
            // Report accounting agrees with the metrics registry.
            assert_eq!(
                world.metrics.counter_total("ninja_degraded_jobs"),
                report.degraded_jobs() as u64,
                "{ctx}: degraded accounting"
            );
            assert_eq!(
                world
                    .metrics
                    .counter_total("ninja_recovery_migrations_total"),
                report.recovery_migrations() as u64,
                "{ctx}: recovery accounting"
            );
            assert_vm_causal_order(&world, &ctx);
        }
    }
}

#[test]
fn chaos_soak_is_deterministic_per_seed() {
    for fault_seed in [3u64, 7, 11] {
        let (_, a) = run_soak(fault_seed, 2);
        let (_, b) = run_soak(fault_seed, 2);
        assert_eq!(a.to_csv(), b.to_csv(), "fault seed {fault_seed}");
        assert_eq!(a.failures.len(), b.failures.len());
    }
}

#[test]
fn fault_free_failover_report_carries_no_fault_keys() {
    // The empty plan must leave the report's serialization untouched:
    // no degraded/recovery/failures keys, no extra CSV rows.
    let spec = ScenarioSpec {
        kind: ScenarioKind::Failover,
        jobs: JOBS,
        vms_per_job: 1,
        arrival: SimDuration::from_secs(20),
        seed: 2013,
    };
    let mut s = build(&spec).expect("scenario fits");
    let report = {
        let mut jobs: Vec<&mut dyn GuestCooperative> = s
            .jobs
            .iter_mut()
            .map(|j| j as &mut dyn GuestCooperative)
            .collect();
        run_fleet(
            &mut s.world,
            &mut jobs,
            s.scheduler,
            &FleetConfig::default(),
        )
        .unwrap()
    };
    assert_eq!(report.jobs.len(), JOBS);
    assert_eq!(report.degraded_jobs(), 0);
    assert!(report.failures.is_empty());
    let json = report.to_json_compact();
    for key in ["degraded", "recovery", "failures"] {
        assert!(!json.contains(key), "fault-free JSON leaks '{key}'");
    }
    let prom = s.world.metrics.to_prometheus();
    for metric in [
        "ninja_fault_injections_total",
        "ninja_retries_total",
        "ninja_degraded_jobs",
        "ninja_recovery_migrations_total",
    ] {
        assert!(!prom.contains(metric), "fault-free metrics leak {metric}");
    }
}

use ninja_sim::WriteJson;

/// A stall that runs a migration's clock to the end of simulated time
/// fails that job; it does not hang the engine or drop the job from
/// the report.
#[test]
fn stalls_past_the_end_of_the_clock_fail_their_jobs() {
    let spec = ScenarioSpec {
        kind: ScenarioKind::Evacuation,
        jobs: 2,
        vms_per_job: 1,
        arrival: SimDuration::from_secs(20),
        seed: 2013,
    };
    let mut s = build(&spec).expect("scenario fits");
    let stall = |job| FaultSpec {
        job: Some(job),
        stall: SimDuration::MAX,
        ..FaultSpec::new(FaultKind::PrecopyStall)
    };
    s.world.faults = FaultPlan::from_specs(vec![stall(0), stall(1)]);
    let report = {
        let mut jobs: Vec<&mut dyn GuestCooperative> = s
            .jobs
            .iter_mut()
            .map(|j| j as &mut dyn GuestCooperative)
            .collect();
        let cfg = FleetConfig {
            concurrency: 2,
            ..FleetConfig::default()
        };
        run_fleet(&mut s.world, &mut jobs, s.scheduler, &cfg).expect("the run ends")
    };
    assert!(report.jobs.is_empty(), "no job finished");
    let failed: Vec<usize> = report.failures.iter().map(|f| f.job).collect();
    assert_eq!(failed, vec![0, 1]);
    for f in &report.failures {
        assert!(f.error.contains("end of simulated time"), "{}", f.error);
    }
}

/// A trigger at the last instant of the clock can never be served: the
/// run says so instead of reporting a fleet without that job.
#[test]
fn a_trigger_at_the_end_of_the_clock_is_an_error() {
    let spec = ScenarioSpec {
        kind: ScenarioKind::Evacuation,
        jobs: 1,
        vms_per_job: 1,
        arrival: SimDuration::from_secs(20),
        seed: 2013,
    };
    let mut s = build(&spec).expect("scenario fits");
    let mut late = CloudScheduler::new();
    let dsts = vec![s.world.eth_node(0)];
    late.push_job(SimTime::MAX, dsts, TriggerReason::Fallback, 0);
    let mut jobs: Vec<&mut dyn GuestCooperative> = s
        .jobs
        .iter_mut()
        .map(|j| j as &mut dyn GuestCooperative)
        .collect();
    let Err(err) = run_fleet(&mut s.world, &mut jobs, late, &FleetConfig::default()) else {
        panic!("the job never ran, so the run cannot succeed");
    };
    assert!(matches!(err, FleetError::Unfinished(1)), "{err}");
}
