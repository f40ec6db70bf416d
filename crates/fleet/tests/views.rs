//! The report, the trace and the metrics are three views of one run,
//! and they agree exactly. Every reported phase is read off the same
//! phase instants as the trace's phase spans, so on the in-memory
//! trace the critical-path envelope of each migration equals its
//! report's blackout to the nanosecond, each phase span equals the
//! report's phase, and the migration and wire-byte counters equal the
//! report's totals. Retry backoff and precopy stalls included: one of
//! the runs fires them.

use ninja_fleet::{build_auto, run_fleet, FleetConfig, FleetReport, ScenarioKind, ScenarioSpec};
use ninja_migration::{World, PHASE_NAMES};
use ninja_sim::{critical_paths, SimDuration, Trace};
use ninja_symvirt::{FaultPlan, GuestCooperative};
use std::collections::BTreeMap;

fn run(
    kind: ScenarioKind,
    jobs: usize,
    concurrency: usize,
    seed: u64,
    faults: Option<u64>,
) -> (World, FleetReport) {
    let spec = ScenarioSpec {
        kind,
        jobs,
        vms_per_job: 1,
        arrival: SimDuration::from_secs(20),
        seed,
    };
    let mut s = build_auto(&spec, Trace::new()).expect("scenario fits");
    if let Some(fault_seed) = faults {
        s.world.faults = FaultPlan::random(fault_seed, jobs);
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
    (s.world, report)
}

fn assert_views_agree(world: &World, report: &FleetReport, ctx: &str) {
    // Outcomes by (job, mig): a job's outcomes are in migration order.
    let mut outcomes = BTreeMap::new();
    let mut migs: BTreeMap<usize, u64> = BTreeMap::new();
    for o in &report.jobs {
        let mig = migs.entry(o.job).or_default();
        outcomes.insert((o.job as u64, *mig), o);
        *mig += 1;
    }
    let paths = critical_paths(&world.trace, &PHASE_NAMES);
    assert_eq!(
        paths.len(),
        report.jobs.len(),
        "{ctx}: one envelope per outcome"
    );
    for p in &paths {
        let key = (p.job.expect("job label"), p.mig.expect("mig label"));
        let o = outcomes
            .remove(&key)
            .unwrap_or_else(|| panic!("{ctx}: no outcome for {key:?}"));
        let r = &o.report;
        assert_eq!(p.start, o.started_at, "{ctx} {key:?}: start");
        assert_eq!(p.end, o.finished_at, "{ctx} {key:?}: end");
        assert_eq!(p.blackout, o.blackout(), "{ctx} {key:?}: blackout");
        assert_eq!(
            p.blackout,
            o.finished_at.since(o.started_at),
            "{ctx} {key:?}: blackout vs finished - started"
        );
        let phases = [r.coordination, r.detach, r.migration, r.attach, r.linkup];
        let spans: Vec<(&str, SimDuration)> = p
            .phases
            .iter()
            .map(|ph| (ph.phase.as_str(), ph.duration))
            .collect();
        let want: Vec<(&str, SimDuration)> = PHASE_NAMES.into_iter().zip(phases).collect();
        assert_eq!(spans, want, "{ctx} {key:?}: phase spans vs report phases");
        assert_eq!(p.attributed, p.blackout, "{ctx} {key:?}: phases tile");
    }
    assert!(outcomes.is_empty(), "{ctx}: outcomes without an envelope");
    let m = &world.metrics;
    assert_eq!(
        m.counter_total("ninja_migrations_total"),
        report.jobs.len() as u64,
        "{ctx}: migrations"
    );
    assert_eq!(
        m.counter_total("ninja_wire_bytes_total"),
        report.total_wire_bytes(),
        "{ctx}: wire bytes"
    );
}

#[test]
fn fault_free_fleets_agree_across_report_trace_and_metrics() {
    for (kind, name) in [
        (ScenarioKind::Evacuation, "evacuation"),
        (ScenarioKind::RollingDrain, "drain"),
    ] {
        for concurrency in [1, 4] {
            let (world, report) = run(kind, 12, concurrency, 11, None);
            assert_views_agree(&world, &report, &format!("{name}/c{concurrency}"));
        }
    }
}

#[test]
fn faulted_failover_agrees_across_report_trace_and_metrics() {
    let (world, report) = run(ScenarioKind::Failover, 8, 2, 7, Some(2013));
    assert!(
        world.metrics.counter_total("ninja_retries_total") > 0,
        "the fault plan fires retries"
    );
    assert!(report.degraded_jobs() > 0, "and degrades a job");
    assert_views_agree(&world, &report, "failover/faults");
}
