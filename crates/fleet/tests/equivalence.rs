//! Bit-identity gates for the event-driven fleet engine.
//!
//! The perf rewrite (heap-keyed wake/recovery queues in `run_fleet`,
//! incremental water-filling in `FairShareLink`) is pure mechanism: it
//! must change *how much work* a fleet run does, never *what it
//! computes*. These tests pin the rewritten engine bit-identical to the
//! retained pre-optimization baseline
//! ([`run_fleet_reference`](ninja_fleet::run_fleet_reference)) across
//! the scenario × seed × fault-plan × concurrency matrix — report JSON,
//! report CSV, and the full exported metrics text — and pin the serial
//! (`concurrency = 1`) fleet path to `NinjaOrchestrator::migrate`.

use ninja_fleet::{
    build, build_scaled, run_fleet, run_fleet_reference, FleetConfig, FleetReport, ScenarioKind,
    ScenarioSpec,
};
use ninja_migration::{NinjaOrchestrator, World};
use ninja_sim::{SimDuration, SimTime, WriteJson};
use ninja_symvirt::{FaultPlan, GuestCooperative};
use ninja_vmm::MigrationConfig;

fn spec(kind: ScenarioKind, seed: u64) -> ScenarioSpec {
    ScenarioSpec {
        kind,
        jobs: 3,
        vms_per_job: 1,
        arrival: SimDuration::from_secs(20),
        seed,
    }
}

/// Run one fleet with either engine over a freshly built scenario.
fn run_one(
    spec: &ScenarioSpec,
    fault_seed: Option<u64>,
    concurrency: usize,
    reference: bool,
) -> (World, FleetReport) {
    let mut s = build(spec).expect("scenario fits");
    if let Some(fs) = fault_seed {
        s.world.faults = FaultPlan::random(fs, spec.jobs);
    }
    let cfg = FleetConfig {
        concurrency,
        ..FleetConfig::default()
    };
    let mut jobs: Vec<&mut dyn GuestCooperative> = s
        .jobs
        .iter_mut()
        .map(|j| j as &mut dyn GuestCooperative)
        .collect();
    let report = if reference {
        run_fleet_reference(&mut s.world, &mut jobs, s.scheduler, &cfg)
    } else {
        run_fleet(&mut s.world, &mut jobs, s.scheduler, &cfg)
    }
    .expect("structural failure");
    drop(jobs);
    (s.world, report)
}

fn assert_identical(ctx: &str, new: &(World, FleetReport), reference: &(World, FleetReport)) {
    assert_eq!(
        new.1.to_json_compact(),
        reference.1.to_json_compact(),
        "{ctx}: report JSON diverged"
    );
    assert_eq!(
        new.1.to_csv(),
        reference.1.to_csv(),
        "{ctx}: report CSV diverged"
    );
    assert_eq!(
        new.0.metrics.to_prometheus(),
        reference.0.metrics.to_prometheus(),
        "{ctx}: exported metrics diverged"
    );
}

/// The full matrix: every scenario kind, several seeds, empty and
/// random fault plans, serial and concurrent admission.
#[test]
fn engine_matches_reference_across_matrix() {
    let kinds = [
        ScenarioKind::Evacuation,
        ScenarioKind::RollingDrain,
        ScenarioKind::Rebalance,
        ScenarioKind::Failover,
    ];
    for kind in kinds {
        for seed in [2013u64, 42, 7] {
            for fault_seed in [None, Some(0xfa17)] {
                for concurrency in [1usize, 3] {
                    let spec = spec(kind, seed);
                    let ctx = format!(
                        "kind={} seed={seed} faults={fault_seed:?} concurrency={concurrency}",
                        kind.name()
                    );
                    let new = run_one(&spec, fault_seed, concurrency, false);
                    let old = run_one(&spec, fault_seed, concurrency, true);
                    assert_identical(&ctx, &new, &old);
                }
            }
        }
    }
}

/// The same gate with the flight recorder installed: scrape deadlines
/// become heap events in both engines, so bit-identity must extend to
/// the final registry (including the alert series) and to every
/// time-series exporter.
#[test]
fn engine_matches_reference_with_recorder_installed() {
    use ninja_sim::{alerts, AlertEngine, TimeSeriesRecorder};
    let run = |kind: ScenarioKind, fault_seed: Option<u64>, reference: bool| {
        let spec = spec(kind, 2013);
        let mut s = build(&spec).expect("scenario fits");
        if let Some(fs) = fault_seed {
            s.world.faults = FaultPlan::random(fs, spec.jobs);
        }
        s.world.install_recorder(
            TimeSeriesRecorder::new(SimDuration::from_secs(30)).with_alerts(AlertEngine::new(
                alerts::parse_rules(alerts::default_rules()).unwrap(),
            )),
        );
        let cfg = FleetConfig {
            concurrency: 3,
            deadline: Some(SimDuration::from_secs(60)),
            ..FleetConfig::default()
        };
        let mut jobs: Vec<&mut dyn GuestCooperative> = s
            .jobs
            .iter_mut()
            .map(|j| j as &mut dyn GuestCooperative)
            .collect();
        let report = if reference {
            run_fleet_reference(&mut s.world, &mut jobs, s.scheduler, &cfg)
        } else {
            run_fleet(&mut s.world, &mut jobs, s.scheduler, &cfg)
        }
        .expect("structural failure");
        drop(jobs);
        (s.world, report)
    };
    for kind in [ScenarioKind::Evacuation, ScenarioKind::Failover] {
        for fault_seed in [None, Some(0xfa17)] {
            let ctx = format!("recorder kind={} faults={fault_seed:?}", kind.name());
            let new = run(kind, fault_seed, false);
            let old = run(kind, fault_seed, true);
            assert_identical(&ctx, &new, &old);
            let (rec_new, rec_old) = (new.0.recorder.unwrap(), old.0.recorder.unwrap());
            assert_eq!(
                rec_new.to_prometheus(),
                rec_old.to_prometheus(),
                "{ctx}: time series diverged"
            );
            assert_eq!(rec_new.to_jsonl(), rec_old.to_jsonl(), "{ctx}: jsonl");
            assert_eq!(rec_new.to_csv(), rec_old.to_csv(), "{ctx}: csv");
        }
    }
}

/// Same gate on a scaled world (the shape the `fleet_scale` bench
/// runs): a 32-node-per-cluster evacuation with a deep admission queue.
#[test]
fn engine_matches_reference_at_scale() {
    let spec = ScenarioSpec {
        kind: ScenarioKind::Evacuation,
        jobs: 24,
        vms_per_job: 1,
        arrival: SimDuration::from_secs(20),
        seed: 2013,
    };
    let cfg = FleetConfig {
        concurrency: 6,
        ..FleetConfig::default()
    };
    let run = |reference: bool| {
        let mut s = build_scaled(&spec, 32).expect("scenario fits");
        let mut jobs: Vec<&mut dyn GuestCooperative> = s
            .jobs
            .iter_mut()
            .map(|j| j as &mut dyn GuestCooperative)
            .collect();
        let report = if reference {
            run_fleet_reference(&mut s.world, &mut jobs, s.scheduler, &cfg)
        } else {
            run_fleet(&mut s.world, &mut jobs, s.scheduler, &cfg)
        }
        .expect("structural failure");
        drop(jobs);
        (report.to_json_compact(), s.world.metrics.to_prometheus())
    };
    let new = run(false);
    let old = run(true);
    assert_eq!(new.0, old.0, "scaled report diverged");
    assert_eq!(new.1, old.1, "scaled metrics diverged");
}

/// Satellite gate: a one-job fleet at `concurrency = 1` is the serial
/// orchestrator. The per-phase report of the fleet's single outcome is
/// bit-identical to `NinjaOrchestrator::migrate` over the same world.
///
/// The config is chosen so both wire models land on *exactly* the same
/// tick: with `rdma_transport: true` a single uncontended flow runs at
/// the raw 10 Gb/s NIC rate, so the ~1.65 GB precopy wire time
/// (~1.3 s) falls below the page-scan floor of the first pass (20 GiB
/// walked at 6 GB/s ≈ 3.6 s). Both the queueing and the fair-share
/// wire then complete at `now + plan.duration()` with no tick-rounding
/// divergence (the fair-share drain instant ceils to the ns tick while
/// the queueing path truncates — a 1 ns split whenever wire time is
/// the binding constraint).
#[test]
fn serial_fleet_is_bit_identical_to_orchestrator_migrate() {
    let spec = ScenarioSpec {
        kind: ScenarioKind::Evacuation,
        jobs: 1,
        vms_per_job: 1,
        arrival: SimDuration::from_secs(30),
        seed: 2013,
    };
    let rdma = MigrationConfig {
        rdma_transport: true,
        ..MigrationConfig::default()
    };
    // Fleet path.
    let mut s = build(&spec).expect("scenario fits");
    let cfg = FleetConfig {
        monitor: ninja_vmm::QemuMonitor::new(rdma.clone()),
        ..FleetConfig::default()
    };
    let fleet_report = {
        let mut jobs: Vec<&mut dyn GuestCooperative> = s
            .jobs
            .iter_mut()
            .map(|j| j as &mut dyn GuestCooperative)
            .collect();
        run_fleet(&mut s.world, &mut jobs, s.scheduler, &cfg).expect("fleet run")
    };
    assert_eq!(fleet_report.jobs.len(), 1);
    let fleet_job = &fleet_report.jobs[0];

    // Serial path: same scenario, the orchestrator driven by hand at
    // the trigger instant with the trigger's destinations.
    let mut s2 = build(&spec).expect("scenario fits");
    let trig = s2.scheduler.poll(SimTime::MAX).expect("one trigger");
    s2.world.advance_to(trig.at);
    let orch = NinjaOrchestrator::new(rdma);
    let serial = orch
        .migrate(&mut s2.world, &mut s2.jobs[0], &trig.dsts)
        .expect("serial migration");

    assert_eq!(
        fleet_job.report.to_json_compact(),
        serial.to_json_compact(),
        "serial fleet diverged from NinjaOrchestrator::migrate"
    );
    assert_eq!(
        fleet_job.finished_at,
        s2.world.clock(),
        "finish instants diverged"
    );
}
