//! Bit-identity gates for the event-driven fleet engine.
//!
//! The engine's outputs across the scenario × seed × fault-plan ×
//! concurrency matrix are pinned to the digest table
//! `tests/golden/matrix.sha256`, which holds the pre-optimization
//! reference engine's report JSON, report CSV, exported metrics and
//! recorded series (see the `digest` module). The serial orchestrator
//! is the fleet engine's one-job case: a one-job fleet at
//! `concurrency = 1` reports exactly what `NinjaOrchestrator::migrate`
//! does over the same world.

mod digest;

use digest::{check_matrix, Group};
use ninja_fleet::{build, run_fleet, FleetConfig, ScenarioKind, ScenarioSpec};
use ninja_migration::NinjaOrchestrator;
use ninja_sim::{SimDuration, SimTime, WriteJson};
use ninja_symvirt::GuestCooperative;
use ninja_vmm::MigrationConfig;

/// The full matrix: every scenario kind, several seeds, empty and
/// random fault plans, serial and concurrent admission.
#[test]
fn engine_matches_reference_across_matrix() {
    check_matrix(Group::Matrix);
}

/// The same gate with the flight recorder installed: scrape deadlines
/// are engine events, so bit-identity extends to the final registry
/// (including the alert series) and to every time-series exporter.
#[test]
fn engine_matches_reference_with_recorder_installed() {
    check_matrix(Group::Recorder);
}

/// Same gate on a scaled world: a 32-node-per-cluster evacuation with a
/// deep admission queue.
#[test]
fn engine_matches_reference_at_scale() {
    check_matrix(Group::Scaled);
}

/// The per-phase report of the fleet's single outcome and its finish
/// instant against the orchestrator's.
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
