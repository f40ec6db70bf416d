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
/// instant against the orchestrator's, on the default
/// `MigrationConfig`: both paths land their streams through the same
/// migration fabric, so they agree to the tick.
#[test]
fn serial_fleet_is_bit_identical_to_orchestrator_migrate() {
    for vms_per_job in [1, 4] {
        let spec = ScenarioSpec {
            kind: ScenarioKind::Evacuation,
            jobs: 1,
            vms_per_job,
            arrival: SimDuration::from_secs(30),
            seed: 2013,
        };
        // Fleet path.
        let mut s = build(&spec).expect("scenario fits");
        let fleet_report = {
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
            .expect("fleet run")
        };
        assert_eq!(fleet_report.jobs.len(), 1);
        let fleet_job = &fleet_report.jobs[0];

        // Serial path: same scenario, the orchestrator driven by hand at
        // the trigger instant with the trigger's destinations.
        let mut s2 = build(&spec).expect("scenario fits");
        let trig = s2.scheduler.poll(SimTime::MAX).expect("one trigger");
        s2.world.advance_to(trig.at);
        let serial = NinjaOrchestrator::default()
            .migrate(&mut s2.world, &mut s2.jobs[0], &trig.dsts)
            .expect("serial migration");

        assert_eq!(
            fleet_job.report.to_json_compact(),
            serial.to_json_compact(),
            "{vms_per_job} VM(s): serial fleet diverged from NinjaOrchestrator::migrate"
        );
        assert_eq!(
            fleet_job.finished_at,
            s2.world.clock(),
            "{vms_per_job} VM(s): finish instants diverged"
        );
    }
}
