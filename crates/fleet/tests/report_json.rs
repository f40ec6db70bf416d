//! Byte fixtures for the fleet SLO report's JSON form.
//!
//! Two hand-built reports cover every key the report can emit: one with
//! all the optional keys (degraded and recovered jobs, a recovery
//! migration, a failure, alert incidents, a deadline) and one with no
//! outcomes at all (`"outcomes": []`). Their pretty and compact
//! renderings are pinned byte for byte in `tests/fixtures/`.

use ninja_fleet::{FleetReport, JobFailure, JobOutcome};
use ninja_migration::{NinjaReport, TriggerReason};
use ninja_sim::{AlertIncident, Bytes, SimDuration, SimTime, WriteJson};
use std::path::Path;

fn migration(mig_s: u64, before: Option<&'static str>, after: Option<&'static str>) -> NinjaReport {
    NinjaReport::new(
        SimDuration::from_millis(5),
        SimDuration::from_nanos(2_800_000_001),
        SimDuration::from_secs(mig_s),
        SimDuration::from_nanos(100),
        SimDuration::ZERO,
        Bytes::from_gib(3) + Bytes::new(7),
        before,
        after,
        true,
        2,
    )
}

fn outcome(job: usize, reason: TriggerReason, wait_ns: u64, report: NinjaReport) -> JobOutcome {
    let triggered = SimTime::from_nanos(300_000_000);
    let wait = SimDuration::from_nanos(wait_ns);
    JobOutcome {
        job,
        reason,
        triggered_at: triggered,
        started_at: triggered + wait,
        finished_at: triggered + wait + report.total(),
        deadline_missed: wait > SimDuration::from_secs(100),
        report,
    }
}

/// A report with every optional key present.
fn every_key() -> FleetReport {
    let mut degraded = migration(40, Some("openib"), Some("tcp"));
    degraded.degraded = true;
    let at = |ms: u64| SimTime::ZERO + SimDuration::from_millis(ms);
    FleetReport {
        jobs: vec![
            outcome(0, TriggerReason::Fallback, 0, degraded),
            outcome(
                1,
                TriggerReason::Placement,
                150_250_000_000,
                migration(7, None, Some("openib")),
            ),
            outcome(
                0,
                TriggerReason::Recovery,
                100,
                migration(12, Some("tcp"), Some("openib")),
            ),
        ],
        makespan: SimDuration::from_nanos(212_000_000_100),
        concurrency: 2,
        peak_queue_depth: 1,
        deadline: Some(SimDuration::from_secs(120)),
        failures: vec![JobFailure {
            job: 2,
            reason: TriggerReason::Fallback,
            error: "QMP command \"device_del\" timed out\n\tafter 3 retries \\ \u{1}".into(),
            failed_at: SimTime::from_nanos(33_500_000_000),
        }],
        alerts: vec![
            AlertIncident {
                rule: "queue-backlog".into(),
                fired_at: at(30_000),
                resolved_at: Some(at(90_500)),
            },
            AlertIncident {
                rule: "retry-burn".into(),
                fired_at: at(60_000),
                resolved_at: None,
            },
        ],
        machine_steps: 0,
    }
}

/// A report with no outcomes, failures or alerts and no deadline.
fn no_outcomes() -> FleetReport {
    FleetReport {
        jobs: Vec::new(),
        makespan: SimDuration::ZERO,
        concurrency: 4,
        peak_queue_depth: 0,
        deadline: None,
        failures: Vec::new(),
        alerts: Vec::new(),
        machine_steps: 0,
    }
}

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn report_with_every_optional_key_matches_its_fixture() {
    let r = every_key();
    assert_eq!(r.to_json_pretty(), fixture("report-every-key.json"));
    assert_eq!(
        r.to_json_compact(),
        fixture("report-every-key.compact.json")
    );
}

#[test]
fn report_without_outcomes_matches_its_fixture() {
    let r = no_outcomes();
    let pretty = r.to_json_pretty();
    assert!(pretty.contains("\"outcomes\": []"), "{pretty}");
    assert_eq!(pretty, fixture("report-no-outcomes.json"));
    assert_eq!(
        r.to_json_compact(),
        fixture("report-no-outcomes.compact.json")
    );
}
