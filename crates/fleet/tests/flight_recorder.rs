//! Flight-recorder integration: virtual-time scrapes through the fleet
//! engine, the alert lifecycle, terminal gauge transitions, and
//! critical-path blackout attribution from a real fleet trace.

mod digest;

use digest::{check_matrix, Group};
use ninja_fleet::{build_auto, run_fleet, FleetConfig, FleetReport, ScenarioKind, ScenarioSpec};
use ninja_migration::{World, PHASE_NAMES};
use ninja_sim::{alerts, AlertEngine, SimDuration, SimRng, TimeSeriesRecorder, Trace, WriteJson};
use ninja_symvirt::{FaultPlan, GuestCooperative};

fn spec(kind: ScenarioKind, jobs: usize, seed: u64) -> ScenarioSpec {
    ScenarioSpec {
        kind,
        jobs,
        vms_per_job: 1,
        arrival: SimDuration::from_secs(20),
        seed,
    }
}

/// Build and run one recorded fleet: a 30 s scrape interval, optional
/// alert rules, optional random fault plan, 60 s deadline.
fn run_recorded(
    kind: ScenarioKind,
    jobs: usize,
    seed: u64,
    fault_seed: Option<u64>,
    rules: Option<&str>,
) -> (World, FleetReport) {
    let mut s = build_auto(&spec(kind, jobs, seed), Trace::new()).expect("scenario fits");
    if let Some(fs) = fault_seed {
        s.world.faults = FaultPlan::random(fs, jobs);
    }
    let mut rec = TimeSeriesRecorder::new(SimDuration::from_secs(30));
    if let Some(text) = rules {
        rec = rec.with_alerts(AlertEngine::new(alerts::parse_rules(text).unwrap()));
    }
    s.world.install_recorder(rec);
    let cfg = FleetConfig {
        concurrency: 2,
        deadline: Some(SimDuration::from_secs(60)),
        ..FleetConfig::default()
    };
    let report = {
        let mut dyn_jobs: Vec<&mut dyn GuestCooperative> = s
            .jobs
            .iter_mut()
            .map(|j| j as &mut dyn GuestCooperative)
            .collect();
        run_fleet(&mut s.world, &mut dyn_jobs, s.scheduler, &cfg).unwrap()
    };
    (s.world, report)
}

/// The scenario × seed × fault matrix of recorded six-job fleets: every
/// exporter's output and the report match, byte for byte, the
/// reference engine's digests in `tests/golden/matrix.sha256`.
#[test]
fn time_series_identical_between_engines() {
    check_matrix(Group::Auto);
}

#[test]
fn scrape_timestamps_are_monotone_and_on_interval() {
    let (world, _) = run_recorded(ScenarioKind::Evacuation, 6, 2013, None, None);
    let rec = world.recorder.unwrap();
    let samples = rec.samples();
    assert!(
        samples.len() >= 3,
        "a multi-minute drain scrapes repeatedly"
    );
    let mut prev = None;
    for s in samples {
        if let Some(p) = prev {
            assert!(s.at > p, "strictly monotone virtual time");
            let delta = s.at.since(p).as_nanos();
            assert_eq!(
                delta % SimDuration::from_secs(30).as_nanos(),
                0,
                "scrapes land exactly on the interval grid"
            );
        }
        prev = Some(s.at);
    }
}

#[test]
fn terminal_gauge_transition_lands_in_the_series_for_both_engines() {
    // The transition-only gauges must record their return to zero at
    // drain: the final scrape (driven by `finish_recorder`) sees both
    // at 0 after having been nonzero mid-run.
    let (world, _) = run_recorded(ScenarioKind::Evacuation, 6, 2013, None, None);
    let rec = world.recorder.unwrap();
    let value_in = |points: &[ninja_sim::SeriesPoint], name: &str| -> Option<f64> {
        points.iter().find(|p| p.name == name).map(|p| p.value)
    };
    let last = rec.samples().back().unwrap();
    for gauge in ["ninja_fleet_queue_depth", "ninja_fleet_inflight_migrations"] {
        assert_eq!(
            value_in(&last.points, gauge),
            Some(0.0),
            "{gauge} ends at zero"
        );
        assert!(
            rec.samples()
                .iter()
                .any(|s| value_in(&s.points, gauge).is_some_and(|v| v > 0.0)),
            "{gauge} was nonzero mid-run"
        );
    }
}

#[test]
fn burn_alert_fires_and_resolves_under_a_fault_plan() {
    let (world, report) = run_recorded(
        ScenarioKind::Failover,
        4,
        2013,
        Some(0xfa17),
        Some(alerts::default_rules()),
    );
    assert!(
        !report.alerts.is_empty(),
        "default rules fire on this drill"
    );
    let burn = report
        .alerts
        .iter()
        .find(|a| a.rule.ends_with("-burn"))
        .expect("a burn-rate alert fired");
    assert!(
        burn.resolved_at.is_some(),
        "trailing scrapes resolve the burn alert ({})",
        burn.rule
    );
    assert!(burn.resolved_at.unwrap() > burn.fired_at);
    // The lifecycle shows up as trace instants and alert series too.
    let count = |name| world.trace.instants().filter(|i| i.name() == name).count();
    assert!(count("alert.fired") >= 1);
    assert!(count("alert.resolved") >= 1);
    let prom = world.metrics.to_prometheus();
    assert!(prom.contains("ninja_alerts_fired_total"));
    assert!(prom.contains("ninja_alerts_active"));
    // Incidents appear in the SLO report JSON, in firing order.
    let json = ninja_sim::parse(&report.to_json_compact()).unwrap();
    let arr = json["alerts"].as_array().unwrap();
    assert_eq!(arr.len(), report.alerts.len());
    assert!(arr[0]["rule"].as_str().is_some());
}

#[test]
fn report_json_has_no_alerts_key_without_incidents() {
    let (_, report) = run_recorded(ScenarioKind::Evacuation, 2, 2013, None, None);
    assert!(report.alerts.is_empty());
    assert!(!report.to_json_compact().contains("\"alerts\""));
}

#[test]
fn critical_paths_attribute_fleet_blackout_from_the_chrome_export() {
    // 1024 jobs keeps the matcher honest about scale: it indexes the
    // spans once instead of rescanning them per envelope and phase.
    for jobs in [6, 1024] {
        let (world, report) = run_recorded(
            ScenarioKind::Evacuation,
            jobs,
            2013,
            None,
            Some(alerts::default_rules()),
        );
        let doc = ninja_sim::parse(&world.trace.to_chrome_json()).unwrap();
        let spans = ninja_sim::spans_from_chrome(&doc);
        let paths = ninja_sim::critical_paths(&spans, &PHASE_NAMES);
        assert_eq!(paths.len(), report.jobs.len(), "one path per migration");
        for p in &paths {
            assert!(
                p.coverage() >= 0.99,
                "job {:?} mig {:?}: {:.4} of blackout attributed",
                p.job,
                p.mig,
                p.coverage()
            );
            assert!(!p.dominant.is_empty());
            // Only phases present in the span tree are attributed.
            assert!(!p.phases.is_empty() && p.phases.len() <= PHASE_NAMES.len());
            // The per-phase critical VM is one of the job's VMs.
            for ph in &p.phases {
                if let Some(vm) = &ph.critical_vm {
                    assert!(vm.starts_with("job"), "critical VM {vm} is a fleet VM");
                }
            }
        }
        // Reconstructed job indices cover the fleet.
        let covered: std::collections::BTreeSet<_> = paths.iter().filter_map(|p| p.job).collect();
        assert_eq!(covered.len(), jobs);
    }
}

/// One fleet of the recorder-independence property: scenario, jobs,
/// concurrency, world seed and fault seed.
type Fleet = (ScenarioKind, usize, usize, u64, Option<u64>);

/// Runs `fleet` (30 s arrivals, as `ninja fleet` spaces them), with a
/// recorder scraping every `scrape` seconds under the default alert
/// rules if given. Returns the report, the Chrome trace and the
/// Prometheus metrics, each without the alert engine's own records:
/// incidents, `alert.*` instants and `ninja_alerts_*` series.
fn observed(fleet: Fleet, scrape: Option<u64>) -> [String; 3] {
    let (kind, jobs, concurrency, seed, fault_seed) = fleet;
    let spec = ScenarioSpec {
        arrival: SimDuration::from_secs(30),
        ..spec(kind, jobs, seed)
    };
    let mut s = build_auto(&spec, Trace::new()).expect("scenario fits");
    if let Some(fs) = fault_seed {
        s.world.faults = FaultPlan::random(fs, jobs);
    }
    if let Some(secs) = scrape {
        let rules = alerts::parse_rules(alerts::default_rules()).unwrap();
        s.world.install_recorder(
            TimeSeriesRecorder::new(SimDuration::from_secs(secs))
                .with_alerts(AlertEngine::new(rules)),
        );
    }
    let cfg = FleetConfig {
        concurrency,
        ..FleetConfig::default()
    };
    let mut report = {
        let mut dyn_jobs: Vec<&mut dyn GuestCooperative> = s
            .jobs
            .iter_mut()
            .map(|j| j as &mut dyn GuestCooperative)
            .collect();
        run_fleet(&mut s.world, &mut dyn_jobs, s.scheduler, &cfg).unwrap()
    };
    report.alerts.clear();
    let trace = ninja_sim::parse(&s.world.trace.to_chrome_json()).expect("trace JSON");
    let events: Vec<String> = trace["traceEvents"]
        .as_array()
        .expect("traceEvents")
        .iter()
        .filter(|ev| !ev["name"].as_str().is_some_and(|n| n.starts_with("alert.")))
        .map(WriteJson::to_json_compact)
        .collect();
    let metrics: String = s
        .world
        .metrics
        .to_prometheus()
        .lines()
        .filter(|l| !l.contains("ninja_alerts_"))
        .map(|l| format!("{l}\n"))
        .collect();
    [report.to_json_pretty(), events.join("\n"), metrics]
}

/// The scrape rule (`ninja_sim::timeseries`): a flight recorder at any
/// interval changes nothing else the run computes. Random fleets run
/// without a recorder and with one at 1 s, 7 s and 30 s; the report,
/// the trace and the metrics, less the alert engine's own records, are
/// byte-identical to the unrecorded run's. The first fleet is `ninja
/// fleet --jobs 256 --concurrency 8 --seed 1`, whose report a recorder
/// used to shift by 1 ns where its scrapes split a fabric interval.
#[test]
fn recorder_never_changes_the_run() {
    let kinds = [
        ScenarioKind::Evacuation,
        ScenarioKind::RollingDrain,
        ScenarioKind::Rebalance,
        ScenarioKind::Failover,
    ];
    let mut rng = SimRng::new(0x0b5e_7e18);
    let mut fleets: Vec<Fleet> = vec![(ScenarioKind::Evacuation, 256, 8, 1, None)];
    for _ in 0..8 {
        let kind = kinds[rng.below(kinds.len() as u64) as usize];
        let jobs = 1 + rng.below(48) as usize;
        let concurrency = 1 + rng.below(16) as usize;
        let fault_seed = rng.chance(0.5).then(|| rng.next_u64());
        fleets.push((kind, jobs, concurrency, rng.next_u64(), fault_seed));
    }
    for fleet in fleets {
        let plain = observed(fleet, None);
        for secs in [1, 7, 30] {
            let recorded = observed(fleet, Some(secs));
            for (file, (a, b)) in ["report", "trace", "metrics"]
                .iter()
                .zip(plain.iter().zip(&recorded))
            {
                assert!(a == b, "{fleet:?}, {secs} s scrapes: the {file} moved");
            }
        }
    }
}
