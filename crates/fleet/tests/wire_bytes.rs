//! Wire bytes, three views of one run: the per-VM `wire_bytes` labels on
//! `symvirt`/`migration` spans, the job-level `wire_bytes` label on each
//! `ninja`/`migration` span, the report's `total_wire_bytes` and the
//! `ninja_wire_bytes_total` counter must all agree. Per-VM detail lives
//! only in the trace: no exported metric series carries a `vm` label.

use ninja_fleet::{build_auto, run_fleet, FleetConfig, FleetReport, ScenarioKind, ScenarioSpec};
use ninja_json_tree::parse;
use ninja_migration::World;
use ninja_sim::{
    alerts, spans_from_chrome, AlertEngine, Bytes, LabelValue, SimDuration, TimeSeriesRecorder,
    Trace,
};
use ninja_symvirt::{FaultPlan, GuestCooperative};
use std::collections::BTreeMap;

/// One recorded fleet run: 30 s scrapes with the default alert rules,
/// an optional random fault plan, and the CLI's per-job wire metrics.
fn run(
    kind: ScenarioKind,
    jobs: usize,
    vms_per_job: usize,
    concurrency: usize,
    fault_seed: Option<u64>,
) -> (World, FleetReport) {
    let spec = ScenarioSpec {
        kind,
        jobs,
        vms_per_job,
        arrival: SimDuration::from_secs(20),
        seed: 7,
    };
    let mut s = build_auto(&spec, Trace::new()).expect("scenario fits");
    // A different footprint per VM of a job, so each VM moves its own
    // number of bytes and a label on the wrong VM shows in the sums.
    for rt in &s.jobs {
        for (i, &vm) in rt.layout().vms().iter().enumerate() {
            let memory = &mut s.world.pool.get_mut(vm).memory;
            memory.set_workload(Bytes::from_gib(1 + i as u64), 0.3, 1e9);
        }
    }
    if let Some(seed) = fault_seed {
        s.world.faults = FaultPlan::random(seed, jobs);
    }
    let rules = alerts::parse_rules(alerts::default_rules()).unwrap();
    s.world.install_recorder(
        TimeSeriesRecorder::new(SimDuration::from_secs(30)).with_alerts(AlertEngine::new(rules)),
    );
    let cfg = FleetConfig {
        concurrency,
        ..FleetConfig::default()
    };
    let report = {
        let mut dyn_jobs: Vec<&mut dyn GuestCooperative> = s
            .jobs
            .iter_mut()
            .map(|j| j as &mut dyn GuestCooperative)
            .collect();
        run_fleet(&mut s.world, &mut dyn_jobs, s.scheduler, &cfg).expect("fleet run")
    };
    s.world.record_wire_metrics(&s.jobs);
    s.world.finish_recorder();
    (s.world, report)
}

/// The configurations under test: evacuations at several shapes, plain
/// failover, and failover under random fault plans (retries,
/// degradations and recovery migrations).
fn cases() -> Vec<(String, World, FleetReport)> {
    let mut out = Vec::new();
    for (jobs, vms, conc) in [(8, 1, 1), (8, 1, 4), (24, 2, 8), (64, 1, 16)] {
        let (w, r) = run(ScenarioKind::Evacuation, jobs, vms, conc, None);
        out.push((format!("evacuation {jobs}x{vms} at {conc}"), w, r));
    }
    let (w, r) = run(ScenarioKind::Failover, 4, 1, 2, None);
    out.push(("failover".to_string(), w, r));
    for seed in [2013, 42, 7, 1, 99] {
        let (w, r) = run(ScenarioKind::Failover, 3, 1, 2, Some(seed));
        out.push((format!("failover --fault-seed {seed}"), w, r));
    }
    out
}

fn label_u64(v: Option<LabelValue<'_>>, what: &str) -> u64 {
    let v = v.unwrap_or_else(|| panic!("missing {what}"));
    v.as_u64()
        .unwrap_or_else(|| panic!("{what}: {v} is not an integer"))
}

#[test]
fn per_vm_span_labels_sum_to_job_span_report_and_counter() {
    for (ctx, world, report) in cases() {
        // Read the spans back from the exported Chrome trace.
        let (trace, _) = spans_from_chrome(&world.trace.to_chrome_json()).expect("trace JSON");
        // (job, mig) -> (job-level wire bytes, per-VM sum, VMs labeled).
        let mut per_mig: BTreeMap<(u64, u64), (Option<u64>, u64, usize)> = BTreeMap::new();
        for s in trace.all_spans().filter(|s| s.name() == "migration") {
            let key = (
                label_u64(s.label("job"), "job"),
                label_u64(s.label("mig"), "mig"),
            );
            let entry = per_mig.entry(key).or_default();
            match s.component() {
                "ninja" => {
                    let wire = label_u64(s.label("wire_bytes"), "job wire_bytes");
                    assert!(entry.0.replace(wire).is_none(), "{ctx}: {key:?} twice");
                }
                "symvirt" => {
                    let wire = label_u64(s.label("wire_bytes"), "VM wire_bytes");
                    entry.1 += wire;
                    entry.2 += 1;
                }
                other => panic!("{ctx}: unexpected migration span on {other}"),
            }
        }
        assert!(!per_mig.is_empty(), "{ctx}: no migrations");
        let mut fleet_total = 0;
        for (key, (job_wire, vm_sum, vms)) in &per_mig {
            let job_wire = job_wire.unwrap_or_else(|| panic!("{ctx}: {key:?} has no job span"));
            assert!(*vms > 0, "{ctx}: {key:?} has no per-VM spans");
            assert_eq!(*vm_sum, job_wire, "{ctx}: {key:?} per-VM sum");
            fleet_total += job_wire;
        }
        assert_eq!(
            fleet_total,
            report.total_wire_bytes(),
            "{ctx}: trace vs report"
        );
        assert_eq!(
            world.metrics.counter_total("ninja_wire_bytes_total"),
            fleet_total,
            "{ctx}: trace vs ninja_wire_bytes_total"
        );
    }
}

#[test]
fn no_exported_series_carries_a_vm_label() {
    for (ctx, world, _) in cases() {
        let prom = world.metrics.to_prometheus();
        assert!(
            !prom.contains("vm=\""),
            "{ctx}: --metrics-out text:\n{prom}"
        );
        let json = parse(&world.metrics.to_json()).expect("metrics JSON");
        for kind in ["counters", "gauges", "histograms"] {
            for series in json[kind].as_array().expect("series list") {
                assert!(
                    series["labels"].get("vm").is_none(),
                    "{ctx}: {kind} series {series:?}"
                );
            }
        }
        let rec = world.recorder.as_ref().expect("recorder installed");
        for sample in rec.samples() {
            for p in &sample.points {
                assert!(
                    p.labels.iter().all(|(k, _)| k != "vm"),
                    "{ctx}: recorded series {} {:?}",
                    p.name,
                    p.labels
                );
            }
        }
        for export in [rec.to_prometheus(), rec.to_jsonl(), rec.to_csv()] {
            assert!(
                !export.contains("\"vm\"") && !export.contains("vm=\""),
                "{ctx}"
            );
        }
    }
}
