//! End-to-end integration test of the paper's Fig. 8 scenario:
//! `4 hosts (IB) -> 2 hosts (TCP) -> 4 hosts (IB) -> 4 hosts (TCP)`,
//! with the bcast+reduce workload and migrations every 10 steps.

use ninja_migration::{NinjaOrchestrator, World};
use ninja_net::TransportKind;
use ninja_workloads::{run_with_step_plan, BcastReduce, RunRecord, StepPlan};

fn run_scenario(procs_per_vm: u32, seed: u64) -> RunRecord {
    let mut w = World::agc(seed);
    let vms = w.boot_ib_vms(4);
    let mut rt = w.start_job(vms, procs_per_vm);
    let bench = BcastReduce::new(40, procs_per_vm);
    let plan: StepPlan = vec![
        (11, (0..2).map(|i| w.eth_node(i)).collect()),
        (21, (0..4).map(|i| w.ib_node(i)).collect()),
        (31, (0..4).map(|i| w.eth_node(i)).collect()),
    ];
    run_with_step_plan(
        &mut w,
        &mut rt,
        &bench,
        &plan,
        &NinjaOrchestrator::default(),
    )
    .expect("scenario completes")
}

fn phase_mean(rec: &RunRecord, range: std::ops::RangeInclusive<u32>) -> f64 {
    let xs: Vec<f64> = rec
        .iterations
        .iter()
        .filter(|r| range.contains(&r.step) && r.overhead.is_zero())
        .map(|r| r.app_time.as_secs_f64())
        .collect();
    xs.iter().sum::<f64>() / xs.len() as f64
}

#[test]
fn scenario_completes_all_40_iterations() {
    let rec = run_scenario(1, 1);
    assert_eq!(rec.iterations.len(), 40);
    assert_eq!(rec.migrations().count(), 3);
}

#[test]
fn migrations_fire_exactly_at_plan_steps() {
    let rec = run_scenario(1, 2);
    let steps: Vec<u32> = rec
        .iterations
        .iter()
        .filter(|r| r.migration.is_some())
        .map(|r| r.step)
        .collect();
    assert_eq!(steps, vec![11, 21, 31]);
}

#[test]
fn transport_sequence_is_ib_tcp_ib_tcp() {
    let rec = run_scenario(1, 3);
    let transitions: Vec<(Option<&str>, Option<&str>)> = rec
        .migrations()
        .map(|m| (m.transport_before, m.transport_after))
        .collect();
    assert_eq!(
        transitions,
        vec![
            (Some("openib"), Some("tcp")),
            (Some("tcp"), Some("openib")),
            (Some("openib"), Some("tcp")),
        ]
    );
}

#[test]
fn phase_speeds_follow_the_paper() {
    for (ppv, seed) in [(1u32, 4u64), (8, 5)] {
        let rec = run_scenario(ppv, seed);
        let ib1 = phase_mean(&rec, 1..=10);
        let tcp2 = phase_mean(&rec, 11..=20); // 2 hosts, over-committed
        let ib3 = phase_mean(&rec, 21..=30);
        let tcp4 = phase_mean(&rec, 31..=40); // 4 hosts
        assert!(ib1 < tcp4, "{ppv}ppv: IB faster than TCP ({ib1} vs {tcp4})");
        assert!(
            tcp2 > tcp4,
            "{ppv}ppv: consolidated TCP slowest ({tcp2} vs {tcp4})"
        );
        assert!(
            (ib3 - ib1).abs() / ib1 < 0.05,
            "{ppv}ppv: recovery restores IB speed ({ib1} vs {ib3})"
        );
    }
}

#[test]
fn overhead_independent_of_process_count() {
    // "The total overhead is identical as the number of process per VM
    // increases from 1 to 8."
    let o1 = run_scenario(1, 6).overhead_total().as_secs_f64();
    let o8 = run_scenario(8, 7).overhead_total().as_secs_f64();
    assert!(
        (o1 - o8).abs() / o1 < 0.15,
        "overheads {o1:.1} vs {o8:.1} should match"
    );
}

#[test]
fn recovery_pays_linkup_fallbacks_do_not() {
    let rec = run_scenario(1, 8);
    let migs: Vec<_> = rec.migrations().collect();
    assert!(migs[0].linkup.is_zero(), "fallback to Ethernet: no link-up");
    assert!(
        migs[1].linkup.as_secs_f64() > 25.0,
        "recovery to IB: ~30 s link training"
    );
    assert!(migs[2].linkup.is_zero(), "second fallback: no link-up");
}

#[test]
fn consolidation_overcommits_and_returns() {
    let mut w = World::agc(9);
    let vms = w.boot_ib_vms(4);
    let mut rt = w.start_job(vms, 8);
    let orch = NinjaOrchestrator::default();
    let two: Vec<_> = (0..2).map(|i| w.eth_node(i)).collect();
    orch.migrate(&mut w, &mut rt, &two).unwrap();
    assert_eq!(w.dc.node(w.eth_node(0)).cpu_contention(), 2.0);
    assert_eq!(w.dc.node(w.eth_node(1)).cpu_contention(), 2.0);
    let four: Vec<_> = (0..4).map(|i| w.ib_node(i)).collect();
    orch.migrate(&mut w, &mut rt, &four).unwrap();
    assert_eq!(w.dc.node(w.eth_node(0)).cpu_contention(), 1.0);
    assert_eq!(rt.uniform_network_kind(), Some(TransportKind::OpenIb));
}

#[test]
fn identical_seeds_are_bit_identical() {
    let a = run_scenario(1, 42);
    let b = run_scenario(1, 42);
    assert_eq!(a.total, b.total);
    let ta: Vec<_> = a.iterations.iter().map(|r| r.elapsed()).collect();
    let tb: Vec<_> = b.iterations.iter().map(|r| r.elapsed()).collect();
    assert_eq!(ta, tb, "the simulation is deterministic");
}

#[test]
fn different_seeds_jitter_but_agree_qualitatively() {
    let a = run_scenario(1, 100);
    let b = run_scenario(1, 200);
    // Jitter changes exact numbers...
    assert_ne!(a.total, b.total);
    // ...but not the structure.
    assert_eq!(a.migrations().count(), b.migrations().count());
    let rel = (a.total.as_secs_f64() - b.total.as_secs_f64()).abs() / a.total.as_secs_f64();
    assert!(rel < 0.05, "runs differ only by calibration jitter: {rel}");
}

/// Assert the five job-level "ninja" phase spans appear exactly once,
/// in Fig. 4 order, non-overlapping.
fn assert_fig4_order(w: &World) {
    let mut last_end = ninja_sim::SimTime::ZERO;
    for name in ninja_migration::PHASE_NAMES {
        let spans = w.trace.spans_of("ninja", name);
        assert_eq!(spans.len(), 1, "{name} ran exactly once");
        assert!(
            spans[0].start() >= last_end,
            "{name} begins after the previous phase"
        );
        assert!(spans[0].end() >= spans[0].start());
        last_end = spans[0].end();
    }
}

#[test]
fn phases_run_in_fig4_order_recovery() {
    // Fig. 4: wait -> detach -> migration -> re-attach -> signal ->
    // confirm linkup. The trace must show the spans in exactly that
    // order, non-overlapping — here for an IB-destination migration.
    let mut w = World::agc(11);
    let vms = w.boot_ib_vms(4);
    let mut rt = w.start_job(vms, 1);
    let ib: Vec<_> = (0..4).map(|i| w.ib_node(i)).collect();
    NinjaOrchestrator::default()
        .migrate(&mut w, &mut rt, &ib)
        .unwrap();
    assert_fig4_order(&w);
}

#[test]
fn phases_run_in_fig4_order_fallback() {
    // The same causal ordering must hold falling back to Ethernet,
    // where detach/attach/linkup legitimately collapse to zero width.
    let mut w = World::agc(12);
    let vms = w.boot_ib_vms(4);
    let mut rt = w.start_job(vms, 1);
    let eth: Vec<_> = (0..4).map(|i| w.eth_node(i)).collect();
    NinjaOrchestrator::default()
        .migrate(&mut w, &mut rt, &eth)
        .unwrap();
    assert_fig4_order(&w);
}

#[test]
fn trace_phase_markers_cover_every_migration() {
    let mut w = World::agc(10);
    let vms = w.boot_ib_vms(4);
    let mut rt = w.start_job(vms, 1);
    let dsts: Vec<_> = (0..4).map(|i| w.eth_node(i)).collect();
    NinjaOrchestrator::default()
        .migrate(&mut w, &mut rt, &dsts)
        .unwrap();
    for phase in ninja_migration::PHASE_NAMES {
        assert!(
            w.trace.span(phase).is_some(),
            "trace has a complete {phase} span"
        );
    }
    assert!(w
        .trace
        .instants()
        .all(|i| i.label("level").is_some_and(|l| l == "INFO")));
}

#[test]
fn every_vm_gets_a_span_per_phase() {
    // The acceptance bar for the telemetry layer: one complete span
    // per migration phase per VM, even where a VM had nothing to do in
    // a phase (e.g. no HCA to detach).
    let mut w = World::agc(13);
    let vms = w.boot_ib_vms(3);
    let names: Vec<String> = vms.iter().map(|&v| w.pool.name(v).to_string()).collect();
    let mut rt = w.start_job(vms, 1);
    let eth: Vec<_> = (0..3).map(|i| w.eth_node(i)).collect();
    NinjaOrchestrator::default()
        .migrate(&mut w, &mut rt, &eth)
        .unwrap();
    for phase in ninja_migration::PHASE_NAMES {
        let spans = w.trace.spans_of("symvirt", phase);
        for vm in &names {
            assert_eq!(
                spans
                    .iter()
                    .filter(|s| s.labels().any(|(k, v)| k == "vm" && v == vm.as_str()))
                    .count(),
                1,
                "exactly one {phase} span for {vm}"
            );
        }
    }
}

#[test]
fn all_spans_are_well_formed_and_round_trip() {
    // Every span a roundtrip emits is well-formed (end >= start,
    // within the run window) and survives the Chrome trace
    // export/parse round trip.
    let mut w = World::agc(14);
    let vms = w.boot_ib_vms(2);
    let mut rt = w.start_job(vms, 1);
    let eth: Vec<_> = (0..2).map(|i| w.eth_node(i)).collect();
    let ib: Vec<_> = (0..2).map(|i| w.ib_node(i)).collect();
    let orch = NinjaOrchestrator::default();
    orch.migrate(&mut w, &mut rt, &eth).unwrap();
    orch.migrate(&mut w, &mut rt, &ib).unwrap();
    assert!(w.trace.all_spans().len() > 0);
    for s in w.trace.all_spans() {
        assert!(
            s.end() >= s.start(),
            "span {}/{} ends before it starts",
            s.component(),
            s.name()
        );
        assert!(
            s.end() <= w.clock(),
            "span {}/{} ends in the future",
            s.component(),
            s.name()
        );
    }
    let doc = ninja_sim::parse(&w.trace.to_chrome_json()).expect("the trace parses");
    let back = ninja_sim::spans_from_chrome(&doc);
    assert_eq!(back.all_spans().len(), w.trace.all_spans().len());
}
