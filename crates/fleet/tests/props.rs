//! Fleet invariants under interleaving.
//!
//! Two properties the ISSUE pins down:
//!
//! 1. **Causal phase order per VM.** However the engine interleaves
//!    jobs, every migrated VM emits the five Fig. 4 phases —
//!    coordination, detach, migration, attach, linkup — exactly once
//!    and in causal order (each span starts no earlier than the
//!    previous one ends).
//! 2. **Wire-byte conservation.** Fair-share contention reshuffles
//!    *time*, never *bytes*: the same scenario at any concurrency moves
//!    exactly the bytes the serial baseline moves, and the concurrent
//!    drain is never slower.
//!
//! The deterministic soak below sweeps scenarios × concurrency ×
//! seeds; the `proptest` feature (off by default, mirroring
//! `ninja-migration`) fuzzes the same invariants over random specs.

use ninja_fleet::{
    build, build_auto, percentile, run_fleet, FleetConfig, FleetReport, ScenarioKind, ScenarioSpec,
};
use ninja_migration::World;
use ninja_sim::{SimDuration, Trace};
use ninja_symvirt::GuestCooperative;

const PHASES: [&str; 5] = ["coordination", "detach", "migration", "attach", "linkup"];

fn spec(kind: ScenarioKind, jobs: usize, vms_per_job: usize, seed: u64) -> ScenarioSpec {
    ScenarioSpec {
        kind,
        jobs,
        vms_per_job,
        arrival: SimDuration::from_secs(20),
        seed,
    }
}

fn run(spec: &ScenarioSpec, concurrency: usize) -> (World, ninja_fleet::FleetReport) {
    let mut s = build(spec).expect("scenario fits");
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

/// Per-VM Fig. 4 check against the world trace: each migrated VM's
/// "symvirt" track carries each phase exactly once, in causal order.
fn assert_phase_order(world: &World, expected_vms: usize) {
    use std::collections::BTreeMap;
    // vm name -> phase -> (start, end), microseconds.
    let mut per_vm: BTreeMap<String, BTreeMap<String, (f64, f64)>> = BTreeMap::new();
    let json = ninja_sim::parse(&world.trace.to_chrome_json()).expect("trace JSON");
    for ev in json["traceEvents"].as_array().expect("traceEvents") {
        if ev["ph"].as_str() != Some("X") || ev["cat"].as_str() != Some("symvirt") {
            continue;
        }
        let name = ev["name"].as_str().unwrap_or("?");
        if !PHASES.contains(&name) {
            continue;
        }
        let vm = ev["args"]["vm"]
            .as_str()
            .or_else(|| ev["tid"].as_str())
            .unwrap_or("?")
            .to_string();
        let ts = ev["ts"].as_f64().unwrap();
        let dur = ev["dur"].as_f64().unwrap_or(0.0);
        let clash = per_vm
            .entry(vm.clone())
            .or_default()
            .insert(name.to_string(), (ts, ts + dur));
        assert!(clash.is_none(), "{vm}: phase {name} emitted twice");
    }
    assert_eq!(per_vm.len(), expected_vms, "every VM shows up in the trace");
    for (vm, spans) in &per_vm {
        let mut prev_end = f64::NEG_INFINITY;
        for phase in PHASES {
            let (start, end) = spans
                .get(phase)
                .unwrap_or_else(|| panic!("{vm}: missing {phase} span"));
            assert!(
                *start + 1e-9 >= prev_end,
                "{vm}: {phase} starts at {start} before the previous phase ends at {prev_end}"
            );
            prev_end = *end;
        }
    }
}

#[test]
fn interleaved_migrations_keep_fig4_order_per_vm() {
    for kind in [
        ScenarioKind::Evacuation,
        ScenarioKind::RollingDrain,
        ScenarioKind::Rebalance,
    ] {
        for concurrency in [1, 3, 8] {
            let s = spec(kind, 4, 2, 42);
            let (world, report) = run(&s, concurrency);
            assert_eq!(report.jobs.len(), 4);
            assert_phase_order(&world, 8);
        }
    }
}

#[test]
fn fair_share_conserves_wire_bytes_against_serial() {
    for seed in [1u64, 2013, 77] {
        for kind in [ScenarioKind::Evacuation, ScenarioKind::RollingDrain] {
            let s = spec(kind, 6, 1, seed);
            let (_, serial) = run(&s, 1);
            let (_, fleet) = run(&s, 4);
            assert_eq!(
                serial.total_wire_bytes(),
                fleet.total_wire_bytes(),
                "{kind:?}/{seed}: contention must reshuffle time, not bytes"
            );
            assert!(
                fleet.makespan <= serial.makespan,
                "{kind:?}/{seed}: overlap never slows the drain \
                 ({} vs {})",
                fleet.makespan,
                serial.makespan
            );
        }
    }
}

#[test]
fn evacuation_burst_speeds_up_strictly_with_concurrency() {
    let s = spec(ScenarioKind::Evacuation, 8, 1, 2013);
    let (_, serial) = run(&s, 1);
    let (_, fleet) = run(&s, 4);
    assert!(
        fleet.makespan < serial.makespan,
        "overlapping 8 queued jobs must beat draining them one by one \
         ({} vs {})",
        fleet.makespan,
        serial.makespan
    );
    // Every job but the first waits in the serial queue; at
    // concurrency 4 the median wait collapses.
    let p50_queue_wait = |r: &FleetReport| {
        let waits: Vec<_> = r.jobs.iter().map(|j| j.queue_wait()).collect();
        percentile(&waits, 50.0)
    };
    assert!(p50_queue_wait(&fleet) < p50_queue_wait(&serial));
}

#[test]
fn soak_many_seeds_stay_deterministic() {
    for seed in 0..10u64 {
        let s = spec(ScenarioKind::RollingDrain, 4, 2, seed);
        let (_, a) = run(&s, 3);
        let (_, b) = run(&s, 3);
        assert_eq!(a.to_csv(), b.to_csv(), "seed {seed}: bitwise repeatable");
        assert_eq!(a.makespan, b.makespan);
    }
}

#[cfg(feature = "proptest")]
mod prop {
    use super::*;
    use ninja_cluster::NodeId;
    use ninja_migration::{CloudScheduler, NinjaOrchestrator, TriggerReason};
    use ninja_mpi::MpiRuntime;
    use ninja_sim::WriteJson;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Random fleet shapes keep both invariants.
        #[test]
        fn random_fleets_hold_invariants(
            jobs in 1usize..=4,
            vms_per_job in 1usize..=2,
            concurrency in 1usize..=8,
            seed in 0u64..1000,
            kind_ix in 0usize..3,
        ) {
            let kind = [
                ScenarioKind::Evacuation,
                ScenarioKind::RollingDrain,
                ScenarioKind::Rebalance,
            ][kind_ix];
            let s = spec(kind, jobs, vms_per_job, seed);
            let (world, report) = run(&s, concurrency);
            prop_assert_eq!(report.jobs.len(), jobs);
            assert_phase_order(&world, jobs * vms_per_job);
            let (_, serial) = run(&s, 1);
            prop_assert_eq!(serial.total_wire_bytes(), report.total_wire_bytes());
        }

        /// One job of random size onto random Ethernet hosts (wrapped,
        /// repeated) fails or lands alike through the serial orchestrator
        /// and a one-job fleet on the default config, and leaves the same
        /// ledger behind. A landed job reports the same phases and
        /// finishes at the same instant: a funnel shares its destination
        /// port alike on both paths, and 4 × 1.3 Gb/s stays under the
        /// fleet's 10 Gb/s uplink.
        #[test]
        fn serial_and_fleet_agree_on_capacity(
            vms in 1usize..=4,
            hosts in proptest::collection::vec(0usize..8, 1..=4),
            seed in 0u64..1000,
        ) {
            let boot = || {
                let mut w = World::agc(seed);
                let job = w.boot_ib_vms(vms);
                let rt = w.start_job(job, 1);
                let dsts: Vec<NodeId> = hosts.iter().map(|&i| w.eth_node(i)).collect();
                (w, rt, dsts)
            };
            let placement = |w: &World, rt: &MpiRuntime| -> Vec<NodeId> {
                rt.layout().vms().iter().map(|&vm| w.pool.get(vm).node).collect()
            };

            let (mut w, mut rt, dsts) = boot();
            let serial = NinjaOrchestrator::default()
                .migrate(&mut w, &mut rt, &dsts)
                .map(|r| (r.to_json_compact(), w.clock()))
                .map_err(|e| e.to_string());
            assert_ledger(&w);
            let serial_nodes = placement(&w, &rt);

            let (mut w, mut rt, dsts) = boot();
            let mut scheduler = CloudScheduler::new();
            scheduler.push_job(w.clock(), dsts, TriggerReason::Fallback, 0);
            let report = run_fleet(
                &mut w,
                &mut [&mut rt as &mut dyn GuestCooperative],
                scheduler,
                &FleetConfig::default(),
            )
            .expect("fleet run");
            assert_ledger(&w);
            let fleet = match (report.jobs.first(), report.failures.first()) {
                (Some(j), None) => Ok((j.report.to_json_compact(), j.finished_at)),
                (None, Some(f)) => Err(f.error.clone()),
                _ => panic!("one outcome or one failure"),
            };
            prop_assert_eq!(serial, fleet);
            prop_assert_eq!(serial_nodes, placement(&w, &rt));
        }
    }

    /// Every node's committed vCPUs and memory are the sums over the VMs
    /// resident on it.
    fn assert_ledger(w: &World) {
        for node in w.dc.nodes() {
            let (vcpus, mem) = w
                .pool
                .iter()
                .filter(|v| v.node == node.id)
                .fold((0, 0), |(c, m), v| {
                    (c + v.spec.vcpus, m + v.spec.memory.get())
                });
            assert_eq!(node.committed_vcpus(), vcpus, "vCPUs on {:?}", node.id);
            assert_eq!(
                node.committed_memory().get(),
                mem,
                "memory on {:?}",
                node.id
            );
        }
    }
}

/// No herd: the engine steps a machine parked on the wire only when one
/// of its own streams drains, so a fault-free one-VM evacuation costs
/// the same few machine steps per job (quiesce, detach, open, land,
/// attach, resume) however many jobs share the uplink. Waking every
/// precopying machine at every drain cost 243 steps per job at 4096
/// jobs and concurrency 256.
#[test]
fn machine_steps_per_job_stay_flat() {
    for jobs in [16usize, 64, 256, 1024, 4096] {
        for concurrency in [4usize, 256] {
            let spec = spec(ScenarioKind::Evacuation, jobs, 1, 2013);
            let mut s = build_auto(&spec, Trace::disabled()).expect("scenario fits");
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
            assert_eq!(report.jobs.len(), jobs);
            let per_job = report.machine_steps as f64 / jobs as f64;
            assert!(
                per_job <= 8.0,
                "{jobs} jobs at concurrency {concurrency}: {per_job:.1} steps per job"
            );
        }
    }
}
