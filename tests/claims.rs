//! The paper's three experimental claims, verified end-to-end.
//!
//! * **C1** — "the proposed mechanism has no performance overhead
//!   during normal operations";
//! * **C2** — "MPI processes running on distributed VMs can migrate
//!   between an Infiniband cluster and an Ethernet cluster without
//!   restarting the processes";
//! * **C3** — the overhead decomposes into negligible coordination +
//!   constant hotplug + constant link-up + footprint-dependent
//!   (sublinear) migration.

use ninja_cluster::{DataCenterBuilder, FabricKind, NodeSpec};
use ninja_migration::{CloudScheduler, NinjaOrchestrator, TriggerReason, World};
use ninja_sim::{Bytes, SimDuration};
use ninja_workloads::{run_workload, BcastReduce, Memtest, Npb, NpbKind};

fn two_ib(seed: u64) -> World {
    let mut b = DataCenterBuilder::new();
    let a = b.add_cluster("a", FabricKind::Infiniband, 8, NodeSpec::agc_blade());
    let c = b.add_cluster("b", FabricKind::Infiniband, 8, NodeSpec::agc_blade());
    b.shared_storage("nfs", &[a, c]);
    World::from_parts(b.build(), a, c, seed)
}

// ---------------------------------------------------------------- C1

#[test]
fn c1_application_time_unchanged_by_mechanism_presence() {
    // Running under the Ninja-enabled stack without triggering a
    // migration must cost exactly nothing vs. the same run (the
    // mechanism is dormant until the cloud scheduler fires).
    let npb = Npb::class_d(NpbKind::Cg);
    let orch = NinjaOrchestrator::default();

    let mut w1 = two_ib(50);
    let vms = w1.boot_ib_vms(8);
    let mut rt1 = w1.start_job(vms, 8);
    let mut empty = CloudScheduler::new();
    let a = run_workload(&mut w1, &mut rt1, &npb, &mut empty, &orch).unwrap();

    let mut w2 = two_ib(51);
    let vms = w2.boot_ib_vms(8);
    let mut rt2 = w2.start_job(vms, 8);
    let mut sched = CloudScheduler::new();
    let fire = w2.clock() + SimDuration::from_secs(180);
    let dsts: Vec<_> = (0..8).map(|i| w2.cluster_node(w2.eth_cluster, i)).collect();
    sched.push(fire, dsts, TriggerReason::Placement);
    let b = run_workload(&mut w2, &mut rt2, &npb, &mut sched, &orch).unwrap();

    // The migrated run's *application* time equals the baseline's total.
    let base = a.total.as_secs_f64();
    let app = b.app_total().as_secs_f64();
    assert!(
        (app - base).abs() / base < 0.02,
        "C1: app {app:.1} vs baseline {base:.1}"
    );
    // And its total exceeds it by exactly the measured overhead.
    let total = b.total.as_secs_f64();
    let overhead = b.overhead_total().as_secs_f64();
    assert!((total - app - overhead).abs() < 1e-6);
}

#[test]
fn c1_passthrough_matches_native_transport_cost() {
    // VMM-bypass means the virtualized job sees the same message costs
    // as bare metal: the openib cost model has no virtualization tax
    // term, and CPU contention at 1.0 leaves it untouched.
    let model = ninja_net::models::openib();
    let b = Bytes::from_mib(64);
    let dedicated = model.message(b, 1.0).elapsed;
    let wire_plus_latency = model.latency() + model.bandwidth().transfer_time(b);
    assert_eq!(dedicated, wire_plus_latency);
}

// ---------------------------------------------------------------- C2

#[test]
fn c2_processes_survive_ib_to_eth_and_back() {
    let mut w = World::agc(52);
    let vms = w.boot_ib_vms(4);
    let mut rt = w.start_job(vms.clone(), 8);
    let orch = NinjaOrchestrator::default();
    let ranks_before = rt.layout().total_ranks();
    let vms_before: Vec<_> = rt.layout().vms().to_vec();

    let eth: Vec<_> = (0..4).map(|i| w.eth_node(i)).collect();
    let ib: Vec<_> = (0..4).map(|i| w.ib_node(i)).collect();
    orch.migrate(&mut w, &mut rt, &eth).unwrap();
    orch.migrate(&mut w, &mut rt, &ib).unwrap();

    // Same processes: same ranks, same VMs, runtime still Active, and
    // the runtime was never torn down (only its connections were).
    assert_eq!(rt.layout().total_ranks(), ranks_before);
    assert_eq!(rt.layout().vms(), &vms_before[..]);
    assert_eq!(rt.state(), ninja_mpi::RuntimeState::Active);
    for &vm in &vms {
        assert_eq!(w.pool.get(vm).migrations, 2);
        assert_eq!(w.pool.get(vm).state, ninja_vmm::VmState::Running);
    }
}

#[test]
fn c2_identifiers_change_but_connectivity_survives() {
    // Section III-C: "there are no problems even if Local IDs (port
    // addresses) or Queue Pair Numbers are changed after a migration."
    let mut w = World::agc(53);
    let vms = w.boot_ib_vms(2);
    let mut rt = w.start_job(vms, 1);
    let before = rt
        .connection(ninja_mpi::Rank(0), ninja_mpi::Rank(1))
        .unwrap()
        .clone();
    let orch = NinjaOrchestrator::default();
    let eth: Vec<_> = (0..2).map(|i| w.eth_node(i)).collect();
    let ib: Vec<_> = (0..2).map(|i| w.ib_node(i)).collect();
    orch.migrate(&mut w, &mut rt, &eth).unwrap();
    orch.migrate(&mut w, &mut rt, &ib).unwrap();
    let after = rt
        .connection(ninja_mpi::Rank(0), ninja_mpi::Rank(1))
        .unwrap();
    assert_eq!(before.kind, after.kind, "openib both times");
    assert_ne!(before.endpoint, after.endpoint, "fresh LIDs/QPNs");
    assert!(after.epoch > before.epoch);
}

// ---------------------------------------------------------------- C3

#[test]
fn c3_overhead_decomposition() {
    let mut reports = Vec::new();
    for (i, array) in Memtest::fig6_sizes().into_iter().enumerate() {
        let mut w = two_ib(60 + i as u64);
        let vms = w.boot_ib_vms(8);
        let mut rt = w.start_job(vms, 1);
        ninja_workloads::install_memory_profile(
            &mut w,
            &rt,
            ninja_workloads::MemoryProfile {
                touched: array,
                uniform_frac: 0.6,
                dirty_bytes_per_sec: 4.0e9,
            },
        );
        let dsts: Vec<_> = (0..8).map(|j| w.cluster_node(w.eth_cluster, j)).collect();
        let r = NinjaOrchestrator::default()
            .migrate(&mut w, &mut rt, &dsts)
            .unwrap();
        reports.push(r);
    }
    // Coordination negligible.
    assert!(reports.iter().all(|r| r.coordination.as_secs_f64() < 0.1));
    // Hotplug constant.
    let hp: Vec<f64> = reports.iter().map(|r| r.hotplug().as_secs_f64()).collect();
    assert!(hp.iter().all(|&h| (hp[0] - h).abs() < 2.0), "{hp:?}");
    // Link-up constant ~30 s.
    assert!(reports
        .iter()
        .all(|r| (28.0..31.5).contains(&r.linkup.as_secs_f64())));
    // Migration grows, sublinearly.
    let mig: Vec<f64> = reports.iter().map(|r| r.migration.as_secs_f64()).collect();
    assert!(mig.windows(2).all(|w| w[1] > w[0]), "{mig:?}");
    assert!(mig[3] / mig[0] < 8.0, "sublinear: {mig:?}");
}

#[test]
fn c3_frozen_during_migration() {
    // "During Ninja migration, an application is completely frozen"
    // (Section V): no application progress is recorded inside the
    // migration window — the iteration carrying the migration costs
    // app_time + the whole overhead.
    let mut w = World::agc(54);
    let vms = w.boot_ib_vms(4);
    let mut rt = w.start_job(vms, 1);
    let bench = BcastReduce::new(5, 1);
    let plan: ninja_workloads::StepPlan = vec![(3, (0..4).map(|i| w.eth_node(i)).collect())];
    let rec = ninja_workloads::run_with_step_plan(
        &mut w,
        &mut rt,
        &bench,
        &plan,
        &NinjaOrchestrator::default(),
    )
    .unwrap();
    let it3 = &rec.iterations[2];
    let report = it3.migration.as_ref().unwrap();
    assert!(
        (it3.overhead.as_secs_f64() - report.total().as_secs_f64()).abs() < 0.5,
        "the full overhead lands in the frozen window"
    );
}
