//! Property-based tests across the whole stack.
//!
//! Each property runs a full Ninja migration (or scenario fragment)
//! under randomized shape parameters and seeds, and asserts structural
//! invariants that must hold for *every* configuration.

use ninja_migration::{NinjaOrchestrator, World};
use ninja_mpi::Rank;
use ninja_net::TransportKind;
use ninja_sim::{Bytes, SimDuration};
use ninja_workloads::{install_memory_profile, MemoryProfile};
use proptest::prelude::*;

/// Random but valid scenario shapes.
#[derive(Debug, Clone)]
struct Shape {
    vms: usize,
    procs_per_vm: u32,
    seed: u64,
    footprint_gib: u64,
    uniform: f64,
}

fn shape() -> impl Strategy<Value = Shape> {
    (1usize..=8, 1u32..=8, 0u64..10_000, 0u64..=16, 0.0f64..=1.0).prop_map(
        |(vms, procs_per_vm, seed, footprint_gib, uniform)| Shape {
            vms,
            procs_per_vm,
            seed,
            footprint_gib,
            uniform,
        },
    )
}

fn run_fallback(s: &Shape) -> (World, ninja_mpi::MpiRuntime, ninja_migration::NinjaReport) {
    let mut w = World::agc_untraced(s.seed);
    let vms = w.boot_ib_vms(s.vms);
    let mut rt = w.start_job(vms, s.procs_per_vm);
    install_memory_profile(
        &mut w,
        &rt,
        MemoryProfile {
            touched: Bytes::from_gib(s.footprint_gib),
            uniform_frac: s.uniform,
            dirty_bytes_per_sec: 1e9,
        },
    );
    let dsts: Vec<_> = (0..s.vms).map(|i| w.eth_node(i)).collect();
    let report = NinjaOrchestrator::default()
        .migrate(&mut w, &mut rt, &dsts)
        .expect("fallback always succeeds on AGC");
    (w, rt, report)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every fallback migration lands on TCP, reconstructs modules, and
    /// reports non-negative phases that sum to the total.
    #[test]
    fn fallback_invariants(s in shape()) {
        let (w, rt, report) = run_fallback(&s);
        if s.vms >= 2 {
            // Single-VM jobs have no inter-VM connections to classify.
            prop_assert_eq!(rt.uniform_network_kind(), Some(TransportKind::Tcp));
        }
        prop_assert!(report.btl_reconstructed);
        prop_assert_eq!(report.vm_count, s.vms);
        // Phases are unsigned nanoseconds; they add up to the total
        // exactly.
        let phases = [report.coordination, report.detach, report.migration, report.attach, report.linkup];
        prop_assert_eq!(phases.into_iter().sum::<SimDuration>(), report.total());
        // Ethernet destination: no attach, no link-up.
        prop_assert!(report.attach.is_zero());
        prop_assert!(report.linkup.is_zero());
        // Every VM moved exactly once and is running.
        for vm in w.pool.iter() {
            prop_assert_eq!(vm.migrations, 1);
            prop_assert_eq!(vm.state, ninja_vmm::VmState::Running);
        }
    }

    /// Migration always transfers at least the incompressible footprint
    /// and at most the whole of RAM (paused guest: no dirty inflation).
    #[test]
    fn wire_bytes_bounded(s in shape()) {
        let (w, _rt, report) = run_fallback(&s);
        let mut lower = 0u64;
        let mut upper = 0u64;
        for vm in w.pool.iter() {
            let mem = &vm.memory;
            lower += mem.os_resident().get();
            upper += mem.total().get() + (mem.total().pages(ninja_vmm::PAGE_SIZE)
                * ninja_vmm::COMPRESSED_PAGE_BYTES);
        }
        prop_assert!(report.wire_bytes >= lower,
            "wire {} >= resident {}", report.wire_bytes, lower);
        prop_assert!(report.wire_bytes <= upper,
            "wire {} <= ram+headers {}", report.wire_bytes, upper);
    }

    /// Determinism: the same shape yields bit-identical reports.
    #[test]
    fn deterministic(s in shape()) {
        let (_, _, a) = run_fallback(&s);
        let (_, _, b) = run_fallback(&s);
        prop_assert_eq!(a.total(), b.total());
        prop_assert_eq!(a.wire_bytes, b.wire_bytes);
    }

    /// Round trip always restores openib, and the clock only moves
    /// forward through both migrations.
    #[test]
    fn roundtrip_restores_ib(s in shape()) {
        let (mut w, mut rt, _) = run_fallback(&s);
        let t_mid = w.clock();
        let ib: Vec<_> = (0..s.vms).map(|i| w.ib_node(i)).collect();
        let report = NinjaOrchestrator::default()
            .migrate(&mut w, &mut rt, &ib)
            .expect("recovery");
        prop_assert!(w.clock() >= t_mid);
        if s.vms >= 2 {
            prop_assert_eq!(rt.uniform_network_kind(), Some(TransportKind::OpenIb));
        }
        prop_assert!(report.linkup.as_secs_f64() > 25.0, "recovery waits for link training");
    }

    /// Collective costs are monotone in message size for any layout and
    /// any transport the scenario lands on.
    #[test]
    fn collectives_monotone(s in shape(), on_eth in any::<bool>()) {
        let mut w = World::agc_untraced(s.seed);
        let vms = if on_eth { w.boot_eth_vms(s.vms) } else { w.boot_ib_vms(s.vms) };
        let rt = w.start_job(vms, s.procs_per_vm);
        let env = w.comm_env();
        let mut prev = ninja_sim::SimDuration::ZERO;
        for mib in [1u64, 8, 64, 512] {
            let t = rt.allreduce_time(Bytes::from_mib(mib), &env);
            prop_assert!(t >= prev);
            prev = t;
        }
    }

    /// BTL selection picks the highest-exclusivity reachable transport:
    /// co-located ranks always get shared memory, cross-VM ranks on the
    /// trained IB cluster always get openib.
    #[test]
    fn selection_respects_exclusivity(s in shape()) {
        let mut w = World::agc_untraced(s.seed);
        let vms = w.boot_ib_vms(s.vms);
        let rt = w.start_job(vms, s.procs_per_vm);
        let total = rt.layout().total_ranks();
        for i in 0..total {
            for j in (i + 1)..total {
                let kind = rt.transport_between(Rank(i), Rank(j)).unwrap();
                if rt.layout().co_located(Rank(i), Rank(j)) {
                    prop_assert_eq!(kind, TransportKind::SharedMemory);
                } else {
                    prop_assert_eq!(kind, TransportKind::OpenIb);
                }
            }
        }
    }

    /// Traffic conservation holds across a quiesce regardless of the
    /// number of in-flight messages.
    #[test]
    fn quiesce_conserves_messages(s in shape(), n_msgs in 0usize..50) {
        let mut w = World::agc_untraced(s.seed);
        let vms = w.boot_ib_vms(s.vms.max(2));
        let mut rt = w.start_job(vms, s.procs_per_vm);
        let env = w.comm_env();
        let total = rt.layout().total_ranks();
        let mut rng = ninja_sim::SimRng::new(s.seed ^ 0xabcd);
        for _ in 0..n_msgs {
            let a = Rank(rng.below(total as u64) as u32);
            let mut b = Rank(rng.below(total as u64) as u32);
            if a == b { b = Rank((b.0 + 1) % total); }
            let dt = ninja_sim::SimDuration::from_micros(rng.below(100_000));
            rt.record_send(a, b, Bytes::from_kib(64), w.clock() + dt);
        }
        let report = ninja_mpi::Crcp.quiesce(&mut rt, &env, w.clock());
        prop_assert_eq!(report.drained_messages, n_msgs);
        prop_assert_eq!(rt.inflight_count(), 0);
        prop_assert!(rt.conservation_holds());
    }
}

/// Scale: a 64-node data center (4x the AGC testbed) with eight jobs,
/// all evacuating to the Ethernet side at the same instant through the
/// fleet engine with eight migrations in flight. Exercises the topology
/// builder beyond the paper's scale and the engine's interleaving.
#[test]
fn big_data_center_concurrent_evacuations() {
    use ninja_cluster::{DataCenterBuilder, FabricKind, NodeSpec};
    use ninja_fleet::{run_fleet, FleetConfig};
    use ninja_migration::{CloudScheduler, TriggerReason};
    use ninja_symvirt::GuestCooperative;

    let mut b = DataCenterBuilder::new();
    let ib = b.add_cluster("big-ib", FabricKind::Infiniband, 32, NodeSpec::agc_blade());
    let eth = b.add_cluster("big-eth", FabricKind::Ethernet, 32, NodeSpec::agc_blade());
    b.shared_storage("nfs", &[ib, eth]);
    let mut w = World::from_parts(b.build(), ib, eth, 4242);

    // Eight 4-VM jobs side by side on the IB cluster.
    let mut jobs = Vec::new();
    let mut ready = ninja_sim::SimTime::ZERO;
    for j in 0..8usize {
        let mut vms = Vec::new();
        for i in 0..4 {
            let node = w.cluster_node(ib, j * 4 + i);
            let vm = w
                .pool
                .create(
                    format!("j{j}v{i}"),
                    ninja_vmm::VmSpec::paper_vm(),
                    node,
                    ninja_cluster::StorageId(0),
                    &mut w.dc,
                )
                .unwrap();
            let (_, at) = w
                .pool
                .attach_ib_hca(vm, &mut w.dc, ninja_sim::SimTime::ZERO, &mut w.rng)
                .unwrap();
            ready = ready.max(at);
            vms.push(vm);
        }
        jobs.push(vms);
    }
    w.advance_to(ready);
    let start = w.clock();
    let mut sched = CloudScheduler::new();
    let mut rts: Vec<_> = jobs
        .into_iter()
        .enumerate()
        .map(|(j, vms)| {
            // Each job evacuates to its own four Ethernet nodes.
            let dsts: Vec<_> = (0..4).map(|i| w.cluster_node(eth, j * 4 + i)).collect();
            sched.push_job(start, dsts, TriggerReason::Fallback, j);
            w.start_job(vms, 1)
        })
        .collect();
    let cfg = FleetConfig {
        concurrency: 8,
        ..FleetConfig::default()
    };
    let mut guests: Vec<&mut dyn GuestCooperative> = rts
        .iter_mut()
        .map(|rt| rt as &mut dyn GuestCooperative)
        .collect();
    let report = run_fleet(&mut w, &mut guests, sched, &cfg).unwrap();

    assert!(report.failures.is_empty(), "{:?}", report.failures);
    assert_eq!(report.jobs.len(), 8);
    // Everyone landed on the Ethernet cluster; the IB side is empty.
    for vm in w.pool.iter() {
        assert_eq!(w.dc.cluster_of(vm.node).0, eth.0);
    }
    for &n in &w.dc.cluster(ib).nodes {
        assert_eq!(w.dc.node(n).committed_vcpus(), 0);
    }
}
