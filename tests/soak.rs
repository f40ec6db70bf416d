//! Soak / model-checking test: random operation sequences against the
//! whole stack, with global invariants checked after every step.
//!
//! The orchestrator, VMM, device table, and MPI runtime each maintain
//! their own bookkeeping; this test drives them through arbitrary
//! interleavings of migrations (spread/packed, either cluster,
//! self-migrations) and checkpoint/restart cycles, and asserts the
//! cross-cutting conservation laws that no individual unit test can see
//! break.

use ninja_cluster::Attachment;
use ninja_migration::{NinjaOrchestrator, World};
use ninja_mpi::MpiRuntime;
use ninja_sim::SimTime;
use ninja_vmm::VmState;
use proptest::prelude::*;

#[derive(Debug, Clone, Copy)]
enum Op {
    /// Migrate to n distinct Ethernet hosts (n = VM count).
    SpreadEth,
    /// Migrate to n distinct IB hosts.
    SpreadIb,
    /// Consolidate 2:1 onto Ethernet hosts.
    PackEth,
    /// Self-migration (same nodes).
    SelfMigrate,
    /// Coordinated checkpoint (job keeps running).
    Checkpoint,
    /// Checkpoint, destroy everything, restart on the other cluster.
    CrashAndRestart,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        Just(Op::SpreadEth),
        Just(Op::SpreadIb),
        Just(Op::PackEth),
        Just(Op::SelfMigrate),
        Just(Op::Checkpoint),
        Just(Op::CrashAndRestart),
    ]
}

/// The conservation laws that must hold between steps.
fn check_invariants(w: &World, rt: &MpiRuntime, clock_before: SimTime) {
    // 1. Time only moves forward.
    assert!(w.clock() >= clock_before, "clock went backwards");

    // 2. Node accounting == sum of live VMs placed there.
    for node in w.dc.nodes() {
        let (vcpus, mem): (u32, u64) = w
            .pool
            .iter()
            .filter(|v| v.node == node.id && v.state != VmState::Stopped)
            .fold((0, 0), |(c, m), v| {
                (c + v.spec.vcpus, m + v.spec.memory.get())
            });
        assert_eq!(
            node.committed_vcpus(),
            vcpus,
            "vcpu ledger on {:?}",
            node.id
        );
        assert_eq!(
            node.committed_memory().get(),
            mem,
            "memory ledger on {:?}",
            node.id
        );
        assert!(mem <= node.spec.memory.get(), "memory oversubscribed");
    }

    // 3. Device table consistency: every device the guest index lists
    //    under a VM has that VM as its own attachment; every host-pool
    //    HCA is resource-free.
    for v in w.pool.iter() {
        for d in w.dc.devices.on_vm(v.id.0) {
            assert_eq!(
                w.dc.devices.get(d).attachment(),
                Attachment::Guest { vm: v.id.0 },
                "attachment backlink"
            );
        }
    }
    for dev in w.dc.devices.iter() {
        if let Attachment::Host { .. } = dev.attachment() {
            if let ninja_cluster::DeviceKind::IbHca(hca) = &dev.kind {
                assert!(!hca.has_resources(), "pooled HCA must hold no QPs/MRs");
                assert_eq!(hca.pinned_bytes().get(), 0);
            }
        }
    }

    // 4. The job is whole: Active runtime, every live job VM Running.
    assert_eq!(rt.state(), ninja_mpi::RuntimeState::Active);
    let pairs = rt.layout().pairs().count();
    let census: usize = rt.kind_census().values().sum();
    assert_eq!(census, pairs, "fully connected");
    for &vm in rt.layout().vms() {
        assert_eq!(w.pool.get(vm).state, VmState::Running, "job VM running");
    }
}

fn apply(op: Op, w: &mut World, rt: &mut MpiRuntime) {
    let orch = NinjaOrchestrator::default();
    let n = rt.layout().vms().len();
    match op {
        Op::SpreadEth => {
            let dsts: Vec<_> = (0..n).map(|i| w.eth_node(i)).collect();
            orch.migrate(w, rt, &dsts).expect("spread eth");
        }
        Op::SpreadIb => {
            let dsts: Vec<_> = (0..n).map(|i| w.ib_node(i)).collect();
            orch.migrate(w, rt, &dsts).expect("spread ib");
        }
        Op::PackEth => {
            let hosts = n.div_ceil(2).max(1);
            let dsts: Vec<_> = (0..hosts).map(|i| w.eth_node(i)).collect();
            orch.migrate(w, rt, &dsts).expect("pack eth");
        }
        Op::SelfMigrate => {
            let dsts: Vec<_> = rt
                .layout()
                .vms()
                .iter()
                .map(|&vm| w.pool.get(vm).node)
                .collect();
            orch.migrate(w, rt, &dsts).expect("self migrate");
        }
        Op::Checkpoint => {
            orch.checkpoint(w, rt).expect("checkpoint");
        }
        Op::CrashAndRestart => {
            let (handle, _) = orch.checkpoint(w, rt).expect("checkpoint");
            let old: Vec<_> = rt.layout().vms().to_vec();
            // Which cluster is the job on? (Decide before destroying.)
            let was_ib = w.dc.cluster_of(w.pool.get(old[0]).node) == w.ib_cluster;
            for vm in old {
                w.pool.destroy(vm, &mut w.dc);
            }
            // Restart on the other cluster.
            let dsts: Vec<_> = (0..n)
                .map(|i| if was_ib { w.eth_node(i) } else { w.ib_node(i) })
                .collect();
            orch.restart(w, rt, &handle, &dsts).expect("restart");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn random_operation_sequences_preserve_invariants(
        ops in prop::collection::vec(op_strategy(), 1..8),
        vms in 2usize..5,
        procs in 1u32..4,
        seed in 0u64..10_000,
    ) {
        let mut w = World::agc_untraced(seed);
        let job_vms = w.boot_ib_vms(vms);
        let mut rt = w.start_job(job_vms, procs);
        check_invariants(&w, &rt, SimTime::ZERO);
        for &op in &ops {
            let before = w.clock();
            apply(op, &mut w, &mut rt);
            check_invariants(&w, &rt, before);
        }
    }
}

/// A long deterministic soak mixing every operation repeatedly.
#[test]
fn deterministic_long_soak() {
    let mut w = World::agc_untraced(20_13);
    let job_vms = w.boot_ib_vms(4);
    let mut rt = w.start_job(job_vms, 2);
    let script = [
        Op::SpreadEth,
        Op::Checkpoint,
        Op::SpreadIb,
        Op::PackEth,
        Op::SpreadIb,
        Op::SelfMigrate,
        Op::CrashAndRestart,
        Op::SpreadIb,
        Op::Checkpoint,
        Op::PackEth,
        Op::SpreadIb,
        Op::CrashAndRestart,
        Op::SpreadIb,
    ];
    for (i, &op) in script.iter().enumerate() {
        let before = w.clock();
        apply(op, &mut w, &mut rt);
        check_invariants(&w, &rt, before);
        assert!(w.clock() > before, "step {i} advanced time");
    }
    // The job survived 13 operations including two crash/restart cycles.
    assert_eq!(rt.layout().total_ranks(), 8);
    assert!(w.snapshots.len() >= 4 * 4, "four checkpoint rounds stored");
    assert_eq!(
        rt.uniform_network_kind(),
        Some(ninja_net::TransportKind::OpenIb),
        "ends on InfiniBand"
    );
}
