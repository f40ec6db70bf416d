//! Failure injection: every guard rail in the stack, exercised.
//!
//! The point of Ninja migration's choreography is that skipping any step
//! breaks something specific. These tests skip each step on purpose and
//! assert the stack refuses (or reports the damage).

use ninja_cluster::StorageId;
use ninja_migration::{NinjaOrchestrator, World};
use ninja_mpi::Rank;
use ninja_sim::Bytes;
use ninja_symvirt::{Controller, SymVirtError};
use ninja_vmm::{MonitorCommand, QemuMonitor, VmSpec, VmmError};

/// Migrating with the VMM-bypass device still attached must fail — the
/// core limitation the paper addresses.
#[test]
fn migrate_with_passthrough_attached_is_refused() {
    let mut w = World::agc(301);
    let vms = w.boot_ib_vms(1);
    let dst = w.eth_node(0);
    let err = w.pool.check_migratable(vms[0], dst, &w.dc).unwrap_err();
    assert!(matches!(err, VmmError::PassthroughAttached { .. }));
}

/// Detaching an HCA that still holds QPs/MRs (no CRS pre-checkpoint ran)
/// is refused unless forced; forcing reports the leaked resources.
#[test]
fn uncoordinated_detach_is_refused_then_leaks_under_force() {
    let mut w = World::agc(302);
    let vms = w.boot_ib_vms(2);
    let mut rt = w.start_job(vms.clone(), 1);
    // The job holds QPs on both HCAs now. Skip quiesce+release:
    let hca = w
        .pool
        .get(vms[0])
        .passthrough(&w.dc.devices)
        .next()
        .unwrap();
    let tag = w.dc.devices.get(hca).tag;
    let err = w
        .pool
        .detach_by_tag(vms[0], &tag, false, &mut w.dc)
        .unwrap_err();
    assert!(matches!(err, VmmError::DeviceBusy { .. }));
    let (_, leaked) = w.pool.detach_by_tag(vms[0], &tag, true, &mut w.dc).unwrap();
    assert!(leaked > 0, "forced detach loses in-flight state");
    // Keep rt alive so its connections exist during the test.
    assert!(rt.transport_between(Rank(0), Rank(1)).is_some());
    let _ = &mut rt;
}

/// The controller must not touch devices while a guest is running.
#[test]
fn controller_requires_symvirt_wait() {
    let mut w = World::agc(303);
    let vms = w.boot_ib_vms(2);
    let _rt = w.start_job(vms.clone(), 1);
    let mut ctl = Controller::new(vms, QemuMonitor::default());
    let now = w.clock();
    let err = ctl
        .device_detach("hca-", &mut w.pool, &mut w.dc, now, &mut w.rng, false)
        .unwrap_err();
    assert!(matches!(err, SymVirtError::VmNotWaiting(_)));
}

/// A destination that cannot mount the VM's disk is rejected.
#[test]
fn migration_requires_shared_storage() {
    let mut w = World::agc(304);
    // A disk export only the IB cluster mounts.
    let lonely = w.dc.storage.create("ib-only", &[w.ib_cluster.0]);
    let node = w.ib_node(0);
    let vm = w
        .pool
        .create("vm", VmSpec::paper_vm(), node, lonely, &mut w.dc)
        .unwrap();
    let err = w
        .pool
        .check_migratable(vm, w.eth_node(0), &w.dc)
        .unwrap_err();
    assert!(matches!(err, VmmError::StorageNotReachable { .. }));
}

/// Memory capacity at the destination is enforced.
#[test]
fn migration_requires_destination_capacity() {
    let mut w = World::agc(305);
    let dst = w.eth_node(0);
    // Fill the destination with two resident VMs (40 of 48 GiB).
    for i in 0..2 {
        w.pool
            .create(
                format!("squatter{i}"),
                VmSpec::paper_vm(),
                dst,
                StorageId(0),
                &mut w.dc,
            )
            .unwrap();
    }
    let vm = w
        .pool
        .create(
            "mover",
            VmSpec::paper_vm(),
            w.ib_node(0),
            StorageId(0),
            &mut w.dc,
        )
        .unwrap();
    let err = w.pool.check_migratable(vm, dst, &w.dc).unwrap_err();
    assert!(matches!(err, VmmError::InsufficientCapacity { .. }));
}

/// The orchestrator surfaces mid-flow failures instead of half-migrating.
#[test]
fn orchestrator_fails_cleanly_on_unreachable_storage() {
    let mut w = World::agc(306);
    let lonely = w.dc.storage.create("ib-only", &[w.ib_cluster.0]);
    let node = w.ib_node(0);
    let vm = w
        .pool
        .create("vm", VmSpec::paper_vm(), node, lonely, &mut w.dc)
        .unwrap();
    let now = w.clock();
    w.pool
        .attach_ib_hca(vm, &mut w.dc, now, &mut w.rng)
        .unwrap();
    // Advance past link training so the job starts on IB.
    w.advance(ninja_sim::SimDuration::from_secs(31));
    let mut rt = w.start_job(vec![vm], 1);
    let dst = w.eth_node(0);
    let err = NinjaOrchestrator::default()
        .migrate(&mut w, &mut rt, &[dst])
        .unwrap_err();
    assert!(matches!(
        err,
        SymVirtError::Vmm(VmmError::StorageNotReachable { .. })
    ));
}

/// An agent crash mid-sequence surfaces cleanly and leaves the guests
/// recoverable: they stay in SymVirt wait, and a replacement controller
/// can signal them.
#[test]
fn agent_crash_before_signal_is_recoverable() {
    let mut w = World::agc(311);
    let vms = w.boot_ib_vms(2);
    let mut rt = w.start_job(vms.clone(), 1);
    // Guest side runs: quiesce, release, pause.
    let now = w.clock();
    ninja_symvirt::freeze(&mut rt, &mut w.pool, &mut w.dc, now).unwrap();
    let mut ctl = Controller::new(vms.clone(), QemuMonitor::default());
    ctl.wait_all(&w.pool).unwrap();
    let now = w.clock();
    ctl.device_detach("hca-", &mut w.pool, &mut w.dc, now, &mut w.rng, false)
        .unwrap();
    // The agent for VM 1 crashes before signal.
    ctl.inject_agent_failure(vms[1]);
    let err = ctl.signal(&mut w.pool).unwrap_err();
    assert!(matches!(&err, SymVirtError::AgentsDisconnected(v) if v == &vec![vms[1]]));
    // Guests are still safely frozen...
    for &vm in &vms {
        assert_eq!(w.pool.get(vm).state, ninja_vmm::VmState::SymWait);
    }
    // ...and a replacement controller completes the sequence.
    let mut ctl2 = Controller::new(vms.clone(), QemuMonitor::default());
    let now = w.clock();
    ctl2.device_attach(&mut w.pool, &mut w.dc, now, &mut w.rng, false)
        .unwrap();
    ctl2.signal(&mut w.pool).unwrap();
    for &vm in &vms {
        assert_eq!(w.pool.get(vm).state, ninja_vmm::VmState::Running);
    }
    let now = w.clock();
    rt.continue_after(
        &w.pool,
        &mut w.dc,
        now + ninja_sim::SimDuration::from_secs(31),
    )
    .unwrap();
    assert_eq!(rt.state(), ninja_mpi::RuntimeState::Active);
}

/// A migration that fails mid-flight (unreachable storage discovered at
/// the migrate phase) is rolled back with `abort_and_resume`: the job
/// comes back on its original cluster, on InfiniBand, without restart.
#[test]
fn failed_migration_is_abortable() {
    let mut w = World::agc(312);
    let lonely = w.dc.storage.create("ib-only", &[w.ib_cluster.0]);
    let mut vms = Vec::new();
    let mut ready = w.clock();
    for i in 0..2 {
        let node = w.ib_node(i);
        let vm = w
            .pool
            .create(
                format!("vm{i}"),
                VmSpec::paper_vm(),
                node,
                lonely,
                &mut w.dc,
            )
            .unwrap();
        let now = w.clock();
        let (_, at) = w
            .pool
            .attach_ib_hca(vm, &mut w.dc, now, &mut w.rng)
            .unwrap();
        ready = ready.max(at);
        vms.push(vm);
    }
    w.advance_to(ready);
    let mut rt = w.start_job(vms.clone(), 1);
    assert_eq!(
        rt.uniform_network_kind(),
        Some(ninja_net::TransportKind::OpenIb)
    );

    let orch = NinjaOrchestrator::default();
    let dsts: Vec<_> = (0..2).map(|i| w.eth_node(i)).collect();
    let err = orch.migrate(&mut w, &mut rt, &dsts).unwrap_err();
    assert!(matches!(
        err,
        SymVirtError::Vmm(VmmError::StorageNotReachable { .. })
    ));
    // The job is stuck: frozen, HCAs detached.
    for &vm in &vms {
        assert_eq!(w.pool.get(vm).state, ninja_vmm::VmState::SymWait);
        assert_eq!(
            w.pool.get(vm).passthrough(&w.dc.devices).next(),
            None,
            "HCAs were detached"
        );
    }

    // Roll back.
    let took = orch.abort_and_resume(&mut w, &mut rt).unwrap();
    assert!(
        took.as_secs_f64() > 29.0,
        "re-attach + link training: {took}"
    );
    for &vm in &vms {
        assert_eq!(w.pool.get(vm).state, ninja_vmm::VmState::Running);
        assert_eq!(
            w.pool.get(vm).passthrough(&w.dc.devices).count(),
            1,
            "HCA back"
        );
    }
    assert_eq!(
        rt.uniform_network_kind(),
        Some(ninja_net::TransportKind::OpenIb),
        "back at full speed on the original cluster"
    );
}

/// A closed controller (after `ctl.quit()`) rejects further commands.
#[test]
fn closed_controller_rejects_commands() {
    let mut w = World::agc(307);
    let vms = w.boot_ib_vms(1);
    let mut ctl = Controller::new(vms, QemuMonitor::default());
    ctl.close();
    assert!(matches!(
        ctl.wait_all(&w.pool).unwrap_err(),
        SymVirtError::AgentDisconnected(_)
    ));
}

/// Monitor-level guards: double stop, cont of a running VM, unknown tag.
#[test]
fn monitor_guards() {
    let mut w = World::agc(308);
    let vms = w.boot_ib_vms(1);
    let vm = vms[0];
    let mon = QemuMonitor::default();
    let now = w.clock();
    // cont of a running VM
    let err = mon
        .execute(
            MonitorCommand::Cont { vm },
            &mut w.pool,
            &mut w.dc,
            now,
            &mut w.rng,
            false,
        )
        .unwrap_err();
    assert!(matches!(err, VmmError::NotPaused));
    // double stop
    mon.execute(
        MonitorCommand::Stop { vm },
        &mut w.pool,
        &mut w.dc,
        now,
        &mut w.rng,
        false,
    )
    .unwrap();
    let err = mon
        .execute(
            MonitorCommand::Stop { vm },
            &mut w.pool,
            &mut w.dc,
            now,
            &mut w.rng,
            false,
        )
        .unwrap_err();
    assert!(matches!(err, VmmError::NotRunning));
    // unknown device tag
    let err = mon
        .execute(
            MonitorCommand::DeviceDel {
                vm,
                tag: "no-such-device".into(),
                force: false,
            },
            &mut w.pool,
            &mut w.dc,
            now,
            &mut w.rng,
            false,
        )
        .unwrap_err();
    assert!(matches!(err, VmmError::NoSuchDeviceTag { .. }));
}

/// A job across clusters with a dead link: ranks with no mutual BTL fail
/// module construction loudly.
#[test]
fn no_route_is_detected() {
    let mut w = World::agc(309);
    let node = w.ib_node(0);
    let vm_a = w
        .pool
        .create("a", VmSpec::paper_vm(), node, StorageId(0), &mut w.dc)
        .unwrap();
    let vm_b = w
        .pool
        .create(
            "b",
            VmSpec::paper_vm(),
            w.ib_node(1),
            StorageId(0),
            &mut w.dc,
        )
        .unwrap();
    // Sabotage: take VM b's virtio NIC down and give it no HCA.
    let nic = w.pool.get(vm_b).virtio_nic;
    w.dc.devices.as_eth_mut(nic).unwrap().unplug();
    let layout = ninja_mpi::JobLayout::new(vec![vm_a, vm_b], 1);
    let mut rt = ninja_mpi::MpiRuntime::new(layout, ninja_mpi::MpiConfig::default());
    let now = w.clock();
    let err = rt.init(&w.pool, &mut w.dc, now).unwrap_err();
    assert!(matches!(err, ninja_mpi::MpiError::NoRoute { .. }));
}

/// The LinkFsm never reports an IB port active before training ends —
/// BTL reconstruction cannot race the link.
#[test]
fn no_premature_openib_binding() {
    let mut w = World::agc(310);
    let node = w.ib_node(0);
    let vm = w
        .pool
        .create("vm", VmSpec::paper_vm(), node, StorageId(0), &mut w.dc)
        .unwrap();
    let now = w.clock();
    let (_, active_at) = w
        .pool
        .attach_ib_hca(vm, &mut w.dc, now, &mut w.rng)
        .unwrap();
    let just_before = active_at - ninja_sim::SimDuration::from_nanos(1);
    let t = w.pool.available_transports(vm, &w.dc, just_before);
    assert!(!t.contains(&ninja_net::TransportKind::OpenIb));
    let t = w.pool.available_transports(vm, &w.dc, active_at);
    assert!(t.contains(&ninja_net::TransportKind::OpenIb));
    let _ = Bytes::ZERO;
}
