//! The paper's Fig. 5 "simplified version of the Ninja migration
//! script", reproduced call-for-call against the library's primitives.
//!
//! Fig. 5 structures the fallback as *two* SymVirt rounds (1a:
//! wait_all → device_detach → signal; 1b: wait_all → migration → quit)
//! and the recovery likewise (2a: migration; 2b: device_attach →
//! signal → close) — unlike the orchestrator's single continuous freeze
//! (Fig. 4). This test drives the controller exactly as the script
//! does, proving the public API supports the paper's own choreography,
//! and that the job still ends up back on InfiniBand.

use ninja_cluster::NodeId;
use ninja_migration::World;
use ninja_mpi::CommEnv;
use ninja_net::TransportKind;
use ninja_symvirt::{Controller, Coordinator};
use ninja_vmm::{QemuMonitor, VmState};

/// One guest-side SymVirt round: quiesce + release + wait (what the
/// coordinators do when the cloud scheduler delivers a trigger).
fn guest_round(w: &mut World, rt: &mut ninja_mpi::MpiRuntime) {
    let env = CommEnv::from_world(&w.pool, &w.dc);
    let now = w.clock();
    Coordinator
        .checkpoint_and_wait(rt, &env, &mut w.pool, &mut w.dc, now)
        .expect("coordinators reach SymVirt wait");
}

/// The script's blocking `ctl.migration(...)`: open every stream on the
/// migration fabric, then let the world clock run until they have all
/// landed.
fn migration(ctl: &mut Controller, w: &mut World, dsts: &[NodeId]) {
    let now = w.clock();
    let pending = ctl
        .migration_open(dsts, &mut w.pool, &mut w.dc, now, &mut w.rng, None)
        .unwrap();
    loop {
        if let Some(landed) = ctl.migration_land(&pending, &mut w.pool, &mut w.dc) {
            w.advance_to(landed);
            return;
        }
        let next = w.dc.migration_fabric.next_completion();
        w.advance_to(next.expect("streams on the wire"));
    }
}

/// After SymVirt signal, the continue callback re-establishes whatever
/// is reachable.
fn guest_continue(w: &mut World, rt: &mut ninja_mpi::MpiRuntime) {
    let now = w.clock();
    Coordinator
        .continue_callback(rt, &w.pool, &mut w.dc, now)
        .expect("BTL modules come back");
}

#[test]
fn fig5_script_call_for_call() {
    let mut w = World::agc(5_5);
    let vms = w.boot_ib_vms(4);
    let mut rt = w.start_job(vms.clone(), 1);
    assert_eq!(rt.uniform_network_kind(), Some(TransportKind::OpenIb));
    let ib_hostlist: Vec<_> = (0..4).map(|i| w.ib_node(i)).collect();
    let eth_hostlist: Vec<_> = (0..4).map(|i| w.eth_node(i)).collect();

    // ### 1. fallback migration
    // ctl = symvirt.Controller(config.eth_hostlist)
    let mut ctl = Controller::new(vms.clone(), QemuMonitor::default());

    // # 1a. device detach: ctl.wait_all(); ctl.device_detach(tag='vf0');
    // ctl.signal()
    guest_round(&mut w, &mut rt);
    ctl.wait_all(&w.pool).unwrap();
    let now = w.clock();
    ctl.device_detach("hca-", &mut w.pool, &mut w.dc, now, &mut w.rng, false)
        .unwrap();
    ctl.signal(&mut w.pool).unwrap();
    guest_continue(&mut w, &mut rt);
    // Detached but not yet migrated: the job runs on TCP already.
    assert_eq!(rt.uniform_network_kind(), Some(TransportKind::Tcp));
    for &vm in &vms {
        assert_eq!(w.pool.get(vm).state, VmState::Running);
    }

    // # 1b. migration: ctl.wait_all();
    // ctl.migration(config.ib_hostlist, config.eth_hostlist); ctl.quit()
    guest_round(&mut w, &mut rt);
    ctl.wait_all(&w.pool).unwrap();
    migration(&mut ctl, &mut w, &eth_hostlist);
    ctl.signal(&mut w.pool).unwrap(); // the script's next round resumes them
    ctl.close(); // ctl.quit()
    guest_continue(&mut w, &mut rt);
    for (&vm, &node) in vms.iter().zip(&eth_hostlist) {
        assert_eq!(w.pool.get(vm).node, node, "on the Ethernet cluster");
    }
    assert_eq!(rt.uniform_network_kind(), Some(TransportKind::Tcp));

    // ### 2. recovery migration
    // ctl = symvirt.Controller(config.eth_hostlist)
    let mut ctl = Controller::new(vms.clone(), QemuMonitor::default());

    // # 2a. migration: ctl.wait_all();
    // ctl.migration(config.eth_hostlist, config.ib_hostlist); ctl.quit()
    guest_round(&mut w, &mut rt);
    ctl.wait_all(&w.pool).unwrap();
    migration(&mut ctl, &mut w, &ib_hostlist);
    ctl.signal(&mut w.pool).unwrap();
    ctl.close();
    guest_continue(&mut w, &mut rt);
    // Back on IB nodes, but no HCA is attached yet: still TCP.
    assert_eq!(rt.uniform_network_kind(), Some(TransportKind::Tcp));

    // # 2b. device attach: ctl = symvirt.Controller(config.ib_hostlist);
    // ctl.wait_all(); ctl.device_attach(host='04:00.0', tag='vf0');
    // ctl.signal(); ctl.close()
    let mut ctl = Controller::new(vms.clone(), QemuMonitor::default());
    guest_round(&mut w, &mut rt);
    ctl.wait_all(&w.pool).unwrap();
    let now = w.clock();
    let attach = ctl
        .device_attach(&mut w.pool, &mut w.dc, now, &mut w.rng, false)
        .unwrap();
    ctl.signal(&mut w.pool).unwrap();
    ctl.close();
    // The coordinators confirm link-up before rebinding openib.
    if let Some(active_at) = attach.link_active_at {
        w.advance_to(active_at);
    }
    guest_continue(&mut w, &mut rt);

    // The script's end state: everything back to phase 1 of Fig. 2.
    assert_eq!(rt.uniform_network_kind(), Some(TransportKind::OpenIb));
    for (&vm, &node) in vms.iter().zip(&ib_hostlist) {
        let v = w.pool.get(vm);
        assert_eq!(v.node, node);
        assert_eq!(v.state, VmState::Running);
        assert_eq!(v.passthrough(&w.dc.devices).count(), 1, "HCA re-attached");
        assert_eq!(v.migrations, 2, "fallback + recovery");
    }
}

/// The two-round Fig. 5 choreography and the one-freeze Fig. 4
/// orchestrator land the job in the same final state.
#[test]
fn fig5_and_fig4_agree_on_the_end_state() {
    // Fig. 4 path (the orchestrator):
    let mut w4 = World::agc(5_6);
    let vms4 = w4.boot_ib_vms(2);
    let mut rt4 = w4.start_job(vms4, 1);
    let orch = ninja_migration::NinjaOrchestrator::default();
    let eth: Vec<_> = (0..2).map(|i| w4.eth_node(i)).collect();
    orch.migrate(&mut w4, &mut rt4, &eth).unwrap();

    // Fig. 5 path (manual two-round script), same seed/topology:
    let mut w5 = World::agc(5_6);
    let vms5 = w5.boot_ib_vms(2);
    let mut rt5 = w5.start_job(vms5.clone(), 1);
    let eth5: Vec<_> = (0..2).map(|i| w5.eth_node(i)).collect();
    let mut ctl = Controller::new(vms5.clone(), QemuMonitor::default());
    guest_round(&mut w5, &mut rt5);
    ctl.wait_all(&w5.pool).unwrap();
    let now = w5.clock();
    ctl.device_detach("hca-", &mut w5.pool, &mut w5.dc, now, &mut w5.rng, true)
        .unwrap();
    ctl.signal(&mut w5.pool).unwrap();
    guest_continue(&mut w5, &mut rt5);
    guest_round(&mut w5, &mut rt5);
    ctl.wait_all(&w5.pool).unwrap();
    migration(&mut ctl, &mut w5, &eth5);
    ctl.signal(&mut w5.pool).unwrap();
    ctl.close();
    guest_continue(&mut w5, &mut rt5);

    // Same observable end state (placement, transport, device census).
    assert_eq!(rt4.uniform_network_kind(), rt5.uniform_network_kind());
    for (a, b) in w4.pool.iter().zip(w5.pool.iter()) {
        assert_eq!(a.node, b.node);
        assert_eq!(a.state, b.state);
        assert_eq!(
            a.passthrough(&w4.dc.devices).count(),
            b.passthrough(&w5.dc.devices).count()
        );
    }
}
