//! Wide-area disaster recovery — the paper's future-work scenario made
//! concrete.
//!
//! A primary InfiniBand site and a distant Ethernet DR site are joined
//! by a 1 Gb/s, 20 ms WAN and a geo-replicated NFS export. The drill:
//!
//! 1. take a **coordinated checkpoint** of the running job (insurance);
//! 2. attempt a **live evacuation** over the WAN when the warning
//!    arrives (planned downtime, slower because of the narrow pipe);
//! 3. simulate the worst case — the primary dies *before* evacuating —
//!    and **restart from the checkpoint** at the DR site instead.
//!
//! ```text
//! cargo run --example wide_area_dr
//! ```

use ninja_cluster::{DataCenterBuilder, FabricKind, NodeSpec};
use ninja_migration::{NinjaOrchestrator, World};
use ninja_sim::{Bandwidth, Bytes, SimDuration};
use ninja_workloads::{install_memory_profile, MemoryProfile};

fn geo_world(seed: u64) -> World {
    let mut b = DataCenterBuilder::new();
    let primary = b.add_cluster(
        "primary-ib",
        FabricKind::Infiniband,
        4,
        NodeSpec::agc_blade(),
    );
    let dr = b.add_cluster("dr-eth", FabricKind::Ethernet, 4, NodeSpec::agc_blade());
    b.shared_storage("geo-replicated-nfs", &[primary, dr]);
    b.wan_link(
        primary,
        dr,
        Bandwidth::from_gbps(1.0),
        SimDuration::from_millis(20),
    );
    World::from_parts(b.build(), primary, dr, seed)
}

fn main() {
    let orch = NinjaOrchestrator::default();

    // ---------- path A: planned live evacuation over the WAN ----------
    let mut w = geo_world(11);
    let vms = w.boot_ib_vms(4);
    let mut job = w.start_job(vms, 8);
    install_memory_profile(
        &mut w,
        &job,
        MemoryProfile {
            touched: Bytes::from_gib(6),
            uniform_frac: 0.3,
            dirty_bytes_per_sec: 1e9,
        },
    );
    let dr_nodes: Vec<_> = (0..4).map(|i| w.cluster_node(w.eth_cluster, i)).collect();
    let live = orch
        .migrate(&mut w, &mut job, &dr_nodes)
        .expect("live evacuation");
    println!("--- planned live evacuation over 1 Gb/s WAN ---\n{live}\n");

    // ---------- path B: unplanned failure, restart from checkpoint ----
    let mut w = geo_world(12);
    let vms = w.boot_ib_vms(4);
    let mut job = w.start_job(vms.clone(), 8);
    install_memory_profile(
        &mut w,
        &job,
        MemoryProfile {
            touched: Bytes::from_gib(6),
            uniform_frac: 0.3,
            dirty_bytes_per_sec: 1e9,
        },
    );
    let (handle, ck) = orch.checkpoint(&mut w, &mut job).expect("checkpoint");
    println!("--- periodic checkpoint (job keeps running after) ---");
    println!(
        "  frozen for {:.1}s (save {:.2}s, re-attach+link-up {:.1}s), images {}",
        ck.total().as_secs_f64(),
        ck.save.as_secs_f64(),
        (ck.attach + ck.linkup).as_secs_f64(),
        w.snapshots.stored_bytes()
    );

    // The earthquake hits: the primary site is lost without warning.
    for &vm in &vms {
        w.pool.destroy(vm, &mut w.dc);
    }
    let dr_nodes: Vec<_> = (0..4).map(|i| w.cluster_node(w.eth_cluster, i)).collect();
    let rs = orch
        .restart(&mut w, &mut job, &handle, &dr_nodes)
        .expect("restart at DR site");
    println!("\n--- unplanned failure: restart from images at the DR site ---");
    println!(
        "  back online in {:.1}s (restore {:.2}s, transport {})",
        rs.total().as_secs_f64(),
        rs.restore.as_secs_f64(),
        rs.transport_after.unwrap_or("?")
    );
    println!(
        "  work since the checkpoint is lost; the live path preserves it\n   at the cost of {:.1}s of WAN-bound downtime.",
        live.total().as_secs_f64()
    );

    assert_eq!(rs.transport_after, Some("tcp"));
    assert!(
        live.migration.as_secs_f64() > 60.0,
        "WAN-bound evacuation is slow"
    );
    println!("\nok: both recovery paths land the job at the DR site.");
}
