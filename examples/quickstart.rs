//! Quickstart: one fallback migration, end to end.
//!
//! Boots the paper's AGC testbed, starts a 4-rank MPI job on the
//! InfiniBand cluster (VMM-bypass HCAs), then evacuates all four VMs to
//! the Ethernet cluster with a single Ninja migration. The job keeps
//! running; its transport switches from `openib` to `tcp`.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use ninja_migration::{NinjaOrchestrator, World};

fn main() {
    // The AGC testbed: 8 InfiniBand nodes + 8 Ethernet nodes, shared NFS.
    let mut world = World::agc(7);

    // Four VMs on the IB cluster, one per node. `boot_ib_vms` passes an
    // HCA through to each VM and waits out the ~30 s link training.
    let vms = world.boot_ib_vms(4);
    println!("booted {} VMs; clock = {}", vms.len(), world.clock());

    // An MPI job, one rank per VM. BTL selection picks openib
    // (exclusivity 1024) over tcp (100).
    let mut job = world.start_job(vms, 1);
    println!("job transport: {:?}", job.uniform_network_kind());

    // Fallback migration: all VMs to the Ethernet cluster.
    let dsts: Vec<_> = (0..4).map(|i| world.eth_node(i)).collect();
    let report = NinjaOrchestrator::default()
        .migrate(&mut world, &mut job, &dsts)
        .expect("fallback migration");

    println!("\n{report}\n");
    println!("job transport now: {:?}", job.uniform_network_kind());
    println!("job epoch (connection rebuilds): {}", job.epoch());
    println!("VM placements:");
    for vm in world.pool.iter() {
        // Hosts are named after their cluster and place in it.
        let cluster = world.dc.cluster(world.dc.cluster_of(vm.node));
        let slot = cluster.nodes.iter().position(|&n| n == vm.node);
        println!(
            "  {} -> {}-{:02} ({} migrations)",
            world.pool.name(vm.id),
            cluster.name,
            slot.expect("a node is in its cluster"),
            vm.migrations
        );
    }

    assert_eq!(
        job.uniform_network_kind(),
        Some(ninja_net::TransportKind::Tcp),
        "the job fell back to TCP without restarting"
    );
    println!("\nok: the MPI job survived an interconnect-transparent migration.");
}
