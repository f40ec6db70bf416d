//! Overnight server consolidation — the "high resource utilization"
//! use case (Section II-A).
//!
//! At night the job's four VMs are packed onto two Ethernet hosts
//! (freeing six machines, at the cost of 2:1 CPU over-commit and shared
//! NICs); in the morning they spread back over four InfiniBand hosts.
//! This is exactly the "2 hosts (TCP)" configuration of Fig. 8, driven
//! as a placement policy.
//!
//! ```text
//! cargo run --example consolidation
//! ```

use ninja_migration::{NinjaOrchestrator, World};
use ninja_mpi::Rank;
use ninja_sim::Bytes;

fn main() {
    let mut world = World::agc(3);
    let vms = world.boot_ib_vms(4);
    let mut job = world.start_job(vms, 8);
    let orch = NinjaOrchestrator::default();
    let probe = Bytes::from_gib(1);

    let env = world.comm_env();
    let day_speed = job.bcast_time(Rank(0), probe, &env);
    println!("daytime   : 4 IB hosts, bcast(1 GiB) = {day_speed}");

    // Night: consolidate onto two Ethernet hosts.
    let two_hosts: Vec<_> = (0..2).map(|i| world.eth_node(i)).collect();
    let pack = orch
        .migrate(&mut world, &mut job, &two_hosts)
        .expect("pack");
    let env = world.comm_env();
    let night_speed = job.bcast_time(Rank(0), probe, &env);
    let idle_nodes = world
        .dc
        .nodes()
        .filter(|n| n.committed_vcpus() == 0)
        .count();
    println!(
        "night     : 2 Eth hosts (over-commit {}x), bcast(1 GiB) = {night_speed}, {idle_nodes}/16 nodes idle",
        world.dc.node(world.eth_node(0)).cpu_contention()
    );
    println!(
        "  packing cost: {:.1}s ({} -> {})",
        pack.total().as_secs_f64(),
        pack.transport_before.unwrap_or("?"),
        pack.transport_after.unwrap_or("?")
    );

    // Morning: spread back over the InfiniBand hosts.
    let four_hosts: Vec<_> = (0..4).map(|i| world.ib_node(i)).collect();
    let spread = orch
        .migrate(&mut world, &mut job, &four_hosts)
        .expect("spread");
    let env = world.comm_env();
    let morning_speed = job.bcast_time(Rank(0), probe, &env);
    println!("morning   : 4 IB hosts again, bcast(1 GiB) = {morning_speed}");
    println!(
        "  spreading cost: {:.1}s (includes {:.2}s IB link training)",
        spread.total().as_secs_f64(),
        spread.linkup.as_secs_f64()
    );

    assert!(
        night_speed > day_speed,
        "consolidation trades speed for density"
    );
    assert!(
        (morning_speed.as_secs_f64() - day_speed.as_secs_f64()).abs() / day_speed.as_secs_f64()
            < 0.05,
        "morning performance fully recovers"
    );
    println!("\nok: six machines freed overnight, full speed restored by morning.");
}
