//! Disaster recovery drill — the paper's headline use case.
//!
//! "VMs are evacuated from a disaster-affected data center to a safe
//! data center before those VMs crash" (Section II-A). A long-running
//! HPC job is evacuated mid-run from the InfiniBand cluster onto the
//! Ethernet cluster (which has no HCAs at all), survives there at
//! reduced speed, and returns once the primary site recovers.
//!
//! ```text
//! cargo run --example disaster_recovery
//! ```

use ninja_migration::{NinjaOrchestrator, TriggerReason, World};
use ninja_sim::SimDuration;
use ninja_workloads::{run_workload, BcastReduce};

fn main() {
    let mut world = World::agc(2011);
    let vms = world.boot_ib_vms(4);
    let mut job = world.start_job(vms, 8); // 32 ranks
    let orch = NinjaOrchestrator::default();

    // The cloud scheduler's plan: an earthquake warning arrives 120 s in;
    // the site is declared safe again at 420 s.
    let mut scheduler = ninja_migration::CloudScheduler::new();
    let eth: Vec<_> = (0..4).map(|i| world.eth_node(i)).collect();
    let ib: Vec<_> = (0..4).map(|i| world.ib_node(i)).collect();
    scheduler.push(
        world.clock() + SimDuration::from_secs(120),
        eth,
        TriggerReason::Fallback,
    );
    scheduler.push(
        world.clock() + SimDuration::from_secs(420),
        ib,
        TriggerReason::Recovery,
    );

    let bench = BcastReduce::new(80, 8);
    let record =
        run_workload(&mut world, &mut job, &bench, &mut scheduler, &orch).expect("drill succeeds");

    println!(
        "disaster-recovery drill: {} iterations\n",
        record.iterations.len()
    );
    println!("step  elapsed[s]  note");
    for it in &record.iterations {
        let note = match &it.migration {
            Some(m) => format!(
                "<- Ninja migration ({} -> {})",
                m.transport_before.unwrap_or("?"),
                m.transport_after.unwrap_or("?")
            ),
            None => String::new(),
        };
        println!(
            "{:>4}  {:>9.1}  {note}",
            it.step,
            it.elapsed().as_secs_f64()
        );
    }

    let migrations: Vec<_> = record.migrations().collect();
    assert_eq!(migrations.len(), 2, "evacuation + return");
    println!(
        "\nevacuation overhead: {:.1}s",
        migrations[0].total().as_secs_f64()
    );
    println!(
        "return overhead:     {:.1}s (includes {:.2}s of IB link training)",
        migrations[1].total().as_secs_f64(),
        migrations[1].linkup.as_secs_f64()
    );
    println!(
        "total app time {:.0}s, total overhead {:.0}s",
        record.app_total().as_secs_f64(),
        record.overhead_total().as_secs_f64()
    );
    println!("\nok: the job survived evacuation and came home to InfiniBand.");
    assert_eq!(
        job.uniform_network_kind(),
        Some(ninja_net::TransportKind::OpenIb)
    );
}
