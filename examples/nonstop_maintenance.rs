//! Non-stop maintenance — NPB keeps computing through a rack swap.
//!
//! "During hardware or software maintenance in a machine,
//! interconnect-transparent migration allows a VM to transparently
//! fail-over to another machine without stopping the service"
//! (Section II-A). Here a 64-rank NPB BT class D run is moved from one
//! InfiniBand rack to another 3 minutes in — the Fig. 7 experiment as a
//! user-facing scenario — and the run is compared against an
//! uninterrupted baseline to verify claim C1 (no overhead during normal
//! operation).
//!
//! ```text
//! cargo run --release --example nonstop_maintenance
//! ```

use ninja_cluster::{DataCenterBuilder, FabricKind, NodeSpec};
use ninja_migration::{CloudScheduler, NinjaOrchestrator, TriggerReason, World};
use ninja_sim::SimDuration;
use ninja_workloads::{run_workload, IterativeWorkload, Npb, NpbKind};

/// Two InfiniBand racks with shared storage.
fn two_racks(seed: u64) -> World {
    let mut b = DataCenterBuilder::new();
    let a = b.add_cluster("rack-a", FabricKind::Infiniband, 8, NodeSpec::agc_blade());
    let c = b.add_cluster("rack-b", FabricKind::Infiniband, 8, NodeSpec::agc_blade());
    b.shared_storage("vm-images", &[a, c]);
    World::from_parts(b.build(), a, c, seed)
}

fn main() {
    let npb = Npb::class_d(NpbKind::Bt);
    let orch = NinjaOrchestrator::default();

    // Baseline: uninterrupted run on rack A.
    let mut wb = two_racks(1);
    let vms = wb.boot_ib_vms(8);
    let mut job_b = wb.start_job(vms, 8);
    let mut no_triggers = CloudScheduler::new();
    let baseline =
        run_workload(&mut wb, &mut job_b, &npb, &mut no_triggers, &orch).expect("baseline");

    // Maintenance run: rack A must be drained 3 minutes in.
    let mut wm = two_racks(2);
    let vms = wm.boot_ib_vms(8);
    let mut job_m = wm.start_job(vms, 8);
    let mut scheduler = CloudScheduler::new();
    let rack_b: Vec<_> = (0..8).map(|i| wm.cluster_node(wm.eth_cluster, i)).collect();
    scheduler.push(
        wm.clock() + SimDuration::from_secs(180),
        rack_b,
        TriggerReason::Placement,
    );
    let maintained =
        run_workload(&mut wm, &mut job_m, &npb, &mut scheduler, &orch).expect("maintenance run");
    let report = maintained.migrations().next().expect("one migration");

    println!("non-stop maintenance: NPB {} (64 ranks)\n", npb.name());
    println!(
        "baseline (no maintenance): {:>8.1}s",
        baseline.total.as_secs_f64()
    );
    println!(
        "with rack swap at t+180s:  {:>8.1}s",
        maintained.total.as_secs_f64()
    );
    println!("\nmigration breakdown:\n{report}");
    println!(
        "\napplication time in the maintenance run: {:.1}s",
        maintained.app_total().as_secs_f64()
    );

    let app = maintained.app_total().as_secs_f64();
    let base = baseline.total.as_secs_f64();
    assert!(
        (app - base).abs() / base < 0.02,
        "claim C1: zero overhead outside the migration window"
    );
    assert_eq!(
        job_m.uniform_network_kind(),
        Some(ninja_net::TransportKind::OpenIb),
        "back at full speed on rack B's InfiniBand"
    );
    println!("\nok: the application never restarted, and ran at native speed on both racks.");
}
