//! Regenerates **Figure 7**: the overhead of Ninja migration on the NAS
//! Parallel Benchmarks (class D, 64 processes on 8 VMs).
//!
//! For each of BT, CG, FT, LU: a *baseline* run without migration and a
//! *proposed* run in which "the Ninja migration mechanism is issued once
//! at three minutes after each benchmark start time". The bars decompose
//! into application / migration / hotplug / link-up.
//!
//! ```text
//! cargo run -p ninja-bench --bin fig7
//! ```

use ninja_bench::{claim, finish, render_table, two_ib_clusters, write_json};
use ninja_migration::{CloudScheduler, NinjaOrchestrator, TriggerReason};
use ninja_sim::SimDuration;
use ninja_workloads::{run_workload, Npb, NpbKind};

struct Row {
    bench: String,
    baseline_s: f64,
    proposed_s: f64,
    app_s: f64,
    migration_s: f64,
    hotplug_s: f64,
    linkup_s: f64,
    footprint_gib_per_vm: f64,
}
ninja_bench::impl_write_json!(Row {
    bench,
    baseline_s,
    proposed_s,
    app_s,
    migration_s,
    hotplug_s,
    linkup_s,
    footprint_gib_per_vm
});

fn run_kind(kind: NpbKind, seed: u64) -> Row {
    let npb = Npb::class_d(kind);

    // Baseline: no migration.
    let mut wb = two_ib_clusters(seed);
    let vms = wb.boot_ib_vms(8);
    let mut rtb = wb.start_job(vms, 8);
    let mut empty = CloudScheduler::new();
    let base = run_workload(
        &mut wb,
        &mut rtb,
        &npb,
        &mut empty,
        &NinjaOrchestrator::default(),
    )
    .expect("baseline");

    // Proposed: one Ninja migration at t+180 s (IB -> IB across racks).
    let mut wp = two_ib_clusters(seed + 1000);
    let vms = wp.boot_ib_vms(8);
    let mut rtp = wp.start_job(vms, 8);
    let mut sched = CloudScheduler::new();
    let fire = wp.clock() + SimDuration::from_secs(180);
    let dsts: Vec<_> = (0..8).map(|i| wp.cluster_node(wp.eth_cluster, i)).collect();
    sched.push(fire, dsts, TriggerReason::Placement);
    let prop = run_workload(
        &mut wp,
        &mut rtp,
        &npb,
        &mut sched,
        &NinjaOrchestrator::default(),
    )
    .expect("proposed");
    let report = prop.migrations().next().expect("one migration").clone();

    Row {
        bench: kind.name().to_uppercase(),
        baseline_s: base.total.as_secs_f64(),
        proposed_s: prop.total.as_secs_f64(),
        app_s: prop.app_total().as_secs_f64(),
        migration_s: report.migration.as_secs_f64(),
        hotplug_s: report.hotplug().as_secs_f64(),
        linkup_s: report.linkup.as_secs_f64(),
        footprint_gib_per_vm: npb.footprint_per_vm().as_f64() / (1u64 << 30) as f64,
    }
}

fn main() {
    println!("== Figure 7: Ninja migration overhead on NPB 3.3 (64 procs, class D) [seconds] ==\n");

    let rows_data: Vec<Row> = NpbKind::paper_set()
        .iter()
        .enumerate()
        .map(|(i, &k)| run_kind(k, 700 + i as u64))
        .collect();

    let rows: Vec<Vec<String>> = rows_data
        .iter()
        .map(|r| {
            vec![
                r.bench.clone(),
                format!("{:.0}", r.baseline_s),
                format!("{:.0}", r.proposed_s),
                format!("{:.0}", r.app_s),
                format!("{:.1}", r.migration_s),
                format!("{:.1}", r.hotplug_s),
                format!("{:.1}", r.linkup_s),
                format!("{:.1}", r.footprint_gib_per_vm),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "bench",
                "baseline",
                "proposed",
                "app",
                "migration",
                "hotplug",
                "link-up",
                "GiB/VM"
            ],
            &rows
        )
    );

    println!("claims (Section IV-B.3):");
    let mut ok = true;
    // C1: no overhead during normal operation — the application part of
    // the proposed run equals the baseline (within jitter).
    for r in &rows_data {
        ok &= claim(
            &format!(
                "{}: app time == baseline (proposed {:.0} = baseline {:.0} + overhead {:.0})",
                r.bench,
                r.proposed_s,
                r.baseline_s,
                r.proposed_s - r.baseline_s
            ),
            (r.app_s - r.baseline_s).abs() / r.baseline_s < 0.02,
        );
    }
    // Migration time tracks the footprint.
    let mut sorted = rows_data.iter().collect::<Vec<_>>();
    sorted.sort_by(|a, b| {
        a.footprint_gib_per_vm
            .partial_cmp(&b.footprint_gib_per_vm)
            .unwrap()
    });
    ok &= claim(
        "migration time increases with memory footprint across benchmarks",
        sorted
            .windows(2)
            .all(|w| w[1].migration_s >= w[0].migration_s),
    );
    // Hotplug and link-up constant across benchmarks.
    let hp_spread = rows_data
        .iter()
        .map(|r| r.hotplug_s)
        .fold(0.0_f64, f64::max)
        - rows_data
            .iter()
            .map(|r| r.hotplug_s)
            .fold(f64::INFINITY, f64::min);
    let lu_spread = rows_data.iter().map(|r| r.linkup_s).fold(0.0_f64, f64::max)
        - rows_data
            .iter()
            .map(|r| r.linkup_s)
            .fold(f64::INFINITY, f64::min);
    ok &= claim(
        &format!(
            "hotplug (spread {hp_spread:.2} s) and link-up (spread {lu_spread:.2} s) are constant"
        ),
        hp_spread < 2.5 && lu_spread < 1.0,
    );

    write_json("fig7", &rows_data);
    finish(ok);
}
