//! Regenerates **Figure 6**: the overhead of Ninja migration on the
//! memtest benchmark, with the array size swept over 2/4/8/16 GiB.
//!
//! Setup per the paper: 8 VMs (one per node), one MPI process per VM,
//! and "both the source and the destination clusters use Infiniband
//! only" — so we build two 8-node IB clusters and migrate between them.
//! The stacked-bar decomposition is migration / hotplug / link-up.
//!
//! ```text
//! cargo run -p ninja-bench --bin fig6
//! ```

use ninja_bench::{claim, finish, render_stacked_bars, render_table, two_ib_clusters, write_json};
use ninja_migration::{NinjaOrchestrator, TriggerReason};
use ninja_sim::Bytes;
use ninja_workloads::{run_workload, Memtest};

struct Row {
    array_gib: u64,
    migration_s: f64,
    hotplug_s: f64,
    linkup_s: f64,
    total_s: f64,
    wire_gib: f64,
}
ninja_bench::impl_write_json!(Row {
    array_gib,
    migration_s,
    hotplug_s,
    linkup_s,
    total_s,
    wire_gib
});

fn run_one(array: Bytes, seed: u64) -> Row {
    let mut w = two_ib_clusters(seed);
    let vms = w.boot_ib_vms(8);
    let mut rt = w.start_job(vms, 1);
    let bench = Memtest::new(array, 30);
    let mut sched = ninja_migration::CloudScheduler::new();
    // Fire after a few passes warm the array.
    let fire_at = w.clock() + ninja_sim::SimDuration::from_secs(10);
    let dsts: Vec<_> = (0..8).map(|i| w.cluster_node(w.eth_cluster, i)).collect();
    sched.push(fire_at, dsts, TriggerReason::Fallback);
    let rec = run_workload(
        &mut w,
        &mut rt,
        &bench,
        &mut sched,
        &NinjaOrchestrator::default(),
    )
    .expect("fig6 run");
    let report = rec
        .migrations()
        .next()
        .expect("one migration fired")
        .clone();
    Row {
        array_gib: array.get() >> 30,
        migration_s: report.migration.as_secs_f64(),
        hotplug_s: report.hotplug().as_secs_f64(),
        linkup_s: report.linkup.as_secs_f64(),
        total_s: report.total().as_secs_f64(),
        wire_gib: report.wire_gib(),
    }
}

fn main() {
    println!("== Figure 6: Ninja migration overhead on memtest [seconds] ==");
    println!("(8 VMs, 20 GiB RAM each, IB cluster -> IB cluster)\n");

    let rows_data: Vec<Row> = Memtest::fig6_sizes()
        .into_iter()
        .enumerate()
        .map(|(i, size)| run_one(size, 600 + i as u64))
        .collect();

    let rows: Vec<Vec<String>> = rows_data
        .iter()
        .map(|r| {
            vec![
                format!("{} GiB", r.array_gib),
                format!("{:.1}", r.migration_s),
                format!("{:.1}", r.hotplug_s),
                format!("{:.1}", r.linkup_s),
                format!("{:.1}", r.total_s),
                format!("{:.2}", r.wire_gib),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "array",
                "migration",
                "hotplug",
                "link-up",
                "total",
                "wire GiB/VM*8"
            ],
            &rows
        )
    );
    println!(
        "{}",
        render_stacked_bars(
            &rows_data
                .iter()
                .map(|r| format!("{} GiB", r.array_gib))
                .collect::<Vec<_>>(),
            &[
                (
                    "migration",
                    rows_data.iter().map(|r| r.migration_s).collect()
                ),
                ("hotplug", rows_data.iter().map(|r| r.hotplug_s).collect()),
                ("link-up", rows_data.iter().map(|r| r.linkup_s).collect()),
            ],
            "s",
            60,
        )
    );

    println!("claims (Section IV-B.2):");
    let mut ok = true;
    ok &= claim(
        "migration time grows with the memory footprint",
        rows_data
            .windows(2)
            .all(|w| w[1].migration_s > w[0].migration_s),
    );
    let growth = rows_data[3].migration_s / rows_data[0].migration_s;
    ok &= claim(
        &format!(
            "...but sublinearly (8x footprint -> {growth:.1}x time; zero/uniform pages compress)"
        ),
        growth < 8.0,
    );
    let hp: Vec<f64> = rows_data.iter().map(|r| r.hotplug_s).collect();
    let hp_spread = hp.iter().cloned().fold(0.0_f64, f64::max)
        - hp.iter().cloned().fold(f64::INFINITY, f64::min);
    ok &= claim(
        &format!("hotplug is ~constant across footprints (spread {hp_spread:.2} s)"),
        hp_spread < 2.0,
    );
    ok &= claim(
        "hotplug under migration is ~3x the self-migration value (migration noise)",
        hp.iter().all(|&h| (9.0..17.0).contains(&h)),
    );
    let lu: Vec<f64> = rows_data.iter().map(|r| r.linkup_s).collect();
    ok &= claim(
        "link-up is ~constant ~30 s (paper: 28.5 s in Fig. 6)",
        lu.iter().all(|&l| (28.0..31.5).contains(&l)),
    );

    write_json("fig6", &rows_data);
    finish(ok);
}
