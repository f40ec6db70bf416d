//! **Section V extension**: scalability of the Ninja migration overhead
//! in the number of VMs.
//!
//! The paper argues "the proposed mechanism is essentially scalable":
//! coordination is negligible, hotplug and link-up are constant (agents
//! run in parallel), and only migration time can grow — through network
//! congestion when many VMs funnel through shared links. This binary
//! sweeps the VM count for both a spread destination (distinct nodes)
//! and a funneled one (two destination nodes), exposing exactly that
//! effect.
//!
//! ```text
//! cargo run -p ninja-bench --bin scalability
//! ```

use ninja_bench::{claim, finish, render_table, two_ib_clusters, write_json};
use ninja_migration::NinjaOrchestrator;
use ninja_sim::Bytes;
use ninja_workloads::{install_memory_profile, MemoryProfile};

struct Row {
    vms: usize,
    spread_coord_s: f64,
    spread_hotplug_s: f64,
    spread_migration_s: f64,
    spread_linkup_s: f64,
    funneled_migration_s: f64,
}
ninja_bench::impl_write_json!(Row {
    vms,
    spread_coord_s,
    spread_hotplug_s,
    spread_migration_s,
    spread_linkup_s,
    funneled_migration_s
});

fn run(vms_n: usize, funnel: bool, seed: u64) -> ninja_migration::NinjaReport {
    let mut w = two_ib_clusters(seed);
    let vms = w.boot_ib_vms(vms_n);
    let mut rt = w.start_job(vms, 1);
    install_memory_profile(
        &mut w,
        &rt,
        MemoryProfile {
            touched: Bytes::from_gib(4),
            uniform_frac: 0.3,
            dirty_bytes_per_sec: 0.0,
        },
    );
    // 2:1 consolidation is the densest packing two 20 GiB VMs allow on
    // a 48 GiB node.
    let dst_count = if funnel { (vms_n / 2).max(1) } else { vms_n };
    let dsts: Vec<_> = (0..dst_count)
        .map(|i| w.cluster_node(w.eth_cluster, i))
        .collect();
    NinjaOrchestrator::default()
        .migrate(&mut w, &mut rt, &dsts)
        .expect("scalability run")
}

fn main() {
    println!("== Scalability: Ninja overhead vs. number of VMs (Section V analysis) ==\n");

    let mut rows_data = Vec::new();
    for &n in &[2usize, 4, 6, 8] {
        let spread = run(n, false, 900 + n as u64);
        let funneled = run(n, true, 950 + n as u64);
        rows_data.push(Row {
            vms: n,
            spread_coord_s: spread.coordination.as_secs_f64(),
            spread_hotplug_s: spread.hotplug().as_secs_f64(),
            spread_migration_s: spread.migration.as_secs_f64(),
            spread_linkup_s: spread.linkup.as_secs_f64(),
            funneled_migration_s: funneled.migration.as_secs_f64(),
        });
    }

    let rows: Vec<Vec<String>> = rows_data
        .iter()
        .map(|r| {
            vec![
                r.vms.to_string(),
                format!("{:.3}", r.spread_coord_s),
                format!("{:.1}", r.spread_hotplug_s),
                format!("{:.1}", r.spread_migration_s),
                format!("{:.1}", r.spread_linkup_s),
                format!("{:.1}", r.funneled_migration_s),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "VMs",
                "coord",
                "hotplug",
                "migration (spread)",
                "link-up",
                "migration (2:1 consolidation)"
            ],
            &rows
        )
    );

    println!("claims:");
    let mut ok = true;
    ok &= claim(
        "coordination is negligible at every scale (< 0.1 s)",
        rows_data.iter().all(|r| r.spread_coord_s < 0.1),
    );
    let hp_spread = rows_data
        .iter()
        .map(|r| r.spread_hotplug_s)
        .fold(0.0_f64, f64::max)
        - rows_data
            .iter()
            .map(|r| r.spread_hotplug_s)
            .fold(f64::INFINITY, f64::min);
    ok &= claim(
        &format!("hotplug is constant in VM count (agents parallel; spread {hp_spread:.2} s)"),
        hp_spread < 2.0,
    );
    let mig_spread = rows_data
        .iter()
        .map(|r| r.spread_migration_s)
        .fold(0.0_f64, f64::max)
        - rows_data
            .iter()
            .map(|r| r.spread_migration_s)
            .fold(f64::INFINITY, f64::min);
    ok &= claim(
        &format!("spread migration is ~constant (distinct port pairs; spread {mig_spread:.2} s)"),
        mig_spread < 3.0,
    );
    ok &= claim(
        "2:1 consolidation roughly doubles migration time (two streams per destination port)",
        rows_data.iter().all(|r| {
            let ratio = r.funneled_migration_s / r.spread_migration_s;
            (1.6..2.4).contains(&ratio)
        }),
    );
    ok &= claim(
        "link-up constant in VM count",
        rows_data
            .iter()
            .all(|r| (29.0..31.0).contains(&r.spread_linkup_s)),
    );

    write_json("scalability", &rows_data);
    finish(ok);
}
