//! **Future-work extension**: power-aware placement in a heterogeneous
//! data center ("intelligent VM placement in a data center consists of
//! heterogeneous racks for power saving", Section VII).
//!
//! For each placement policy, migrate a 32-rank job there with Ninja
//! migration and report hosts used, data-center power, iteration time,
//! and energy per iteration — the trade the operator actually navigates.
//!
//! ```text
//! cargo run -p ninja-bench --bin power
//! ```

use ninja_bench::{claim, finish, render_table, write_json};
use ninja_migration::{NinjaOrchestrator, PlacementPlanner, PlacementPolicy, PowerModel, World};
use ninja_workloads::{BcastReduce, IterativeWorkload};

struct Row {
    policy: String,
    hosts: usize,
    watts: f64,
    iter_s: f64,
    joules_per_iter: f64,
    migration_overhead_s: f64,
}
ninja_bench::impl_write_json!(Row {
    policy,
    hosts,
    watts,
    iter_s,
    joules_per_iter,
    migration_overhead_s
});

fn run(policy: PlacementPolicy, label: &str, seed: u64) -> Row {
    let mut w = World::agc(seed);
    let vms = w.boot_ib_vms(4);
    let mut rt = w.start_job(vms, 8);
    let planner = PlacementPlanner::default();
    let plan = planner.plan(&w, &rt, policy);
    let report = NinjaOrchestrator::default()
        .migrate(&mut w, &mut rt, &plan.dsts)
        .expect("placement move");
    let bench = BcastReduce::new(1, 8);
    let env = w.comm_env();
    let contention = plan
        .dsts
        .iter()
        .map(|&n| w.dc.node(n).cpu_contention())
        .fold(1.0, f64::max);
    let iter = (bench.compute_per_iteration().mul_f64(contention)
        + bench.comm_per_iteration(&rt, &env))
    .as_secs_f64();
    let watts = PowerModel::agc_blade().world_watts(&w);
    Row {
        policy: label.to_string(),
        hosts: plan.hosts,
        watts,
        iter_s: iter,
        joules_per_iter: watts * iter,
        migration_overhead_s: report.total().as_secs_f64(),
    }
}

fn main() {
    println!("== Power-aware placement: performance vs. energy ==\n");
    let mut w0 = World::agc(1);
    let _ = w0.boot_ib_vms(4); // for the eth-cluster id below
    let rows_data = vec![
        run(PlacementPolicy::Spread, "spread (4 IB hosts)", 10),
        run(
            PlacementPolicy::Pack(w0.eth_cluster),
            "pack (2 Eth hosts)",
            11,
        ),
        run(PlacementPolicy::PowerSave, "power-save", 12),
    ];
    let rows: Vec<Vec<String>> = rows_data
        .iter()
        .map(|r| {
            vec![
                r.policy.clone(),
                r.hosts.to_string(),
                format!("{:.0}", r.watts),
                format!("{:.1}", r.iter_s),
                format!("{:.0}", r.joules_per_iter),
                format!("{:.1}", r.migration_overhead_s),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "policy",
                "hosts",
                "DC watts",
                "iter [s]",
                "J/iter",
                "move cost [s]"
            ],
            &rows
        )
    );

    println!("claims:");
    let mut ok = true;
    let (spread, pack, save) = (&rows_data[0], &rows_data[1], &rows_data[2]);
    ok &= claim(
        &format!(
            "packing halves the hosts ({} -> {})",
            spread.hosts, pack.hosts
        ),
        pack.hosts * 2 == spread.hosts,
    );
    ok &= claim(
        &format!(
            "packing cuts data-center power ({:.0} W -> {:.0} W)",
            spread.watts, pack.watts
        ),
        pack.watts < spread.watts,
    );
    ok &= claim(
        &format!(
            "spread is fastest per iteration ({:.1}s vs {:.1}s)",
            spread.iter_s, pack.iter_s
        ),
        spread.iter_s < pack.iter_s,
    );
    ok &= claim(
        "power-save picks the packed-Ethernet placement",
        save.hosts == pack.hosts && (save.watts - pack.watts).abs() < 1.0,
    );

    write_json("power", &rows_data);
    finish(ok);
}
