//! **Future-work extension**: wide-area migration for disaster recovery.
//!
//! The paper's conclusion plans "wide area migration of VMs for disaster
//! recovery" (Section VII). This binary evacuates a 4-VM job from an
//! InfiniBand site to an Ethernet site over WAN links of decreasing
//! bandwidth (metro 10 G, regional 1 G, continental 100 M) and shows how
//! the migration phase — and only the migration phase — stretches.
//!
//! ```text
//! cargo run -p ninja-bench --bin wan
//! ```

use ninja_bench::{claim, finish, render_table, write_json};
use ninja_cluster::{DataCenterBuilder, FabricKind, NodeSpec};
use ninja_migration::{NinjaOrchestrator, World};
use ninja_sim::{Bandwidth, Bytes, SimDuration};
use ninja_workloads::{install_memory_profile, MemoryProfile};

struct Row {
    wan: String,
    gbps: f64,
    latency_ms: u64,
    migration_s: f64,
    hotplug_s: f64,
    total_s: f64,
}
ninja_bench::impl_write_json!(Row {
    wan,
    gbps,
    latency_ms,
    migration_s,
    hotplug_s,
    total_s
});

fn geo_world(wan_gbps: f64, latency_ms: u64, seed: u64) -> World {
    let mut b = DataCenterBuilder::new();
    let a = b.add_cluster(
        "primary-ib",
        FabricKind::Infiniband,
        4,
        NodeSpec::agc_blade(),
    );
    let c = b.add_cluster("dr-eth", FabricKind::Ethernet, 4, NodeSpec::agc_blade());
    b.shared_storage("geo-replicated-nfs", &[a, c]);
    b.wan_link(
        a,
        c,
        Bandwidth::from_gbps(wan_gbps),
        SimDuration::from_millis(latency_ms),
    );
    World::from_parts(b.build(), a, c, seed)
}

fn run(name: &str, gbps: f64, latency_ms: u64, seed: u64) -> Row {
    let mut w = geo_world(gbps, latency_ms, seed);
    let vms = w.boot_ib_vms(4);
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
    let dsts: Vec<_> = (0..4).map(|i| w.cluster_node(w.eth_cluster, i)).collect();
    let report = NinjaOrchestrator::default()
        .migrate(&mut w, &mut rt, &dsts)
        .expect("evacuation");
    Row {
        wan: name.to_string(),
        gbps,
        latency_ms,
        migration_s: report.migration.as_secs_f64(),
        hotplug_s: report.hotplug().as_secs_f64(),
        total_s: report.total().as_secs_f64(),
    }
}

fn main() {
    println!("== WAN disaster recovery: evacuation time vs. inter-site link ==\n");
    let rows_data = vec![
        run("metro (10 Gb/s, 2 ms)", 10.0, 2, 1),
        run("regional (1 Gb/s, 20 ms)", 1.0, 20, 2),
        run("continental (0.1 Gb/s, 80 ms)", 0.1, 80, 3),
    ];
    let rows: Vec<Vec<String>> = rows_data
        .iter()
        .map(|r| {
            vec![
                r.wan.clone(),
                format!("{:.1}", r.migration_s),
                format!("{:.1}", r.hotplug_s),
                format!("{:.1}", r.total_s),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &["WAN class", "migration [s]", "hotplug [s]", "total [s]"],
            &rows
        )
    );

    println!("claims:");
    let mut ok = true;
    ok &= claim(
        "migration time grows as the WAN narrows",
        rows_data
            .windows(2)
            .all(|w| w[1].migration_s > w[0].migration_s),
    );
    ok &= claim("hotplug is WAN-independent (local operation)", {
        let hp: Vec<f64> = rows_data.iter().map(|r| r.hotplug_s).collect();
        hp.iter().all(|&h| (hp[0] - h).abs() < 2.0)
    });
    ok &= claim(
        "metro evacuation is sender-bound (~= LAN time), not WAN-bound",
        rows_data[0].migration_s < 1.3 * 28.6, // LAN figure from `scalability`
    );
    // 4 VMs x ~2.7 GiB compressed each over 0.1 Gb/s shared pipe.
    ok &= claim(
        "continental evacuation is dominated by the shared 100 Mb/s pipe",
        rows_data[2].migration_s > 8.0 * rows_data[1].migration_s,
    );

    write_json("wan", &rows_data);
    finish(ok);
}
