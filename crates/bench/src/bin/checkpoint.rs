//! **Extension**: coordinated checkpoint and cross-interconnect restart
//! (the proactive/reactive fault tolerance of Section II-A: "we can
//! restart VMs on an Ethernet cluster from checkpointed VM images on an
//! Infiniband cluster").
//!
//! Sweeps the workload footprint at four VMs, then the VM count at a
//! fixed 4 GiB footprint, reporting the checkpoint overhead breakdown
//! (detach / savevm / attach / link-up) and the restart-on-Ethernet
//! time. Every image crosses the one shared NFS export.
//!
//! ```text
//! cargo run -p ninja-bench --bin checkpoint
//! ```

use ninja_bench::{claim, finish, render_table, write_json};
use ninja_migration::{NinjaOrchestrator, World};
use ninja_sim::Bytes;
use ninja_workloads::{install_memory_profile, MemoryProfile};

struct Row {
    vms: usize,
    footprint_gib: u64,
    save_s: f64,
    checkpoint_total_s: f64,
    image_gib: f64,
    restore_s: f64,
    restart_total_s: f64,
}
ninja_bench::impl_write_json!(Row {
    vms,
    footprint_gib,
    save_s,
    checkpoint_total_s,
    image_gib,
    restore_s,
    restart_total_s
});

fn run(n: usize, footprint_gib: u64, seed: u64) -> Row {
    let mut w = World::agc(seed);
    let vms = w.boot_ib_vms(n);
    let mut rt = w.start_job(vms.clone(), 1);
    install_memory_profile(
        &mut w,
        &rt,
        MemoryProfile {
            touched: Bytes::from_gib(footprint_gib),
            uniform_frac: 0.3,
            dirty_bytes_per_sec: 1e9,
        },
    );
    let orch = NinjaOrchestrator::default();
    let (handle, ck) = orch.checkpoint(&mut w, &mut rt).expect("checkpoint");

    // The primary site fails; restart everything on Ethernet.
    for &vm in &vms {
        w.pool.destroy(vm, &mut w.dc);
    }
    let dsts: Vec<_> = (0..n).map(|i| w.eth_node(i)).collect();
    let rs = orch
        .restart(&mut w, &mut rt, &handle, &dsts)
        .expect("restart");

    Row {
        vms: n,
        footprint_gib,
        save_s: ck.save.as_secs_f64(),
        checkpoint_total_s: ck.total().as_secs_f64(),
        image_gib: w.snapshots.stored_bytes().as_f64() / (1u64 << 30) as f64,
        restore_s: rs.restore.as_secs_f64(),
        restart_total_s: rs.total().as_secs_f64(),
    }
}

/// The rows as an aligned table.
fn table(rows: &[Row]) -> String {
    let cells: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.vms.to_string(),
                format!("{} GiB", r.footprint_gib),
                format!("{:.1}", r.save_s),
                format!("{:.1}", r.checkpoint_total_s),
                format!("{:.1}", r.image_gib),
                format!("{:.1}", r.restore_s),
                format!("{:.1}", r.restart_total_s),
            ]
        })
        .collect();
    let headers = [
        "VMs",
        "footprint",
        "savevm [s]",
        "ckpt total [s]",
        "images GiB",
        "restore [s]",
        "restart total [s]",
    ];
    render_table(&headers, &cells)
}

fn main() {
    println!("== Coordinated checkpoint + cross-interconnect restart ==\n");
    let rows_data: Vec<Row> = [2u64, 4, 8, 16]
        .iter()
        .enumerate()
        .map(|(i, &g)| run(4, g, 1300 + i as u64))
        .collect();
    println!("{}", table(&rows_data));
    let by_vms: Vec<Row> = [1usize, 2, 4, 8]
        .iter()
        .enumerate()
        .map(|(i, &n)| run(n, 4, 1400 + i as u64))
        .collect();
    println!("{}", table(&by_vms));

    println!("claims:");
    let mut ok = true;
    ok &= claim(
        "savevm time grows with footprint (NFS-bandwidth bound)",
        rows_data.windows(2).all(|w| w[1].save_s > w[0].save_s),
    );
    ok &= claim(
        "images are compressed (16 GiB/VM footprint stores < 4x the 2 GiB case)",
        rows_data[3].image_gib / rows_data[0].image_gib < 4.5,
    );
    ok &= claim(
        "restore is symmetric with save",
        rows_data
            .iter()
            .all(|r| (r.restore_s - r.save_s).abs() / r.save_s < 0.05),
    );
    ok &= claim(
        "restart on Ethernet pays no link training",
        rows_data
            .iter()
            .all(|r| r.restart_total_s < r.restore_s + 2.0),
    );
    ok &= claim(
        "checkpoint total includes the ~30 s IB re-attach link training",
        rows_data
            .iter()
            .all(|r| r.checkpoint_total_s > r.save_s + 29.0),
    );
    ok &= claim(
        "at a fixed footprint, save time grows linearly with the VM count (one shared export)",
        by_vms.iter().all(|r| {
            let linear = r.vms as f64 * by_vms[0].save_s;
            (r.save_s - linear).abs() / linear < 1e-3
        }),
    );

    let rows: Vec<&Row> = rows_data.iter().chain(&by_vms).collect();
    write_json("checkpoint", &rows[..]);
    finish(ok);
}
