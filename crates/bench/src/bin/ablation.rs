//! Ablation studies of the design choices DESIGN.md calls out.
//!
//! 1. **Zero/uniform-page compression** on vs. off — migration time
//!    sublinear vs. flat-at-worst-case in RAM size;
//! 2. **`ompi_cr_continue_like_restart`** on vs. off — recovery
//!    migration rebinds InfiniBand vs. silently staying on TCP;
//! 3. **Exclusivity-based BTL selection** vs. forced TCP
//!    (`--mca btl tcp,self,sm`) — the cost of ignoring the better
//!    transport during normal operation;
//! 4. **Paused-guest (Ninja) migration** vs. iterative precopy of a
//!    running guest — rounds, wire bytes, and downtime;
//! 5. **Binomial vs. pipelined broadcast** — the collective-algorithm
//!    choice underlying the Fig. 8 benchmark's cost;
//! 6. **TCP vs. RDMA migration transport** — Section V's proposed
//!    optimization of the migration channel itself.
//!
//! ```text
//! cargo run -p ninja-bench --bin ablation
//! ```

use ninja_bench::{claim, finish, render_table, write_json};
use ninja_migration::{NinjaOrchestrator, World};
use ninja_mpi::{BtlRegistry, MpiConfig, Rank};
use ninja_net::TransportKind;
use ninja_sim::{Bandwidth, Bytes};
use ninja_vmm::{plan_precopy, GuestMemory, MigrationConfig};

#[derive(Default)]
struct AblationResults {
    compression_on_s: Vec<f64>,
    compression_off_s: Vec<f64>,
    flag_on_transport: String,
    flag_off_transport: String,
    flag_on_iter_s: f64,
    flag_off_iter_s: f64,
    exclusivity_iter_s: f64,
    forced_tcp_iter_s: f64,
    paused_rounds: usize,
    running_rounds: usize,
    paused_wire_gib: f64,
    running_wire_gib: f64,
    collective_crossover: bool,
    tcp_migration_s: f64,
    rdma_migration_s: f64,
}
ninja_bench::impl_write_json!(AblationResults {
    compression_on_s,
    compression_off_s,
    flag_on_transport,
    flag_off_transport,
    flag_on_iter_s,
    flag_off_iter_s,
    exclusivity_iter_s,
    forced_tcp_iter_s,
    paused_rounds,
    running_rounds,
    paused_wire_gib,
    running_wire_gib,
    collective_crossover,
    tcp_migration_s,
    rdma_migration_s
});

fn ablation_compression(results: &mut AblationResults) -> bool {
    println!("--- 1. zero/uniform-page compression ---");
    let link = Bandwidth::from_gbps(10.0);
    let on = MigrationConfig::default();
    let off = MigrationConfig {
        zero_page_compression: false,
        ..MigrationConfig::default()
    };
    let mut rows = Vec::new();
    for gib in [2u64, 4, 8, 16] {
        let mut mem = GuestMemory::new(Bytes::from_gib(20));
        mem.set_workload(Bytes::from_gib(gib), 0.6, 0.0);
        let t_on = plan_precopy(&mem, false, link, &on)
            .duration()
            .as_secs_f64();
        let t_off = plan_precopy(&mem, false, link, &off)
            .duration()
            .as_secs_f64();
        results.compression_on_s.push(t_on);
        results.compression_off_s.push(t_off);
        rows.push(vec![
            format!("{gib} GiB"),
            format!("{t_on:.1}"),
            format!("{t_off:.1}"),
        ]);
    }
    println!(
        "{}",
        render_table(&["array", "compressed [s]", "uncompressed [s]"], &rows)
    );
    let mut ok = true;
    ok &= claim(
        "without compression every size pays the full 20 GiB transfer",
        results
            .compression_off_s
            .windows(2)
            .all(|w| (w[1] - w[0]).abs() < 0.5),
    );
    ok &= claim(
        "compression saves >2x on the smallest footprint",
        results.compression_off_s[0] / results.compression_on_s[0] > 2.0,
    );
    ok
}

fn recovery_with_flag(flag: bool, seed: u64) -> (Option<TransportKind>, f64) {
    let mut w = World::agc(seed);
    let vms = w.boot_ib_vms(4);
    let cfg = MpiConfig {
        continue_like_restart: flag,
        ..MpiConfig::default()
    };
    let mut rt = w.start_job_with(vms, 1, cfg);
    let orch = NinjaOrchestrator::default();
    let eth: Vec<_> = (0..4).map(|i| w.eth_node(i)).collect();
    let ib: Vec<_> = (0..4).map(|i| w.ib_node(i)).collect();
    orch.migrate(&mut w, &mut rt, &eth).expect("fallback");
    orch.migrate(&mut w, &mut rt, &ib).expect("recovery");
    let env = w.comm_env();
    let iter = rt
        .bcast_time(Rank(0), Bytes::from_gib(8), &env)
        .as_secs_f64();
    (rt.uniform_network_kind(), iter)
}

fn ablation_flag(results: &mut AblationResults) -> bool {
    println!("--- 2. ompi_cr_continue_like_restart ---");
    let (t_on, iter_on) = recovery_with_flag(true, 1100);
    let (t_off, iter_off) = recovery_with_flag(false, 1101);
    results.flag_on_transport = format!("{:?}", t_on);
    results.flag_off_transport = format!("{:?}", t_off);
    results.flag_on_iter_s = iter_on;
    results.flag_off_iter_s = iter_off;
    println!(
        "{}",
        render_table(
            &["flag", "post-recovery transport", "8 GiB bcast [s]"],
            &[
                vec![
                    "on (paper)".into(),
                    format!("{t_on:?}"),
                    format!("{iter_on:.1}")
                ],
                vec!["off".into(), format!("{t_off:?}"), format!("{iter_off:.1}")],
            ]
        )
    );
    let mut ok = true;
    ok &= claim(
        "with the flag, recovery rebinds openib",
        t_on == Some(TransportKind::OpenIb),
    );
    ok &= claim(
        "without it, the job silently stays on TCP",
        t_off == Some(TransportKind::Tcp),
    );
    ok &= claim(
        "the stuck-on-TCP job is >2x slower per collective",
        iter_off > 2.0 * iter_on,
    );
    ok
}

fn ablation_exclusivity(results: &mut AblationResults) -> bool {
    println!("--- 3. exclusivity selection vs. forced TCP ---");
    let mut w = World::agc(1200);
    let vms = w.boot_ib_vms(4);
    let rt = w.start_job(vms, 1);
    let env = w.comm_env();
    let auto = rt
        .bcast_time(Rank(0), Bytes::from_gib(8), &env)
        .as_secs_f64();

    let mut w2 = World::agc(1201);
    let vms2 = w2.boot_ib_vms(4);
    let forced_cfg = MpiConfig {
        registry: BtlRegistry::restricted(&[
            TransportKind::Tcp,
            TransportKind::SharedMemory,
            TransportKind::SelfLoop,
        ]),
        ..MpiConfig::default()
    };
    let rt2 = w2.start_job_with(vms2, 1, forced_cfg);
    let env2 = w2.comm_env();
    let forced = rt2
        .bcast_time(Rank(0), Bytes::from_gib(8), &env2)
        .as_secs_f64();
    results.exclusivity_iter_s = auto;
    results.forced_tcp_iter_s = forced;
    println!(
        "{}",
        render_table(
            &["btl policy", "8 GiB bcast [s]"],
            &[
                vec!["exclusivity (openib wins)".into(), format!("{auto:.1}")],
                vec!["--mca btl tcp,sm,self".into(), format!("{forced:.1}")],
            ]
        )
    );
    claim(
        "exclusivity selection beats forced TCP by >2x on the IB cluster",
        forced > 2.0 * auto,
    )
}

fn ablation_paused(results: &mut AblationResults) -> bool {
    println!("--- 4. paused-guest (Ninja) vs. running-guest precopy ---");
    let link = Bandwidth::from_gbps(10.0);
    let cfg = MigrationConfig::default();
    let mut mem = GuestMemory::new(Bytes::from_gib(20));
    mem.set_workload(Bytes::from_gib(4), 0.0, 0.08e9);
    let paused = plan_precopy(&mem, false, link, &cfg);
    let running = plan_precopy(&mem, true, link, &cfg);
    results.paused_rounds = paused.round_count();
    results.running_rounds = running.round_count();
    results.paused_wire_gib = paused.wire_bytes().as_f64() / (1u64 << 30) as f64;
    results.running_wire_gib = running.wire_bytes().as_f64() / (1u64 << 30) as f64;
    println!(
        "{}",
        render_table(
            &["mode", "rounds", "wire GiB", "duration [s]", "downtime [s]"],
            &[
                vec![
                    "paused (Ninja)".into(),
                    paused.round_count().to_string(),
                    format!("{:.2}", results.paused_wire_gib),
                    format!("{:.1}", paused.duration().as_secs_f64()),
                    format!("{:.1}", paused.downtime().as_secs_f64()),
                ],
                vec![
                    "running (plain QEMU)".into(),
                    running.round_count().to_string(),
                    format!("{:.2}", results.running_wire_gib),
                    format!("{:.1}", running.duration().as_secs_f64()),
                    format!("{:.3}", running.downtime().as_secs_f64()),
                ],
            ]
        )
    );
    let mut ok = true;
    ok &= claim(
        "paused guest migrates in one pass",
        paused.round_count() == 1,
    );
    ok &= claim(
        "running guest pays dirty-round retransmissions (more wire bytes)",
        results.running_wire_gib > results.paused_wire_gib,
    );
    ok &= claim(
        "running guest gets short downtime in exchange",
        running.downtime() < paused.downtime(),
    );
    ok
}

fn ablation_collective_algo(results: &mut AblationResults) -> bool {
    println!("--- 5. binomial vs. pipelined broadcast (4 ranks, IB) ---");
    let mut w = World::agc(1400);
    let vms = w.boot_ib_vms(4);
    let rt = w.start_job(vms, 1);
    let env = w.comm_env();
    let mut rows = Vec::new();
    let mut crossover_seen = false;
    let mut prev_winner_pipeline = false;
    for kib in [1u64, 64, 1024, 65536, 1 << 23] {
        let b = Bytes::from_kib(kib);
        let bin = rt.bcast_time(ninja_mpi::Rank(0), b, &env).as_secs_f64();
        let pipe = rt
            .bcast_time_pipelined(ninja_mpi::Rank(0), b, &env)
            .as_secs_f64();
        let winner_pipeline = pipe < bin;
        if winner_pipeline && !prev_winner_pipeline && !rows.is_empty() {
            crossover_seen = true;
        }
        prev_winner_pipeline = winner_pipeline;
        rows.push(vec![
            format!("{kib} KiB"),
            format!("{bin:.4}"),
            format!("{pipe:.4}"),
            if winner_pipeline {
                "pipelined"
            } else {
                "binomial"
            }
            .into(),
        ]);
    }
    println!(
        "{}",
        render_table(
            &["payload", "binomial [s]", "pipelined [s]", "winner"],
            &rows
        )
    );
    results.collective_crossover = crossover_seen;
    claim(
        "the algorithms cross over: binomial small, pipelined large",
        crossover_seen && prev_winner_pipeline,
    )
}

fn ablation_rdma_migration(results: &mut AblationResults) -> bool {
    println!("--- 6. TCP vs. RDMA migration transport (Section V) ---");
    let run = |rdma: bool, seed: u64| -> f64 {
        let mut w = World::agc(seed);
        let vms = w.boot_ib_vms(4);
        let mut rt = w.start_job(vms, 1);
        for &vm in rt.layout().vms().to_vec().iter() {
            w.pool
                .get_mut(vm)
                .memory
                .set_workload(Bytes::from_gib(8), 0.0, 0.0);
        }
        let orch = NinjaOrchestrator::new(MigrationConfig {
            rdma_transport: rdma,
            ..MigrationConfig::default()
        });
        let dsts: Vec<_> = (0..4).map(|i| w.eth_node(i)).collect();
        orch.migrate(&mut w, &mut rt, &dsts)
            .expect("fallback")
            .migration
            .as_secs_f64()
    };
    let tcp = run(false, 1500);
    let rdma = run(true, 1501);
    results.tcp_migration_s = tcp;
    results.rdma_migration_s = rdma;
    println!(
        "{}",
        render_table(
            &["migration channel", "4x ~9.6 GiB migration [s]"],
            &[
                vec!["TCP (1 core @ 1.3 Gb/s)".into(), format!("{tcp:.1}")],
                vec!["RDMA (HCA offload)".into(), format!("{rdma:.1}")],
            ]
        )
    );
    claim(
        "RDMA migration is >2x faster (\"can reduce CPU utilization and improve the throughput\")",
        rdma < 0.5 * tcp,
    )
}

fn main() {
    println!("== Ablations of the design choices ==\n");
    let mut results = AblationResults::default();
    let mut ok = true;
    ok &= ablation_compression(&mut results);
    println!();
    ok &= ablation_flag(&mut results);
    println!();
    ok &= ablation_exclusivity(&mut results);
    println!();
    ok &= ablation_paused(&mut results);
    println!();
    ok &= ablation_collective_algo(&mut results);
    println!();
    ok &= ablation_rdma_migration(&mut results);
    write_json("ablation", &results);
    finish(ok);
}
