//! Criterion microbenchmarks of the simulator's hot paths: the RNG, BTL
//! selection, precopy planning, and collective cost evaluation. These
//! guard the *library's* performance (the simulated times are covered by
//! the figure regenerators and tests).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use ninja_migration::World;
use ninja_mpi::Rank;
use ninja_sim::{Bytes, SimRng};
use ninja_vmm::{plan_precopy, GuestMemory, MigrationConfig};

fn bench_rng(c: &mut Criterion) {
    c.bench_function("rng/normal_1k", |b| {
        let mut rng = SimRng::new(1);
        b.iter(|| {
            let mut acc = 0.0;
            for _ in 0..1000 {
                acc += rng.normal(0.0, 1.0);
            }
            black_box(acc)
        })
    });
}

fn bench_mpi(c: &mut Criterion) {
    // Build a 64-rank world once; measure module reconstruction and
    // collective cost evaluation.
    let mut w = World::agc_untraced(1);
    let vms = w.boot_ib_vms(8);
    let rt = w.start_job(vms, 8);
    let env = w.comm_env();

    c.bench_function("mpi/bcast_cost_64ranks", |b| {
        b.iter(|| black_box(rt.bcast_time(Rank(0), Bytes::from_gib(1), &env)))
    });

    c.bench_function("mpi/alltoall_cost_64ranks", |b| {
        b.iter(|| black_box(rt.alltoall_time(Bytes::from_mib(8), &env)))
    });

    c.bench_function("mpi/module_rebuild_64ranks", |b| {
        b.iter_batched(
            || {
                let mut w = World::agc_untraced(2);
                let vms = w.boot_ib_vms(8);
                let rt = w.start_job(vms, 8);
                (w, rt)
            },
            |(mut w, mut rt)| {
                rt.release_network(&mut w.dc, &w.pool).unwrap();
                let now = w.clock();
                rt.continue_after(&w.pool, &mut w.dc, now).unwrap();
                black_box(rt.epoch())
            },
            criterion::BatchSize::SmallInput,
        )
    });
}

fn bench_migration_planner(c: &mut Criterion) {
    let cfg = MigrationConfig::default();
    let mut mem = GuestMemory::new(Bytes::from_gib(20));
    mem.set_workload(Bytes::from_gib(8), 0.3, 0.08e9);
    let link = ninja_sim::Bandwidth::from_gbps(10.0);

    c.bench_function("vmm/plan_precopy_paused", |b| {
        b.iter(|| black_box(plan_precopy(&mem, false, link, &cfg)))
    });

    c.bench_function("vmm/plan_precopy_running", |b| {
        b.iter(|| black_box(plan_precopy(&mem, true, link, &cfg)))
    });
}

fn bench_full_migration(c: &mut Criterion) {
    c.bench_function("ninja/full_fallback_4vms", |b| {
        b.iter_batched(
            || {
                let mut w = World::agc_untraced(3);
                let vms = w.boot_ib_vms(4);
                let rt = w.start_job(vms, 1);
                (w, rt)
            },
            |(mut w, mut rt)| {
                let dsts: Vec<_> = (0..4).map(|i| w.eth_node(i)).collect();
                black_box(
                    ninja_migration::NinjaOrchestrator::default()
                        .migrate(&mut w, &mut rt, &dsts)
                        .unwrap(),
                )
            },
            criterion::BatchSize::SmallInput,
        )
    });
}

criterion_group!(
    benches,
    bench_rng,
    bench_mpi,
    bench_migration_planner,
    bench_full_migration
);
criterion_main!(benches);
