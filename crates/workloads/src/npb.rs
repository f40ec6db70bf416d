//! NAS Parallel Benchmarks (NPB 3.3) workload models — BT, CG, FT, LU,
//! class D, 64 processes, as used in the paper's Fig. 7.
//!
//! Each kernel is modelled by its iteration structure: real iteration
//! counts from the NPB 3.3 sources, per-iteration computation calibrated
//! so the 64-process class D baselines land near the paper's measured
//! bars, the kernel's characteristic communication pattern (BT/LU:
//! nearest-neighbour sweeps; CG: ring + many small allreduces; FT: large
//! all-to-all transposes), and the per-VM memory footprint (the paper:
//! "the memory footprints ranged from 2.3 GB to 16 GB").

use crate::runner::{IterativeWorkload, MemoryProfile};
use ninja_mpi::{CommEnv, MpiRuntime};
use ninja_sim::{Bytes, SimDuration};

/// Which NPB kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NpbKind {
    /// Block tri-diagonal solver (simulated CFD).
    Bt,
    /// Conjugate gradient (unstructured sparse matvec).
    Cg,
    /// 3-D FFT PDE solver (all-to-all transposes).
    Ft,
    /// Lower-upper Gauss-Seidel (simulated CFD).
    Lu,
    /// Embarrassingly parallel (random-number kernel; beyond the
    /// paper's set, included for coverage).
    Ep,
    /// Multigrid V-cycles (beyond the paper's set).
    Mg,
    /// Integer bucket sort (beyond the paper's set).
    Is,
}

impl NpbKind {
    /// All four kernels the paper evaluates, in its order.
    pub fn paper_set() -> [NpbKind; 4] {
        [NpbKind::Bt, NpbKind::Cg, NpbKind::Ft, NpbKind::Lu]
    }

    /// NPB name (`bt`, `cg`, ...).
    pub fn name(self) -> &'static str {
        match self {
            NpbKind::Bt => "bt",
            NpbKind::Cg => "cg",
            NpbKind::Ft => "ft",
            NpbKind::Lu => "lu",
            NpbKind::Ep => "ep",
            NpbKind::Mg => "mg",
            NpbKind::Is => "is",
        }
    }
}

/// An NPB class D benchmark instance over 64 ranks (8 VMs x 8).
#[derive(Debug, Clone)]
pub struct Npb {
    kind: NpbKind,
    name: String,
    iterations: u32,
    compute_per_iter: SimDuration,
    footprint_per_vm: Bytes,
    dirty_bytes_per_sec: f64,
}

impl Npb {
    /// Class D instance of a kernel.
    ///
    /// Iteration counts are NPB 3.3's (`niter`): BT 250, CG 100, FT 25,
    /// LU 300. Per-iteration compute is calibrated so the InfiniBand
    /// baselines land near the paper's Fig. 7 bars (BT ~ 950 s,
    /// CG ~ 420 s, FT ~ 730 s, LU ~ 620 s at 64 processes).
    pub fn class_d(kind: NpbKind) -> Self {
        let (iterations, compute_ms, footprint_gib_x10, dirty) = match kind {
            NpbKind::Bt => (250, 3_700, 86, 1.0e9),
            NpbKind::Cg => (100, 4_050, 23, 0.3e9),
            NpbKind::Ft => (25, 28_400, 160, 2.0e9),
            NpbKind::Lu => (300, 2_000, 42, 1.0e9),
            // Extras (class D, 64 procs; NPB 3.3 niter and typical
            // runtimes on Nehalem-era clusters):
            NpbKind::Ep => (1, 220_000, 2, 0.05e9),
            NpbKind::Mg => (50, 5_200, 110, 1.5e9),
            NpbKind::Is => (10, 7_800, 64, 1.2e9),
        };
        Npb {
            kind,
            name: format!("{}.D.64", kind.name()),
            iterations,
            compute_per_iter: SimDuration::from_millis(compute_ms),
            footprint_per_vm: Bytes::from_mib(footprint_gib_x10 * 1024 / 10),
            dirty_bytes_per_sec: dirty,
        }
    }

    /// The kind.
    pub fn kind(&self) -> NpbKind {
        self.kind
    }

    /// Per-VM memory footprint (drives migration time in Fig. 7).
    pub fn footprint_per_vm(&self) -> Bytes {
        self.footprint_per_vm
    }
}

impl IterativeWorkload for Npb {
    fn name(&self) -> &str {
        &self.name
    }

    fn iterations(&self) -> u32 {
        self.iterations
    }

    fn memory_profile(&self) -> MemoryProfile {
        MemoryProfile {
            touched: self.footprint_per_vm,
            // Floating-point state does not compress.
            uniform_frac: 0.05,
            dirty_bytes_per_sec: self.dirty_bytes_per_sec,
        }
    }

    fn compute_per_iteration(&self) -> SimDuration {
        self.compute_per_iter
    }

    fn comm_per_iteration(&self, rt: &MpiRuntime, env: &CommEnv) -> SimDuration {
        match self.kind {
            // BT: face exchanges in three sweep directions.
            NpbKind::Bt => rt.ring_exchange_time(Bytes::from_mib(16), env) * 3,
            // CG: sparse matvec halo + a series of dot-product
            // allreduces per iteration.
            NpbKind::Cg => {
                rt.ring_exchange_time(Bytes::from_mib(24), env)
                    + rt.allreduce_time(Bytes::new(8), env) * 25
            }
            // FT: two all-to-all transposes of the distributed grid
            // (class D: 32 GiB total, ~8 MiB per rank pair).
            NpbKind::Ft => rt.alltoall_time(Bytes::from_mib(8), env) * 2,
            // LU: many thin pencil exchanges per wavefront sweep.
            NpbKind::Lu => rt.ring_exchange_time(Bytes::from_mib(2), env) * 8,
            // EP: one final small reduction; essentially no traffic.
            NpbKind::Ep => rt.allreduce_time(Bytes::new(80), env),
            // MG: halo exchanges across grid levels + a residual
            // allreduce.
            NpbKind::Mg => {
                rt.ring_exchange_time(Bytes::from_mib(12), env) * 2
                    + rt.allreduce_time(Bytes::new(8), env)
            }
            // IS: bucket-boundary allreduce + full key alltoall.
            NpbKind::Is => {
                rt.allreduce_time(Bytes::from_kib(4), env)
                    + rt.alltoall_time(Bytes::from_mib(4), env)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ninja_migration::World;

    fn world_64ranks() -> (World, MpiRuntime) {
        let mut w = World::agc(70);
        let vms = w.boot_ib_vms(8);
        let rt = w.start_job(vms, 8);
        (w, rt)
    }

    #[test]
    fn footprints_span_paper_range() {
        let fps: Vec<f64> = NpbKind::paper_set()
            .iter()
            .map(|&k| Npb::class_d(k).footprint_per_vm().as_f64() / 1e9)
            .collect();
        let min = fps.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = fps.iter().cloned().fold(0.0, f64::max);
        // "memory footprints ranged from 2.3 GB to 16 GB"
        assert!((2.0..3.0).contains(&min), "min {min}");
        assert!((15.0..18.0).contains(&max), "max {max}");
    }

    #[test]
    fn baselines_land_near_fig7() {
        let (w, rt) = world_64ranks();
        let env = w.comm_env();
        let expect = [
            (NpbKind::Bt, 950.0),
            (NpbKind::Cg, 420.0),
            (NpbKind::Ft, 730.0),
            (NpbKind::Lu, 620.0),
        ];
        for (kind, target) in expect {
            let npb = Npb::class_d(kind);
            let per_iter = npb.compute_per_iteration() + npb.comm_per_iteration(&rt, &env);
            let total = per_iter.as_secs_f64() * npb.iterations() as f64;
            assert!(
                (total - target).abs() / target < 0.15,
                "{}: {total:.0}s vs target {target}",
                npb.name()
            );
        }
    }

    #[test]
    fn comm_is_minor_fraction_on_ib() {
        let (w, rt) = world_64ranks();
        let env = w.comm_env();
        for kind in NpbKind::paper_set() {
            let npb = Npb::class_d(kind);
            let comm = npb.comm_per_iteration(&rt, &env).as_secs_f64();
            let compute = npb.compute_per_iteration().as_secs_f64();
            assert!(
                comm < 0.5 * compute,
                "{}: comm {comm} vs compute {compute}",
                npb.name()
            );
        }
    }

    #[test]
    fn extra_kernels_have_sane_shapes() {
        let (w, rt) = world_64ranks();
        let env = w.comm_env();
        // EP is compute-only: communication is negligible.
        let ep = Npb::class_d(NpbKind::Ep);
        assert!(ep.comm_per_iteration(&rt, &env).as_secs_f64() < 0.01);
        assert_eq!(ep.iterations(), 1);
        // IS is communication-heavy relative to its compute.
        let is = Npb::class_d(NpbKind::Is);
        let comm = is.comm_per_iteration(&rt, &env).as_secs_f64();
        assert!(comm > 0.05, "IS moves real data: {comm}");
        // All seven kernels construct and expose distinct names.
        use NpbKind::*;
        let names: std::collections::HashSet<_> = [Bt, Cg, Ft, Lu, Ep, Mg, Is]
            .iter()
            .map(|k| k.name())
            .collect();
        assert_eq!(names.len(), 7);
    }

    #[test]
    fn ft_is_comm_heaviest() {
        let (w, rt) = world_64ranks();
        let env = w.comm_env();
        let ft = Npb::class_d(NpbKind::Ft).comm_per_iteration(&rt, &env);
        for kind in [NpbKind::Bt, NpbKind::Cg, NpbKind::Lu] {
            let other = Npb::class_d(kind).comm_per_iteration(&rt, &env);
            assert!(ft > other, "ft {ft} vs {} {other}", kind.name());
        }
    }
}
