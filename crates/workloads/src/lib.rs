//! # ninja-workloads — the paper's benchmark programs
//!
//! * [`memtest`] — the memory-intensive micro-benchmark (Table II,
//!   Fig. 6): sequential writes over a 2-16 GiB array;
//! * [`npb`] — NAS Parallel Benchmarks BT/CG/FT/LU class D models
//!   (Fig. 7), with real iteration counts and the kernels'
//!   characteristic communication patterns;
//! * [`bcast_reduce`] — the Fig. 8 demonstration program (8 GB
//!   broadcast + reduce per node per iteration);
//! * [`runner`] — the iteration loop that interleaves workload steps
//!   with cloud-scheduler migration triggers and charges overhead to
//!   the iteration it lands in.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bcast_reduce;
pub mod kernels;
pub mod memtest;
pub mod npb;
pub mod runner;
pub mod scenarios;

pub use bcast_reduce::{BcastReduce, DATA_PER_NODE};
pub use kernels::{
    block_transpose, distributed_fft2d, naive_dft2d, solve_cg, solve_cg_sequential,
    transpose_block, CgProblem, CgResult,
};
pub use memtest::Memtest;
pub use npb::{Npb, NpbKind};
pub use runner::{
    install_memory_profile, run_with_step_plan, run_workload, IterationRecord, IterativeWorkload,
    MemoryProfile, RunRecord, StepPlan,
};
pub use scenarios::{fig8, geo_pair, two_ib_clusters};
