//! # ninja-mpi — an Open MPI-like runtime model
//!
//! The guest-side half of Ninja migration:
//!
//! * [`layout`] — rank-to-VM placement (1 or 8 processes per VM, as in
//!   the paper's experiments);
//! * [`btl`] — the Byte Transfer Layer framework with Open MPI's
//!   exclusivity-based transport selection (tcp = 100, openib = 1024,
//!   quoted in Section III-C);
//! * [`runtime`] — BTL module lifecycle: init, pre-checkpoint release of
//!   InfiniBand resources, continue/restart reconstruction, and the
//!   `ompi_cr_continue_like_restart` semantics;
//! * [`collectives`] — point-to-point and collective cost engine over
//!   the established connections, including CPU-contention and
//!   NIC-sharing effects;
//! * [`crcp`] — the checkpoint/restart coordination protocol (quiesce /
//!   bookmark exchange / drain).
//!
//! The OPAL CRS "SELF component" callbacks of the paper are realized by
//! `ninja-symvirt`'s `GuestCooperative` implementation for the runtime,
//! which calls [`runtime::MpiRuntime::release_network`] in its checkpoint
//! handler and [`runtime::MpiRuntime::continue_after`] in its
//! continue/restart handler.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod btl;
pub mod collectives;
pub mod crcp;
pub mod exec;
pub mod layout;
pub mod runtime;

pub use btl::{exclusivity, BtlComponent, BtlRegistry, Connection, Endpoint};
pub use collectives::{CommEnv, EnvSource, LiveEnv, VmEnv, PIPELINE_SEGMENT};
pub use crcp::{Crcp, QuiesceReport};
pub use exec::{run_job, Comm, RouteTable, TrafficCensus};
pub use layout::{JobLayout, Rank};
pub use runtime::{
    BuildReport, ContinueOutcome, MpiConfig, MpiError, MpiRuntime, RuntimeState, TransportStats,
};
