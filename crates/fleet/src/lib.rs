//! # ninja-fleet — fleet operations over Ninja migrations
//!
//! The paper's use cases (Section II-A) are data-center-scale: disaster
//! evacuation, non-stop maintenance, power-aware consolidation. This
//! crate is the layer that treats Ninja migration as a *continuous
//! fleet activity* rather than a one-shot experiment:
//!
//! * [`engine`] — an event loop interleaving many
//!   [`MigrationMachine`](ninja_migration::MigrationMachine)s in
//!   virtual time, with precopy streams contending max-min fairly on
//!   the migration fabric ([`ninja_net::Fabric`]): their ports, any WAN
//!   pipe, and the fleet's switch uplink;
//! * [`admission`] — a FIFO admission controller with a concurrency
//!   cap, the knob that trades drain makespan against contention;
//! * [`scenario`] — canned Section II-A scenarios (evacuation burst,
//!   rolling drain, rebalance stream) with job-tagged
//!   [`CloudScheduler`](ninja_migration::CloudScheduler) triggers;
//! * [`slo`] — the SLO report: p50/p99 blackout and queue wait, drain
//!   makespan, per-job wire bytes, deadline misses.
//!
//! ```
//! use ninja_fleet::{build, run_fleet, FleetConfig, ScenarioKind, ScenarioSpec};
//! use ninja_symvirt::GuestCooperative;
//!
//! let spec = ScenarioSpec {
//!     kind: ScenarioKind::Evacuation,
//!     jobs: 4,
//!     vms_per_job: 1,
//!     arrival: ninja_sim::SimDuration::from_secs(30),
//!     seed: 7,
//! };
//! let mut s = build(&spec).unwrap();
//! let mut jobs: Vec<&mut dyn GuestCooperative> =
//!     s.jobs.iter_mut().map(|j| j as &mut dyn GuestCooperative).collect();
//! let cfg = FleetConfig { concurrency: 2, ..FleetConfig::default() };
//! let report = run_fleet(&mut s.world, &mut jobs, s.scheduler, &cfg).unwrap();
//! assert_eq!(report.jobs.len(), 4);
//! println!("{report}");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod engine;
pub mod scenario;
pub mod slo;

pub use admission::{AdmissionController, QueuedJob};
pub use engine::{run_fleet, FleetConfig, FleetError};
pub use scenario::{
    build, build_auto, build_scaled, Scenario, ScenarioError, ScenarioKind, ScenarioSpec,
};
pub use slo::{percentile, DrillView, FleetReport, JobFailure, JobOutcome};
