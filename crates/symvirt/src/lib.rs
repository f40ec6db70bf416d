//! # ninja-symvirt — the SymVirt cooperation mechanism
//!
//! SymVirt (from the authors' earlier eScience'12 paper) lets distributed
//! VMMs cooperate with the message-passing layer inside the guests:
//!
//! * the guest-side [`coordinator`] hooks the Open MPI CRS SELF
//!   callbacks: it quiesces the job (CRCP), releases InfiniBand
//!   resources, and issues the **SymVirt wait** hypercall that pauses
//!   the VM;
//! * the host-side [`controller`] (+ one agent per QEMU) waits for all
//!   guests (`wait_all`), drives monitor commands (`device_detach`,
//!   `migration_open`/`migration_land`, `device_attach`) in parallel,
//!   and resumes the guests
//!   with **SymVirt signal** — the exact script API of the paper's
//!   Fig. 5.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod controller;
pub mod coordinator;
pub mod error;
pub mod faults;
pub mod generic;

pub use controller::{Controller, DevicePhase, PendingMigration, VmSpan};
pub use coordinator::{CoordReport, Coordinator};
pub use error::SymVirtError;
pub use faults::{FaultKind, FaultPhase, FaultPlan, FaultSpec, Injected, RetryPolicy};
pub use generic::{GuestCooperative, PrepareReport, ResumeOutcome, SocketService};
