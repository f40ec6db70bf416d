//! # ninja-vmm — QEMU/KVM-like virtual machine monitor model
//!
//! The host-side half of the paper's mechanism:
//!
//! * [`memory`] — guest RAM as migration statistics (footprint, uniform
//!   fraction, dirty rate) with QEMU's zero/uniform-page compression;
//! * [`vm`] — VM lifecycle, passthrough device attachment, the
//!   "VMM-bypass devices block migration" invariant, per-VM transport
//!   availability;
//! * [`migration`] — the precopy planner (CPU-bound ~1.3 Gb/s sender,
//!   full-RAM page scans, dirty-round iteration, downtime accounting);
//! * [`monitor`] — the QMP-style command surface (`device_add`,
//!   `device_del`, `migrate`, `stop`, `cont`) the SymVirt agents drive;
//! * [`error`] — typed failures for every rejected operation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod guestos;
pub mod memory;
pub mod migration;
pub mod monitor;
pub mod snapshot;
pub mod vm;

pub use error::VmmError;
pub use guestos::{DriverTimings, GuestDeviceState, GuestDriver, GuestPciView};
pub use memory::{GuestMemory, COMPRESSED_PAGE_BYTES, PAGE_SIZE};
pub use migration::{plan_precopy, MigrationConfig, PrecopyPlan, PrecopyRound};
pub use monitor::{MonitorCommand, MonitorReply, QemuMonitor};
pub use snapshot::{SnapshotId, SnapshotStore, VmSnapshot};
pub use vm::{Vm, VmId, VmPool, VmSpec, VmState};
