//! # ninja-migration — interconnect-transparent VM migration
//!
//! A full-system reproduction (in deterministic simulation) of
//! *"Ninja Migration: An Interconnect-Transparent Migration for
//! Heterogeneous Data Centers"* (Takano et al., IPDPS Workshops 2013):
//! simultaneously live-migrating co-located VMs between an InfiniBand
//! cluster (VMM-bypass HCAs) and an Ethernet cluster, while the MPI job
//! inside keeps running and transparently switches transports.
//!
//! ## Quick start
//!
//! ```
//! use ninja_migration::{NinjaOrchestrator, World};
//!
//! // The paper's AGC testbed: 8 IB nodes + 8 Ethernet nodes.
//! let mut world = World::agc(7);
//! let vms = world.boot_ib_vms(4);
//! let mut job = world.start_job(vms, 1); // 1 MPI rank per VM
//! assert_eq!(job.uniform_network_kind(), Some(ninja_net::TransportKind::OpenIb));
//!
//! // Fallback migration: evacuate to the Ethernet cluster.
//! let dsts: Vec<_> = (0..4).map(|i| world.eth_node(i)).collect();
//! let report = NinjaOrchestrator::default()
//!     .migrate(&mut world, &mut job, &dsts)
//!     .unwrap();
//! assert_eq!(job.uniform_network_kind(), Some(ninja_net::TransportKind::Tcp));
//! println!("{report}");
//! ```
//!
//! ## Crate map
//!
//! * [`World`] — scenario state bundle + AGC testbed setup helpers;
//! * [`NinjaOrchestrator`] — the Fig. 4 control flow (quiesce → detach →
//!   migrate → re-attach → signal → link-up → BTL reconstruction);
//! * [`NinjaReport`] — the paper's overhead decomposition (coordination,
//!   hotplug, migration, link-up);
//! * [`CloudScheduler`] — timed migration triggers, polled by workload
//!   runners at iteration boundaries.
//!
//! The substrates live in their own crates: `ninja-sim` (event engine),
//! `ninja-net` (InfiniBand/Ethernet), `ninja-cluster` (nodes, PCI
//! hotplug, NFS), `ninja-vmm` (QEMU/KVM model), `ninja-mpi` (Open
//! MPI-like runtime), `ninja-symvirt` (guest/VMM cooperation).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod drill;
pub mod ft;
pub mod orchestrator;
pub mod placement;
pub mod report;
pub mod scheduler;
pub mod stepper;
pub mod world;

pub use drill::{boot_drill_jobs, plan_evacuation, DrillError};
pub use ft::{CheckpointHandle, CheckpointReport, RestartReport};
pub use orchestrator::{NinjaOrchestrator, PHASE_NAMES};
pub use placement::{PlacementPlan, PlacementPlanner, PlacementPolicy, PowerModel};
pub use report::NinjaReport;
pub use scheduler::{CloudScheduler, Trigger, TriggerReason};
pub use stepper::{reserve_job_telemetry, MachineKind, MigrationMachine, StepOutcome};
pub use world::World;

// Re-export the substrate crates so downstream users need one dependency.
pub use ninja_cluster as cluster;
pub use ninja_mpi as mpi;
pub use ninja_net as net;
pub use ninja_sim as sim;
pub use ninja_symvirt as symvirt;
pub use ninja_vmm as vmm;
