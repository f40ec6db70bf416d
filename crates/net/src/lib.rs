//! # ninja-net — interconnect models
//!
//! Models of the two interconnect worlds the paper migrates between:
//!
//! * [`ib`] — InfiniBand: fabric-assigned LIDs/QPNs (which change on
//!   re-attach), pinned memory regions, queue pairs, and the ~30 s port
//!   training the paper measures as "link-up time";
//! * [`eth`] — Ethernet / virtio-net with instantaneous link-up;
//! * [`link`] — the port link-state machine;
//! * [`fair`] — the migration [`Fabric`]: every precopy stream is a flow
//!   over a path of links (source port, WAN pipe, destination port, a
//!   fleet's switch uplink), and concurrent flows split each link's
//!   capacity max-min fairly;
//! * [`transport`] — LogGP-style message-cost models (latency, bandwidth,
//!   per-byte CPU cost) used by the MPI byte-transfer layer, including the
//!   CPU-contention behaviour that separates TCP from RDMA under
//!   consolidation;
//! * [`calib`] — the calibration constants, with derivations from the
//!   paper's Table II and Sections IV-V.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod calib;
pub mod eth;
pub mod fair;
pub mod ib;
pub mod link;
pub mod switch;
pub mod transport;

pub use calib::TransportCalib;
pub use eth::{EthKind, EthNic};
pub use fair::{Fabric, FlowId, LinkId, MAX_PATH};
pub use ib::{IbError, IbFabric, IbHca, Lid, MrKey, QpNum, QueuePair};
pub use link::{LinkFsm, LinkState};
pub use switch::Switch;
pub use transport::{models, CostModel, MessageCost, TransportKind};
