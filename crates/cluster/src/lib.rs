//! # ninja-cluster — physical data-center substrate
//!
//! The hardware layer under the VMM: compute nodes with cores/memory and
//! an Ethernet NIC ([`node`]), PCI device inventory ([`pci`]), the ACPI
//! hotplug timing model calibrated from the paper's Table II
//! ([`hotplug`], [`calib`]), NFS shared storage ([`storage`]), and the
//! cluster/data-center topology with the AGC testbed preset and the
//! migration fabric its precopy streams cross ([`topology`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod calib;
pub mod hotplug;
pub mod node;
pub mod pci;
pub mod storage;
pub mod topology;

pub use calib::HotplugCalib;
pub use hotplug::{AcpiHotplug, HotplugOp};
pub use node::{Node, NodeId, NodeSpec};
pub use pci::{
    Attachment, DeviceClass, DeviceId, DeviceKind, DeviceTable, DeviceTag, PciAddr, PciDevice,
};
pub use storage::{NfsExport, StorageId, StoragePool, NFS_STREAM_BW};
pub use topology::{Cluster, ClusterId, DataCenter, DataCenterBuilder, FabricKind, WanLink};
