//! Shared storage model.
//!
//! The paper's live migration requires shared storage between source and
//! destination ("Live migration was required for the shared storage among
//! the source and destination nodes. In this experiment, we used NFS
//! version 3"). We model NFS exports as named mounts visible from a set
//! of clusters; the VMM refuses to live-migrate a VM whose disk is not
//! reachable from the destination — one of the failure-injection tests.

use ninja_sim::Bandwidth;
use std::collections::BTreeSet;

/// NFS throughput for streaming qcow2 snapshot data: the capacity of
/// each export's link on the migration fabric. NFSv3 over the 10 GbE
/// network in the paper's testbed sustains roughly 0.9 GB/s (7.2 Gb/s).
pub const NFS_STREAM_BW: Bandwidth = Bandwidth::from_bits_per_sec(7_200_000_000);

/// Identifier of an NFS export.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StorageId(pub u32);

/// One NFS export.
#[derive(Debug, Clone)]
pub struct NfsExport {
    /// The id.
    pub id: StorageId,
    /// The name.
    pub name: String,
    /// Clusters that mount this export.
    mounted_by: BTreeSet<u32>,
}

impl NfsExport {
    /// Creates a new instance.
    pub fn new(id: StorageId, name: impl Into<String>) -> Self {
        NfsExport {
            id,
            name: name.into(),
            mounted_by: BTreeSet::new(),
        }
    }

    /// Export to (mount on) a cluster.
    pub fn mount_on(&mut self, cluster: u32) {
        self.mounted_by.insert(cluster);
    }

    /// Withdraw the export from a cluster.
    pub fn unmount_from(&mut self, cluster: u32) {
        self.mounted_by.remove(&cluster);
    }

    /// Is the export reachable from a cluster?
    pub fn accessible_from(&self, cluster: u32) -> bool {
        self.mounted_by.contains(&cluster)
    }

    /// Returns the mount count.
    pub fn mount_count(&self) -> usize {
        self.mounted_by.len()
    }
}

/// The pool of NFS exports in a data center.
#[derive(Debug, Default)]
pub struct StoragePool {
    exports: Vec<NfsExport>,
}

impl StoragePool {
    /// Creates a new instance.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create an export mounted on the given clusters.
    pub fn create(&mut self, name: impl Into<String>, clusters: &[u32]) -> StorageId {
        let id = StorageId(self.exports.len() as u32);
        let mut e = NfsExport::new(id, name);
        for &c in clusters {
            e.mount_on(c);
        }
        self.exports.push(e);
        id
    }

    /// Borrow the entry by id.
    pub fn get(&self, id: StorageId) -> &NfsExport {
        &self.exports[id.0 as usize]
    }

    /// Mutably borrow the entry by id.
    pub fn get_mut(&mut self, id: StorageId) -> &mut NfsExport {
        &mut self.exports[id.0 as usize]
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.exports.len()
    }

    /// Whether this is empty.
    pub fn is_empty(&self) -> bool {
        self.exports.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn export_visibility() {
        let mut pool = StoragePool::new();
        let id = pool.create("vm-images", &[0, 1]);
        assert!(pool.get(id).accessible_from(0));
        assert!(pool.get(id).accessible_from(1));
        assert!(!pool.get(id).accessible_from(2));
    }

    #[test]
    fn unmount_revokes() {
        let mut pool = StoragePool::new();
        let id = pool.create("scratch", &[0, 1]);
        pool.get_mut(id).unmount_from(1);
        assert!(!pool.get(id).accessible_from(1));
        assert_eq!(pool.get(id).mount_count(), 1);
    }

    #[test]
    fn multiple_exports() {
        let mut pool = StoragePool::new();
        let a = pool.create("a", &[0]);
        let b = pool.create("b", &[1]);
        assert_ne!(a, b);
        assert_eq!(pool.len(), 2);
        assert_eq!(pool.get(b).name, "b");
    }
}
