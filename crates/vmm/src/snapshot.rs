//! VM checkpoint images (qcow2 internal snapshots on NFS).
//!
//! The paper's proactive fault-tolerance use case: "using proactive and
//! reactive fault tolerant systems, as shown in \[7\], we can restart VMs
//! on an Ethernet cluster from checkpointed VM images on an Infiniband
//! cluster" (Section II-A). The testbed's "VM image was created using
//! the qcow2 format which enabled us to make snapshots internally"
//! (Section IV-A).
//!
//! A snapshot captures the VM's device-model state plus its RAM image —
//! compressed with the same zero/uniform-page scheme the migration path
//! uses, and written to (later read from) one shared NFS export. The
//! store only records images; moving them is a flow per image on the
//! export's link of the migration fabric
//! (`ninja_cluster::DataCenter::open_image`), so parallel images share
//! the export's bandwidth.

use crate::memory::GuestMemory;
use crate::vm::{VmId, VmPool, VmSpec};
use ninja_cluster::StorageId;
use ninja_sim::{Bytes, SimTime};

/// Identifier of a stored snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SnapshotId(pub u32);

/// A saved VM image.
#[derive(Debug, Clone)]
pub struct VmSnapshot {
    /// Store-assigned identifier.
    pub id: SnapshotId,
    /// Name of the VM at save time.
    pub vm_name: String,
    /// Hardware shape to restore with.
    pub spec: VmSpec,
    /// Memory statistics at save time (restored verbatim).
    pub memory: GuestMemory,
    /// The NFS export holding the image (restore requires reachability).
    pub disk: StorageId,
    /// When the snapshot was taken.
    pub taken_at: SimTime,
    /// On-disk image size (compressed RAM + device state).
    pub image_bytes: Bytes,
}

/// Fixed device-model state per snapshot (CPU, APIC, virtio rings...).
const DEVICE_STATE_BYTES: u64 = 8 << 20;

/// The on-disk size of a snapshot of a VM with this memory: the
/// compressed RAM image plus the device state.
pub fn image_bytes(memory: &GuestMemory) -> Bytes {
    memory.full_pass_wire_bytes() + Bytes::new(DEVICE_STATE_BYTES)
}

/// The snapshot repository on shared storage.
#[derive(Debug, Default)]
pub struct SnapshotStore {
    snapshots: Vec<VmSnapshot>,
}

impl SnapshotStore {
    /// An empty repository.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a snapshot of `pool`'s VM `id` taken at `now`. The VM must
    /// be paused (callers go through the SymVirt choreography).
    pub fn save(&mut self, pool: &VmPool, id: VmId, now: SimTime) -> SnapshotId {
        let (vm, vm_name) = (pool.get(id), pool.name(id));
        let image_bytes = image_bytes(&vm.memory);
        let id = SnapshotId(self.snapshots.len() as u32);
        self.snapshots.push(VmSnapshot {
            id,
            vm_name: vm_name.to_string(),
            spec: vm.spec.clone(),
            memory: vm.memory.clone(),
            disk: vm.disk,
            taken_at: now,
            image_bytes,
        });
        id
    }

    /// Borrow a stored snapshot.
    pub fn get(&self, id: SnapshotId) -> &VmSnapshot {
        &self.snapshots[id.0 as usize]
    }

    /// Number of stored snapshots.
    pub fn len(&self) -> usize {
        self.snapshots.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.snapshots.is_empty()
    }

    /// Total bytes held on the NFS export.
    pub fn stored_bytes(&self) -> Bytes {
        self.snapshots.iter().map(|s| s.image_bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vm::VmPool;
    use ninja_cluster::DataCenter;

    fn paused_vm() -> (DataCenter, VmPool, crate::vm::VmId) {
        let (mut dc, ib, _) = DataCenter::agc();
        let mut pool = VmPool::new();
        let vm = pool
            .create(
                "vm0",
                VmSpec::paper_vm(),
                dc.cluster(ib).nodes[0],
                StorageId(0),
                &mut dc,
            )
            .unwrap();
        pool.get_mut(vm)
            .memory
            .set_workload(Bytes::from_gib(4), 0.5, 0.0);
        pool.pause(vm).unwrap();
        (dc, pool, vm)
    }

    #[test]
    fn save_captures_memory_stats() {
        let (_dc, pool, vm) = paused_vm();
        let mut store = SnapshotStore::new();
        let id = store.save(&pool, vm, SimTime::ZERO);
        let snap = store.get(id);
        assert_eq!(snap.vm_name, "vm0");
        assert_eq!(snap.memory.workload_touched(), Bytes::from_gib(4));
        assert!(
            snap.image_bytes.get() > Bytes::from_gib(3).get(),
            "{}",
            snap.image_bytes
        );
        assert_eq!(snap.image_bytes, image_bytes(&pool.get(vm).memory));
    }

    #[test]
    fn image_is_compressed() {
        let (_dc, pool, vm) = paused_vm();
        let mut store = SnapshotStore::new();
        let id = store.save(&pool, vm, SimTime::ZERO);
        // 20 GiB RAM, but mostly zero pages + half-uniform workload.
        assert!(store.get(id).image_bytes.get() < Bytes::from_gib(5).get());
    }

    #[test]
    fn store_accounting() {
        let (_dc, pool, vm) = paused_vm();
        let mut store = SnapshotStore::new();
        assert!(store.is_empty());
        let a = store.save(&pool, vm, SimTime::ZERO);
        let b = store.save(&pool, vm, SimTime::ZERO);
        assert_ne!(a, b);
        assert_eq!(store.len(), 2);
        assert_eq!(
            store.stored_bytes(),
            store.get(a).image_bytes + store.get(b).image_bytes
        );
    }
}
