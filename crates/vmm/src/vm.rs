//! Virtual machines and the VM pool.
//!
//! A [`Vm`] mirrors the paper's guests: 8 vCPUs, 20 GiB RAM, a qcow2 disk
//! on shared NFS, one para-virtualized virtio NIC that is always present,
//! and optionally a VMM-bypass InfiniBand HCA passed through from the
//! host pool. State transitions enforce the paper's invariants — most
//! importantly that a VM with a passthrough device attached **cannot**
//! live-migrate, which is the problem Ninja migration exists to solve.

use crate::error::VmmError;
use crate::memory::GuestMemory;
use ninja_cluster::{Attachment, DataCenter, DeviceId, DeviceTable, NodeId, StorageId};
use ninja_net::TransportKind;
use ninja_sim::{Bytes, SimRng, SimTime};

/// Identifier of a VM in the [`VmPool`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VmId(pub u32);

/// Lifecycle state of a VM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VmState {
    /// Executing guest code.
    Running,
    /// Blocked in a SymVirt wait hypercall (paused by the VMM).
    SymWait,
    /// Being live-migrated (paused or running per precopy phase).
    Migrating,
    /// Shut down.
    Stopped,
}

/// Static configuration of a VM.
#[derive(Debug, Clone)]
pub struct VmSpec {
    /// Virtual CPUs (the paper: 8).
    pub vcpus: u32,
    /// RAM size (the paper: 20 GiB).
    pub memory: Bytes,
}

impl VmSpec {
    /// The paper's VM shape: 8 vCPUs, 20 GiB.
    pub fn paper_vm() -> Self {
        VmSpec {
            vcpus: 8,
            memory: Bytes::from_gib(20),
        }
    }
}

/// One virtual machine.
#[derive(Debug)]
pub struct Vm {
    /// The id.
    pub id: VmId,
    /// The name.
    pub name: String,
    /// The spec.
    pub spec: VmSpec,
    /// Migration-relevant memory statistics.
    pub memory: GuestMemory,
    /// Current host node.
    pub node: NodeId,
    /// Lifecycle state.
    pub state: VmState,
    /// The always-present para-virtualized NIC.
    pub virtio_nic: DeviceId,
    /// Backing disk (NFS export).
    pub disk: StorageId,
    /// Completed live migrations (for reporting).
    pub migrations: u32,
    /// (wire bytes, duration) of the last migration (`query-migrate`).
    pub last_migration: Option<(u64, ninja_sim::SimDuration)>,
}

impl Vm {
    /// Passthrough (VMM-bypass) devices currently attached, ascending:
    /// every device `devices` attaches to this VM except its virtio NIC.
    pub fn passthrough<'a>(&self, devices: &'a DeviceTable) -> impl Iterator<Item = DeviceId> + 'a {
        let nic = self.virtio_nic;
        devices
            .on_vm(self.id.0)
            .iter()
            .copied()
            .filter(move |&d| d != nic)
    }
}

/// The set of VMs managed by the distributed VMMs.
#[derive(Debug, Default)]
pub struct VmPool {
    vms: Vec<Vm>,
    /// VMs currently placed on each node (keyed by `NodeId.0`),
    /// maintained at the two points a VM's `node` field is written
    /// (`create`, `complete_migration`). Destroyed VMs keep counting on
    /// their last node, exactly as a scan over the pool would.
    residents: std::collections::BTreeMap<u32, u32>,
}

impl VmPool {
    /// Creates a new instance.
    pub fn new() -> Self {
        Self::default()
    }

    /// Borrow the entry by id.
    pub fn get(&self, id: VmId) -> &Vm {
        &self.vms[id.0 as usize]
    }

    /// Mutably borrow the entry by id.
    pub fn get_mut(&mut self, id: VmId) -> &mut Vm {
        &mut self.vms[id.0 as usize]
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.vms.len()
    }

    /// Whether this is empty.
    pub fn is_empty(&self) -> bool {
        self.vms.is_empty()
    }

    /// Iterates over the entries.
    pub fn iter(&self) -> impl Iterator<Item = &Vm> {
        self.vms.iter()
    }

    /// Returns the ids.
    pub fn ids(&self) -> impl Iterator<Item = VmId> + '_ {
        self.vms.iter().map(|v| v.id)
    }

    /// How many pool VMs are placed on `node` — the count a full pool
    /// scan over `vm.node` would produce, maintained incrementally so
    /// per-job snapshots (e.g. `CommEnv` construction in `ninja-mpi`)
    /// stay O(job) rather than O(pool).
    pub fn residents_on(&self, node: NodeId) -> u32 {
        self.residents.get(&node.0).copied().unwrap_or(0)
    }

    /// Boot a VM on `node` with its disk on `disk`. Fails if the node
    /// cannot hold the VM's memory. A virtio NIC is created with it.
    pub fn create(
        &mut self,
        name: impl Into<String>,
        spec: VmSpec,
        node: NodeId,
        disk: StorageId,
        dc: &mut DataCenter,
    ) -> Result<VmId, VmmError> {
        if !dc.node_mut(node).commit_vm(spec.vcpus, spec.memory) {
            return Err(VmmError::InsufficientCapacity { dst: node });
        }
        let id = VmId(self.vms.len() as u32);
        let nic = dc.devices.insert(
            ninja_cluster::PciAddr::new(0, 3, 0),
            format!("virtio-{}", id.0),
            ninja_cluster::pci::virtio_nic(0x0200_0000_0000 | id.0 as u64),
            Attachment::Guest { vm: id.0 },
        );
        let memory = GuestMemory::new(spec.memory);
        *self.residents.entry(node.0).or_insert(0) += 1;
        self.vms.push(Vm {
            id,
            name: name.into(),
            spec,
            memory,
            node,
            state: VmState::Running,
            virtio_nic: nic,
            disk,
            migrations: 0,
            last_migration: None,
        });
        Ok(id)
    }

    /// Pass through a free IB HCA from the VM's host into the guest.
    /// The HCA's port plugs into the cluster's fabric and begins training;
    /// returns the device and the time its link becomes active.
    pub fn attach_ib_hca(
        &mut self,
        vm: VmId,
        dc: &mut DataCenter,
        now: SimTime,
        rng: &mut SimRng,
    ) -> Result<(DeviceId, SimTime), VmmError> {
        let node = self.get(vm).node;
        let dev = dc
            .free_ib_hca_on(node)
            .ok_or(VmmError::NoFreeDevice { node })?;
        let calib = ninja_net::calib::infiniband_qdr();
        let cid = dc.cluster_of(node);
        let active_at = dc
            .with_ib_fabric(cid, |fabric, devices| {
                let hca = devices.as_ib_mut(dev).expect("device class checked");
                hca.plug_into(fabric, now, &calib, rng)
                    .expect("fabric has LIDs")
            })
            .expect("IB HCA implies IB cluster");
        dc.devices
            .set_attachment(dev, Attachment::Guest { vm: vm.0 });
        Ok((dev, active_at))
    }

    /// Detach an attached device by tag (`device_del`). If the device is
    /// an IB HCA still holding QPs/MRs and `force` is false this fails —
    /// the guest must release resources first (CRS pre-checkpoint).
    /// With `force = true` the detach proceeds and the number of leaked
    /// resources is returned (data loss).
    pub fn detach_by_tag(
        &mut self,
        vm: VmId,
        tag: &str,
        force: bool,
        dc: &mut DataCenter,
    ) -> Result<(DeviceId, usize), VmmError> {
        let dev = dc
            .devices
            .find_by_tag_on_vm(vm.0, tag)
            .ok_or_else(|| VmmError::NoSuchDeviceTag { tag: tag.into() })?;
        let leaked = if let Some(hca) = dc.devices.as_ib_mut(dev) {
            if hca.has_resources() && !force {
                return Err(VmmError::DeviceBusy {
                    device: dev,
                    leaked: hca.qp_count() + hca.mr_count(),
                });
            }
            hca.unplug()
        } else {
            if let Some(nic) = dc.devices.as_eth_mut(dev) {
                nic.unplug();
            }
            0
        };
        let node = self.get(vm).node;
        dc.devices
            .set_attachment(dev, Attachment::Host { node: node.0 });
        Ok((dev, leaked))
    }

    /// Pause (SymVirt wait) — only a running VM can pause.
    pub fn pause(&mut self, vm: VmId) -> Result<(), VmmError> {
        let v = self.get_mut(vm);
        match v.state {
            VmState::Running => {
                v.state = VmState::SymWait;
                Ok(())
            }
            _ => Err(VmmError::NotRunning),
        }
    }

    /// Resume (SymVirt signal).
    pub fn resume(&mut self, vm: VmId) -> Result<(), VmmError> {
        let v = self.get_mut(vm);
        match v.state {
            VmState::SymWait | VmState::Migrating => {
                v.state = VmState::Running;
                Ok(())
            }
            _ => Err(VmmError::NotPaused),
        }
    }

    /// Validate that `vm` may live-migrate to `dst` right now.
    pub fn check_migratable(&self, vm: VmId, dst: NodeId, dc: &DataCenter) -> Result<(), VmmError> {
        let v = self.get(vm);
        if let Some(device) = v.passthrough(&dc.devices).next() {
            return Err(VmmError::PassthroughAttached { device });
        }
        if !dc.storage_reachable(v.disk, dst) {
            return Err(VmmError::StorageNotReachable {
                storage: v.disk,
                dst,
            });
        }
        if dst != v.node {
            let free = dc
                .node(dst)
                .spec
                .memory
                .saturating_sub(dc.node(dst).committed_memory());
            if free.get() < v.spec.memory.get() {
                return Err(VmmError::InsufficientCapacity { dst });
            }
        }
        Ok(())
    }

    /// Start migrating `vm` to `dst` in the node ledger: its memory
    /// counts on `dst` from now on, as the destination QEMU allocates
    /// guest RAM before the first page arrives, and no longer on the
    /// source, so each guest's memory counts once. Only memory: the
    /// vCPUs, which CPU contention and NIC derating read, move when the
    /// VM lands ([`complete_migration`](Self::complete_migration)). A
    /// self-migration moves nothing.
    ///
    /// # Panics
    ///
    /// If the memory does not fit on `dst`: call
    /// [`check_migratable`](Self::check_migratable) first.
    pub fn start_migration(&self, vm: VmId, dst: NodeId, dc: &mut DataCenter) {
        let v = self.get(vm);
        shift_memory(dc, v.spec.memory, v.node, dst);
    }

    /// Undo [`start_migration`](Self::start_migration) for a migration
    /// that will not land. Undoing several in the reverse order they
    /// started restores every node's ledger exactly.
    pub fn cancel_migration(&self, vm: VmId, dst: NodeId, dc: &mut DataCenter) {
        let v = self.get(vm);
        shift_memory(dc, v.spec.memory, dst, v.node);
    }

    /// Land a migration started by
    /// [`start_migration`](Self::start_migration): the VM and its vCPUs
    /// move to `dst`, which already holds its memory, and the virtio NIC
    /// follows.
    pub fn complete_migration(&mut self, vm: VmId, dst: NodeId, dc: &mut DataCenter) {
        let (vcpus, src, nic) = {
            let v = self.get(vm);
            (v.spec.vcpus, v.node, v.virtio_nic)
        };
        if src != dst {
            dc.node_mut(src).release_vm(vcpus, Bytes::ZERO);
            // Adds no memory, so it always fits.
            dc.node_mut(dst).commit_vm(vcpus, Bytes::ZERO);
            let n = self.residents.get_mut(&src.0).expect("src was resident");
            *n -= 1;
            *self.residents.entry(dst.0).or_insert(0) += 1;
        }
        let v = self.get_mut(vm);
        v.node = dst;
        v.migrations += 1;
        // The virtio NIC is recreated on the destination QEMU instance.
        dc.devices
            .set_attachment(nic, Attachment::Guest { vm: vm.0 });
    }

    /// Destroy a VM (crash, or teardown after its checkpoint image was
    /// restored elsewhere): host resources are released, passthrough
    /// devices return to the host pool, the virtio NIC goes away.
    pub fn destroy(&mut self, vm: VmId, dc: &mut DataCenter) {
        let v = self.get(vm);
        let (vcpus, mem, node, nic) = (v.spec.vcpus, v.spec.memory, v.node, v.virtio_nic);
        if v.state != VmState::Stopped {
            dc.node_mut(node).release_vm(vcpus, mem);
        }
        let passthrough: Vec<DeviceId> = v.passthrough(&dc.devices).collect();
        for dev in passthrough {
            if let Some(hca) = dc.devices.as_ib_mut(dev) {
                hca.unplug();
            }
            dc.devices
                .set_attachment(dev, Attachment::Host { node: node.0 });
        }
        dc.devices.set_attachment(nic, Attachment::Detached);
        self.get_mut(vm).state = VmState::Stopped;
    }

    /// Boot a fresh VM from a checkpoint image on `node`. The restored
    /// guest resumes paused (SymVirt wait), exactly as it was saved —
    /// the restart choreography signals it once devices are sorted out.
    pub fn restore_from_snapshot(
        &mut self,
        snapshot: &crate::snapshot::VmSnapshot,
        node: NodeId,
        dc: &mut DataCenter,
    ) -> Result<VmId, VmmError> {
        if !dc.storage_reachable(snapshot.disk, node) {
            return Err(VmmError::StorageNotReachable {
                storage: snapshot.disk,
                dst: node,
            });
        }
        let vm = self.create(
            format!("{}:restored", snapshot.vm_name),
            snapshot.spec.clone(),
            node,
            snapshot.disk,
            dc,
        )?;
        let v = self.get_mut(vm);
        v.memory = snapshot.memory.clone();
        v.state = VmState::SymWait;
        Ok(vm)
    }

    /// The transports this VM could use at `now`: `openib` iff an
    /// attached HCA's link is active, `tcp` iff the virtio NIC is up.
    /// This is what the MPI BTL layer consults when (re)building modules.
    pub fn available_transports(
        &self,
        vm: VmId,
        dc: &DataCenter,
        now: SimTime,
    ) -> Vec<TransportKind> {
        let v = self.get(vm);
        let mut out = Vec::new();
        for dev in v.passthrough(&dc.devices) {
            if let Some(hca) = dc.devices.as_ib(dev) {
                if hca.is_active_at(now) {
                    out.push(TransportKind::OpenIb);
                }
            }
        }
        if let Some(nic) = dc.devices.as_eth(v.virtio_nic) {
            if nic.is_active_at(now) {
                out.push(TransportKind::Tcp);
            }
        }
        out
    }
}

/// Move `mem` of a migrating guest's ledger entry from `from` to `to`.
fn shift_memory(dc: &mut DataCenter, mem: Bytes, from: NodeId, to: NodeId) {
    if from != to {
        dc.node_mut(from).release_vm(0, mem);
        let fits = dc.node_mut(to).commit_vm(0, mem);
        assert!(fits, "migration ledger over capacity on {to:?}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ninja_cluster::StorageId;

    fn setup() -> (
        DataCenter,
        ninja_cluster::ClusterId,
        ninja_cluster::ClusterId,
        VmPool,
        SimRng,
    ) {
        let (dc, ib, eth) = DataCenter::agc();
        (dc, ib, eth, VmPool::new(), SimRng::new(7))
    }

    #[test]
    fn create_commits_node_resources() {
        let (mut dc, ib, _, mut pool, _) = setup();
        let node = dc.cluster(ib).nodes[0];
        let vm = pool
            .create("vm0", VmSpec::paper_vm(), node, StorageId(0), &mut dc)
            .unwrap();
        assert_eq!(dc.node(node).committed_vcpus(), 8);
        assert_eq!(pool.get(vm).state, VmState::Running);
        // virtio NIC exists and is up
        assert!(dc
            .devices
            .as_eth(pool.get(vm).virtio_nic)
            .unwrap()
            .is_active_at(SimTime::ZERO));
    }

    #[test]
    fn create_rejects_oversubscription() {
        let (mut dc, ib, _, mut pool, _) = setup();
        let node = dc.cluster(ib).nodes[0];
        pool.create("vm0", VmSpec::paper_vm(), node, StorageId(0), &mut dc)
            .unwrap();
        pool.create("vm1", VmSpec::paper_vm(), node, StorageId(0), &mut dc)
            .unwrap();
        // 48 GiB node, two 20 GiB VMs fit, third does not.
        let err = pool
            .create("vm2", VmSpec::paper_vm(), node, StorageId(0), &mut dc)
            .unwrap_err();
        assert!(matches!(err, VmmError::InsufficientCapacity { .. }));
    }

    #[test]
    fn passthrough_blocks_migration() {
        let (mut dc, ib, eth, mut pool, mut rng) = setup();
        let node = dc.cluster(ib).nodes[0];
        let dst = dc.cluster(eth).nodes[0];
        let vm = pool
            .create("vm0", VmSpec::paper_vm(), node, StorageId(0), &mut dc)
            .unwrap();
        pool.attach_ib_hca(vm, &mut dc, SimTime::ZERO, &mut rng)
            .unwrap();
        let err = pool.check_migratable(vm, dst, &dc).unwrap_err();
        assert!(matches!(err, VmmError::PassthroughAttached { .. }));
        // After detach it becomes migratable.
        let hca = pool.get(vm).passthrough(&dc.devices).next().unwrap();
        let tag = dc.devices.get(hca).tag.clone();
        pool.detach_by_tag(vm, &tag, false, &mut dc).unwrap();
        assert!(pool.check_migratable(vm, dst, &dc).is_ok());
    }

    /// `Vm::passthrough` reads the device table's guest index: after
    /// every step of a VM's life it lists exactly the devices attached
    /// to the VM, in id order, and never the virtio NIC.
    #[test]
    fn passthrough_follows_the_device_table() {
        let (mut dc, ib, _, mut pool, mut rng) = setup();
        let nodes = dc.cluster(ib).nodes.clone();
        let passthrough = |pool: &VmPool, dc: &DataCenter, vm: VmId| {
            let v = pool.get(vm);
            let read: Vec<DeviceId> = v.passthrough(&dc.devices).collect();
            let scan: Vec<DeviceId> = dc
                .devices
                .iter()
                .filter(|d| d.attachment() == Attachment::Guest { vm: vm.0 })
                .map(|d| d.id)
                .filter(|&d| d != v.virtio_nic)
                .collect();
            assert_eq!(read, scan);
            assert!(!read.contains(&v.virtio_nic));
            read
        };
        let vm = pool
            .create("vm0", VmSpec::paper_vm(), nodes[0], StorageId(0), &mut dc)
            .unwrap();
        // A neighbour with its own HCA, which must never show up.
        let other = pool
            .create("vm1", VmSpec::paper_vm(), nodes[2], StorageId(0), &mut dc)
            .unwrap();
        pool.attach_ib_hca(other, &mut dc, SimTime::ZERO, &mut rng)
            .unwrap();
        assert_eq!(passthrough(&pool, &dc, vm), []);

        let (hca, _) = pool
            .attach_ib_hca(vm, &mut dc, SimTime::ZERO, &mut rng)
            .unwrap();
        assert_eq!(passthrough(&pool, &dc, vm), [hca]);

        let tag = dc.devices.get(hca).tag.clone();
        pool.detach_by_tag(vm, &tag, false, &mut dc).unwrap();
        assert_eq!(passthrough(&pool, &dc, vm), []);

        pool.start_migration(vm, nodes[1], &mut dc);
        pool.complete_migration(vm, nodes[1], &mut dc);
        assert_eq!(passthrough(&pool, &dc, vm), []);
        let (dst_hca, _) = pool
            .attach_ib_hca(vm, &mut dc, SimTime::ZERO, &mut rng)
            .unwrap();
        assert_ne!(dst_hca, hca);
        assert_eq!(passthrough(&pool, &dc, vm), [dst_hca]);

        pool.destroy(vm, &mut dc);
        assert_eq!(passthrough(&pool, &dc, vm), []);
        assert_eq!(
            dc.devices.get(dst_hca).attachment(),
            Attachment::Host { node: nodes[1].0 }
        );
        assert_eq!(passthrough(&pool, &dc, other).len(), 1);
    }

    #[test]
    fn busy_hca_refuses_detach_without_force() {
        let (mut dc, ib, _, mut pool, mut rng) = setup();
        let node = dc.cluster(ib).nodes[0];
        let vm = pool
            .create("vm0", VmSpec::paper_vm(), node, StorageId(0), &mut dc)
            .unwrap();
        let (dev, active_at) = pool
            .attach_ib_hca(vm, &mut dc, SimTime::ZERO, &mut rng)
            .unwrap();
        // Guest allocates IB resources (an MPI job pinned memory).
        let cid = dc.cluster_of(node);
        dc.with_ib_fabric(cid, |fabric, devices| {
            devices
                .as_ib_mut(dev)
                .unwrap()
                .create_qp(fabric, active_at)
                .unwrap();
        })
        .unwrap();
        let tag = dc.devices.get(dev).tag.clone();
        let err = pool.detach_by_tag(vm, &tag, false, &mut dc).unwrap_err();
        assert!(matches!(err, VmmError::DeviceBusy { .. }));
        // Forced detach leaks.
        let (_, leaked) = pool.detach_by_tag(vm, &tag, true, &mut dc).unwrap();
        assert_eq!(leaked, 1);
    }

    #[test]
    fn transports_reflect_link_state() {
        let (mut dc, ib, _, mut pool, mut rng) = setup();
        let node = dc.cluster(ib).nodes[0];
        let vm = pool
            .create("vm0", VmSpec::paper_vm(), node, StorageId(0), &mut dc)
            .unwrap();
        let t0 = SimTime::ZERO;
        assert_eq!(
            pool.available_transports(vm, &dc, t0),
            vec![TransportKind::Tcp]
        );
        let (_, active_at) = pool.attach_ib_hca(vm, &mut dc, t0, &mut rng).unwrap();
        // Still polling: tcp only.
        assert_eq!(
            pool.available_transports(vm, &dc, t0),
            vec![TransportKind::Tcp]
        );
        // After link-up: both.
        let ts = pool.available_transports(vm, &dc, active_at);
        assert!(ts.contains(&TransportKind::OpenIb) && ts.contains(&TransportKind::Tcp));
    }

    #[test]
    fn migration_moves_resources() {
        let (mut dc, ib, eth, mut pool, _) = setup();
        let src = dc.cluster(ib).nodes[0];
        let dst = dc.cluster(eth).nodes[0];
        let vm = pool
            .create("vm0", VmSpec::paper_vm(), src, StorageId(0), &mut dc)
            .unwrap();
        pool.check_migratable(vm, dst, &dc).unwrap();
        // The memory moves when the migration starts; the vCPUs and the
        // VM itself move only when it lands.
        pool.start_migration(vm, dst, &mut dc);
        assert_eq!(pool.get(vm).node, src);
        assert_eq!(dc.node(dst).committed_memory(), Bytes::from_gib(20));
        assert_eq!(dc.node(dst).committed_vcpus(), 0);
        assert_eq!(dc.node(src).committed_memory(), Bytes::ZERO);
        assert_eq!(dc.node(src).committed_vcpus(), 8);
        pool.cancel_migration(vm, dst, &mut dc);
        assert_eq!(dc.node(src).committed_memory(), Bytes::from_gib(20));
        assert_eq!(dc.node(dst).committed_memory(), Bytes::ZERO);
        pool.start_migration(vm, dst, &mut dc);
        pool.complete_migration(vm, dst, &mut dc);
        assert_eq!(pool.get(vm).node, dst);
        assert_eq!(dc.node(src).committed_vcpus(), 0);
        assert_eq!(dc.node(src).committed_memory(), Bytes::ZERO);
        assert_eq!(dc.node(dst).committed_vcpus(), 8);
        assert_eq!(dc.node(dst).committed_memory(), Bytes::from_gib(20));
        assert_eq!(pool.get(vm).migrations, 1);
    }

    #[test]
    fn pause_resume_cycle() {
        let (mut dc, ib, _, mut pool, _) = setup();
        let node = dc.cluster(ib).nodes[0];
        let vm = pool
            .create("vm0", VmSpec::paper_vm(), node, StorageId(0), &mut dc)
            .unwrap();
        assert!(pool.resume(vm).is_err(), "cannot resume a running VM");
        pool.pause(vm).unwrap();
        assert_eq!(pool.get(vm).state, VmState::SymWait);
        assert!(pool.pause(vm).is_err(), "cannot pause twice");
        pool.resume(vm).unwrap();
        assert_eq!(pool.get(vm).state, VmState::Running);
    }

    #[test]
    fn storage_gate() {
        let (mut dc, ib, _, mut pool, _) = setup();
        let node = dc.cluster(ib).nodes[0];
        // A disk export visible only from the IB cluster.
        let lonely = dc.storage.create("local-only", &[dc.cluster_of(node).0]);
        let vm = pool
            .create("vm0", VmSpec::paper_vm(), node, lonely, &mut dc)
            .unwrap();
        let eth_dst = dc.cluster(ninja_cluster::ClusterId(1)).nodes[0];
        let err = pool.check_migratable(vm, eth_dst, &dc).unwrap_err();
        assert!(matches!(err, VmmError::StorageNotReachable { .. }));
    }
}
