//! Proactive fault tolerance: coordinated checkpoint and restart.
//!
//! Beyond live migration, the SymVirt mechanism exists "to
//! simultaneously migrate **and checkpoint/restart** multiple co-located
//! VMs" (Section III-B), and the paper's non-stop-maintenance use case
//! notes that "we can restart VMs on an Ethernet cluster from
//! checkpointed VM images on an Infiniband cluster" (Section II-A).
//!
//! Both are kinds of the migration's machine ([`MachineKind`]).
//! [`NinjaOrchestrator::checkpoint`] is a migration with `savevm` in
//! place of `migrate`: quiesce → release IB → SymVirt wait → detach →
//! save every image → re-attach → signal → rebuild BTL modules.
//! [`NinjaOrchestrator::restart`] restores the images into new VMs in
//! SymVirt wait on a (possibly different-interconnect) cluster, remaps
//! the job onto them ([`MpiRuntime::restore_onto`]), streams the images
//! back, re-attaches HCAs where available and rebuilds every
//! connection. Every image crosses one shared NFS export, so parallel
//! images share its bandwidth ([`ninja_cluster::NFS_STREAM_BW`]).

use crate::orchestrator::NinjaOrchestrator;
use crate::stepper::MachineKind;
use crate::world::World;
use ninja_cluster::NodeId;
use ninja_mpi::MpiRuntime;
use ninja_sim::{JsonWriter, SimDuration, SimTime, WriteJson};
use ninja_symvirt::SymVirtError;
use ninja_vmm::{SnapshotId, VmId};
use std::fmt;

/// A completed coordinated checkpoint: one snapshot per VM, in job
/// (hostlist) order.
#[derive(Debug, Clone)]
pub struct CheckpointHandle {
    /// Snapshot ids, aligned with the job's VM order.
    pub snapshots: Vec<SnapshotId>,
    /// When the globally consistent state was captured.
    pub taken_at: SimTime,
}

/// Overhead breakdown of a coordinated checkpoint.
#[derive(Debug, Clone)]
pub struct CheckpointReport {
    /// CRCP quiesce + IB release + SymVirt handshakes.
    pub coordination: SimDuration,
    /// Parallel `device_del` phase.
    pub detach: SimDuration,
    /// Parallel `savevm` phase: every image through the shared export.
    pub save: SimDuration,
    /// Parallel `device_add` phase.
    pub attach: SimDuration,
    /// Wait for IB link training before the job resumes on openib.
    pub linkup: SimDuration,
    /// Bytes written to the snapshot store.
    pub image_bytes: u64,
}

impl CheckpointReport {
    /// Total frozen time the application observes.
    pub fn total(&self) -> SimDuration {
        self.coordination + self.detach + self.save + self.attach + self.linkup
    }
}

impl WriteJson for CheckpointReport {
    fn write_json<W: fmt::Write + ?Sized>(&self, w: &mut JsonWriter<'_, W>) -> fmt::Result {
        w.begin_object()?;
        w.field("coordination", &self.coordination)?;
        w.field("detach", &self.detach)?;
        w.field("save", &self.save)?;
        w.field("attach", &self.attach)?;
        w.field("linkup", &self.linkup)?;
        w.field("total", &self.total())?;
        w.field("image_bytes", &self.image_bytes)?;
        w.end_object()
    }
}

/// Overhead breakdown of a restart from checkpoint.
#[derive(Debug, Clone)]
pub struct RestartReport {
    /// Parallel image-restore phase, through the shared export.
    pub restore: SimDuration,
    /// Parallel `device_add` phase on the new hosts.
    pub attach: SimDuration,
    /// IB link training wait (zero on Ethernet hosts).
    pub linkup: SimDuration,
    /// Transport the restarted job bound.
    pub transport_after: Option<&'static str>,
    /// New VM ids, aligned with the old job order (not serialized).
    pub new_vms: Vec<VmId>,
}

impl RestartReport {
    /// Total time from restart request to the job computing again.
    pub fn total(&self) -> SimDuration {
        self.restore + self.attach + self.linkup
    }
}

impl WriteJson for RestartReport {
    fn write_json<W: fmt::Write + ?Sized>(&self, w: &mut JsonWriter<'_, W>) -> fmt::Result {
        w.begin_object()?;
        w.field("restore", &self.restore)?;
        w.field("attach", &self.attach)?;
        w.field("linkup", &self.linkup)?;
        w.field("total", &self.total())?;
        w.field("transport_after", &self.transport_after)?;
        w.end_object()
    }
}

impl NinjaOrchestrator {
    /// Checkpoint the whole job into [`World::snapshots`], leaving it
    /// running afterwards (proactive FT: the checkpoint is insurance).
    pub fn checkpoint(
        &self,
        world: &mut World,
        rt: &mut MpiRuntime,
    ) -> Result<(CheckpointHandle, CheckpointReport), SymVirtError> {
        // The machine records the job's snapshots in hostlist order.
        let first = world.snapshots.len() as u32;
        let report = self.run(world, rt, MachineKind::Checkpoint, None)?;
        let snapshots: Vec<_> = (first..world.snapshots.len() as u32)
            .map(SnapshotId)
            .collect();
        let handle = CheckpointHandle {
            taken_at: world.snapshots.get(snapshots[0]).taken_at,
            snapshots,
        };
        let report = CheckpointReport {
            coordination: report.coordination,
            detach: report.detach,
            save: report.migration,
            attach: report.attach,
            linkup: report.linkup,
            image_bytes: report.wire_bytes,
        };
        Ok((handle, report))
    }

    /// Restart a checkpointed job on `dsts` (one VM per destination,
    /// wrapping). The job's previous VMs are assumed gone (crashed or
    /// destroyed); the caller destroys them — this models the reactive
    /// path where the original data center failed.
    pub fn restart(
        &self,
        world: &mut World,
        rt: &mut MpiRuntime,
        handle: &CheckpointHandle,
        dsts: &[NodeId],
    ) -> Result<RestartReport, SymVirtError> {
        if dsts.is_empty() {
            return Err(SymVirtError::EmptyHostlist);
        }
        // Boot a new VM in SymVirt wait from every image.
        let mut vms = Vec::with_capacity(handle.snapshots.len());
        for (i, &snap) in handle.snapshots.iter().enumerate() {
            let node = dsts[i % dsts.len()];
            let snapshot = world.snapshots.get(snap);
            let vm = world
                .pool
                .restore_from_snapshot(snapshot, node, &mut world.dc)
                .map_err(SymVirtError::Vmm)?;
            vms.push(vm);
        }
        rt.restore_onto(vms);
        let report = self.run(world, rt, MachineKind::Restart, None)?;
        Ok(RestartReport {
            restore: report.migration,
            attach: report.attach,
            linkup: report.linkup,
            transport_after: report.transport_after,
            new_vms: rt.layout().vms().to_vec(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ninja_net::TransportKind;

    #[test]
    fn checkpoint_leaves_job_running_on_ib() {
        let mut w = World::agc(500);
        let vms = w.boot_ib_vms(4);
        let mut rt = w.start_job(vms.clone(), 1);
        let (handle, report) = NinjaOrchestrator::default()
            .checkpoint(&mut w, &mut rt)
            .unwrap();
        assert_eq!(handle.snapshots.len(), 4);
        assert_eq!(rt.uniform_network_kind(), Some(TransportKind::OpenIb));
        assert_eq!(rt.state(), ninja_mpi::RuntimeState::Active);
        for &vm in &vms {
            assert_eq!(w.pool.get(vm).state, ninja_vmm::VmState::Running);
        }
        // Checkpoint pays detach + save + attach + linkup.
        assert!(
            report.save > SimDuration::from_secs(1),
            "NFS write of ~2 GiB/VM: {}",
            report.save
        );
        assert!(
            report.linkup > SimDuration::from_secs(25),
            "IB re-attach trains: {}",
            report.linkup
        );
        assert!(report.detach + report.attach > SimDuration::from_secs(3));
    }

    #[test]
    fn restart_on_ethernet_cluster() {
        let mut w = World::agc(501);
        let vms = w.boot_ib_vms(4);
        let mut rt = w.start_job(vms.clone(), 2);
        let orch = NinjaOrchestrator::default();
        let (handle, _) = orch.checkpoint(&mut w, &mut rt).unwrap();

        // Disaster: the IB cluster dies.
        for &vm in &vms {
            w.pool.destroy(vm, &mut w.dc);
        }
        assert_eq!(w.dc.node(w.ib_node(0)).committed_vcpus(), 0);

        // Reactive restart on the Ethernet cluster.
        let dsts: Vec<_> = (0..4).map(|i| w.eth_node(i)).collect();
        let report = orch.restart(&mut w, &mut rt, &handle, &dsts).unwrap();
        assert_eq!(report.transport_after, Some("tcp"));
        assert_eq!(
            report.linkup,
            SimDuration::ZERO,
            "Ethernet restart waits for nothing"
        );
        assert!(
            report.restore > SimDuration::from_secs(1),
            "NFS read: {}",
            report.restore
        );
        // The job is whole again: same shape, new VMs, running.
        assert_eq!(rt.layout().total_ranks(), 8);
        for &vm in &report.new_vms {
            assert_eq!(w.pool.get(vm).state, ninja_vmm::VmState::Running);
            assert_eq!(w.pool.get(vm).node.0 / 8, 1, "on the Ethernet cluster");
        }
    }

    #[test]
    fn restart_back_on_ib_pays_linkup() {
        let mut w = World::agc(502);
        let vms = w.boot_ib_vms(2);
        let mut rt = w.start_job(vms.clone(), 1);
        let orch = NinjaOrchestrator::default();
        let (handle, _) = orch.checkpoint(&mut w, &mut rt).unwrap();
        for &vm in &vms {
            w.pool.destroy(vm, &mut w.dc);
        }
        // Restart on different IB nodes (2 and 3).
        let dsts: Vec<_> = (2..4).map(|i| w.ib_node(i)).collect();
        let report = orch.restart(&mut w, &mut rt, &handle, &dsts).unwrap();
        assert_eq!(report.transport_after, Some("openib"));
        assert!(report.linkup > SimDuration::from_secs(25));
    }

    /// Checkpoint `n` one-rank VMs with a 4 GiB footprint, destroy them
    /// and restart on Ethernet: `ninja checkpoint --vms n
    /// --footprint-gib 4`.
    fn checkpoint_and_restart(n: usize) -> (CheckpointReport, RestartReport) {
        let mut w = World::agc(2013);
        let vms = w.boot_ib_vms(n);
        let mut rt = w.start_job(vms.clone(), 1);
        for &vm in &vms {
            let memory = &mut w.pool.get_mut(vm).memory;
            memory.set_workload(ninja_sim::Bytes::from_gib(4), 0.3, 1e9);
        }
        let orch = NinjaOrchestrator::default();
        let (handle, ck) = orch.checkpoint(&mut w, &mut rt).unwrap();
        for &vm in &vms {
            w.pool.destroy(vm, &mut w.dc);
        }
        let dsts: Vec<_> = (0..n).map(|i| w.eth_node(i)).collect();
        let rs = orch.restart(&mut w, &mut rt, &handle, &dsts).unwrap();
        (ck, rs)
    }

    /// Every image crosses the one export: equal images share it
    /// equally and finish together, so a save takes exactly the job's
    /// total image bytes over its bandwidth, and a restore as long.
    #[test]
    fn images_share_the_export() {
        for n in [1, 2, 4, 8] {
            let (ck, rs) = checkpoint_and_restart(n);
            let bytes = ninja_sim::Bytes::new(ck.image_bytes);
            let ideal = ninja_cluster::NFS_STREAM_BW.transfer_time(bytes);
            assert_eq!(ck.save, ideal, "{n} VMs");
            assert_eq!(rs.restore, ck.save, "{n} VMs");
            if n == 1 {
                // `checkpoint --vms 1 --footprint-gib 4 --json`.
                let ns = SimDuration::from_nanos;
                let fields = [
                    (ck.coordination, ns(0)),
                    (ck.detach, ns(2_821_281_922)),
                    (ck.save, ns(5_180_577_112)),
                    (ck.attach, ns(1_144_302_497)),
                    (ck.linkup, ns(29_725_694_293)),
                    (ck.total(), ns(38_871_855_824)),
                    (rs.restore, ns(5_180_577_112)),
                    (rs.attach, ns(0)),
                    (rs.linkup, ns(0)),
                    (rs.total(), ns(5_180_577_112)),
                ];
                for (i, (got, want)) in fields.into_iter().enumerate() {
                    assert_eq!(got, want, "field {i}");
                }
                assert_eq!(ck.image_bytes, 4_662_519_400);
                assert_eq!(rs.transport_after, None);
            }
        }
    }

    #[test]
    fn restored_memory_matches_checkpointed() {
        let mut w = World::agc(503);
        let vms = w.boot_ib_vms(1);
        let mut rt = w.start_job(vms.clone(), 1);
        w.pool
            .get_mut(vms[0])
            .memory
            .set_workload(ninja_sim::Bytes::from_gib(6), 0.2, 1e9);
        let orch = NinjaOrchestrator::default();
        let (handle, _) = orch.checkpoint(&mut w, &mut rt).unwrap();
        w.pool.destroy(vms[0], &mut w.dc);
        let dst = w.eth_node(0);
        let report = orch.restart(&mut w, &mut rt, &handle, &[dst]).unwrap();
        let restored = &w.pool.get(report.new_vms[0]).memory;
        assert_eq!(restored.workload_touched(), ninja_sim::Bytes::from_gib(6));
    }
}
