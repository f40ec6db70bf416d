//! Proactive fault tolerance: coordinated checkpoint and restart.
//!
//! Beyond live migration, the SymVirt mechanism exists "to
//! simultaneously migrate **and checkpoint/restart** multiple co-located
//! VMs" (Section III-B), and the paper's non-stop-maintenance use case
//! notes that "we can restart VMs on an Ethernet cluster from
//! checkpointed VM images on an Infiniband cluster" (Section II-A).
//!
//! [`NinjaOrchestrator::checkpoint`] runs the same choreography as a
//! migration with `savevm` in place of `migrate`: quiesce → release IB
//! → SymVirt wait → detach → snapshot every VM to NFS → re-attach →
//! signal → rebuild BTL modules. The freeze is the migration's own
//! ([`ninja_symvirt::freeze`]), and the thaw is the one abort recovery
//! and restart use too. [`NinjaOrchestrator::restart`] brings
//! a checkpointed job back on a (possibly different-interconnect)
//! cluster: restore the images, re-attach HCAs where available, resume,
//! and let the MPI restart path rebuild connections.

use crate::orchestrator::NinjaOrchestrator;
use crate::stepper::thaw;
use crate::world::World;
use ninja_cluster::NodeId;
use ninja_mpi::MpiRuntime;
use ninja_net::TransportKind;
use ninja_sim::{JsonWriter, SimDuration, SimTime, WriteJson};
use ninja_symvirt::{freeze, Controller, GuestCooperative, SymVirtError};
use ninja_vmm::{SnapshotId, SnapshotStore, VmId};
use std::fmt;

/// A completed coordinated checkpoint: one snapshot per VM, in job
/// (hostlist) order.
#[derive(Debug, Clone)]
pub struct CheckpointHandle {
    /// Snapshot ids, aligned with the job's VM order.
    pub snapshots: Vec<SnapshotId>,
    /// When the globally consistent state was captured.
    pub taken_at: SimTime,
    /// Ranks-per-VM of the checkpointed job (restart must match).
    pub procs_per_vm: u32,
}

/// Overhead breakdown of a coordinated checkpoint.
#[derive(Debug, Clone)]
pub struct CheckpointReport {
    /// CRCP quiesce + IB release + SymVirt handshakes.
    pub coordination: SimDuration,
    /// Parallel `device_del` phase.
    pub detach: SimDuration,
    /// Parallel `savevm` phase (max over VMs; NFS-bandwidth bound).
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
    /// Parallel image-restore phase (NFS read; max over VMs).
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
    /// Take a coordinated checkpoint of the whole job, leaving it
    /// running afterwards (proactive FT: the checkpoint is insurance).
    pub fn checkpoint(
        &self,
        world: &mut World,
        rt: &mut MpiRuntime,
        store: &mut SnapshotStore,
    ) -> Result<(CheckpointHandle, CheckpointReport), SymVirtError> {
        let t_start = world.clock();

        // Guest side: consistent state, IB released, VMs paused.
        let coordination = freeze(rt, &mut world.pool, &mut world.dc, t_start)?.duration;
        world.advance(coordination);

        let mut ctl = Controller::new(rt.vms().to_vec(), self.monitor().clone());
        ctl.wait_all(&world.pool)?;

        // Detach passthrough devices: qcow2 snapshots cannot capture a
        // physical HCA's state.
        let now = world.clock();
        let detach = ctl.device_detach(
            "hca-",
            &mut world.pool,
            &mut world.dc,
            now,
            &mut world.rng,
            false,
        )?;
        world.advance(detach.duration);

        // savevm on every VM in parallel: phase cost = max.
        let mut save_max = SimDuration::ZERO;
        let mut snapshots = Vec::with_capacity(ctl.hostlist().len());
        let taken_at = world.clock();
        for &vm in ctl.hostlist() {
            let (id, dur) = store.save(world.pool.get(vm), taken_at);
            snapshots.push(id);
            save_max = save_max.max(dur);
        }
        world.advance(save_max);
        let now = world.clock();
        world
            .trace
            .add_span("ninja", "save", taken_at, now)
            .label_u64("images", snapshots.len() as u64)
            .label_u64("stored_bytes", store.stored_bytes().get());

        // Re-attach, resume, wait out link training, rebuild modules.
        let (attach, linkup) = thaw(world, ctl, rt.needs_link_wait())?;
        let now = world.clock();
        rt.resume_after_blackout(&world.pool, &mut world.dc, now)?;
        world
            .trace
            .add_span("ninja", "checkpoint", t_start, now)
            .label_u64("vms", snapshots.len() as u64);
        world.metrics.inc("ninja_checkpoints_total", &[], 1);

        let image_bytes: u64 = snapshots
            .iter()
            .map(|&s| store.get(s).image_bytes.get())
            .sum();
        Ok((
            CheckpointHandle {
                snapshots,
                taken_at,
                procs_per_vm: rt.layout().procs_per_vm(),
            },
            CheckpointReport {
                coordination,
                detach: detach.duration,
                save: save_max,
                attach,
                linkup,
                image_bytes,
            },
        ))
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
        store: &SnapshotStore,
        dsts: &[NodeId],
    ) -> Result<RestartReport, SymVirtError> {
        if dsts.is_empty() {
            return Err(SymVirtError::EmptyHostlist);
        }
        let t_start = world.clock();

        // Restore every image in parallel: boot new VMs in SymWait.
        let mut restore_max = SimDuration::ZERO;
        let mut new_vms = Vec::with_capacity(handle.snapshots.len());
        for (i, &snap) in handle.snapshots.iter().enumerate() {
            let node = dsts[i % dsts.len()];
            let vm = world
                .pool
                .restore_from_snapshot(store.get(snap), node, &mut world.dc)
                .map_err(SymVirtError::Vmm)?;
            restore_max = restore_max.max(store.restore_duration(snap));
            new_vms.push(vm);
        }
        world.advance(restore_max);

        // Attach HCAs where the destination has them, then resume. The
        // restored runtime rebuilds every connection from the
        // checkpointed state, so it always waits out link training.
        let ctl = Controller::new(new_vms.clone(), self.monitor().clone());
        ctl.wait_all(&world.pool)?;
        let (attach, linkup) = thaw(world, ctl, true)?;
        rt.mark_restored_from_checkpoint();
        let now = world.clock();
        rt.restart_on(new_vms.clone(), &world.pool, &mut world.dc, now)
            .map_err(SymVirtError::Runtime)?;
        let transport_after = rt.uniform_network_kind().map(TransportKind::name);
        let span = world
            .trace
            .add_span("ninja", "restart", t_start, now)
            .label_u64("images", handle.snapshots.len() as u64);
        if let Some(t) = transport_after {
            span.label("transport_after", t);
        }
        world.metrics.inc("ninja_restarts_total", &[], 1);

        Ok(RestartReport {
            restore: restore_max,
            attach,
            linkup,
            transport_after,
            new_vms,
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
        let mut store = SnapshotStore::new();
        let (handle, report) = NinjaOrchestrator::default()
            .checkpoint(&mut w, &mut rt, &mut store)
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
        let mut store = SnapshotStore::new();
        let orch = NinjaOrchestrator::default();
        let (handle, _) = orch.checkpoint(&mut w, &mut rt, &mut store).unwrap();

        // Disaster: the IB cluster dies.
        for &vm in &vms {
            w.pool.destroy(vm, &mut w.dc);
        }
        assert_eq!(w.dc.node(w.ib_node(0)).committed_vcpus(), 0);

        // Reactive restart on the Ethernet cluster.
        let dsts: Vec<_> = (0..4).map(|i| w.eth_node(i)).collect();
        let report = orch
            .restart(&mut w, &mut rt, &handle, &store, &dsts)
            .unwrap();
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
        let mut store = SnapshotStore::new();
        let orch = NinjaOrchestrator::default();
        let (handle, _) = orch.checkpoint(&mut w, &mut rt, &mut store).unwrap();
        for &vm in &vms {
            w.pool.destroy(vm, &mut w.dc);
        }
        // Restart on different IB nodes (2 and 3).
        let dsts: Vec<_> = (2..4).map(|i| w.ib_node(i)).collect();
        let report = orch
            .restart(&mut w, &mut rt, &handle, &store, &dsts)
            .unwrap();
        assert_eq!(report.transport_after, Some("openib"));
        assert!(report.linkup > SimDuration::from_secs(25));
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
        let mut store = SnapshotStore::new();
        let orch = NinjaOrchestrator::default();
        let (handle, _) = orch.checkpoint(&mut w, &mut rt, &mut store).unwrap();
        w.pool.destroy(vms[0], &mut w.dc);
        let dst = w.eth_node(0);
        let report = orch
            .restart(&mut w, &mut rt, &handle, &store, &[dst])
            .unwrap();
        let restored = &w.pool.get(report.new_vms[0]).memory;
        assert_eq!(restored.workload_touched(), ninja_sim::Bytes::from_gib(6));
    }
}
