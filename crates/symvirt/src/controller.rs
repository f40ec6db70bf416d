//! SymVirt controller and agents — the VMM-side half.
//!
//! The paper's controller is "a master program on the VMM side" that
//! "spawns SymVirt agent threads. Each agent connects with the VMM
//! monitor interface, and executes a procedure corresponding to the
//! event" (Section III-B). Its Python script API (Fig. 5) is reproduced
//! here method-for-method: `wait_all`, `device_detach`, `migration`,
//! `device_attach`, `signal`, `close`.
//!
//! Agents operate on all VMs **in parallel** (one agent per QEMU), so a
//! phase's wall-clock cost is the *maximum* over the per-VM operations,
//! not the sum — that is why the paper's overhead is flat in the number
//! of VMs (Fig. 8: "the total overhead is identical as the number of
//! process per VM increases").

use crate::error::SymVirtError;
use ninja_cluster::{DataCenter, NodeId};
use ninja_sim::{SimDuration, SimRng, SimTime};
use ninja_vmm::{MonitorCommand, MonitorReply, PrecopyPlan, QemuMonitor, VmId, VmPool, VmState};

/// One agent's record of a completed action (for the controller's log).
#[derive(Debug, Clone)]
pub struct AgentAction {
    /// The vm.
    pub vm: VmId,
    /// The action.
    pub action: String,
    /// The started.
    pub started: SimTime,
    /// The duration.
    pub duration: SimDuration,
}

/// Result of a parallel device phase.
#[derive(Debug, Clone)]
pub struct DevicePhase {
    /// Longest per-VM hotplug duration (the phase's wall-clock cost).
    pub duration: SimDuration,
    /// For attaches: the latest link-active instant across VMs.
    pub link_active_at: Option<SimTime>,
}

/// Result of a parallel migration phase.
#[derive(Debug, Clone)]
pub struct MigrationPhase {
    /// Per-VM plans, in hostlist order.
    pub plans: Vec<PrecopyPlan>,
    /// When the last VM's migration completed.
    pub completed_at: SimTime,
}

/// An open migration: checked, planned and holding the guest's memory
/// on `dst`, with the guest still on its source node. The wire decides
/// when it lands: [`Controller::migration`] reserves a path, the fleet
/// engine opens a `FairShareLink` flow (`ninja-net`), and either lands
/// the VM with [`Controller::migration_commit`] once the stream drains.
#[derive(Debug, Clone)]
pub struct PendingMigration {
    /// The VM in flight.
    pub vm: VmId,
    /// Destination node.
    pub dst: NodeId,
    /// The precopy schedule (wire bytes, scan floor).
    pub plan: PrecopyPlan,
    /// When the agent issued `migrate`.
    pub started: SimTime,
}

/// One VM's interval in one phase: `(phase, vm, start, end)`.
pub type VmSpan = (&'static str, VmId, SimTime, SimTime);

/// The VMM-side master program.
#[derive(Debug)]
pub struct Controller {
    hostlist: Vec<VmId>,
    monitor: QemuMonitor,
    log: Vec<AgentAction>,
    spans: Vec<VmSpan>,
    hotplug_leaked: u64,
    closed: bool,
    /// Agents whose QEMU monitor connection has dropped (failure
    /// injection / crash simulation).
    failed_agents: std::collections::BTreeSet<VmId>,
}

impl Controller {
    /// Create a controller over the given VMs (the script's
    /// `symvirt.Controller(config.hostlist)`).
    pub fn new(hostlist: Vec<VmId>, monitor: QemuMonitor) -> Self {
        Controller {
            hostlist,
            monitor,
            log: Vec::new(),
            spans: Vec::new(),
            hotplug_leaked: 0,
            closed: false,
            failed_agents: std::collections::BTreeSet::new(),
        }
    }

    /// Record a per-VM phase interval alongside the script-style action
    /// log.
    fn record_vm_span(&mut self, phase: &'static str, vm: VmId, started: SimTime, end: SimTime) {
        self.spans.push((phase, vm, started, end));
    }

    /// Drain the per-VM phase intervals accumulated since the last call
    /// (the orchestrator records them into the world trace as `symvirt`
    /// spans labeled with the VM's name).
    pub fn take_spans(&mut self) -> Vec<VmSpan> {
        std::mem::take(&mut self.spans)
    }

    /// Total IB resources the monitor reported as leaked during device
    /// detaches (nonzero only under forced unplug) — surfaced as the
    /// hotplug-retry count in the metrics registry.
    pub fn hotplug_leaked(&self) -> u64 {
        self.hotplug_leaked
    }

    /// Simulate the crash of the agent serving `vm`: its monitor
    /// connection drops and every subsequent phase fails with
    /// [`SymVirtError::AgentsDisconnected`], listing every failed VM.
    /// The guests stay safely paused in SymVirt wait — a fresh
    /// controller (or [`repair_agents`](Controller::repair_agents)) can
    /// take over.
    pub fn inject_agent_failure(&mut self, vm: VmId) {
        self.failed_agents.insert(vm);
    }

    /// Every agent currently disconnected, sorted by VM id.
    pub fn failed_agents(&self) -> Vec<VmId> {
        self.failed_agents.iter().copied().collect()
    }

    /// Respawn every crashed agent (the retry path reconnects them to
    /// their QEMU monitors); subsequent phases run normally.
    pub fn repair_agents(&mut self) {
        self.failed_agents.clear();
    }

    /// Returns the hostlist.
    pub fn hostlist(&self) -> &[VmId] {
        &self.hostlist
    }

    /// Returns the log.
    pub fn log(&self) -> &[AgentAction] {
        &self.log
    }

    /// Returns the monitor.
    pub fn monitor(&self) -> &QemuMonitor {
        &self.monitor
    }

    fn check_open(&self) -> Result<(), SymVirtError> {
        if self.closed {
            // A closed controller has torn down its agents.
            return Err(SymVirtError::AgentDisconnected(
                self.hostlist.first().copied().unwrap_or(VmId(0)),
            ));
        }
        if !self.failed_agents.is_empty() {
            // Report every disconnected agent, not just the first — an
            // operator (or the retry loop) needs the full blast radius.
            return Err(SymVirtError::AgentsDisconnected(self.failed_agents()));
        }
        Ok(())
    }

    /// `wait_all`: verify every VM has issued the SymVirt wait hypercall
    /// (is paused). The real controller blocks here; in the simulation
    /// the guest side has already run, so this is a consistency check.
    pub fn wait_all(&self, pool: &VmPool) -> Result<(), SymVirtError> {
        self.check_open()?;
        for &vm in &self.hostlist {
            if pool.get(vm).state != VmState::SymWait {
                return Err(SymVirtError::VmNotWaiting(vm));
            }
        }
        Ok(())
    }

    /// `device_detach(tag=...)`: every agent issues `device_del` for the
    /// tagged device on its VM. Runs in parallel; returns the phase cost.
    /// VMs without a matching device (e.g. already on Ethernet) are
    /// skipped, mirroring the script's per-host behaviour.
    pub fn device_detach(
        &mut self,
        tag_prefix: &str,
        pool: &mut VmPool,
        dc: &mut DataCenter,
        now: SimTime,
        rng: &mut SimRng,
        during_migration: bool,
    ) -> Result<DevicePhase, SymVirtError> {
        self.check_open()?;
        self.wait_all(pool)?;
        let mut max = SimDuration::ZERO;
        for i in 0..self.hostlist.len() {
            let vm = self.hostlist[i];
            // Find this VM's passthrough device whose tag starts with the
            // prefix (the paper tags HCAs 'vf0'; ours are 'hca-<node>').
            let tag = pool
                .get(vm)
                .passthrough(&dc.devices)
                .map(|d| &dc.devices.get(d).tag)
                .find(|t| t.starts_with(tag_prefix));
            let Some(tag) = tag.cloned() else { continue };
            let reply = self.monitor.execute(
                MonitorCommand::DeviceDel {
                    vm,
                    tag: tag.clone(),
                    force: false,
                },
                pool,
                dc,
                now,
                rng,
                during_migration,
            )?;
            if let MonitorReply::DeviceDeleted {
                duration, leaked, ..
            } = reply
            {
                max = max.max(duration);
                self.hotplug_leaked += leaked as u64;
                self.record_vm_span("detach", vm, now, now + duration);
                self.log.push(AgentAction {
                    vm,
                    action: format!("device_del {tag}"),
                    started: now,
                    duration,
                });
            }
        }
        Ok(DevicePhase {
            duration: max,
            link_active_at: None,
        })
    }

    /// `device_attach(...)`: every agent issues `device_add` of a free
    /// host IB HCA on its VM's node. VMs on nodes without HCAs (Ethernet
    /// cluster) are skipped.
    pub fn device_attach(
        &mut self,
        pool: &mut VmPool,
        dc: &mut DataCenter,
        now: SimTime,
        rng: &mut SimRng,
        during_migration: bool,
    ) -> Result<DevicePhase, SymVirtError> {
        self.check_open()?;
        self.wait_all(pool)?;
        let mut max = SimDuration::ZERO;
        let mut link_max: Option<SimTime> = None;
        for i in 0..self.hostlist.len() {
            let vm = self.hostlist[i];
            if dc.free_ib_hca_on(pool.get(vm).node).is_none() {
                continue;
            }
            let reply = self.monitor.execute(
                MonitorCommand::DeviceAddIb { vm },
                pool,
                dc,
                now,
                rng,
                during_migration,
            )?;
            if let MonitorReply::DeviceAdded {
                duration,
                link_active_at,
                ..
            } = reply
            {
                max = max.max(duration);
                link_max = Some(link_max.map_or(link_active_at, |m| m.max(link_active_at)));
                self.record_vm_span("attach", vm, now, now + duration);
                self.log.push(AgentAction {
                    vm,
                    action: "device_add ib-hca".into(),
                    started: now,
                    duration,
                });
            }
        }
        Ok(DevicePhase {
            duration: max,
            link_active_at: link_max,
        })
    }

    /// `migration(src_hostlist, dst_hostlist)`: migrate VM *i* to
    /// `dsts[i % dsts.len()]` (wrapping supports the paper's
    /// consolidation of 4 VMs onto 2 hosts). All agents start at `now`
    /// ([`migration_open`](Controller::migration_open)); each stream
    /// then reserves its path in hostlist order, so contention on shared
    /// NICs serializes, and lands when both the wire and the precopy
    /// schedule are done.
    pub fn migration(
        &mut self,
        dsts: &[NodeId],
        pool: &mut VmPool,
        dc: &mut DataCenter,
        now: SimTime,
        rng: &mut SimRng,
    ) -> Result<MigrationPhase, SymVirtError> {
        let pending = self.migration_open(dsts, pool, dc, now, rng)?;
        let sender_cap = self.monitor.config().sender_cap();
        let mut completed_at = now;
        for p in &pending {
            let src = pool.get(p.vm).node;
            let wire = dc.reserve_migration_path(src, p.dst, p.plan.wire_bytes(), sender_cap, now);
            let completes_at = wire.end.max(now + p.plan.duration());
            self.migration_commit(p, completes_at, pool, dc);
            completed_at = completed_at.max(completes_at);
        }
        Ok(MigrationPhase {
            plans: pending.into_iter().map(|p| p.plan).collect(),
            completed_at,
        })
    }

    /// Every agent issues `migrate` for its VM: checked, planned, and
    /// holding its memory on the destination, the guest still on its
    /// source. The caller's wire model decides when each stream drains;
    /// land each VM with [`migration_commit`](Controller::migration_commit)
    /// then. If any agent's `migrate` fails, the migrations already
    /// started are cancelled, so none is left open.
    pub fn migration_open(
        &mut self,
        dsts: &[NodeId],
        pool: &mut VmPool,
        dc: &mut DataCenter,
        now: SimTime,
        rng: &mut SimRng,
    ) -> Result<Vec<PendingMigration>, SymVirtError> {
        self.check_open()?;
        if dsts.is_empty() {
            return Err(SymVirtError::EmptyHostlist);
        }
        self.wait_all(pool)?;
        let mut pending = Vec::with_capacity(self.hostlist.len());
        for (i, &vm) in self.hostlist.iter().enumerate() {
            let dst = dsts[i % dsts.len()];
            let cmd = MonitorCommand::Migrate { vm, dst };
            match self.monitor.execute(cmd, pool, dc, now, rng, true) {
                Ok(MonitorReply::MigrationStarted { plan }) => pending.push(PendingMigration {
                    vm,
                    dst,
                    plan,
                    started: now,
                }),
                failed => {
                    for p in pending.iter().rev() {
                        pool.cancel_migration(p.vm, p.dst, dc);
                    }
                    let err = failed.expect_err("`migrate` replies MigrationStarted");
                    return Err(err.into());
                }
            }
        }
        Ok(pending)
    }

    /// Land `p.vm` on `p.dst` at `completes_at` (when its wire stream
    /// drained, floored by the precopy schedule) and record the agent's
    /// span and log entry.
    pub fn migration_commit(
        &mut self,
        p: &PendingMigration,
        completes_at: SimTime,
        pool: &mut VmPool,
        dc: &mut DataCenter,
    ) {
        pool.complete_migration(p.vm, p.dst, dc);
        pool.get_mut(p.vm).last_migration =
            Some((p.plan.wire_bytes().get(), completes_at.since(p.started)));
        self.record_vm_span("migration", p.vm, p.started, completes_at);
        self.log.push(AgentAction {
            vm: p.vm,
            action: format!("migrate -> {}", dc.node(p.dst).hostname),
            started: p.started,
            duration: completes_at.since(p.started),
        });
    }

    /// `signal`: resume every VM (SymVirt signal hypercall).
    pub fn signal(&mut self, pool: &mut VmPool) -> Result<(), SymVirtError> {
        self.check_open()?;
        for &vm in &self.hostlist {
            pool.resume(vm)?;
        }
        Ok(())
    }

    /// `quit` / `close`: tear down the agents. Further calls fail.
    pub fn close(&mut self) {
        self.closed = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ninja_cluster::{DataCenter, StorageId};
    use ninja_sim::Bytes;
    use ninja_vmm::{VmSpec, VmmError};

    fn world() -> (DataCenter, VmPool, Vec<VmId>, SimRng) {
        let (mut dc, ib, _) = DataCenter::agc();
        let mut pool = VmPool::new();
        let mut rng = SimRng::new(101);
        let mut vms = Vec::new();
        for i in 0..4 {
            let vm = pool
                .create(
                    format!("vm{i}"),
                    VmSpec::paper_vm(),
                    dc.cluster(ib).nodes[i],
                    StorageId(0),
                    &mut dc,
                )
                .unwrap();
            pool.attach_ib_hca(vm, &mut dc, SimTime::ZERO, &mut rng)
                .unwrap();
            vms.push(vm);
        }
        (dc, pool, vms, rng)
    }

    fn pause_all(pool: &mut VmPool, vms: &[VmId]) {
        for &vm in vms {
            pool.pause(vm).unwrap();
        }
    }

    #[test]
    fn wait_all_requires_paused_vms() {
        let (_dc, pool, vms, _) = world();
        let ctl = Controller::new(vms.clone(), QemuMonitor::default());
        let err = ctl.wait_all(&pool).unwrap_err();
        assert!(matches!(err, SymVirtError::VmNotWaiting(_)));
    }

    #[test]
    fn detach_phase_is_max_not_sum() {
        let (mut dc, mut pool, vms, mut rng) = world();
        pause_all(&mut pool, &vms);
        let mut ctl = Controller::new(vms.clone(), QemuMonitor::default());
        let phase = ctl
            .device_detach("hca-", &mut pool, &mut dc, SimTime::ZERO, &mut rng, false)
            .unwrap();
        // One IB detach is ~2.8 s; four in parallel must not be ~11 s.
        let d = phase.duration.as_secs_f64();
        assert!((2.7..3.3).contains(&d), "parallel detach {d}");
        assert_eq!(ctl.log().len(), 4);
        for vm in pool.iter() {
            assert_eq!(vm.passthrough(&dc.devices).next(), None);
        }
    }

    #[test]
    fn full_script_fallback_sequence() {
        // Mirrors Fig. 5 part 1: wait_all -> device_detach -> signal,
        // then wait_all -> migration.
        let (mut dc, mut pool, vms, mut rng) = world();
        let eth_nodes: Vec<NodeId> = dc.cluster(ninja_cluster::ClusterId(1)).nodes[..4].to_vec();
        pause_all(&mut pool, &vms);
        let mut ctl = Controller::new(vms.clone(), QemuMonitor::default());
        ctl.wait_all(&pool).unwrap();
        ctl.device_detach("hca-", &mut pool, &mut dc, SimTime::ZERO, &mut rng, true)
            .unwrap();
        let phase = ctl
            .migration(&eth_nodes, &mut pool, &mut dc, SimTime::ZERO, &mut rng)
            .unwrap();
        assert_eq!(phase.plans.len(), 4);
        for (i, vm) in pool.iter().enumerate() {
            assert_eq!(vm.node, eth_nodes[i]);
        }
        ctl.signal(&mut pool).unwrap();
        for vm in pool.iter() {
            assert_eq!(vm.state, VmState::Running);
        }
    }

    #[test]
    fn consolidation_wraps_hostlist() {
        let (mut dc, mut pool, vms, mut rng) = world();
        let eth_nodes: Vec<NodeId> = dc.cluster(ninja_cluster::ClusterId(1)).nodes[..2].to_vec();
        pause_all(&mut pool, &vms);
        let mut ctl = Controller::new(vms.clone(), QemuMonitor::default());
        ctl.device_detach("hca-", &mut pool, &mut dc, SimTime::ZERO, &mut rng, true)
            .unwrap();
        ctl.migration(&eth_nodes, &mut pool, &mut dc, SimTime::ZERO, &mut rng)
            .unwrap();
        // 4 VMs on 2 hosts: 2 each, CPU over-committed.
        assert_eq!(dc.node(eth_nodes[0]).committed_vcpus(), 16);
        assert_eq!(dc.node(eth_nodes[0]).cpu_contention(), 2.0);
    }

    #[test]
    fn attach_reports_linkup_horizon() {
        let (mut dc, mut pool, vms, mut rng) = world();
        pause_all(&mut pool, &vms);
        let mut ctl = Controller::new(vms.clone(), QemuMonitor::default());
        ctl.device_detach("hca-", &mut pool, &mut dc, SimTime::ZERO, &mut rng, false)
            .unwrap();
        let phase = ctl
            .device_attach(&mut pool, &mut dc, SimTime::ZERO, &mut rng, false)
            .unwrap();
        let link = phase.link_active_at.expect("IB attach trains links");
        // attach (~1.1 s) + linkup (~29.8 s)
        let t = link.as_secs_f64();
        assert!((30.0..32.5).contains(&t), "link horizon {t}");
    }

    #[test]
    fn attach_skips_hca_less_nodes() {
        let (mut dc, _, _, mut rng) = world();
        // VMs on the Ethernet cluster have no HCAs to attach.
        let mut pool2 = VmPool::new();
        let eth_node = dc.cluster(ninja_cluster::ClusterId(1)).nodes[4];
        let vm = pool2
            .create(
                "eth-vm",
                VmSpec::paper_vm(),
                eth_node,
                StorageId(0),
                &mut dc,
            )
            .unwrap();
        pool2.pause(vm).unwrap();
        let mut ctl = Controller::new(vec![vm], QemuMonitor::default());
        let phase = ctl
            .device_attach(&mut pool2, &mut dc, SimTime::ZERO, &mut rng, false)
            .unwrap();
        assert_eq!(phase.duration, SimDuration::ZERO);
        assert_eq!(phase.link_active_at, None);
    }

    #[test]
    fn injected_agent_failure_blocks_phases() {
        let (mut dc, mut pool, vms, mut rng) = world();
        pause_all(&mut pool, &vms);
        let mut ctl = Controller::new(vms.clone(), QemuMonitor::default());
        ctl.inject_agent_failure(vms[2]);
        let err = ctl
            .device_detach("hca-", &mut pool, &mut dc, SimTime::ZERO, &mut rng, false)
            .unwrap_err();
        assert!(matches!(&err, SymVirtError::AgentsDisconnected(v) if v == &vec![vms[2]]));
        // Nothing happened: every HCA is still attached.
        for &vm in &vms {
            assert_eq!(pool.get(vm).passthrough(&dc.devices).count(), 1);
        }
    }

    #[test]
    fn failure_report_lists_every_disconnected_agent() {
        let (mut dc, mut pool, vms, mut rng) = world();
        pause_all(&mut pool, &vms);
        let mut ctl = Controller::new(vms.clone(), QemuMonitor::default());
        // Two agents drop; the error must surface both, not just the
        // first in iteration order.
        ctl.inject_agent_failure(vms[3]);
        ctl.inject_agent_failure(vms[1]);
        assert_eq!(ctl.failed_agents(), vec![vms[1], vms[3]], "sorted");
        let err = ctl
            .device_detach("hca-", &mut pool, &mut dc, SimTime::ZERO, &mut rng, false)
            .unwrap_err();
        match &err {
            SymVirtError::AgentsDisconnected(failed) => {
                assert_eq!(failed, &vec![vms[1], vms[3]]);
            }
            other => panic!("expected AgentsDisconnected, got {other:?}"),
        }
        let msg = err.to_string();
        assert!(msg.contains("VmId(1)") && msg.contains("VmId(3)"), "{msg}");
        // Respawning the agents clears the fault.
        ctl.repair_agents();
        assert!(ctl.failed_agents().is_empty());
        ctl.device_detach("hca-", &mut pool, &mut dc, SimTime::ZERO, &mut rng, false)
            .unwrap();
    }

    #[test]
    fn phases_produce_per_vm_spans() {
        let (mut dc, mut pool, vms, mut rng) = world();
        let eth_nodes: Vec<NodeId> = dc.cluster(ninja_cluster::ClusterId(1)).nodes[..4].to_vec();
        pause_all(&mut pool, &vms);
        let mut ctl = Controller::new(vms.clone(), QemuMonitor::default());
        ctl.device_detach("hca-", &mut pool, &mut dc, SimTime::ZERO, &mut rng, true)
            .unwrap();
        ctl.migration(&eth_nodes, &mut pool, &mut dc, SimTime::ZERO, &mut rng)
            .unwrap();
        let spans = ctl.take_spans();
        assert_eq!(spans.len(), 8, "4 detach + 4 migration");
        for &(_, vm, start, end) in &spans {
            assert!(end >= start, "well-formed span");
            assert!(vms.contains(&vm), "a hostlist VM, got {vm:?}");
        }
        assert_eq!(spans.iter().filter(|s| s.0 == "detach").count(), 4);
        assert_eq!(spans.iter().filter(|s| s.0 == "migration").count(), 4);
        assert!(ctl.take_spans().is_empty(), "take drains");
        assert_eq!(ctl.hotplug_leaked(), 0, "graceful detach leaks nothing");
    }

    #[test]
    fn open_commit_matches_serial_migration() {
        // Opening and committing by hand, as the fleet engine does, must
        // plan the same precopy as `migration` and land the same VMs.
        let plans_serial = {
            let (mut dc, mut pool, vms, mut rng) = world();
            let eth: Vec<NodeId> = dc.cluster(ninja_cluster::ClusterId(1)).nodes[..4].to_vec();
            pause_all(&mut pool, &vms);
            let mut ctl = Controller::new(vms.clone(), QemuMonitor::default());
            ctl.device_detach("hca-", &mut pool, &mut dc, SimTime::ZERO, &mut rng, true)
                .unwrap();
            ctl.migration(&eth, &mut pool, &mut dc, SimTime::ZERO, &mut rng)
                .unwrap()
                .plans
        };
        let (mut dc, mut pool, vms, mut rng) = world();
        let eth: Vec<NodeId> = dc.cluster(ninja_cluster::ClusterId(1)).nodes[..4].to_vec();
        pause_all(&mut pool, &vms);
        let mut ctl = Controller::new(vms.clone(), QemuMonitor::default());
        ctl.device_detach("hca-", &mut pool, &mut dc, SimTime::ZERO, &mut rng, true)
            .unwrap();
        let pending = ctl
            .migration_open(&eth, &mut pool, &mut dc, SimTime::ZERO, &mut rng)
            .unwrap();
        assert_eq!(pending.len(), 4);
        for (p, serial) in pending.iter().zip(&plans_serial) {
            assert_eq!(p.plan.wire_bytes(), serial.wire_bytes());
            // Guest still on the source node until committed.
            assert_ne!(pool.get(p.vm).node, p.dst);
        }
        for p in &pending {
            let done = SimTime::ZERO + p.plan.duration();
            ctl.migration_commit(p, done, &mut pool, &mut dc);
        }
        for (i, vm) in pool.iter().enumerate() {
            assert_eq!(vm.node, eth[i]);
            assert!(vm.last_migration.is_some());
        }
        let spans = ctl.take_spans();
        assert_eq!(
            spans.iter().filter(|s| s.0 == "migration").count(),
            4,
            "commit records per-VM migration spans"
        );
    }

    #[test]
    fn failed_open_lands_nothing() {
        // Four 20 GiB guests onto one 48 GiB node: the first two open,
        // the third does not fit beside their held memory.
        let (mut dc, mut pool, vms, mut rng) = world();
        let eth = dc.cluster(ninja_cluster::ClusterId(1)).nodes[0];
        pause_all(&mut pool, &vms);
        let mut ctl = Controller::new(vms.clone(), QemuMonitor::default());
        ctl.device_detach("hca-", &mut pool, &mut dc, SimTime::ZERO, &mut rng, true)
            .unwrap();
        let sources: Vec<NodeId> = vms.iter().map(|&vm| pool.get(vm).node).collect();
        let err = ctl
            .migration(&[eth], &mut pool, &mut dc, SimTime::ZERO, &mut rng)
            .unwrap_err();
        assert!(matches!(
            err,
            SymVirtError::Vmm(VmmError::InsufficientCapacity { dst }) if dst == eth
        ));
        for (&vm, &src) in vms.iter().zip(&sources) {
            assert_eq!(pool.get(vm).node, src);
            assert_eq!(pool.get(vm).migrations, 0);
            assert_eq!(dc.node(src).committed_memory(), Bytes::from_gib(20));
        }
        assert_eq!(dc.node(eth).committed_memory(), Bytes::ZERO, "cancelled");
        assert!(ctl.take_spans().iter().all(|s| s.0 != "migration"));
    }

    /// One paused paper VM (no HCA) on an IB node, and an Ethernet node
    /// to migrate it to.
    fn one_vm(touched_gib: u64, dirty: f64) -> (DataCenter, VmPool, VmId, NodeId, SimRng) {
        let (mut dc, ib, eth) = DataCenter::agc();
        let mut pool = VmPool::new();
        let src = dc.cluster(ib).nodes[0];
        let vm = pool
            .create("vm0", VmSpec::paper_vm(), src, StorageId(0), &mut dc)
            .unwrap();
        let mem = &mut pool.get_mut(vm).memory;
        mem.set_workload(Bytes::from_gib(touched_gib), 0.0, dirty);
        pool.pause(vm).unwrap();
        let dst = dc.cluster(eth).nodes[0];
        (dc, pool, vm, dst, SimRng::new(11))
    }

    #[test]
    fn paused_migration_is_single_pass() {
        let (mut dc, mut pool, vm, dst, mut rng) = one_vm(4, 1e9);
        let mut ctl = Controller::new(vec![vm], QemuMonitor::default());
        let phase = ctl
            .migration(&[dst], &mut pool, &mut dc, SimTime::ZERO, &mut rng)
            .unwrap();
        assert_eq!(phase.plans[0].round_count(), 1, "paused guest: one pass");
        assert!(phase.completed_at > SimTime::ZERO);
        assert_eq!(pool.get(vm).node, dst);
        assert_eq!(pool.get(vm).state, VmState::SymWait, "stays paused");
    }

    #[test]
    fn query_migrate_reports_history() {
        let (mut dc, mut pool, vm, dst, mut rng) = one_vm(0, 0.0);
        let mon = QemuMonitor::default();
        let query = |pool: &mut VmPool, dc: &mut DataCenter, rng: &mut SimRng| {
            let cmd = MonitorCommand::QueryMigrate { vm };
            match mon
                .execute(cmd, pool, dc, SimTime::ZERO, rng, false)
                .unwrap()
            {
                MonitorReply::MigrateStatus {
                    completed,
                    last_wire_bytes,
                    last_duration,
                } => (completed, last_wire_bytes, last_duration),
                r => panic!("unexpected {r:?}"),
            }
        };
        let (completed, last_wire_bytes, _) = query(&mut pool, &mut dc, &mut rng);
        assert_eq!(completed, 0);
        assert_eq!(last_wire_bytes, None);
        let mut ctl = Controller::new(vec![vm], QemuMonitor::default());
        ctl.migration(&[dst], &mut pool, &mut dc, SimTime::ZERO, &mut rng)
            .unwrap();
        let (completed, last_wire_bytes, last_duration) = query(&mut pool, &mut dc, &mut rng);
        assert_eq!(completed, 1);
        assert!(last_wire_bytes.unwrap() > 0);
        assert!(last_duration.unwrap().as_secs_f64() > 1.0);
    }

    #[test]
    fn rdma_migration_is_faster() {
        // Section V: RDMA-based migration removes the CPU bottleneck.
        // Fresh fixture per transport so the link reservations do not
        // interact.
        let run = |rdma: bool| -> f64 {
            let (mut dc, mut pool, vm, dst, mut rng) = one_vm(8, 0.0);
            let mon = QemuMonitor::new(ninja_vmm::MigrationConfig {
                rdma_transport: rdma,
                ..ninja_vmm::MigrationConfig::default()
            });
            let mut ctl = Controller::new(vec![vm], mon);
            let phase = ctl
                .migration(&[dst], &mut pool, &mut dc, SimTime::ZERO, &mut rng)
                .unwrap();
            phase.completed_at.as_secs_f64()
        };
        let t_tcp = run(false);
        let t_rdma = run(true);
        assert!(
            t_rdma < 0.5 * t_tcp,
            "rdma migration {t_rdma} vs tcp {t_tcp}"
        );
    }

    #[test]
    fn closed_controller_rejects() {
        let (_dc, pool, vms, _) = world();
        let mut ctl = Controller::new(vms, QemuMonitor::default());
        ctl.close();
        assert!(ctl.wait_all(&pool).is_err());
    }
}
