//! The Ninja migration orchestrator — the library's headline API.
//!
//! Executes the full control flow of the paper's Fig. 4 over the
//! simulated stack:
//!
//! ```text
//! application --- confirm ........................ confirm linkup ---
//! coordinator --- SymVirt wait ................... SymVirt signal ---
//! VMM mode    ---      [detach] [migration] [re-attach]          ---
//! ```
//!
//! One call to [`NinjaOrchestrator::migrate`] performs: CRCP quiesce +
//! IB release + SymVirt wait (guest side), then detach → migrate →
//! re-attach through the SymVirt controller/agents (host side), then
//! SymVirt signal, the link-up wait, and BTL reconstruction — returning
//! a [`NinjaReport`] with the paper's overhead breakdown.
//!
//! The precopy streams land through the data center's migration fabric,
//! the one every fleet run uses too, so a serial migration reports
//! exactly what a one-job fleet at concurrency 1 does while the fleet's
//! uplink does not bind.

use crate::report::NinjaReport;
use crate::stepper::{thaw, MigrationMachine, StepOutcome};
use crate::world::World;
use ninja_cluster::NodeId;
use ninja_symvirt::{Controller, GuestCooperative, RetryPolicy, SymVirtError};
use ninja_vmm::{MigrationConfig, QemuMonitor};

/// The five phases of Fig. 4, in causal order. Every migration records
/// one job-level span (component `ninja`) and one per-VM span
/// (component `symvirt`, label `vm`) under each of these names.
pub const PHASE_NAMES: [&str; 5] = ["coordination", "detach", "migration", "attach", "linkup"];

/// Orchestrates Ninja migrations.
#[derive(Debug, Clone, Default)]
pub struct NinjaOrchestrator {
    monitor: QemuMonitor,
    retry: RetryPolicy,
}

impl NinjaOrchestrator {
    /// With an explicit migration configuration (sender cap, scan rate,
    /// downtime limit).
    pub fn new(cfg: MigrationConfig) -> Self {
        NinjaOrchestrator {
            monitor: QemuMonitor::new(cfg),
            retry: RetryPolicy::default(),
        }
    }

    /// Retry injected faults with this policy (bounded backoff in
    /// virtual time). Only consulted when the world's fault plan fires.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// The monitor (and thus migration config) in use.
    pub fn monitor(&self) -> &QemuMonitor {
        &self.monitor
    }

    /// Migrate an MPI job: VM *i* goes to `dsts[i % dsts.len()]`.
    /// Passing each VM's current node performs the paper's
    /// *self-migration* (Table II). Advances the world clock through every
    /// phase and returns the overhead breakdown.
    ///
    /// This is [`NinjaOrchestrator::migrate_app`] specialized to the MPI
    /// runtime — any [`GuestCooperative`] application works, per the
    /// paper's planned "generic communication layer" (Section VII).
    pub fn migrate(
        &self,
        world: &mut World,
        rt: &mut ninja_mpi::MpiRuntime,
        dsts: &[NodeId],
    ) -> Result<NinjaReport, SymVirtError> {
        self.migrate_app(world, rt, dsts)
    }

    /// Recover from a migration that failed mid-flight: the guests are
    /// frozen in SymVirt wait, possibly with their HCAs already
    /// detached. Re-attach where the current host has a free HCA,
    /// resume the guests, wait out any link training, and let the
    /// application rebuild its transports in place. Returns the time
    /// the recovery took.
    ///
    /// This is the operator's "roll back" after
    /// [`NinjaOrchestrator::migrate`] returns an error between the
    /// detach and signal phases.
    pub fn abort_and_resume(
        &self,
        world: &mut World,
        app: &mut dyn GuestCooperative,
    ) -> Result<ninja_sim::SimDuration, SymVirtError> {
        let started = world.clock();
        let ctl = Controller::new(app.vms().to_vec(), self.monitor.clone());
        // Only VMs still frozen participate; a half-signalled job is
        // not recoverable this way.
        ctl.wait_all(&world.pool)?;
        thaw(world, ctl, app.needs_link_wait())?;
        let now = world.clock();
        app.resume_after_blackout(&world.pool, &mut world.dc, now)?;
        world
            .trace
            .add_span("ninja", "abort", started, now)
            .label_u64("vms", app.vms().len() as u64);
        world.metrics.inc("ninja_aborts_total", &[], 1);
        Ok(world.clock().since(started))
    }

    /// Migrate any cooperative guest application (MPI or otherwise).
    ///
    /// Runs a [`MigrationMachine`] to completion, advancing the world
    /// clock through every phase and, while the machine waits on the
    /// wire, to the migration fabric's next drain — the fleet engine's
    /// interleaved stepping with one job.
    pub fn migrate_app(
        &self,
        world: &mut World,
        app: &mut dyn GuestCooperative,
        dsts: &[NodeId],
    ) -> Result<NinjaReport, SymVirtError> {
        if dsts.is_empty() {
            return Err(SymVirtError::EmptyHostlist);
        }
        let mut machine = MigrationMachine::new(
            self.monitor.clone(),
            app.vms().to_vec(),
            dsts.to_vec(),
            world.clock(),
        )
        .with_retry(self.retry);
        loop {
            match machine.step(world, app)? {
                StepOutcome::Ready => world.advance_to(machine.now()),
                StepOutcome::Waiting(t) => world.advance_to(t),
                StepOutcome::Done(report) => {
                    world.advance_to(machine.now());
                    return Ok(report);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ninja_net::TransportKind;

    /// Fallback: 4 VMs from IB nodes to Ethernet nodes.
    #[test]
    fn fallback_migration_switches_to_tcp() {
        let mut w = World::agc(42);
        let vms = w.boot_ib_vms(4);
        let mut rt = w.start_job(vms, 1);
        assert_eq!(rt.uniform_network_kind(), Some(TransportKind::OpenIb));
        let dsts: Vec<NodeId> = (0..4).map(|i| w.eth_node(i)).collect();
        let report = NinjaOrchestrator::default()
            .migrate(&mut w, &mut rt, &dsts)
            .unwrap();
        assert_eq!(rt.uniform_network_kind(), Some(TransportKind::Tcp));
        assert_eq!(report.transport_before, Some("openib"));
        assert_eq!(report.transport_after, Some("tcp"));
        assert!(report.btl_reconstructed);
        assert!(report.linkup.is_zero(), "Ethernet destination: no link-up");
        assert!(report.attach.is_zero(), "no HCAs to attach on Ethernet");
        assert!(report.detach.as_secs_f64() > 5.0, "noisy IB detach");
        assert!(report.migration.as_secs_f64() > 10.0, "real data moved");
    }

    /// Recovery: back to the IB cluster, IB rediscovered via the
    /// continue_like_restart flag.
    #[test]
    fn recovery_migration_returns_to_ib() {
        let mut w = World::agc(43);
        let vms = w.boot_ib_vms(4);
        let mut rt = w.start_job(vms, 1);
        let eth: Vec<NodeId> = (0..4).map(|i| w.eth_node(i)).collect();
        let ib: Vec<NodeId> = (0..4).map(|i| w.ib_node(i)).collect();
        let orch = NinjaOrchestrator::default();
        orch.migrate(&mut w, &mut rt, &eth).unwrap();
        assert_eq!(rt.uniform_network_kind(), Some(TransportKind::Tcp));
        let report = orch.migrate(&mut w, &mut rt, &ib).unwrap();
        assert_eq!(
            rt.uniform_network_kind(),
            Some(TransportKind::OpenIb),
            "recovery rebinds InfiniBand"
        );
        assert!(
            report.linkup.as_secs_f64() > 25.0,
            "paid the ~30 s link training: {}",
            report.linkup
        );
        assert!(report.attach.as_secs_f64() > 1.0, "IB attach");
    }

    /// Without continue_like_restart, recovery stays stuck on TCP —
    /// the exact failure mode the paper's flag exists to fix.
    #[test]
    fn recovery_without_flag_stays_on_tcp() {
        let mut w = World::agc(44);
        let vms = w.boot_ib_vms(4);
        let cfg = ninja_mpi::MpiConfig {
            continue_like_restart: false,
            ..ninja_mpi::MpiConfig::default()
        };
        let mut rt = w.start_job_with(vms, 1, cfg);
        let eth: Vec<NodeId> = (0..4).map(|i| w.eth_node(i)).collect();
        let ib: Vec<NodeId> = (0..4).map(|i| w.ib_node(i)).collect();
        let orch = NinjaOrchestrator::default();
        orch.migrate(&mut w, &mut rt, &eth).unwrap();
        let report = orch.migrate(&mut w, &mut rt, &ib).unwrap();
        assert_eq!(
            rt.uniform_network_kind(),
            Some(TransportKind::Tcp),
            "stuck on TCP"
        );
        assert!(!report.btl_reconstructed);
        assert!(
            report.linkup.is_zero(),
            "no linkup wait without reconstruction"
        );
    }

    /// Self-migration (Table II): IB -> IB on the same nodes.
    #[test]
    fn self_migration_ib_to_ib() {
        let mut w = World::agc(45);
        let vms = w.boot_ib_vms(8);
        let mut rt = w.start_job(vms, 1);
        let same: Vec<NodeId> = (0..8).map(|i| w.ib_node(i)).collect();
        let report = NinjaOrchestrator::default()
            .migrate(&mut w, &mut rt, &same)
            .unwrap();
        // Table II band: hotplug ~3.9 s (no migration noise), linkup ~30 s.
        assert!(
            (3.5..5.0).contains(&report.hotplug().as_secs_f64()),
            "hotplug {}",
            report.hotplug()
        );
        assert!(
            (29.0..31.0).contains(&report.linkup.as_secs_f64()),
            "linkup {}",
            report.linkup
        );
        assert_eq!(rt.uniform_network_kind(), Some(TransportKind::OpenIb));
    }

    /// The job keeps running through migrations: ranks and runtime state
    /// survive (claim C2 — no process restart).
    #[test]
    fn job_survives_roundtrip_without_restart() {
        let mut w = World::agc(46);
        let vms = w.boot_ib_vms(4);
        let mut rt = w.start_job(vms, 1);
        let epoch0 = rt.epoch();
        let ranks0 = rt.layout().total_ranks();
        let eth: Vec<NodeId> = (0..4).map(|i| w.eth_node(i)).collect();
        let ib: Vec<NodeId> = (0..4).map(|i| w.ib_node(i)).collect();
        let orch = NinjaOrchestrator::default();
        orch.migrate(&mut w, &mut rt, &eth).unwrap();
        orch.migrate(&mut w, &mut rt, &ib).unwrap();
        assert_eq!(
            rt.layout().total_ranks(),
            ranks0,
            "same ranks, same processes"
        );
        assert!(
            rt.epoch() > epoch0,
            "connections re-established, not processes"
        );
        assert_eq!(rt.state(), ninja_mpi::RuntimeState::Active);
        for vm in w.pool.iter() {
            assert_eq!(vm.migrations, 2);
        }
    }

    /// Consolidation: 4 VMs onto 2 Ethernet hosts.
    #[test]
    fn consolidation_overcommits() {
        let mut w = World::agc(47);
        let vms = w.boot_ib_vms(4);
        let mut rt = w.start_job(vms, 8);
        let two: Vec<NodeId> = (0..2).map(|i| w.eth_node(i)).collect();
        NinjaOrchestrator::default()
            .migrate(&mut w, &mut rt, &two)
            .unwrap();
        assert_eq!(w.dc.node(w.eth_node(0)).cpu_contention(), 2.0);
        let env = w.comm_env();
        // Iterations on the consolidated layout are slower than spread.
        let packed = rt.bcast_time(ninja_mpi::Rank(0), ninja_sim::Bytes::from_gib(1), &env);
        assert!(packed.as_secs_f64() > 3.0, "{packed}");
    }

    /// The generic layer: a non-MPI TCP service migrates too (the
    /// paper's Section VII goal).
    #[test]
    fn non_mpi_service_migrates() {
        use ninja_symvirt::SocketService;
        let mut w = World::agc(49);
        let vms = w.boot_eth_vms(2);
        let mut svc = SocketService::new(vms, ninja_sim::SimDuration::from_millis(10));
        svc.admit(4);
        let dsts: Vec<NodeId> = (2..4).map(|i| w.eth_node(i)).collect();
        let report = NinjaOrchestrator::default()
            .migrate_app(&mut w, &mut svc, &dsts)
            .unwrap();
        assert_eq!(svc.inflight(), 0, "requests drained before blackout");
        assert_eq!(report.transport_before, Some("tcp"));
        assert!(!report.btl_reconstructed, "sockets survive live migration");
        assert!(report.linkup.is_zero());
        assert!(
            report.coordination.as_secs_f64() >= 0.04,
            "drain time counted: {}",
            report.coordination
        );
        for vm in w.pool.iter() {
            assert_eq!(vm.migrations, 1);
        }
    }

    #[test]
    fn empty_hostlist_rejected() {
        let mut w = World::agc(48);
        let vms = w.boot_ib_vms(2);
        let mut rt = w.start_job(vms, 1);
        let err = NinjaOrchestrator::default()
            .migrate(&mut w, &mut rt, &[])
            .unwrap_err();
        assert!(matches!(err, SymVirtError::EmptyHostlist));
    }
}
