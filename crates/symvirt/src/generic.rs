//! A generic guest-cooperation layer, independent of the MPI runtime.
//!
//! The paper's conclusion: "we will design and implement a generic
//! communication layer to support a guest OS cooperative migration
//! based on a SymVirt mechanism, which is independent on an MPI runtime
//! system. This will bring the benefit of an interconnect-transparent
//! migration to wide-ranging applications." (Section VII.)
//!
//! [`GuestCooperative`] is that contract: anything that can (1) reach a
//! consistent state and release device-pinned resources before the
//! blackout, and (2) re-bind its transports afterwards, can be
//! Ninja-migrated. The MPI runtime implements it (via CRCP + CRS); so
//! does [`SocketService`], a model of an ordinary request/response
//! service, demonstrating the mechanism on a non-MPI application.
//!
//! [`freeze`](crate::coordinator::freeze) drives the contract's first
//! half and then pauses each VM in SymVirt wait.
//!
//! The contract lends rather than copies: [`GuestCooperative::vms`]
//! borrows the application's VM list, and
//! [`GuestCooperative::transport_label`] names the transport with a
//! static string, so asking costs a migration no allocation.

use crate::error::SymVirtError;
use ninja_cluster::DataCenter;
use ninja_mpi::{CommEnv, ContinueOutcome, Crcp, MpiRuntime};
use ninja_net::TransportKind;
use ninja_sim::{SimDuration, SimTime};
use ninja_vmm::{VmId, VmPool};

/// Cost of the guest-side preparation (the "coordination" overhead).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrepareReport {
    /// Wall-clock time to reach the consistent, device-free state.
    pub duration: SimDuration,
}

/// What resuming did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResumeOutcome {
    /// Transports were rebuilt onto whatever is reachable now.
    Rebuilt,
    /// Existing connections were still valid and were kept.
    Kept,
}

/// The guest-side cooperation contract SymVirt needs from an
/// application, independent of its communication middleware.
pub trait GuestCooperative {
    /// The VMs hosting the application, borrowed: a migration copies
    /// the list once, into its controller's hostlist.
    fn vms(&self) -> &[VmId];

    /// Bring the distributed application to a globally consistent state
    /// and release every device-pinned resource (QPs, MRs, ...), so the
    /// VMM-bypass devices can be detached. Called before SymVirt wait.
    fn prepare_for_blackout(
        &mut self,
        pool: &VmPool,
        dc: &mut DataCenter,
        now: SimTime,
    ) -> Result<PrepareReport, SymVirtError>;

    /// Must the resume path wait for freshly attached links to train
    /// (e.g. because it will re-bind InfiniBand)?
    fn needs_link_wait(&self) -> bool;

    /// Re-establish communication after SymVirt signal; transports may
    /// have changed underneath.
    fn resume_after_blackout(
        &mut self,
        pool: &VmPool,
        dc: &mut DataCenter,
        now: SimTime,
    ) -> Result<ResumeOutcome, SymVirtError>;

    /// A short label of the transport currently in use (reporting),
    /// `None` when the application uses several.
    fn transport_label(&self) -> Option<&'static str>;
}

impl GuestCooperative for MpiRuntime {
    fn vms(&self) -> &[VmId] {
        self.layout().vms()
    }

    fn prepare_for_blackout(
        &mut self,
        pool: &VmPool,
        dc: &mut DataCenter,
        now: SimTime,
    ) -> Result<PrepareReport, SymVirtError> {
        if self.state() != ninja_mpi::RuntimeState::Active {
            return Err(SymVirtError::Runtime(ninja_mpi::MpiError::NotActive));
        }
        // Job-scoped snapshot: quiesce only ever costs collectives over
        // this runtime's own ranks, and a full-pool `from_world` here
        // is O(pool) per migration — quadratic across a fleet run.
        let env = CommEnv::for_vms(pool, dc, self.layout().vms());
        let quiesce = Crcp.quiesce(self, &env, now);
        let conns: usize = self.kind_census().values().sum();
        self.release_network(dc, pool)
            .map_err(SymVirtError::Runtime)?;
        // ibv_destroy_qp / deregistration are ~30 us each.
        let release = SimDuration::from_micros(30) * conns as u64;
        Ok(PrepareReport {
            duration: quiesce.total() + release,
        })
    }

    fn needs_link_wait(&self) -> bool {
        self.needs_reconstruction()
    }

    fn resume_after_blackout(
        &mut self,
        pool: &VmPool,
        dc: &mut DataCenter,
        now: SimTime,
    ) -> Result<ResumeOutcome, SymVirtError> {
        match self
            .continue_after(pool, dc, now)
            .map_err(SymVirtError::Runtime)?
        {
            ContinueOutcome::Reconstructed(_) => Ok(ResumeOutcome::Rebuilt),
            ContinueOutcome::KeptExisting => Ok(ResumeOutcome::Kept),
        }
    }

    fn transport_label(&self) -> Option<&'static str> {
        self.uniform_network_kind().map(TransportKind::name)
    }
}

/// A model of an ordinary (non-MPI) request/response service: a
/// front-end VM receives requests and fans them out to worker VMs over
/// plain TCP. Its cooperation contract is much simpler than MPI's — it
/// only needs to drain in-flight requests, because TCP connections
/// survive live migration and it never touches VMM-bypass devices.
#[derive(Debug)]
pub struct SocketService {
    vms: Vec<VmId>,
    /// Requests currently being processed (drained before blackout).
    inflight_requests: u32,
    /// Mean service time per in-flight request.
    service_time: SimDuration,
    /// Counts reconnects (sockets re-established after restart-style
    /// events; zero across plain live migrations).
    pub reconnects: u32,
    draining_done: bool,
}

impl SocketService {
    /// A service over the given VMs.
    pub fn new(vms: Vec<VmId>, service_time: SimDuration) -> Self {
        SocketService {
            vms,
            inflight_requests: 0,
            service_time,
            reconnects: 0,
            draining_done: false,
        }
    }

    /// Admit `n` requests (they will need draining before a blackout).
    pub fn admit(&mut self, n: u32) {
        self.inflight_requests += n;
        self.draining_done = false;
    }

    /// In-flight request count.
    pub fn inflight(&self) -> u32 {
        self.inflight_requests
    }
}

impl GuestCooperative for SocketService {
    fn vms(&self) -> &[VmId] {
        &self.vms
    }

    fn prepare_for_blackout(
        &mut self,
        _pool: &VmPool,
        _dc: &mut DataCenter,
        _now: SimTime,
    ) -> Result<PrepareReport, SymVirtError> {
        // Stop admitting, drain what's in flight. Workers drain in
        // parallel; the slowest pipeline gates.
        let drain = self.service_time * self.inflight_requests.min(8) as u64;
        self.inflight_requests = 0;
        self.draining_done = true;
        Ok(PrepareReport { duration: drain })
    }

    fn needs_link_wait(&self) -> bool {
        false // plain TCP: usable the moment the guest resumes
    }

    fn resume_after_blackout(
        &mut self,
        _pool: &VmPool,
        _dc: &mut DataCenter,
        _now: SimTime,
    ) -> Result<ResumeOutcome, SymVirtError> {
        debug_assert!(self.draining_done, "resume without prepare");
        // Live migration preserves the sockets; nothing to rebuild.
        Ok(ResumeOutcome::Kept)
    }

    fn transport_label(&self) -> Option<&'static str> {
        Some("tcp")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ninja_cluster::{DataCenter, StorageId};
    use ninja_mpi::{JobLayout, MpiConfig};
    use ninja_sim::SimRng;
    use ninja_vmm::VmSpec;

    fn world() -> (DataCenter, VmPool, Vec<VmId>, SimTime) {
        let (mut dc, ib, _) = DataCenter::agc();
        let mut pool = VmPool::new();
        let mut rng = SimRng::new(3);
        let mut vms = Vec::new();
        let mut ready = SimTime::ZERO;
        for i in 0..3 {
            let vm = pool
                .create(
                    format!("vm{i}"),
                    VmSpec::paper_vm(),
                    dc.cluster(ib).nodes[i],
                    StorageId(0),
                    &mut dc,
                )
                .unwrap();
            let (_, at) = pool
                .attach_ib_hca(vm, &mut dc, SimTime::ZERO, &mut rng)
                .unwrap();
            ready = ready.max(at);
            vms.push(vm);
        }
        (dc, pool, vms, ready)
    }

    #[test]
    fn mpi_runtime_implements_the_contract() {
        let (mut dc, pool, vms, ready) = world();
        let mut rt = MpiRuntime::new(JobLayout::new(vms.clone(), 1), MpiConfig::default());
        rt.init(&pool, &mut dc, ready).unwrap();
        let app: &mut dyn GuestCooperative = &mut rt;
        assert_eq!(app.vms(), vms);
        assert_eq!(app.transport_label(), Some("openib"));
        let report = app.prepare_for_blackout(&pool, &mut dc, ready).unwrap();
        assert!(report.duration.as_secs_f64() < 0.1);
        assert!(app.needs_link_wait());
        let out = app.resume_after_blackout(&pool, &mut dc, ready).unwrap();
        assert_eq!(out, ResumeOutcome::Rebuilt);
    }

    #[test]
    fn socket_service_drains_and_keeps_sockets() {
        let (mut dc, pool, vms, now) = world();
        let mut svc = SocketService::new(vms, SimDuration::from_millis(20));
        svc.admit(5);
        assert_eq!(svc.inflight(), 5);
        let report = svc.prepare_for_blackout(&pool, &mut dc, now).unwrap();
        assert_eq!(report.duration, SimDuration::from_millis(100));
        assert_eq!(svc.inflight(), 0);
        assert!(!svc.needs_link_wait(), "plain TCP needs no link training");
        let out = svc.resume_after_blackout(&pool, &mut dc, now).unwrap();
        assert_eq!(out, ResumeOutcome::Kept);
        assert_eq!(svc.reconnects, 0);
    }

    #[test]
    fn idle_service_prepares_instantly() {
        let (mut dc, pool, vms, now) = world();
        let mut svc = SocketService::new(vms, SimDuration::from_millis(20));
        let report = svc.prepare_for_blackout(&pool, &mut dc, now).unwrap();
        assert_eq!(report.duration, SimDuration::ZERO);
    }
}
