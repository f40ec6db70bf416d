//! SymVirt coordinator — the guest-side half.
//!
//! In the paper, a SymVirt coordinator lives inside each MPI process
//! (injected as `libsymvirt.so` via `LD_PRELOAD`) and is invoked through
//! the OPAL CRS **SELF** component's callbacks. On a checkpoint request
//! it (1) participates in the CRCP coordination that brings the whole
//! job to a consistent state, (2) lets the pre-checkpoint phase release
//! all InfiniBand resources, and (3) issues the **SymVirt wait**
//! hypercall, pausing its VM until the VMM side signals.
//!
//! Our coordinator is job-scoped rather than process-scoped: the
//! simulation collapses the per-process SELF callbacks (which all do the
//! same thing in lockstep) into one [`Coordinator::checkpoint_and_wait`]
//! call that performs the same three steps for every VM of the job.

use crate::error::SymVirtError;
use ninja_cluster::DataCenter;
use ninja_mpi::{CommEnv, Crcp, MpiRuntime, QuiesceReport};
use ninja_sim::{SimDuration, SimTime};
use ninja_vmm::{VmId, VmPool};

/// Report of the guest-side checkpoint preparation.
#[derive(Debug, Clone)]
pub struct CoordReport {
    /// The CRCP quiesce outcome.
    pub quiesce: QuiesceReport,
    /// Time spent in the SELF checkpoint callback releasing IB resources
    /// (QP teardown is microseconds per QP; lumped here).
    pub release_time: SimDuration,
    /// Instant every VM entered SymVirt wait.
    pub waiting_at: SimTime,
}

impl CoordReport {
    /// Total guest-side preparation cost ("coordination" in the paper's
    /// overhead breakdown — reported as negligible).
    pub fn total(&self) -> SimDuration {
        self.quiesce.total() + self.release_time
    }
}

/// The guest-side coordinator for one MPI job.
#[derive(Debug, Clone, Copy, Default)]
pub struct Coordinator;

/// Per-QP teardown cost in the release phase (ibv_destroy_qp and
/// deregistration are sub-millisecond; 64-rank jobs have ~2000 QPs).
const RELEASE_COST_PER_CONN: SimDuration = SimDuration::from_micros(30);

impl Coordinator {
    /// Execute the checkpoint-side callback chain at `now`:
    /// CRCP quiesce -> release IB resources -> SymVirt wait on every VM.
    /// Returns when all VMs are paused.
    pub fn checkpoint_and_wait(
        &self,
        rt: &mut MpiRuntime,
        env: &CommEnv,
        pool: &mut VmPool,
        dc: &mut DataCenter,
        now: SimTime,
    ) -> Result<CoordReport, SymVirtError> {
        if rt.state() != ninja_mpi::RuntimeState::Active {
            return Err(SymVirtError::Runtime(ninja_mpi::MpiError::NotActive));
        }
        let quiesce = Crcp.quiesce(rt, env, now);
        let conns: usize = rt.kind_census().values().sum();
        rt.release_network(dc, pool)
            .map_err(SymVirtError::Runtime)?;
        let release_time = RELEASE_COST_PER_CONN * conns as u64;
        let waiting_at = quiesce.consistent_at + release_time;
        for vm in rt.layout().vms().to_vec() {
            pool.pause(vm).map_err(SymVirtError::Vmm)?;
        }
        Ok(CoordReport {
            quiesce,
            release_time,
            waiting_at,
        })
    }

    /// Execute the continue/restart-side callback at `now` (after the
    /// VMM signalled): rebuild or keep BTL modules per the runtime's
    /// `continue_like_restart` configuration.
    pub fn continue_callback(
        &self,
        rt: &mut MpiRuntime,
        pool: &VmPool,
        dc: &mut DataCenter,
        now: SimTime,
    ) -> Result<ninja_mpi::ContinueOutcome, SymVirtError> {
        rt.continue_after(pool, dc, now)
            .map_err(SymVirtError::Runtime)
    }

    /// The VMs participating (the coordinator's view of the job).
    pub fn vms_of(rt: &MpiRuntime) -> Vec<VmId> {
        rt.layout().vms().to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ninja_cluster::StorageId;
    use ninja_mpi::{JobLayout, MpiConfig, Rank};
    use ninja_sim::{Bytes, SimRng};
    use ninja_vmm::{VmSpec, VmState};

    fn world() -> (DataCenter, VmPool, MpiRuntime, CommEnv, SimTime) {
        let (mut dc, ib, _) = DataCenter::agc();
        let mut pool = VmPool::new();
        let mut rng = SimRng::new(77);
        let mut vms = Vec::new();
        let mut ready = SimTime::ZERO;
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
            let (_, at) = pool
                .attach_ib_hca(vm, &mut dc, SimTime::ZERO, &mut rng)
                .unwrap();
            ready = ready.max(at);
            vms.push(vm);
        }
        let mut rt = MpiRuntime::new(JobLayout::new(vms, 1), MpiConfig::default());
        rt.init(&pool, &mut dc, ready).unwrap();
        let env = CommEnv::from_world(&pool, &dc);
        (dc, pool, rt, env, ready)
    }

    #[test]
    fn checkpoint_pauses_all_vms_and_releases_ib() {
        let (mut dc, mut pool, mut rt, env, t0) = world();
        rt.record_send(
            Rank(0),
            Rank(1),
            Bytes::from_mib(1),
            t0 + SimDuration::from_millis(5),
        );
        let report = Coordinator
            .checkpoint_and_wait(&mut rt, &env, &mut pool, &mut dc, t0)
            .unwrap();
        assert_eq!(report.quiesce.drained_messages, 1);
        for vm in pool.iter() {
            assert_eq!(vm.state, VmState::SymWait);
            for d in vm.passthrough(&dc.devices) {
                assert!(
                    !dc.devices.as_ib(d).unwrap().has_resources(),
                    "safe to detach"
                );
            }
        }
        assert!(report.waiting_at > t0);
        // Coordination is negligible (well under a second).
        assert!(report.total().as_secs_f64() < 0.1, "{}", report.total());
    }

    #[test]
    fn continue_callback_rebuilds() {
        let (mut dc, mut pool, mut rt, env, t0) = world();
        Coordinator
            .checkpoint_and_wait(&mut rt, &env, &mut pool, &mut dc, t0)
            .unwrap();
        for vm in Coordinator::vms_of(&rt) {
            pool.resume(vm).unwrap();
        }
        let out = Coordinator
            .continue_callback(&mut rt, &pool, &mut dc, t0 + SimDuration::from_secs(1))
            .unwrap();
        assert!(matches!(out, ninja_mpi::ContinueOutcome::Reconstructed(_)));
    }

    #[test]
    fn double_checkpoint_fails() {
        let (mut dc, mut pool, mut rt, env, t0) = world();
        Coordinator
            .checkpoint_and_wait(&mut rt, &env, &mut pool, &mut dc, t0)
            .unwrap();
        let err = Coordinator
            .checkpoint_and_wait(&mut rt, &env, &mut pool, &mut dc, t0)
            .unwrap_err();
        assert!(matches!(err, SymVirtError::Runtime(_)));
    }

    use ninja_sim::SimDuration;
}
