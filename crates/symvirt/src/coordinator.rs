//! The in-guest SymVirt coordinator: the guest side of Fig. 4's freeze,
//! shared by migration and checkpoint.
//!
//! In the paper a SymVirt coordinator lives inside each MPI process
//! (`libsymvirt.so` via `LD_PRELOAD`), invoked through the Open MPI CRS
//! SELF callbacks: CRCP brings the job to a consistent state, the
//! pre-checkpoint callback releases InfiniBand, and the **SymVirt wait**
//! hypercall pauses the VM. The per-process callbacks do the same thing
//! in lockstep, so here they are one job-scoped call, [`freeze`], over
//! any [`GuestCooperative`] application. The continue callback is
//! [`GuestCooperative::resume_after_blackout`].

use crate::error::SymVirtError;
use crate::generic::{GuestCooperative, PrepareReport};
use ninja_cluster::DataCenter;
use ninja_sim::SimTime;
use ninja_vmm::VmPool;

/// Freeze `app` at `now`: [`GuestCooperative::prepare_for_blackout`],
/// then SymVirt wait pauses each of its VMs. Returns when all are
/// paused; the report's duration is the guest-side coordination cost.
pub fn freeze(
    app: &mut dyn GuestCooperative,
    pool: &mut VmPool,
    dc: &mut DataCenter,
    now: SimTime,
) -> Result<PrepareReport, SymVirtError> {
    let prep = app.prepare_for_blackout(pool, dc, now)?;
    for &vm in app.vms() {
        pool.pause(vm).map_err(SymVirtError::Vmm)?;
    }
    Ok(prep)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generic::ResumeOutcome;
    use ninja_cluster::StorageId;
    use ninja_mpi::{JobLayout, MpiConfig, MpiRuntime, Rank};
    use ninja_sim::{Bytes, SimDuration, SimRng};
    use ninja_vmm::{VmSpec, VmState};

    fn world() -> (DataCenter, VmPool, MpiRuntime, SimTime) {
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
        (dc, pool, rt, ready)
    }

    #[test]
    fn checkpoint_pauses_all_vms_and_releases_ib() {
        let (mut dc, mut pool, mut rt, t0) = world();
        let in_flight = SimDuration::from_millis(5);
        rt.record_send(Rank(0), Rank(1), Bytes::from_mib(1), t0 + in_flight);
        assert_eq!(rt.inflight_count(), 1);
        let report = freeze(&mut rt, &mut pool, &mut dc, t0).unwrap();
        // The in-flight message drains first, and is drained, not dropped.
        assert!(report.duration >= in_flight, "{}", report.duration);
        assert_eq!(rt.inflight_count(), 0);
        assert!(rt.conservation_holds());
        for vm in pool.iter() {
            assert_eq!(vm.state, VmState::SymWait);
            for d in vm.passthrough(&dc.devices) {
                assert!(
                    !dc.devices.as_ib(d).unwrap().has_resources(),
                    "safe to detach"
                );
            }
        }
        // Coordination is negligible (well under a second).
        assert!(report.duration.as_secs_f64() < 0.1, "{}", report.duration);
    }

    #[test]
    fn continue_callback_rebuilds() {
        let (mut dc, mut pool, mut rt, t0) = world();
        freeze(&mut rt, &mut pool, &mut dc, t0).unwrap();
        for &vm in rt.vms() {
            pool.resume(vm).unwrap();
        }
        assert!(rt.needs_link_wait());
        let out = rt
            .resume_after_blackout(&pool, &mut dc, t0 + SimDuration::from_secs(1))
            .unwrap();
        assert_eq!(out, ResumeOutcome::Rebuilt);
    }

    #[test]
    fn double_checkpoint_fails() {
        let (mut dc, mut pool, mut rt, t0) = world();
        freeze(&mut rt, &mut pool, &mut dc, t0).unwrap();
        let err = freeze(&mut rt, &mut pool, &mut dc, t0).unwrap_err();
        assert!(matches!(err, SymVirtError::Runtime(_)));
    }
}
