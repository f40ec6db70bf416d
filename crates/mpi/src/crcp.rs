//! OMPI CRCP — the checkpoint/restart coordination protocol.
//!
//! Before a checkpoint (or, here, a Ninja migration) the job must reach a
//! globally consistent state: no MPI message may be "on the wire" when
//! the VMs freeze, or it is lost when the IB resources are released.
//! Open MPI's CRCP does this with a bookmark exchange: every pair of
//! processes agrees on how many bytes each has sent/received, then they
//! drain the difference. We model the protocol's two observable effects:
//! the drain (waiting out the in-flight horizon) and the small
//! coordination cost the paper reports as "negligible" (Section V).

use crate::collectives::EnvSource;
use crate::runtime::MpiRuntime;
use ninja_sim::{Bytes, SimDuration, SimTime};

/// Result of a quiesce.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuiesceReport {
    /// Messages that were in flight when the quiesce began.
    pub drained_messages: usize,
    /// Time spent waiting for them to land.
    pub drain_time: SimDuration,
    /// Bookmark-exchange overhead (two barrier-ish rounds).
    pub coordination_time: SimDuration,
    /// Instant at which the job is globally consistent.
    pub consistent_at: SimTime,
}

impl QuiesceReport {
    /// Total wall-clock cost of reaching consistency.
    pub fn total(&self) -> SimDuration {
        self.drain_time + self.coordination_time
    }
}

/// The coordination protocol driver.
#[derive(Debug, Clone, Copy, Default)]
pub struct Crcp;

impl Crcp {
    /// Quiesce the job at `now`: exchange bookmarks, drain in-flight
    /// traffic, and leave the runtime with zero in-flight messages.
    pub fn quiesce(
        &self,
        rt: &mut MpiRuntime,
        env: &impl EnvSource,
        now: SimTime,
    ) -> QuiesceReport {
        let drained_messages = rt.inflight_count();
        // Bookmark exchange: an allreduce of the per-pair byte counts
        // (tiny payload) plus a confirming barrier.
        let coordination_time = rt.allreduce_time(Bytes::new(256), env) + rt.barrier_time(env);
        let drain_until = rt.inflight_horizon().unwrap_or(now).max(now);
        let drain_time = drain_until.since(now);
        rt.deliver_due(drain_until);
        debug_assert_eq!(rt.inflight_count(), 0, "quiesce drained everything");
        QuiesceReport {
            drained_messages,
            drain_time,
            coordination_time,
            consistent_at: drain_until + coordination_time,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collectives::CommEnv;
    use crate::layout::{JobLayout, Rank};
    use crate::runtime::MpiConfig;
    use ninja_cluster::{DataCenter, StorageId};
    use ninja_sim::SimRng;
    use ninja_vmm::{VmPool, VmSpec};

    fn world() -> (MpiRuntime, CommEnv, SimTime) {
        let (mut dc, ib, _) = DataCenter::agc();
        let mut pool = VmPool::new();
        let mut rng = SimRng::new(31);
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
        (rt, env, ready)
    }

    #[test]
    fn quiesce_drains_inflight() {
        let (mut rt, env, t0) = world();
        let later = t0 + SimDuration::from_millis(50);
        rt.record_send(Rank(0), Rank(1), Bytes::from_mib(1), later);
        rt.record_send(Rank(2), Rank(3), Bytes::from_mib(1), later);
        let report = Crcp.quiesce(&mut rt, &env, t0);
        assert_eq!(report.drained_messages, 2);
        assert_eq!(report.drain_time, SimDuration::from_millis(50));
        assert_eq!(rt.inflight_count(), 0);
        assert!(rt.conservation_holds());
    }

    #[test]
    fn quiesce_idle_job_is_cheap() {
        let (mut rt, env, t0) = world();
        let report = Crcp.quiesce(&mut rt, &env, t0);
        assert_eq!(report.drained_messages, 0);
        assert_eq!(report.drain_time, SimDuration::ZERO);
        // "The coordination has a negligible impact" — well under 10 ms.
        assert!(report.coordination_time.as_secs_f64() < 0.01);
    }

    #[test]
    fn consistent_at_is_after_now() {
        let (mut rt, env, t0) = world();
        let later = t0 + SimDuration::from_millis(7);
        rt.record_send(Rank(1), Rank(2), Bytes::from_kib(64), later);
        let report = Crcp.quiesce(&mut rt, &env, t0);
        assert!(report.consistent_at >= later);
        assert_eq!(report.total(), report.drain_time + report.coordination_time);
    }

    use ninja_sim::SimDuration;
}
