//! The cloud scheduler.
//!
//! "This mechanism works in cooperation with a cloud scheduler. ... A
//! cloud scheduler delivers a trigger event, e.g., a migration or
//! checkpoint/restart request, to both an MPI runtime system and the
//! SymVirt controller. ... We assume that the cloud scheduler provides
//! information, including the source and destination nodes of migration,
//! and the PCI ID of a VMM-bypass I/O device." (Sections III-B/C.)
//!
//! [`CloudScheduler`] is that component: a time-ordered queue of
//! migration triggers that workload runners poll between iterations
//! (migrations only fire at globally consistent points).

use ninja_cluster::NodeId;
use ninja_sim::SimTime;
use std::collections::VecDeque;

/// Why a migration is being triggered (reporting only).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TriggerReason {
    /// Evacuate to the fallback cluster (maintenance, failure, disaster).
    Fallback,
    /// Return to the primary cluster.
    Recovery,
    /// Rebalance/consolidate within or across clusters.
    Placement,
}

/// One scheduled trigger.
#[derive(Debug, Clone)]
pub struct Trigger {
    /// Earliest time the trigger may fire.
    pub at: SimTime,
    /// Destination host list (VM *i* goes to `dsts[i % len]`).
    pub dsts: Vec<NodeId>,
    /// The reason.
    pub reason: TriggerReason,
    /// Which fleet job this trigger targets, when the scheduler drives a
    /// multi-job fleet run. `None` for single-job workloads, which only
    /// look at `dsts`.
    pub job: Option<usize>,
}

/// A time-ordered queue of migration triggers.
#[derive(Debug, Clone, Default)]
pub struct CloudScheduler {
    queue: VecDeque<Trigger>,
}

impl CloudScheduler {
    /// Creates a new instance.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty queue with room for `triggers` triggers.
    pub fn with_capacity(triggers: usize) -> Self {
        CloudScheduler {
            queue: VecDeque::with_capacity(triggers),
        }
    }

    /// Append a trigger. Triggers must be pushed in nondecreasing time
    /// order (the scheduler plans ahead).
    pub fn push(&mut self, at: SimTime, dsts: Vec<NodeId>, reason: TriggerReason) {
        self.push_trigger(at, dsts, reason, None);
    }

    /// Append a trigger aimed at fleet job `job` (same ordering rules).
    pub fn push_job(&mut self, at: SimTime, dsts: Vec<NodeId>, reason: TriggerReason, job: usize) {
        self.push_trigger(at, dsts, reason, Some(job));
    }

    fn push_trigger(
        &mut self,
        at: SimTime,
        dsts: Vec<NodeId>,
        reason: TriggerReason,
        job: Option<usize>,
    ) {
        if let Some(last) = self.queue.back() {
            assert!(at >= last.at, "triggers must be scheduled in order");
        }
        assert!(!dsts.is_empty(), "trigger needs a destination host list");
        self.queue.push_back(Trigger {
            at,
            dsts,
            reason,
            job,
        });
    }

    /// Take the next trigger if it is due at or before `now`.
    pub fn poll(&mut self, now: SimTime) -> Option<Trigger> {
        if self.queue.front().is_some_and(|t| t.at <= now) {
            self.queue.pop_front()
        } else {
            None
        }
    }

    /// Peek at the next trigger time.
    pub fn next_at(&self) -> Option<SimTime> {
        self.queue.front().map(|t| t.at)
    }

    /// Triggers remaining.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Whether this is empty.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ninja_sim::SimDuration;

    fn t(s: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(s)
    }

    #[test]
    fn poll_respects_time() {
        let mut s = CloudScheduler::new();
        s.push(t(10), vec![NodeId(1)], TriggerReason::Fallback);
        assert!(s.poll(t(5)).is_none());
        let trig = s.poll(t(10)).unwrap();
        assert_eq!(trig.reason, TriggerReason::Fallback);
        assert!(s.is_empty());
    }

    #[test]
    fn ordered_delivery() {
        let mut s = CloudScheduler::new();
        s.push(t(10), vec![NodeId(1)], TriggerReason::Fallback);
        s.push(t(20), vec![NodeId(2)], TriggerReason::Recovery);
        let first = s.poll(t(100)).unwrap();
        assert_eq!(first.dsts, vec![NodeId(1)]);
        let second = s.poll(t(100)).unwrap();
        assert_eq!(second.reason, TriggerReason::Recovery);
    }

    #[test]
    #[should_panic(expected = "in order")]
    fn rejects_out_of_order() {
        let mut s = CloudScheduler::new();
        s.push(t(20), vec![NodeId(1)], TriggerReason::Fallback);
        s.push(t(10), vec![NodeId(2)], TriggerReason::Recovery);
    }

    #[test]
    fn job_tagging_survives_the_queue() {
        let mut s = CloudScheduler::new();
        s.push(t(5), vec![NodeId(9)], TriggerReason::Fallback);
        s.push_job(t(10), vec![NodeId(1)], TriggerReason::Placement, 3);
        assert_eq!(s.poll(t(100)).unwrap().job, None);
        assert_eq!(s.poll(t(100)).unwrap().job, Some(3));
    }

    #[test]
    fn next_at_peeks() {
        let mut s = CloudScheduler::new();
        assert_eq!(s.next_at(), None);
        s.push(t(30), vec![NodeId(0)], TriggerReason::Placement);
        assert_eq!(s.next_at(), Some(t(30)));
        assert_eq!(s.len(), 1);
    }
}
