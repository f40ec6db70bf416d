//! Fair-share (processor-sharing) link contention.
//!
//! [`SharedLink`](crate::SharedLink) serializes transfers: concurrent
//! migrations queue in request order, so the *k*-th stream waits for the
//! first *k−1* to drain. Real switch uplinks do not behave that way — a
//! 10 GbE port carries simultaneous TCP streams that each get a
//! max-min-fair share of the capacity. [`FairShareLink`] is that model:
//! an explicit set of in-flight flows, each optionally rate-capped (the
//! ~1.3 Gb/s CPU-bound QEMU sender), progressing together through
//! virtual time with the link bandwidth divided max-min fairly among
//! them.
//!
//! The model is exact for piecewise-constant rates: between flow
//! arrivals and departures every flow's rate is constant, so the link
//! advances event-by-event (earliest completion first) and byte
//! accounting conserves exactly — the total bytes carried equal the sum
//! of the flows' sizes regardless of how they overlapped. That property
//! is what makes contention *measurable*: a fleet run with concurrency
//! N moves the same bytes as the serial run, only faster or slower in
//! wall-clock.
//!
//! # Incremental rate assignment
//!
//! The max-min assignment depends only on the set of active flows and
//! their caps, not on how many bytes remain — so it is computed once
//! per arrival/departure epoch and cached, not once per query. The
//! water-filling itself runs over a cap-sorted index: each round's
//! capped set (`cap ≤ share`) is a prefix of the still-unsatisfied
//! slice, so the whole fill is O(n log n) instead of the old
//! partition-per-round O(n²) with per-call `BTreeMap` allocation.
//! Within a round the caps are subtracted from the budget in flow-ID
//! order, reproducing the partition algorithm's floating-point
//! operation order bit-for-bit. `next_completion()` and `advance_to()`
//! share the cached rates and the cached earliest-drain instant, so a
//! drain of n concurrent precopies costs O(n²) total instead of O(n³).
//!
//! `tests/water_fill.rs` and `tests/props.rs` check the cached rates
//! against a test-local copy of the partition algorithm
//! (`tests/oracle/mod.rs`), for exact equality at every arrival and
//! drain.

use ninja_sim::{Bandwidth, Bytes, SimTime};
use std::collections::BTreeMap;

/// Identifier of an in-flight (or completed) flow on a [`FairShareLink`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FlowId(pub u64);

#[derive(Debug, Clone)]
struct Flow {
    /// The flow id (entries are kept in ascending-id order).
    id: FlowId,
    /// Bytes not yet on the wire (fractional during a partial interval).
    remaining: f64,
    /// Per-flow rate cap in bytes/sec (the sender's CPU bound), already
    /// clamped to the link bandwidth.
    cap: f64,
}

/// A link whose concurrent flows split bandwidth max-min fairly.
///
/// ```
/// use ninja_net::FairShareLink;
/// use ninja_sim::{Bandwidth, Bytes, SimTime};
/// let mut link = FairShareLink::new(Bandwidth::from_gbps(8.0));
/// let a = link.open(SimTime::ZERO, Bytes::from_gib(1), None);
/// let b = link.open(SimTime::ZERO, Bytes::from_gib(1), None);
/// link.advance_to(SimTime::ZERO + ninja_sim::SimDuration::from_secs(60));
/// // Two equal flows share the wire and finish together.
/// assert_eq!(link.completion(a), link.completion(b));
/// ```
#[derive(Debug, Clone)]
pub struct FairShareLink {
    bandwidth: Bandwidth,
    now: SimTime,
    next_id: u64,
    /// Active flows in ascending-id order (ids are handed out in
    /// increasing order and drains remove in place, so pushes keep the
    /// vector sorted).
    active: Vec<Flow>,
    completed: BTreeMap<FlowId, SimTime>,
    /// Open instants for every flow ever opened — retained after
    /// completion so per-flow timing (completion − opened) stays
    /// computable from the link alone.
    opened: BTreeMap<FlowId, SimTime>,
    bytes_carried: Bytes,
    /// Cached per-flow rates, parallel to `active`; valid while no flow
    /// has arrived or drained since they were filled.
    rates: Vec<f64>,
    rates_valid: bool,
    /// Cached earliest-drain instant; valid until the next mutation
    /// (arrival, departure, or clock/remaining update).
    next_cache: Option<SimTime>,
    /// Scratch: flow positions sorted by (cap, id), reused across fills.
    by_cap: Vec<usize>,
    /// Scratch: one water-fill round's capped positions, reused.
    round: Vec<usize>,
}

/// Below this many remaining bytes a flow counts as drained (guards the
/// floating-point remainder of interval arithmetic).
const DRAIN_EPSILON: f64 = 1e-6;

impl FairShareLink {
    /// A fair-share link of the given capacity.
    pub fn new(bandwidth: Bandwidth) -> Self {
        FairShareLink {
            bandwidth,
            now: SimTime::ZERO,
            next_id: 0,
            active: Vec::new(),
            completed: BTreeMap::new(),
            opened: BTreeMap::new(),
            bytes_carried: Bytes::ZERO,
            rates: Vec::new(),
            rates_valid: false,
            next_cache: None,
            by_cap: Vec::new(),
            round: Vec::new(),
        }
    }

    /// The link capacity.
    pub fn bandwidth(&self) -> Bandwidth {
        self.bandwidth
    }

    /// The link's current virtual time (the latest instant it has been
    /// advanced to).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Flows currently on the wire.
    pub fn active_flows(&self) -> usize {
        self.active.len()
    }

    /// Total bytes ever accepted onto this link (conserved: equals the
    /// sum of completed plus in-flight flow sizes).
    pub fn bytes_carried(&self) -> Bytes {
        self.bytes_carried
    }

    /// Open a flow of `bytes` at `now`, optionally capped to `rate`
    /// (e.g. the CPU-bound migration sender). Opening a flow in the past
    /// relative to the link's clock is an error in the caller's event
    /// ordering, so the arrival is clamped to the link clock.
    pub fn open(&mut self, now: SimTime, bytes: Bytes, rate: Option<Bandwidth>) -> FlowId {
        self.advance_to(now);
        let id = FlowId(self.next_id);
        self.next_id += 1;
        self.bytes_carried += bytes;
        self.opened.insert(id, self.now);
        let cap = rate
            .map(|r| r.min(self.bandwidth))
            .unwrap_or(self.bandwidth)
            .bytes_per_sec();
        let size = bytes.as_f64();
        if size <= DRAIN_EPSILON {
            // Empty transfer: done the instant it starts. The active set
            // is untouched, so the cached rates stay valid.
            self.completed.insert(id, self.now);
            return id;
        }
        self.active.push(Flow {
            id,
            remaining: size,
            cap,
        });
        self.rates_valid = false;
        self.next_cache = None;
        id
    }

    /// Fill `self.rates` (parallel to `self.active`) with the max-min
    /// fair assignment by water-filling over a cap-sorted index.
    ///
    /// Each round's capped set — flows whose cap is at most the equal
    /// share of the remaining budget — is exactly a prefix of the
    /// still-unsatisfied cap-sorted slice, because every flow left over
    /// from an earlier round has a cap above that round's (never
    /// larger) share. The prefix is re-sorted by flow id before its
    /// caps are subtracted from the budget, so the floating-point
    /// subtraction order matches the old id-ordered partition algorithm
    /// bit-for-bit. Total cost O(n log n): the sort dominates, and each
    /// position is visited by exactly one round.
    fn fill_rates(&mut self) {
        let n = self.active.len();
        self.rates.clear();
        self.rates.resize(n, 0.0);
        self.by_cap.clear();
        self.by_cap.extend(0..n);
        let active = &self.active;
        self.by_cap
            .sort_unstable_by(|&a, &b| active[a].cap.total_cmp(&active[b].cap).then(a.cmp(&b)));
        let mut budget = self.bandwidth.bytes_per_sec();
        let mut consumed = 0; // prefix of `by_cap` already rate-assigned
        while consumed < n {
            let share = budget / (n - consumed) as f64;
            let mut end = consumed;
            while end < n && self.active[self.by_cap[end]].cap <= share {
                end += 1;
            }
            if end == consumed {
                // Nobody capped below the share: the rest split it.
                for &i in &self.by_cap[consumed..] {
                    self.rates[i] = share;
                }
                break;
            }
            self.round.clear();
            self.round.extend_from_slice(&self.by_cap[consumed..end]);
            // Positions ascend with flow ids, so this is id order.
            self.round.sort_unstable();
            for &i in &self.round {
                let cap = self.active[i].cap;
                self.rates[i] = cap;
                budget -= cap;
            }
            consumed = end;
        }
        self.rates_valid = true;
    }

    fn ensure_rates(&mut self) {
        if !self.rates_valid {
            self.fill_rates();
        }
    }

    /// The current max-min fair rate of every active flow, in flow-id
    /// order (bytes/sec). Diagnostic view of the water-filling result;
    /// empty when the link is idle.
    pub fn current_rates(&mut self) -> Vec<(FlowId, f64)> {
        self.ensure_rates();
        self.active
            .iter()
            .zip(self.rates.iter())
            .map(|(f, &r)| (f.id, r))
            .collect()
    }

    /// The earliest instant an active flow drains, assuming no further
    /// arrivals, from the cached rate assignment. `None` when idle.
    fn predict_next(&mut self) -> Option<SimTime> {
        if self.active.is_empty() {
            return None;
        }
        if let Some(t) = self.next_cache {
            return Some(t);
        }
        self.ensure_rates();
        let next = self
            .active
            .iter()
            .zip(self.rates.iter())
            .map(|(f, &r)| self.now + seconds(f.remaining / r))
            .min()
            .expect("active flows");
        self.next_cache = Some(next);
        Some(next)
    }

    /// The earliest instant an active flow drains, assuming no further
    /// arrivals. `None` when the link is idle.
    pub fn next_completion(&mut self) -> Option<SimTime> {
        self.predict_next()
    }

    /// Advance the link clock to `t`, draining flows event-by-event
    /// (rates are constant between departures, so each interval is
    /// exact).
    pub fn advance_to(&mut self, t: SimTime) {
        while self.now < t && !self.active.is_empty() {
            let next_done = self.predict_next().expect("active flows");
            let until = next_done.min(t);
            let dt = until.since(self.now).as_secs_f64();
            for (f, &r) in self.active.iter_mut().zip(self.rates.iter()) {
                f.remaining -= r * dt;
            }
            self.now = until;
            self.next_cache = None;
            if self.active.iter().any(|f| f.remaining <= DRAIN_EPSILON) {
                let now = self.now;
                let completed = &mut self.completed;
                // In-place retain visits flows in id order, matching the
                // old drained-id collection order.
                self.active.retain(|f| {
                    if f.remaining <= DRAIN_EPSILON {
                        completed.insert(f.id, now);
                        false
                    } else {
                        true
                    }
                });
                self.rates_valid = false;
            }
        }
        if t > self.now {
            self.now = t;
            self.next_cache = None;
        }
    }

    /// When `flow` finished, if it has. Completions materialize as the
    /// link is advanced past them.
    pub fn completion(&self, flow: FlowId) -> Option<SimTime> {
        self.completed.get(&flow).copied()
    }

    /// When `flow` was opened. Retained after the flow completes, so
    /// post-hoc per-flow timing (completion − opened) is computable
    /// from the link alone.
    pub fn opened_at(&self, flow: FlowId) -> Option<SimTime> {
        self.opened.get(&flow).copied()
    }

    /// Have all of `flows` drained?
    pub fn all_done(&self, flows: &[FlowId]) -> bool {
        flows.iter().all(|f| self.completed.contains_key(f))
    }
}

/// Seconds → `SimDuration`, rounded **up** to the clock tick. Completion
/// predictions must never undershoot: `SimDuration::from_secs_f64`
/// truncates, and advancing to a truncated completion instant would
/// leave a sub-tick byte residue whose own drain time truncates to
/// zero — `next_completion()` would then return `now` forever and any
/// event loop waiting on it would spin. Rounding up means advancing to
/// the prediction always crosses the true completion (the ≤ 1-ulp
/// float remainder is absorbed by `DRAIN_EPSILON`).
fn seconds(s: f64) -> ninja_sim::SimDuration {
    let ns = (s.max(0.0) * 1e9).ceil();
    if ns >= u64::MAX as f64 {
        ninja_sim::SimDuration::MAX
    } else {
        ninja_sim::SimDuration::from_nanos(ns as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ninja_sim::SimDuration;

    fn t(s: f64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs_f64(s)
    }

    fn gib_secs(gib: u64, gbps: f64) -> f64 {
        (gib << 30) as f64 * 8.0 / (gbps * 1e9)
    }

    #[test]
    fn single_flow_runs_at_cap() {
        let mut link = FairShareLink::new(Bandwidth::from_gbps(10.0));
        let f = link.open(t(0.0), Bytes::from_gib(1), Some(Bandwidth::from_gbps(1.3)));
        link.advance_to(t(100.0));
        let done = link.completion(f).unwrap().as_secs_f64();
        assert!((done - gib_secs(1, 1.3)).abs() < 1e-6, "{done}");
    }

    #[test]
    fn equal_flows_share_equally() {
        let mut link = FairShareLink::new(Bandwidth::from_gbps(8.0));
        let a = link.open(t(0.0), Bytes::from_gib(1), None);
        let b = link.open(t(0.0), Bytes::from_gib(1), None);
        link.advance_to(t(100.0));
        let da = link.completion(a).unwrap().as_secs_f64();
        let db = link.completion(b).unwrap().as_secs_f64();
        assert!((da - db).abs() < 1e-6, "fair flows finish together");
        // Each ran at 4 Gb/s: 1 GiB takes ~2.15 s.
        assert!((da - gib_secs(1, 4.0)).abs() < 1e-3, "{da}");
    }

    #[test]
    fn capped_flows_do_not_contend_below_capacity() {
        // Four 1.3 Gb/s senders on a 10 Gb/s uplink: 5.2 < 10, so each
        // runs at its cap exactly as if alone.
        let mut link = FairShareLink::new(Bandwidth::from_gbps(10.0));
        let cap = Some(Bandwidth::from_gbps(1.3));
        let flows: Vec<FlowId> = (0..4)
            .map(|_| link.open(t(0.0), Bytes::from_gib(1), cap))
            .collect();
        link.advance_to(t(100.0));
        for f in flows {
            let d = link.completion(f).unwrap().as_secs_f64();
            assert!((d - gib_secs(1, 1.3)).abs() < 1e-6, "{d}");
        }
    }

    #[test]
    fn oversubscription_slows_everyone() {
        // Ten 1.3 Gb/s senders on a 10 Gb/s uplink: 13 > 10, each gets
        // 1.0 Gb/s.
        let mut link = FairShareLink::new(Bandwidth::from_gbps(10.0));
        let cap = Some(Bandwidth::from_gbps(1.3));
        let flows: Vec<FlowId> = (0..10)
            .map(|_| link.open(t(0.0), Bytes::from_gib(1), cap))
            .collect();
        link.advance_to(t(100.0));
        for f in flows {
            let d = link.completion(f).unwrap().as_secs_f64();
            assert!((d - gib_secs(1, 1.0)).abs() < 1e-3, "{d}");
        }
    }

    #[test]
    fn late_arrival_share_shrinks_then_grows() {
        // Flow A alone at 8 Gb/s; B arrives at 0.5 s and the wire splits
        // 4/4; A drains, then B finishes alone at 8 Gb/s again.
        let mut link = FairShareLink::new(Bandwidth::from_gbps(8.0));
        let a = link.open(t(0.0), Bytes::from_gib(1), None);
        let b = link.open(t(0.5), Bytes::from_gib(1), None);
        link.advance_to(t(100.0));
        let da = link.completion(a).unwrap().as_secs_f64();
        let db = link.completion(b).unwrap().as_secs_f64();
        let full = gib_secs(1, 8.0); // ~1.074 s
                                     // A: 0.5 s at 8 Gb/s, remainder at 4 Gb/s.
        let expect_a = 0.5 + (full - 0.5) * 2.0;
        assert!((da - expect_a).abs() < 1e-3, "{da} vs {expect_a}");
        assert!(db > da, "B finishes after A");
        // Total drain time equals the serial total (work conservation).
        let serial = 2.0 * full + 0.5 * 0.0; // both fully transferred
        let busy = db; // link busy from 0 to db
        assert!(busy < serial + 0.5, "sharing never slower than serial");
    }

    #[test]
    fn bytes_are_conserved() {
        let mut link = FairShareLink::new(Bandwidth::from_gbps(8.0));
        link.open(t(0.0), Bytes::from_mib(3), None);
        link.open(t(0.1), Bytes::from_mib(5), Some(Bandwidth::from_gbps(1.0)));
        link.open(t(0.2), Bytes::from_mib(7), None);
        link.advance_to(t(100.0));
        assert_eq!(link.bytes_carried(), Bytes::from_mib(15));
        assert_eq!(link.active_flows(), 0);
    }

    #[test]
    fn zero_byte_flow_completes_instantly() {
        let mut link = FairShareLink::new(Bandwidth::from_gbps(8.0));
        let f = link.open(t(3.0), Bytes::ZERO, None);
        assert_eq!(link.completion(f), Some(t(3.0)));
    }

    #[test]
    fn next_completion_predicts_drain() {
        let mut link = FairShareLink::new(Bandwidth::from_gbps(8.0));
        assert_eq!(link.next_completion(), None);
        let f = link.open(t(0.0), Bytes::from_gib(1), None);
        let predicted = link.next_completion().unwrap();
        link.advance_to(predicted);
        assert_eq!(link.completion(f), Some(predicted));
    }

    #[test]
    fn advancing_to_the_prediction_always_drains() {
        // Regression: completion predictions used to truncate to the
        // nanosecond, leaving a sub-tick residue whose own drain time
        // truncated to zero — next_completion() == now() forever. With
        // awkward sizes/rates, advance_to(next_completion()) must
        // materialize a completion in one hop.
        let mut link = FairShareLink::new(Bandwidth::from_gbps(10.0));
        let cap = Some(Bandwidth::from_gbps(1.3));
        let flows: Vec<FlowId> = (0..3)
            .map(|i| link.open(t(0.0), Bytes::new((7 << 30) + 13 * i + 1), cap))
            .collect();
        let mut hops = 0;
        while let Some(next) = link.next_completion() {
            assert!(next > link.now(), "prediction must make progress");
            link.advance_to(next);
            hops += 1;
            assert!(hops <= 6, "event-per-completion, not a spin");
        }
        assert!(link.all_done(&flows));
    }

    #[test]
    fn partial_advance_keeps_state() {
        let mut link = FairShareLink::new(Bandwidth::from_gbps(8.0));
        let f = link.open(t(0.0), Bytes::from_gib(1), None);
        link.advance_to(t(0.5));
        assert_eq!(link.active_flows(), 1);
        assert_eq!(link.completion(f), None);
        link.advance_to(t(2.0));
        let d = link.completion(f).unwrap().as_secs_f64();
        assert!((d - gib_secs(1, 8.0)).abs() < 1e-6, "{d}");
    }

    #[test]
    fn opened_at_survives_completion() {
        let mut link = FairShareLink::new(Bandwidth::from_gbps(8.0));
        let f = link.open(t(1.0), Bytes::from_mib(64), None);
        assert_eq!(link.opened_at(f), Some(t(1.0)));
        link.advance_to(t(100.0));
        assert!(link.completion(f).is_some());
        assert_eq!(link.opened_at(f), Some(t(1.0)), "retained after drain");
        // Zero-byte flows report their (instant) open time too.
        let z = link.open(t(200.0), Bytes::ZERO, None);
        assert_eq!(link.opened_at(z), Some(t(200.0)));
    }
}
