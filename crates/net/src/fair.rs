//! The migration fabric: max-min fair sharing over a set of links.
//!
//! Real migration paths do not serialize transfers: a 10 GbE port
//! carries simultaneous TCP streams that each get a max-min-fair share
//! of the capacity. A [`Fabric`] is that model over many links at once:
//! an explicit set of in-flight flows, each crossing a path of links and
//! optionally rate-capped (the ~1.3 Gb/s CPU-bound QEMU sender),
//! progressing together through virtual time with every link's capacity
//! divided max-min fairly among the flows that cross it.
//!
//! # Exact arithmetic
//!
//! Everything is an integer. Rates are whole bits per second
//! ([`Bandwidth`]), and a flow's remaining work is a count of bits ×
//! 10⁹ ([`transfer_work`]), so `dt` ns at `r` bit/s does exactly `r·dt`
//! of it. A flow drains when its work reaches exactly zero, and the
//! earliest drain is `ceil(work / r)` ns away ([`drain_time`], the rule
//! [`Bandwidth::transfer_time`] uses too). Between arrivals and drains
//! every rate is constant, so the fabric advances drain by drain, and
//! where an advance stops changes nothing: `advance_to(t1)` then
//! `advance_to(t2)` leaves every flow exactly where `advance_to(t2)`
//! does. Bytes are conserved exactly as well: the bytes each link
//! carries equal the sum of the sizes of the flows routed over it,
//! however they overlapped. That property is what makes contention
//! *measurable*: a fleet run with concurrency N moves the same bytes as
//! the serial run, only faster or slower in wall-clock.
//!
//! # Progressive filling
//!
//! The max-min assignment depends only on the set of active flows, their
//! paths and their caps, not on how much work remains, so it is computed
//! once per arrival/departure epoch and cached. Each round of the fill
//! takes every link's equal share of its remaining budget, `budget / n`
//! rounded down, and a flow's *level* is the smallest share along its
//! path:
//!
//! 1. every flow whose cap is at most its level is frozen at its cap,
//!    and the caps are subtracted from the links' budgets;
//! 2. if no flow was capped, the link with the smallest exact share
//!    `budget / n` (compared as fractions; lowest link id on a tie) is
//!    the bottleneck, and every flow crossing it is frozen at its
//!    rounded-down share, the *level*. The remainder goes one bit/s at a
//!    time, in flow-id order, to each of those flows whose every link
//!    can still give each of its unfrozen flows the level. The
//!    bottleneck's rates then sum to its capacity unless a nearly tied
//!    link on the same flows ran out of bits first, and no link's rates
//!    ever exceed its capacity.
//!
//! No freeze leaves a link less than the level for each of its unfrozen
//! flows, so each frozen rate is final. A flow's cap is clamped to every
//! capacity on its path, so a link that carries a single flow never
//! binds below that flow's cap: only shared links take part in the fill.
//!
//! # Refilling only under contention
//!
//! Each link keeps its *demand*, the summed caps of the flows crossing
//! it, up to date as flows open and drain. While no shared link's demand
//! exceeds its capacity, the fill freezes every flow at its cap. The
//! fabric then skips the rounds and keeps the rates incrementally (an
//! arrival appends its cap, a drain removes its entry) and runs the fill
//! again only once some shared link is over-subscribed.
//!
//! `tests/water_fill.rs` and `tests/props.rs` check the cached rates at
//! every arrival and drain, with `assert_eq!`, against test-local
//! oracles (`tests/oracle/mod.rs`): the partition water-fill on one
//! link, and a plain transcription of the rounds above on many.
//! `next_completion()` and `advance_to()` share the cached rates and the
//! cached earliest-drain instant, so a drain of n concurrent precopies
//! costs O(n²) total instead of O(n³).

use ninja_sim::units::{drain_time, transfer_work};
use ninja_sim::{Bandwidth, Bytes, SimTime};

/// Identifier of an in-flight (or completed) flow on a [`Fabric`]. Ids
/// are dense from 0 in open order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FlowId(pub u64);

/// Identifier of a link of a [`Fabric`]. Ids are dense from 0 in
/// creation order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LinkId(pub u32);

#[derive(Debug, Clone)]
struct Link {
    /// Capacity in bits/s.
    capacity: u64,
    bytes_carried: Bytes,
    /// Active flows crossing the link.
    load: u32,
    /// Summed caps of the active flows crossing the link (bits/s).
    demand: u128,
}

impl Link {
    /// Whether the fill could bind this link below some flow's cap.
    fn contended(&self) -> bool {
        self.load > 1 && self.demand > u128::from(self.capacity)
    }

    /// Add (`arrive`) or remove one flow of cap `cap`. Returns the change
    /// in the link's contended state (-1, 0 or 1).
    fn carry(&mut self, cap: u64, arrive: bool) -> i32 {
        let was = i32::from(self.contended());
        if arrive {
            self.load += 1;
            self.demand += u128::from(cap);
        } else {
            self.load -= 1;
            self.demand -= u128::from(cap);
        }
        i32::from(self.contended()) - was
    }
}

/// The most links a flow's path may cross: a migration stream crosses
/// its source port, a WAN pipe, its destination port and a fleet's
/// uplink at most.
pub const MAX_PATH: usize = 4;

#[derive(Debug, Clone)]
struct Flow {
    /// The flow id (entries are kept in ascending-id order).
    id: FlowId,
    /// Work not yet done, in bits × 10⁹ (see the module docs).
    remaining: u128,
    /// Rate cap in bits/s (the sender's CPU bound), already clamped to
    /// the smallest capacity on the path.
    cap: u64,
    /// The links crossed, inline: the first `len` entries.
    links: [LinkId; MAX_PATH],
    len: u8,
}

impl Flow {
    /// The links the flow crosses.
    fn path(&self) -> &[LinkId] {
        &self.links[..usize::from(self.len)]
    }
}

/// A set of links whose concurrent flows split capacity max-min fairly.
///
/// ```
/// use ninja_net::Fabric;
/// use ninja_sim::{Bandwidth, Bytes, SimTime};
/// let mut fabric = Fabric::new();
/// let link = fabric.add_link(Bandwidth::from_gbps(8.0));
/// let a = fabric.open(Bytes::from_gib(1), &[link], None);
/// let b = fabric.open(Bytes::from_gib(1), &[link], None);
/// fabric.advance_to(SimTime::ZERO + ninja_sim::SimDuration::from_secs(60));
/// // Two equal flows share the wire and finish together.
/// assert_eq!(fabric.completion(a), fabric.completion(b));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Fabric {
    links: Vec<Link>,
    now: SimTime,
    /// Active flows in ascending-id order (ids are handed out in
    /// increasing order and drains remove in place, so pushes keep the
    /// vector sorted).
    active: Vec<Flow>,
    /// Completion instant of every flow ever opened, indexed by id.
    completed: Vec<Option<SimTime>>,
    /// Cached per-flow rates in bits/s, parallel to `active`; valid while
    /// no flow has arrived or drained since they were filled, or while no
    /// link is contended (then every rate is its flow's cap, kept as
    /// flows open and drain).
    rates: Vec<u64>,
    rates_valid: bool,
    /// How many links are contended (see the module docs).
    contended: u32,
    /// The flows drained since the last [`Fabric::clear_drained`], in
    /// drain order.
    drained: Vec<FlowId>,
    /// Cached earliest-drain instant; valid until the next mutation
    /// (arrival, departure, or clock/remaining update).
    next_cache: Option<SimTime>,
    /// Fill scratch, indexed by link: remaining capacity, flows not yet
    /// frozen, and one round's rounded-down equal share.
    budget: Vec<u64>,
    unfrozen: Vec<u32>,
    share: Vec<u64>,
    /// Fill scratch: the links active flows cross that still carry an
    /// unfrozen flow.
    touched: Vec<usize>,
    /// Fill scratch, parallel to `active`: which links of each flow's
    /// path are shared, bit `k` for the `k`-th.
    masks: Vec<u8>,
    /// Fill scratch: positions in `active` not yet frozen, in id order,
    /// and one round's capped positions.
    left: Vec<usize>,
    round: Vec<usize>,
}

impl Fabric {
    /// A fabric with no links, at time zero.
    pub fn new() -> Self {
        Fabric::default()
    }

    /// Add a link of the given capacity.
    pub fn add_link(&mut self, capacity: Bandwidth) -> LinkId {
        let id = LinkId(u32::try_from(self.links.len()).expect("fewer than 2^32 links"));
        self.links.push(Link {
            capacity: capacity.bits_per_sec(),
            bytes_carried: Bytes::ZERO,
            load: 0,
            demand: 0,
        });
        id
    }

    /// Total bytes ever routed over `link` (conserved: equals the sum of
    /// the sizes of the completed and in-flight flows crossing it).
    pub fn bytes_carried(&self, link: LinkId) -> Bytes {
        self.links[link.0 as usize].bytes_carried
    }

    /// The fabric's current virtual time (the latest instant it has been
    /// advanced to).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Flows currently on the wire.
    pub fn active_flows(&self) -> usize {
        self.active.len()
    }

    /// Open a flow of `bytes` at the fabric's clock over `path` (at most
    /// [`MAX_PATH`] links), optionally capped to `rate` (e.g. the
    /// CPU-bound migration sender). A flow with an empty path (a loopback
    /// transfer) must carry a cap: nothing else bounds it. Every flow
    /// opens now: a caller with a later arrival advances the fabric to
    /// it first, so no open ever moves the shared clock.
    pub fn open(&mut self, bytes: Bytes, path: &[LinkId], rate: Option<Bandwidth>) -> FlowId {
        assert!(
            rate.is_some() || !path.is_empty(),
            "a loopback flow needs a rate cap"
        );
        assert!(path.len() <= MAX_PATH, "a path of at most {MAX_PATH} links");
        let id = FlowId(self.completed.len() as u64);
        let mut cap = rate.map_or(u64::MAX, Bandwidth::bits_per_sec);
        for &l in path {
            let link = &mut self.links[l.0 as usize];
            link.bytes_carried += bytes;
            cap = cap.min(link.capacity);
        }
        if bytes.is_zero() {
            // Empty transfer: done the instant it starts. The active set
            // is untouched, so the cached rates stay valid.
            self.completed.push(Some(self.now));
            return id;
        }
        self.completed.push(None);
        for &l in path {
            let hot = self.links[l.0 as usize].carry(cap, true);
            self.contended = self.contended.wrapping_add_signed(hot);
        }
        // An arrival never relieves a link: without contention now,
        // there was none before, and valid rates are the caps.
        if self.contended == 0 && self.rates_valid {
            self.rates.push(cap);
        } else {
            self.rates_valid = false;
        }
        let mut links = [LinkId(0); MAX_PATH];
        links[..path.len()].copy_from_slice(path);
        self.active.push(Flow {
            id,
            remaining: transfer_work(bytes),
            cap,
            links,
            len: path.len() as u8,
        });
        self.next_cache = None;
        id
    }

    /// Fill `self.rates` (parallel to `self.active`) with the max-min
    /// fair assignment by progressive filling (see the module docs).
    fn fill_rates(&mut self) {
        self.rates_valid = true;
        self.rates.clear();
        if self.contended == 0 {
            // No link can bind: every flow is frozen at its cap.
            self.rates.extend(self.active.iter().map(|f| f.cap));
            return;
        }
        let n = self.active.len();
        self.rates.resize(n, 0);
        self.budget.resize(self.links.len(), 0);
        self.unfrozen.resize(self.links.len(), 0);
        self.share.resize(self.links.len(), 0);
        // Only shared links take part (see the module docs). Each
        // flow's are noted once, as a mask over its path, and each link
        // gets its budget at its first flow: `unfrozen` is all zero
        // between fills, since a fill freezes every flow.
        self.touched.clear();
        self.masks.clear();
        for f in &self.active {
            let mut mask = 0u8;
            for (k, l) in f.path().iter().enumerate() {
                let (l, link) = (l.0 as usize, &self.links[l.0 as usize]);
                if link.load > 1 {
                    mask |= 1 << k;
                    if self.unfrozen[l] == 0 {
                        self.touched.push(l);
                        self.budget[l] = link.capacity;
                        self.unfrozen[l] = link.load;
                    }
                }
            }
            self.masks.push(mask);
        }
        self.touched.sort_unstable();
        self.left.clear();
        self.left.extend(0..n);
        while !self.left.is_empty() {
            // Every link's equal share, read before any budget moves.
            let unfrozen = &self.unfrozen;
            self.touched.retain(|&l| unfrozen[l] > 0);
            for &l in &self.touched {
                self.share[l] = self.budget[l] / u64::from(self.unfrozen[l]);
            }
            // 1. Freeze every flow capped at or below its level.
            self.round.clear();
            for &i in &self.left {
                let f = &self.active[i];
                let level = shared_links(f.path(), self.masks[i])
                    .map(|l| self.share[l])
                    .fold(u64::MAX, u64::min);
                if f.cap <= level {
                    self.round.push(i);
                }
            }
            if !self.round.is_empty() {
                for &i in &self.round {
                    let f = &self.active[i];
                    self.rates[i] = f.cap;
                    for l in shared_links(f.path(), self.masks[i]) {
                        self.budget[l] -= f.cap;
                        self.unfrozen[l] -= 1;
                    }
                }
                let round = &self.round;
                // Both lists ascend, so one merge pass removes the round.
                let mut k = 0;
                self.left.retain(|&i| {
                    let frozen = round.get(k) == Some(&i);
                    k += frozen as usize;
                    !frozen
                });
                continue;
            }
            // 2. Nobody capped: freeze the flows of the bottleneck link,
            //    the smallest exact share (`touched` ascends, so the
            //    lowest id wins a tie).
            let (budget, unfrozen) = (&mut self.budget, &mut self.unfrozen);
            let exact = |l: usize| (u128::from(budget[l]), u128::from(unfrozen[l]));
            let bottleneck = *self
                .touched
                .iter()
                .min_by(|&&a, &&b| {
                    let ((ba, na), (bb, nb)) = (exact(a), exact(b));
                    (ba * nb).cmp(&(bb * na))
                })
                .expect("uncapped flows cross a shared link");
            let level = self.share[bottleneck];
            let bottleneck = LinkId(bottleneck as u32);
            let (active, masks, rates) = (&self.active, &self.masks, &mut self.rates);
            self.left.retain(|&i| {
                let path = active[i].path();
                if !path.contains(&bottleneck) {
                    return true;
                }
                // Every link keeps `level` for each unfrozen flow, so
                // `unfrozen · level` never exceeds the budget.
                let spare = shared_links(path, masks[i])
                    .all(|l| budget[l] > u64::from(unfrozen[l]) * level);
                let rate = level + u64::from(spare);
                rates[i] = rate;
                for l in shared_links(path, masks[i]) {
                    budget[l] -= rate;
                    unfrozen[l] -= 1;
                }
                false
            });
        }
    }

    fn ensure_rates(&mut self) {
        if !self.rates_valid {
            self.fill_rates();
        }
    }

    /// The current max-min fair rate of every active flow, in flow-id
    /// order (bits/s). Diagnostic view of the fill; empty when the
    /// fabric is idle.
    pub fn current_rates(&mut self) -> Vec<(FlowId, u64)> {
        self.ensure_rates();
        self.active
            .iter()
            .zip(self.rates.iter())
            .map(|(f, &r)| (f.id, r))
            .collect()
    }

    /// The earliest instant an active flow drains, assuming no further
    /// arrivals, from the cached rate assignment. `None` when idle.
    pub fn next_completion(&mut self) -> Option<SimTime> {
        if self.active.is_empty() {
            return None;
        }
        if let Some(t) = self.next_cache {
            return Some(t);
        }
        self.ensure_rates();
        let left = self
            .active
            .iter()
            .zip(self.rates.iter())
            .map(|(f, &r)| drain_time(f.remaining, r))
            .min()
            .expect("active flows");
        let next = self.now + left;
        self.next_cache = Some(next);
        Some(next)
    }

    /// Advance the fabric clock to `t`, draining flows event-by-event
    /// (rates are constant between departures, so each interval is
    /// exact). The flows drained on the way join
    /// [`drained`](Fabric::drained).
    pub fn advance_to(&mut self, t: SimTime) {
        while self.now < t && !self.active.is_empty() {
            let next_done = self.next_completion().expect("active flows");
            let until = next_done.min(t);
            let dt = u128::from(until.since(self.now).as_nanos());
            let mut drained = false;
            for (f, &r) in self.active.iter_mut().zip(self.rates.iter()) {
                f.remaining = f.remaining.saturating_sub(u128::from(r) * dt);
                drained |= f.remaining == 0;
            }
            self.now = until;
            self.next_cache = None;
            if drained {
                self.remove_drained();
            }
        }
        if t > self.now {
            self.now = t;
            self.next_cache = None;
        }
    }

    /// Complete every flow with no work left, in id order. Without
    /// contention before the drain the rates stay valid: each drained
    /// flow's entry leaves with it.
    fn remove_drained(&mut self) {
        let now = self.now;
        let keep_rates = self.rates_valid && self.contended == 0;
        let (completed, links, drained) = (&mut self.completed, &mut self.links, &mut self.drained);
        let (rates, contended) = (&mut self.rates, &mut self.contended);
        let (mut read, mut write) = (0, 0);
        // In-place retain visits flows in id order.
        self.active.retain(|f| {
            let gone = f.remaining == 0;
            if gone {
                completed[f.id.0 as usize] = Some(now);
                drained.push(f.id);
                for l in f.path() {
                    *contended =
                        contended.wrapping_add_signed(links[l.0 as usize].carry(f.cap, false));
                }
            } else if keep_rates {
                rates[write] = rates[read];
                write += 1;
            }
            read += 1;
            !gone
        });
        if keep_rates {
            rates.truncate(write);
        } else {
            self.rates_valid = false;
        }
    }

    /// The flows drained since the last
    /// [`clear_drained`](Fabric::clear_drained), in drain order (id
    /// order within one instant). A flow drains when
    /// [`advance_to`](Fabric::advance_to) passes its completion.
    pub fn drained(&self) -> &[FlowId] {
        &self.drained
    }

    /// Forget the flows drained so far.
    pub fn clear_drained(&mut self) {
        self.drained.clear();
    }

    /// When `flow` finished, if it has. Completions materialize as the
    /// fabric is advanced past them.
    pub fn completion(&self, flow: FlowId) -> Option<SimTime> {
        self.completed.get(flow.0 as usize).copied().flatten()
    }
}

/// The indices of the links of `path` that `mask` selects (bit `k` for
/// the `k`-th), in path order.
fn shared_links(path: &[LinkId], mask: u8) -> impl Iterator<Item = usize> + '_ {
    path.iter()
        .enumerate()
        .filter(move |&(k, _)| mask >> k & 1 != 0)
        .map(|(_, l)| l.0 as usize)
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

    /// When `bytes` finish at `gbps` from time zero, alone on the wire.
    fn alone(bytes: Bytes, gbps: f64) -> Option<SimTime> {
        Some(SimTime::ZERO + Bandwidth::from_gbps(gbps).transfer_time(bytes))
    }

    /// A fabric of one link of `gbps`.
    fn one_link(gbps: f64) -> (Fabric, LinkId) {
        let mut fabric = Fabric::new();
        let link = fabric.add_link(Bandwidth::from_gbps(gbps));
        (fabric, link)
    }

    #[test]
    fn single_flow_runs_at_cap() {
        let (mut fab, l) = one_link(10.0);
        let f = fab.open(Bytes::from_gib(1), &[l], Some(Bandwidth::from_gbps(1.3)));
        fab.advance_to(t(100.0));
        assert_eq!(fab.completion(f), alone(Bytes::from_gib(1), 1.3));
    }

    #[test]
    fn equal_flows_share_equally() {
        let (mut fab, l) = one_link(8.0);
        let a = fab.open(Bytes::from_gib(1), &[l], None);
        let b = fab.open(Bytes::from_gib(1), &[l], None);
        fab.advance_to(t(100.0));
        // Each runs at exactly 4 Gb/s the whole time.
        assert_eq!(fab.completion(a), alone(Bytes::from_gib(1), 4.0));
        assert_eq!(fab.completion(b), fab.completion(a));
    }

    #[test]
    fn capped_flows_do_not_contend_below_capacity() {
        // Four 1.3 Gb/s senders on a 10 Gb/s uplink: 5.2 < 10, so each
        // runs at its cap exactly as if alone.
        let (mut fab, l) = one_link(10.0);
        let cap = Some(Bandwidth::from_gbps(1.3));
        let flows: Vec<FlowId> = (0..4)
            .map(|_| fab.open(Bytes::from_gib(1), &[l], cap))
            .collect();
        fab.advance_to(t(100.0));
        for f in flows {
            assert_eq!(fab.completion(f), alone(Bytes::from_gib(1), 1.3));
        }
    }

    #[test]
    fn oversubscription_slows_everyone() {
        // Ten 1.3 Gb/s senders on a 10 Gb/s uplink: 13 > 10, each gets
        // exactly 1.0 Gb/s.
        let (mut fab, l) = one_link(10.0);
        let cap = Some(Bandwidth::from_gbps(1.3));
        let flows: Vec<FlowId> = (0..10)
            .map(|_| fab.open(Bytes::from_gib(1), &[l], cap))
            .collect();
        fab.advance_to(t(100.0));
        for f in flows {
            assert_eq!(fab.completion(f), alone(Bytes::from_gib(1), 1.0));
        }
    }

    #[test]
    fn late_arrival_share_shrinks_then_grows() {
        // Flow A alone at 8 Gb/s; B arrives at 0.5 s and the wire splits
        // 4/4; A drains, then B finishes alone at 8 Gb/s again.
        let (mut fab, l) = one_link(8.0);
        let a = fab.open(Bytes::from_gib(1), &[l], None);
        fab.advance_to(t(0.5));
        let b = fab.open(Bytes::from_gib(1), &[l], None);
        fab.advance_to(t(100.0));
        let da = fab.completion(a).unwrap().as_secs_f64();
        let db = fab.completion(b).unwrap().as_secs_f64();
        // 1 GiB at 8 Gb/s takes ~1.074 s. A: 0.5 s at 8 Gb/s, the
        // remainder at 4 Gb/s.
        let full = gib_secs(1, 8.0);
        let expect_a = 0.5 + (full - 0.5) * 2.0;
        assert!((da - expect_a).abs() < 1e-3, "{da} vs {expect_a}");
        assert!(db > da, "B finishes after A");
        // The link never idles while B waits: B ends when 2 GiB has
        // crossed at the full 8 Gb/s.
        assert!((db - 2.0 * full).abs() < 1e-3, "{db}");
    }

    #[test]
    fn bytes_are_conserved() {
        let (mut fab, l) = one_link(8.0);
        fab.open(Bytes::from_mib(3), &[l], None);
        fab.advance_to(t(0.1));
        fab.open(Bytes::from_mib(5), &[l], Some(Bandwidth::from_gbps(1.0)));
        fab.advance_to(t(0.2));
        fab.open(Bytes::from_mib(7), &[l], None);
        fab.advance_to(t(100.0));
        assert_eq!(fab.bytes_carried(l), Bytes::from_mib(15));
        assert_eq!(fab.active_flows(), 0);
    }

    #[test]
    fn zero_byte_flow_completes_instantly() {
        let (mut fab, l) = one_link(8.0);
        fab.advance_to(t(3.0));
        let f = fab.open(Bytes::ZERO, &[l], None);
        assert_eq!(fab.completion(f), Some(t(3.0)));
    }

    #[test]
    fn next_completion_predicts_drain() {
        let (mut fab, l) = one_link(8.0);
        assert_eq!(fab.next_completion(), None);
        let f = fab.open(Bytes::from_gib(1), &[l], None);
        let predicted = fab.next_completion().unwrap();
        assert_eq!(Some(predicted), alone(Bytes::from_gib(1), 8.0));
        fab.advance_to(predicted);
        assert_eq!(fab.completion(f), Some(predicted));
    }

    #[test]
    fn advancing_to_the_prediction_always_drains() {
        // Completion predictions round up, so advancing to one always
        // finishes the flow: with awkward sizes and rates,
        // advance_to(next_completion()) materializes a completion in one
        // hop, never a spin at now().
        let (mut fab, l) = one_link(10.0);
        let cap = Some(Bandwidth::from_gbps(1.3));
        let flows: Vec<FlowId> = (0..3)
            .map(|i| fab.open(Bytes::new((7 << 30) + 13 * i + 1), &[l], cap))
            .collect();
        let mut hops = 0;
        while let Some(next) = fab.next_completion() {
            assert!(next > fab.now(), "prediction must make progress");
            fab.advance_to(next);
            hops += 1;
            assert!(hops <= 6, "event-per-completion, not a spin");
        }
        assert!(flows.iter().all(|&f| fab.completion(f).is_some()));
    }

    #[test]
    fn partial_advance_keeps_state() {
        let (mut fab, l) = one_link(8.0);
        let f = fab.open(Bytes::from_gib(1), &[l], None);
        fab.advance_to(t(0.5));
        assert_eq!(fab.active_flows(), 1);
        assert_eq!(fab.completion(f), None);
        fab.advance_to(t(2.0));
        assert_eq!(fab.completion(f), alone(Bytes::from_gib(1), 8.0));
    }

    #[test]
    fn loopback_flow_runs_at_its_cap() {
        let mut fab = Fabric::new();
        let f = fab.open(Bytes::from_gib(1), &[], Some(Bandwidth::from_gbps(1.3)));
        fab.advance_to(t(100.0));
        assert_eq!(fab.completion(f), alone(Bytes::from_gib(1), 1.3));
    }

    #[test]
    fn drained_lists_flows_in_drain_order_until_cleared() {
        let (mut fab, l) = one_link(8.0);
        let cap = Some(Bandwidth::from_gbps(1.0));
        let big = fab.open(Bytes::from_gib(2), &[l], cap);
        let small = fab.open(Bytes::from_gib(1), &[l], cap);
        fab.advance_to(t(1.0));
        assert!(fab.drained().is_empty());
        fab.advance_to(t(100.0));
        assert_eq!(fab.drained(), [small, big]);
        fab.clear_drained();
        assert!(fab.drained().is_empty());
    }

    /// The current rates in bits/s, in flow-id order.
    fn rates(fab: &mut Fabric) -> Vec<u64> {
        fab.current_rates().iter().map(|&(_, r)| r).collect()
    }

    #[test]
    fn uncontended_rates_are_the_caps_and_contention_refills() {
        // Caps summing to the capacity do not contend: every flow keeps
        // its cap. One more flow over-subscribes the link, and its drain
        // brings the caps back.
        let (mut fab, l) = one_link(10.0);
        let cap = |g| Some(Bandwidth::from_gbps(g));
        fab.open(Bytes::from_gib(4), &[l], cap(2.0));
        fab.open(Bytes::from_gib(4), &[l], cap(3.0));
        assert_eq!(rates(&mut fab), [2_000_000_000, 3_000_000_000]);
        fab.open(Bytes::from_gib(4), &[l], cap(5.0));
        assert_eq!(
            rates(&mut fab),
            [2_000_000_000, 3_000_000_000, 5_000_000_000]
        );
        fab.open(Bytes::from_mib(1), &[l], cap(4.0));
        // 8 Gb/s left for three flows: 2 666 666 666 each, and the two
        // bits/s of remainder go to the lowest ids.
        assert_eq!(
            rates(&mut fab),
            [2_000_000_000, 2_666_666_667, 2_666_666_667, 2_666_666_666]
        );
        fab.advance_to(t(0.01));
        assert_eq!(fab.active_flows(), 3, "the 1 MiB flow drained");
        assert_eq!(
            rates(&mut fab),
            [2_000_000_000, 3_000_000_000, 5_000_000_000]
        );
    }

    #[test]
    fn tightest_link_on_the_path_binds() {
        // A and B share a 2 Gb/s link; B also crosses a 10 Gb/s link
        // with C. A and B get 1 Gb/s each, and C takes the 9 Gb/s B
        // leaves on the wide link.
        let mut fab = Fabric::new();
        let narrow = fab.add_link(Bandwidth::from_gbps(2.0));
        let wide = fab.add_link(Bandwidth::from_gbps(10.0));
        fab.open(Bytes::from_gib(1), &[narrow], None);
        fab.open(Bytes::from_gib(1), &[narrow, wide], None);
        fab.open(Bytes::from_gib(1), &[wide], None);
        assert_eq!(
            rates(&mut fab),
            [1_000_000_000, 1_000_000_000, 9_000_000_000]
        );
    }

    #[test]
    fn the_remainder_never_overloads_a_tied_link() {
        // Four flows share a 10 b/s link; the first two also share a
        // 5 b/s one. Both links offer exactly 2.5 b/s per flow, so the
        // lower-id link binds at 2 b/s with 2 b/s of remainder. Flow 0
        // takes one; flow 1 cannot, as the narrow link has only 2 b/s
        // left for it, so flow 2 takes the other.
        let mut fab = Fabric::new();
        let wide = fab.add_link(Bandwidth::from_gbps(10e-9));
        let narrow = fab.add_link(Bandwidth::from_gbps(5e-9));
        for path in [&[wide, narrow][..], &[wide, narrow], &[wide], &[wide]] {
            fab.open(Bytes::from_gib(1), path, None);
        }
        assert_eq!(rates(&mut fab), [3, 2, 3, 2]);
    }
}
