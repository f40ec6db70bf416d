//! Max-min oracles for the fabric's fill: the single-link water-fill as
//! a plain partition algorithm, multi-link progressive filling as the
//! textbook "raise every rate together until something binds", and a
//! fabric wrapper that checks `Fabric::current_rates` against them after
//! every open and at every drain, and integrates the rates to check that
//! every link carries exactly the bytes of the flows routed over it.

#![allow(dead_code)] // Each test target uses part of the module.

use ninja_net::{Fabric, FlowId, LinkId};
use ninja_sim::{Bandwidth, Bytes, SimTime};
use std::collections::BTreeMap;

/// Max-min fair rates (bytes/sec) of flows with the given caps on one
/// link, in flow id order: repeatedly give every flow capped at or below
/// the equal share its cap (subtracted from the budget in id order),
/// until no flow is; the rest split what is left.
pub fn water_fill(bandwidth: f64, caps: &BTreeMap<FlowId, f64>) -> Vec<(FlowId, f64)> {
    let mut rates = BTreeMap::new();
    let mut unsatisfied: Vec<FlowId> = caps.keys().copied().collect();
    let mut budget = bandwidth;
    while !unsatisfied.is_empty() {
        let share = budget / unsatisfied.len() as f64;
        let (capped, free): (Vec<FlowId>, Vec<FlowId>) =
            unsatisfied.iter().partition(|id| caps[id] <= share);
        if capped.is_empty() {
            for id in free {
                rates.insert(id, share);
            }
            break;
        }
        for id in capped {
            budget -= caps[&id];
            rates.insert(id, caps[&id]);
        }
        unsatisfied = free;
    }
    rates.into_iter().collect()
}

/// One open flow: the link indices it crosses and its cap (bytes/sec).
#[derive(Clone)]
pub struct Route {
    pub path: Vec<usize>,
    pub cap: f64,
}

/// Max-min fair rates (bytes/sec) of flows over links of the given
/// capacities, in flow id order, by progressive filling: raise every
/// unfrozen flow's rate together to the lowest level at which a
/// constraint binds — a flow's cap, or a link whose capacity the frozen
/// flows leave shared equally by its unfrozen ones — and freeze the
/// flows it binds there.
pub fn progressive_fill(capacities: &[f64], flows: &BTreeMap<FlowId, Route>) -> Vec<(FlowId, f64)> {
    let mut rates: BTreeMap<FlowId, f64> = BTreeMap::new();
    let mut unfrozen: Vec<FlowId> = flows.keys().copied().collect();
    while !unfrozen.is_empty() {
        let shares: Vec<Option<f64>> = (0..capacities.len())
            .map(|l| {
                let crosses = |id: &&FlowId| flows[*id].path.contains(&l);
                let n = unfrozen.iter().filter(crosses).count();
                let used: f64 = rates
                    .iter()
                    .filter(|(id, _)| flows[*id].path.contains(&l))
                    .map(|(_, r)| r)
                    .sum();
                (n > 0).then(|| (capacities[l] - used) / n as f64)
            })
            .collect();
        let level = unfrozen
            .iter()
            .map(|id| flows[id].cap)
            .chain(shares.iter().flatten().copied())
            .fold(f64::INFINITY, f64::min);
        let (bound, free): (Vec<FlowId>, Vec<FlowId>) = unfrozen.iter().partition(|id| {
            let f = &flows[id];
            f.cap <= level
                || f.path
                    .iter()
                    .any(|&l| shares[l].is_some_and(|s| s <= level))
        });
        assert!(!bound.is_empty(), "some constraint binds at {level}");
        for id in bound {
            rates.insert(id, level);
        }
        unfrozen = free;
    }
    rates.into_iter().collect()
}

/// A fabric whose rates must equal the oracles' after every open and
/// every drain: bit for bit against [`water_fill`] while every flow
/// crosses one single link, and to within 1e-9 relative against
/// [`progressive_fill`] otherwise.
pub struct CheckedFabric {
    pub fabric: Fabric,
    links: Vec<LinkId>,
    capacities: Vec<f64>,
    /// Each open flow's route, its cap clamped as `open` clamps it.
    open: BTreeMap<FlowId, Route>,
    /// Every flow's route, size and bytes delivered so far (the
    /// integral of its rate).
    all: BTreeMap<FlowId, (Route, f64, f64)>,
}

impl CheckedFabric {
    pub fn new(capacities: &[Bandwidth]) -> Self {
        let mut fabric = Fabric::new();
        let links = capacities.iter().map(|&c| fabric.add_link(c)).collect();
        CheckedFabric {
            fabric,
            links,
            capacities: capacities.iter().map(|c| c.bytes_per_sec()).collect(),
            open: BTreeMap::new(),
            all: BTreeMap::new(),
        }
    }

    /// Open a flow over the links with these indices.
    pub fn open(
        &mut self,
        at: SimTime,
        bytes: Bytes,
        path: &[usize],
        cap: Option<Bandwidth>,
    ) -> FlowId {
        let ids: Vec<LinkId> = path.iter().map(|&l| self.links[l]).collect();
        self.step_to(at);
        let id = self.fabric.open(bytes, &ids, cap);
        let cap = path
            .iter()
            .map(|&l| self.capacities[l])
            .fold(cap.map_or(f64::INFINITY, |c| c.bytes_per_sec()), f64::min);
        let route = Route {
            path: path.to_vec(),
            cap,
        };
        self.open.insert(id, route.clone());
        self.all.insert(id, (route, bytes.as_f64(), 0.0));
        self.check();
        id
    }

    /// Advance to `t`, one drain at a time.
    pub fn advance_to(&mut self, t: SimTime) {
        self.step_to(t);
        self.check();
    }

    /// Advance to `t` in steps that end at every drain, integrating the
    /// (then constant) rates over each step and checking the rates at
    /// every drain.
    fn step_to(&mut self, t: SimTime) {
        while self.fabric.now() < t {
            let until = self.fabric.next_completion().map_or(t, |n| n.min(t));
            let dt = until.since(self.fabric.now()).as_secs_f64();
            for (id, r) in self.fabric.current_rates() {
                self.all.get_mut(&id).expect("opened").2 += r * dt;
            }
            self.fabric.advance_to(until);
            self.check();
        }
    }

    fn check(&mut self) {
        let fabric = &self.fabric;
        self.open.retain(|&id, _| fabric.completion(id).is_none());
        let got = self.fabric.current_rates();
        let single = self.capacities.len() == 1 && self.open.values().all(|r| r.path == [0]);
        if single {
            let caps = self.open.iter().map(|(&id, r)| (id, r.cap)).collect();
            let want = water_fill(self.capacities[0], &caps);
            assert_eq!(got, want, "at {:?}", self.fabric.now());
            return;
        }
        let want = progressive_fill(&self.capacities, &self.open);
        assert_eq!(got.len(), want.len());
        for (&(id, r), &(wid, w)) in got.iter().zip(&want) {
            assert_eq!(id, wid);
            assert!(
                (r - w).abs() <= 1e-9 * w.abs().max(1.0),
                "flow {id:?} at {:?}: {r} vs oracle {w}",
                self.fabric.now()
            );
        }
        for (l, &cap) in self.capacities.iter().enumerate() {
            let load: f64 = got
                .iter()
                .filter(|(id, _)| self.open[id].path.contains(&l))
                .map(|(_, r)| r)
                .sum();
            assert!(
                load <= cap * (1.0 + 1e-12),
                "link {l} over capacity: {load} > {cap}"
            );
        }
    }

    /// Drain everything, then check that every flow delivered its bytes
    /// (to within the tick a drain instant is rounded up by) and that
    /// every link carried the sum of its flows' sizes.
    pub fn drain_and_check_bytes(&mut self) {
        while let Some(next) = self.fabric.next_completion() {
            self.advance_to(next);
        }
        for (id, (route, size, delivered)) in &self.all {
            // The last step overshoots by at most one tick at the cap.
            assert!(
                (delivered - size).abs() <= route.cap * 1e-9 + 1e-3,
                "flow {id:?} delivered {delivered} of {size}"
            );
        }
        for (l, &link) in self.links.iter().enumerate() {
            let routed: u64 = self
                .all
                .values()
                .filter(|(route, _, _)| route.path.contains(&l))
                .map(|(_, size, _)| *size as u64)
                .sum();
            assert_eq!(
                self.fabric.bytes_carried(link),
                Bytes::new(routed),
                "link {l}"
            );
        }
    }
}
