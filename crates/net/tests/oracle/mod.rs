//! Integer max-min oracles for the fabric's fill: the single-link
//! water-fill as a plain partition algorithm, multi-link progressive
//! filling as a plain transcription of the fabric's rounds (every share
//! recomputed from scratch each round, over every link), and a fabric
//! wrapper that checks `Fabric::current_rates` against them with
//! `assert_eq!` after every open and at every drain. It also integrates
//! the rates to check that every flow drains at the first nanosecond its
//! work is done, that no link ever carries more than its capacity, and
//! that every link carries exactly the bytes of the flows routed over
//! it.

#![allow(dead_code)] // Each test target uses part of the module.

use ninja_net::{Fabric, FlowId, LinkId};
use ninja_sim::units::transfer_work;
use ninja_sim::{Bandwidth, Bytes, SimTime};
use std::collections::BTreeMap;

/// Max-min fair rates (bits/s) of flows with the given caps on one link
/// of `bandwidth` bits/s, in flow id order: repeatedly give every flow
/// capped at or below the rounded-down equal share its cap, until no
/// flow is; the rest split what is left, and its remainder goes one
/// bit/s each to the lowest ids.
pub fn water_fill(bandwidth: u64, caps: &BTreeMap<FlowId, u64>) -> Vec<(FlowId, u64)> {
    let mut rates = BTreeMap::new();
    let mut unsatisfied: Vec<FlowId> = caps.keys().copied().collect();
    let mut budget = bandwidth;
    while !unsatisfied.is_empty() {
        let n = unsatisfied.len() as u64;
        let share = budget / n;
        let (capped, free): (Vec<FlowId>, Vec<FlowId>) =
            unsatisfied.iter().partition(|id| caps[id] <= share);
        if capped.is_empty() {
            let extra = (budget % n) as usize;
            for (k, id) in free.into_iter().enumerate() {
                rates.insert(id, share + u64::from(k < extra));
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

/// One open flow: the link indices it crosses and its cap (bits/s).
#[derive(Clone)]
pub struct Route {
    pub path: Vec<usize>,
    pub cap: u64,
}

/// Max-min fair rates (bits/s) of flows over links of the given
/// capacities, in flow id order, round by round:
///
/// 1. every unfrozen flow whose cap is at most the smallest rounded-down
///    equal share (`budget / n`) along its path is frozen at its cap;
/// 2. if none is, the link with the smallest exact share (lowest index
///    on a tie) binds: its flows are frozen, in id order, at its
///    rounded-down share, plus one bit/s while the link has remainder
///    left and every link on the flow's path can still give each of its
///    unfrozen flows that share.
pub fn progressive_fill(capacities: &[u64], flows: &BTreeMap<FlowId, Route>) -> Vec<(FlowId, u64)> {
    let mut rates: BTreeMap<FlowId, u64> = BTreeMap::new();
    let mut unfrozen: Vec<FlowId> = flows.keys().copied().collect();
    // Budget and unfrozen count of link `l`.
    let state = |l: usize, rates: &BTreeMap<FlowId, u64>, unfrozen: &[FlowId]| {
        let crosses = |id: &FlowId| flows[id].path.contains(&l);
        let used: u64 = rates
            .iter()
            .filter(|(id, _)| crosses(id))
            .map(|(_, r)| r)
            .sum();
        let n = unfrozen.iter().filter(|id| crosses(id)).count() as u64;
        (capacities[l] - used, n)
    };
    while !unfrozen.is_empty() {
        let links: Vec<(u64, u64)> = (0..capacities.len())
            .map(|l| state(l, &rates, &unfrozen))
            .collect();
        let level = |f: &Route| {
            f.path
                .iter()
                .map(|&l| links[l].0 / links[l].1)
                .min()
                .unwrap_or(u64::MAX)
        };
        let capped: Vec<FlowId> = unfrozen
            .iter()
            .copied()
            .filter(|id| flows[id].cap <= level(&flows[id]))
            .collect();
        if !capped.is_empty() {
            for id in &capped {
                rates.insert(*id, flows[id].cap);
            }
            unfrozen.retain(|id| !capped.contains(id));
            continue;
        }
        let bottleneck = (0..capacities.len())
            .filter(|&l| links[l].1 > 0)
            .min_by(|&a, &b| {
                let ((ba, na), (bb, nb)) = (links[a], links[b]);
                (u128::from(ba) * u128::from(nb)).cmp(&(u128::from(bb) * u128::from(na)))
            })
            .expect("an unfrozen flow crosses a link");
        let level = links[bottleneck].0 / links[bottleneck].1;
        for id in unfrozen.clone() {
            if !flows[&id].path.contains(&bottleneck) {
                continue;
            }
            let spare = flows[&id].path.iter().all(|&l| {
                let (budget, n) = state(l, &rates, &unfrozen);
                budget > n * level
            });
            rates.insert(id, level + u64::from(spare));
            unfrozen.retain(|&u| u != id);
        }
    }
    rates.into_iter().collect()
}

/// A fabric whose rates must equal the oracles' after every open and
/// every drain: [`water_fill`] while every flow crosses one single link,
/// [`progressive_fill`] otherwise.
pub struct CheckedFabric {
    pub fabric: Fabric,
    links: Vec<LinkId>,
    capacities: Vec<u64>,
    /// Each open flow's route, its cap clamped as `open` clamps it.
    open: BTreeMap<FlowId, Route>,
    /// Every flow's route, work (bits × 10⁹) and work done so far (the
    /// integral of its rate).
    all: BTreeMap<FlowId, (Route, u128, u128)>,
}

impl CheckedFabric {
    pub fn new(capacities: &[Bandwidth]) -> Self {
        let mut fabric = Fabric::new();
        let links = capacities.iter().map(|&c| fabric.add_link(c)).collect();
        CheckedFabric {
            fabric,
            links,
            capacities: capacities.iter().map(|c| c.bits_per_sec()).collect(),
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
            .fold(cap.map_or(u64::MAX, Bandwidth::bits_per_sec), u64::min);
        let route = Route {
            path: path.to_vec(),
            cap,
        };
        self.open.insert(id, route.clone());
        self.all.insert(id, (route, transfer_work(bytes), 0));
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
            let dt = u128::from(until.since(self.fabric.now()).as_nanos());
            let rates = self.fabric.current_rates();
            self.fabric.advance_to(until);
            for (id, r) in rates {
                let (_, work, done) = self.all.get_mut(&id).expect("opened");
                let r = u128::from(r);
                // A flow drains at the first nanosecond its work is done.
                let drained = self.fabric.completion(id).is_some();
                assert_eq!(*done + r * dt >= *work, drained, "flow {id:?} at {until:?}");
                if drained {
                    assert!(*done + r * (dt - 1) < *work, "flow {id:?} drained late");
                }
                *done = (*done + r * dt).min(*work);
            }
            self.check();
        }
    }

    fn check(&mut self) {
        let fabric = &self.fabric;
        self.open.retain(|&id, _| fabric.completion(id).is_none());
        let got = self.fabric.current_rates();
        let single = self.capacities.len() == 1 && self.open.values().all(|r| r.path == [0]);
        let want = if single {
            let caps = self.open.iter().map(|(&id, r)| (id, r.cap)).collect();
            water_fill(self.capacities[0], &caps)
        } else {
            progressive_fill(&self.capacities, &self.open)
        };
        assert_eq!(got, want, "at {:?}", self.fabric.now());
        for (l, &cap) in self.capacities.iter().enumerate() {
            let load: u128 = got
                .iter()
                .filter(|(id, _)| self.open[id].path.contains(&l))
                .map(|&(_, r)| u128::from(r))
                .sum();
            assert!(
                load <= u128::from(cap),
                "link {l} over capacity: {load} > {cap}"
            );
        }
    }

    /// Drain everything, then check that every flow did exactly its work
    /// and that every link carried the sum of its flows' sizes.
    pub fn drain_and_check_bytes(&mut self) {
        while let Some(next) = self.fabric.next_completion() {
            self.advance_to(next);
        }
        for (id, (_, work, done)) in &self.all {
            assert_eq!(done, work, "flow {id:?}");
        }
        for (l, &link) in self.links.iter().enumerate() {
            let routed: u128 = self
                .all
                .values()
                .filter(|(route, _, _)| route.path.contains(&l))
                .map(|(_, work, _)| work)
                .sum();
            assert_eq!(
                transfer_work(self.fabric.bytes_carried(link)),
                routed,
                "link {l}"
            );
        }
    }
}
