//! The max-min water-fill as a plain partition algorithm, and a link
//! wrapper that checks `FairShareLink::current_rates` against it.

use ninja_net::{FairShareLink, FlowId};
use ninja_sim::{Bandwidth, Bytes, SimTime};
use std::collections::BTreeMap;

/// Max-min fair rates (bytes/sec) of flows with the given caps, in flow
/// id order: repeatedly give every flow capped at or below the equal
/// share its cap (subtracted from the budget in id order), until no
/// flow is; the rest split what is left.
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

/// A link whose rates must equal [`water_fill`]'s, bit for bit, after
/// every open and every advance (so at every drain).
pub struct CheckedLink {
    pub link: FairShareLink,
    /// Each open flow's cap, clamped to the link as `open` clamps it.
    caps: BTreeMap<FlowId, f64>,
}

impl CheckedLink {
    pub fn new(bandwidth: Bandwidth) -> Self {
        CheckedLink {
            link: FairShareLink::new(bandwidth),
            caps: BTreeMap::new(),
        }
    }

    pub fn open(&mut self, at: SimTime, bytes: Bytes, cap: Option<Bandwidth>) -> FlowId {
        let id = self.link.open(at, bytes, cap);
        let bw = self.link.bandwidth();
        self.caps
            .insert(id, cap.map_or(bw, |c| c.min(bw)).bytes_per_sec());
        self.check();
        id
    }

    pub fn advance_to(&mut self, t: SimTime) {
        self.link.advance_to(t);
        self.check();
    }

    fn check(&mut self) {
        let link = &self.link;
        self.caps.retain(|&id, _| link.completion(id).is_none());
        let want = water_fill(self.link.bandwidth().bytes_per_sec(), &self.caps);
        assert_eq!(self.link.current_rates(), want, "at {:?}", self.link.now());
    }
}
