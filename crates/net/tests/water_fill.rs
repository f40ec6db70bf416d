//! The fabric's cached progressive fill against the oracles, over
//! seeded random arrivals and every drain after them: the partition
//! water-fill on one link (exact), and textbook progressive filling on
//! many.

mod oracle;

use ninja_sim::{Bandwidth, Bytes, SimDuration, SimRng, SimTime};
use oracle::CheckedFabric;

#[test]
fn cached_rates_match_partition_water_fill() {
    let mut rng = SimRng::new(0xfa12_0001);
    for _ in 0..50 {
        let gbps = 1.0 + rng.uniform() * 39.0;
        let mut fabric = CheckedFabric::new(&[Bandwidth::from_gbps(gbps)]);
        let n = 2 + (rng.next_u64() % 24) as usize;
        let mut at = SimTime::ZERO;
        for _ in 0..n {
            at += SimDuration::from_secs_f64(rng.uniform() * 3.0);
            let bytes = Bytes::new(1 + rng.next_u64() % (4 << 30));
            let cap = rng
                .chance(0.7)
                .then(|| Bandwidth::from_gbps(0.1 + rng.uniform() * gbps));
            fabric.open(at, bytes, &[0], cap);
        }
        while let Some(next) = fabric.fabric.next_completion() {
            fabric.advance_to(next);
        }
    }
}

/// Random fabrics of two to six links: each flow crosses up to four
/// distinct links (a pathless one is a capped loopback).
#[test]
fn multi_link_rates_match_progressive_filling() {
    let mut rng = SimRng::new(0xfa12_0002);
    for _ in 0..50 {
        let links = 2 + (rng.next_u64() % 5) as usize;
        let capacities: Vec<Bandwidth> = (0..links)
            .map(|_| Bandwidth::from_gbps(0.5 + rng.uniform() * 20.0))
            .collect();
        let mut fabric = CheckedFabric::new(&capacities);
        let n = 2 + (rng.next_u64() % 24) as usize;
        let mut at = SimTime::ZERO;
        for _ in 0..n {
            at += SimDuration::from_secs_f64(rng.uniform() * 3.0);
            let bytes = Bytes::new(1 + rng.next_u64() % (4 << 30));
            let mut path: Vec<usize> = Vec::new();
            for _ in 0..rng.next_u64() % 5 {
                let l = (rng.next_u64() % links as u64) as usize;
                if !path.contains(&l) {
                    path.push(l);
                }
            }
            let cap = (path.is_empty() || rng.chance(0.5))
                .then(|| Bandwidth::from_gbps(0.1 + rng.uniform() * 10.0));
            fabric.open(at, bytes, &path, cap);
        }
        fabric.drain_and_check_bytes();
    }
}

/// Many senders at one cap funneled through shared ports and an uplink
/// (the fleet's shape): ties everywhere, and every level binds.
#[test]
fn funnels_match_progressive_filling() {
    let mut rng = SimRng::new(0xfa12_0003);
    for _ in 0..20 {
        // Links 0..8 are ports, link 8 the uplink.
        let mut capacities = vec![Bandwidth::from_gbps(1.3); 8];
        capacities.push(Bandwidth::from_gbps(1.0 + rng.uniform() * 12.0));
        let mut fabric = CheckedFabric::new(&capacities);
        let mut at = SimTime::ZERO;
        for _ in 0..12 {
            at += SimDuration::from_secs_f64(rng.uniform());
            let src = (rng.next_u64() % 8) as usize;
            let dst = (rng.next_u64() % 8) as usize;
            let bytes = Bytes::from_mib(1 + rng.next_u64() % 4096);
            let cap = Some(Bandwidth::from_gbps(1.3));
            if src == dst {
                fabric.open(at, bytes, &[], cap);
            } else {
                fabric.open(at, bytes, &[src, dst, 8], cap);
            }
        }
        fabric.drain_and_check_bytes();
    }
}

/// Links of a few bits/s shared by uncapped flows of a few bytes:
/// exact ties between links are common, and so are remainders (10 b/s
/// over six flows), so the remainder rule meets links it could overload.
#[test]
fn tied_links_match_progressive_filling() {
    let mut rng = SimRng::new(0xfa12_0004);
    for _ in 0..200 {
        let links = 2 + (rng.next_u64() % 2) as usize;
        let capacities: Vec<Bandwidth> = (0..links)
            .map(|_| Bandwidth::from_gbps((1 + rng.next_u64() % 12) as f64 * 1e-9))
            .collect();
        let mut fabric = CheckedFabric::new(&capacities);
        let mut at = SimTime::ZERO;
        for _ in 0..2 + rng.next_u64() % 16 {
            at += SimDuration::from_secs(rng.next_u64() % 4);
            let bytes = Bytes::new(1 + rng.next_u64() % 8);
            let mut path = vec![(rng.next_u64() % links as u64) as usize];
            let other = (rng.next_u64() % links as u64) as usize;
            if !path.contains(&other) {
                path.push(other);
            }
            fabric.open(at, bytes, &path, None);
        }
        fabric.drain_and_check_bytes();
    }
}
