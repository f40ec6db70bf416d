//! Property-based tests of the interconnect models.

mod oracle;

use ninja_net::{calib, models, CostModel, Fabric, IbFabric, IbHca, LinkFsm, LinkId, LinkState};
use ninja_sim::{Bandwidth, Bytes, SimDuration, SimRng, SimTime};
use oracle::CheckedFabric;
use proptest::prelude::*;

proptest! {
    /// A training port is never observed Active before its scheduled
    /// activation instant, and always at/after it.
    #[test]
    fn link_never_active_early(seed in any::<u64>(), start_ns in 0u64..1u64 << 40) {
        let mut fsm = LinkFsm::down();
        let mut rng = SimRng::new(seed);
        let start = SimTime::from_nanos(start_ns);
        let active_at = fsm.begin_training(start, &calib::infiniband_qdr(), &mut rng);
        prop_assert!(active_at >= start);
        let just_before = active_at - SimDuration::from_nanos(1);
        if just_before > start {
            prop_assert!(!fsm.is_active_at(just_before));
        }
        prop_assert!(fsm.is_active_at(active_at));
        prop_assert!(fsm.is_active_at(active_at + SimDuration::from_secs(1)));
    }

    /// Arbitrary interleavings of train/down operations keep the FSM
    /// consistent: after down it is Down; re-training while polling
    /// never reschedules.
    #[test]
    fn link_fsm_operation_sequences(ops in prop::collection::vec(any::<bool>(), 1..50), seed in any::<u64>()) {
        let mut fsm = LinkFsm::down();
        let mut rng = SimRng::new(seed);
        let mut now = SimTime::ZERO;
        let mut pending: Option<SimTime> = None;
        for &train in &ops {
            now += SimDuration::from_secs(1);
            if train {
                let at = fsm.begin_training(now, &calib::infiniband_qdr(), &mut rng);
                if let Some(p) = pending {
                    if p > now {
                        prop_assert_eq!(at, p, "re-training keeps the schedule");
                    }
                }
                pending = Some(at);
            } else {
                fsm.take_down();
                pending = None;
                prop_assert_eq!(fsm.state_at(now), LinkState::Down);
            }
        }
    }

    /// Message cost is monotone in size and contention, bounded below
    /// by latency, and IB dominates TCP everywhere.
    #[test]
    fn cost_model_orderings(kib in 1u64..1_000_000, contention in 1.0f64..8.0) {
        let ib = models::openib();
        let tcp = models::tcp();
        let b = Bytes::from_kib(kib);
        let bigger = Bytes::from_kib(kib * 2);
        for m in [&ib, &tcp] {
            let t = m.message(b, contention).elapsed;
            prop_assert!(t >= m.latency());
            prop_assert!(m.message(bigger, contention).elapsed >= t);
            prop_assert!(m.message(b, contention + 1.0).elapsed >= t);
        }
        prop_assert!(ib.message(b, contention).elapsed <= tcp.message(b, contention).elapsed);
    }

    /// LIDs are unique across any allocation sequence, and QPNs are
    /// unique per fabric.
    #[test]
    fn fabric_identifiers_unique(n in 1usize..500) {
        let mut fabric = IbFabric::new("f");
        let mut lids = std::collections::HashSet::new();
        let mut qpns = std::collections::HashSet::new();
        for _ in 0..n {
            prop_assert!(lids.insert(fabric.assign_lid().unwrap()));
            prop_assert!(qpns.insert(fabric.assign_qpn()));
        }
    }

    /// MR pinning accounting balances for any register/deregister
    /// sequence.
    #[test]
    fn mr_accounting_balances(sizes in prop::collection::vec(1u64..1u64 << 30, 1..50)) {
        let mut fabric = IbFabric::new("f");
        let mut rng = SimRng::new(7);
        let mut hca = IbHca::new(1);
        hca.plug_into(&mut fabric, SimTime::ZERO, &calib::infiniband_qdr(), &mut rng).unwrap();
        let mut keys = Vec::new();
        let mut expect = 0u64;
        for &s in &sizes {
            keys.push(hca.register_mr(Bytes::new(s)));
            expect += s;
        }
        prop_assert_eq!(hca.pinned_bytes(), Bytes::new(expect));
        for (k, &s) in keys.into_iter().zip(&sizes) {
            hca.deregister_mr(k).unwrap();
            expect -= s;
            prop_assert_eq!(hca.pinned_bytes(), Bytes::new(expect));
        }
        prop_assert!(!hca.has_resources());
    }

    /// On one link, the fabric's fill assigns exactly the partition
    /// algorithm's max-min rates across arbitrary open/advance
    /// interleavings.
    #[test]
    fn fair_share_water_fill_matches_partition(
        events in prop::collection::vec(
            (any::<bool>(), 1u64..4u64 << 30, 0u64..64, 1u64..5_000_000_000),
            1..60,
        ),
        gbps in 0.5f64..40.0,
    ) {
        let mut link = CheckedFabric::new(&[Bandwidth::from_gbps(gbps)]);
        let mut now = SimTime::ZERO;
        for &(open, bytes, cap_dgbps, advance_ns) in &events {
            if open {
                // cap 0 means uncapped; otherwise tenths of a Gb/s, so
                // caps land both below and above the link rate.
                let cap = (cap_dgbps > 0).then(|| Bandwidth::from_gbps(cap_dgbps as f64 / 10.0));
                link.open(now, Bytes::new(bytes), &[0], cap);
            } else {
                now += SimDuration::from_nanos(advance_ns);
                link.advance_to(now);
            }
        }
    }

    /// On many links, the fabric's fill matches progressive filling
    /// across arbitrary open/advance interleavings, and every link
    /// carries exactly the bytes of the flows routed over it.
    #[test]
    fn fabric_fill_matches_progressive_filling(
        events in prop::collection::vec(
            (any::<bool>(), 1u64..4u64 << 30, 1u64..64, 0u8..16, 1u64..5_000_000_000),
            1..60,
        ),
        gbps in prop::collection::vec(0.5f64..40.0, 4),
    ) {
        let capacities: Vec<Bandwidth> = gbps.iter().map(|&g| Bandwidth::from_gbps(g)).collect();
        let mut fabric = CheckedFabric::new(&capacities);
        let mut now = SimTime::ZERO;
        for &(open, bytes, cap_dgbps, links, advance_ns) in &events {
            if open {
                // Bit l of `links` routes the flow over link l; no bit
                // is a capped loopback.
                let path: Vec<usize> = (0..4).filter(|l| links & (1 << l) != 0).collect();
                let cap = Some(Bandwidth::from_gbps(cap_dgbps as f64 / 10.0));
                fabric.open(now, Bytes::new(bytes), &path, cap);
            } else {
                now += SimDuration::from_nanos(advance_ns);
                fabric.advance_to(now);
            }
        }
        fabric.drain_and_check_bytes();
    }

    /// Where an advance stops changes nothing: on random multi-link
    /// fabrics of capped flows opened at random instants, stopping at
    /// random instants on the way to the last leaves every completion,
    /// and the next predicted one, exactly where advancing straight to
    /// it does.
    #[test]
    fn split_advances_change_nothing(
        flows in prop::collection::vec(
            (1u64..4u64 << 30, 1u64..64, 0u8..16, 0u64..2_000_000_000),
            2..12,
        ),
        gbps in prop::collection::vec(0.5f64..40.0, 4),
        stops in prop::collection::vec(1u64..60_000_000_000, 1..6),
    ) {
        let mut fabric = Fabric::new();
        let links: Vec<LinkId> = gbps.iter().map(|&g| fabric.add_link(Bandwidth::from_gbps(g))).collect();
        let mut ids = Vec::new();
        let mut now = SimTime::ZERO;
        for &(bytes, cap_dgbps, mask, gap_ns) in &flows {
            now += SimDuration::from_nanos(gap_ns);
            fabric.advance_to(now);
            // Bit l of `mask` routes the flow over link l; no bit is a
            // loopback.
            let path: Vec<LinkId> = (0..4).filter(|l| mask & (1 << l) != 0).map(|l| links[l]).collect();
            let cap = Some(Bandwidth::from_gbps(cap_dgbps as f64 / 10.0));
            ids.push(fabric.open(Bytes::new(bytes), &path, cap));
        }
        let mut stops: Vec<SimTime> = stops.iter().map(|&ns| now + SimDuration::from_nanos(ns)).collect();
        stops.sort_unstable();
        let mut split = fabric.clone();
        for &t in &stops {
            split.advance_to(t);
        }
        fabric.advance_to(*stops.last().expect("one stop"));
        for &id in &ids {
            prop_assert_eq!(split.completion(id), fabric.completion(id), "flow {:?}", id);
        }
        prop_assert_eq!(split.next_completion(), fabric.next_completion());
    }
}

/// Non-proptest sanity: the CostModel struct-update clone used by the
/// collectives layer preserves the other calibration fields.
#[test]
fn derated_model_preserves_latency() {
    let m = models::tcp();
    let derated = CostModel::new(
        m.kind(),
        ninja_net::TransportCalib {
            bandwidth: m.bandwidth().scale(0.5),
            ..m.calib().clone()
        },
    );
    assert_eq!(derated.latency(), m.latency());
    assert!(derated.bandwidth() < m.bandwidth());
}
