//! Link-state machine and shared-link contention.
//!
//! [`LinkFsm`] models the port training behaviour the paper measures: an
//! InfiniBand port that has just been hot-plugged stays in POLLING for
//! about 30 seconds before going ACTIVE (Table II / Section V), while an
//! Ethernet virtio NIC is usable immediately.
//!
//! [`SharedLink`] models serialization on a link: concurrent transfers
//! queue, so simultaneous migrations over one uplink stretch each other
//! out (the paper's Section V scalability discussion).

use crate::calib::TransportCalib;
use ninja_sim::{Bandwidth, Bytes, SimDuration, SimRng, SimTime};

/// Observable state of a network port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkState {
    /// No device present / administratively down.
    Down,
    /// Physical layer present but training (IB "polling"). The payload is
    /// the time at which the port becomes active.
    /// Polling.
    Polling {
        /// When training completes and the port goes active.
        active_at: SimTime,
    },
    /// Fully usable.
    Active,
}

/// Port link-training state machine.
#[derive(Debug, Clone)]
pub struct LinkFsm {
    state: LinkState,
}

impl LinkFsm {
    /// A port with no device attached.
    pub fn down() -> Self {
        LinkFsm {
            state: LinkState::Down,
        }
    }

    /// A port that is already trained (e.g. a device that was present at
    /// boot).
    pub fn active() -> Self {
        LinkFsm {
            state: LinkState::Active,
        }
    }

    /// Begin link training at `now`, sampling the training duration from
    /// the transport calibration. Returns the instant the link will be
    /// active. Training an already-active link is idempotent and free.
    pub fn begin_training(
        &mut self,
        now: SimTime,
        calib: &TransportCalib,
        rng: &mut SimRng,
    ) -> SimTime {
        // Resolve a training period that has already elapsed.
        if let LinkState::Polling { active_at } = self.state {
            if now >= active_at {
                self.state = LinkState::Active;
            }
        }
        match self.state {
            LinkState::Active => now,
            LinkState::Polling { active_at } => active_at,
            LinkState::Down => {
                let dur = if calib.linkup_mean.is_zero() {
                    SimDuration::ZERO
                } else {
                    calib.linkup_mean.mul_f64(rng.jitter(calib.linkup_jitter))
                };
                let active_at = now + dur;
                self.state = if dur.is_zero() {
                    LinkState::Active
                } else {
                    LinkState::Polling { active_at }
                };
                active_at
            }
        }
    }

    /// Take the port down (device detached).
    pub fn take_down(&mut self) {
        self.state = LinkState::Down;
    }

    /// The state as observed at `now`. A polling port whose training has
    /// completed reads as Active.
    pub fn state_at(&self, now: SimTime) -> LinkState {
        match self.state {
            LinkState::Polling { active_at } if now >= active_at => LinkState::Active,
            s => s,
        }
    }

    /// Is the port usable at `now`?
    pub fn is_active_at(&self, now: SimTime) -> bool {
        self.state_at(now) == LinkState::Active
    }

    /// If polling, when will it be active?
    pub fn active_at(&self) -> Option<SimTime> {
        match self.state {
            LinkState::Polling { active_at } => Some(active_at),
            LinkState::Active => None,
            LinkState::Down => None,
        }
    }
}

/// A reservation returned by [`SharedLink::reserve`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reservation {
    /// When the transfer begins (after queued predecessors drain).
    pub start: SimTime,
    /// When the last byte is on the wire.
    pub end: SimTime,
}

impl Reservation {
    /// Total time from request to completion.
    pub fn total(&self, requested_at: SimTime) -> SimDuration {
        self.end.since(requested_at)
    }
}

/// A serializing link: transfers occupy the link one at a time in request
/// order. This is intentionally the simplest contention model that makes
/// concurrent bulk transfers (e.g. 8 simultaneous VM migrations through
/// one switch uplink) interact.
#[derive(Debug, Clone)]
pub struct SharedLink {
    bandwidth: Bandwidth,
    busy_until: SimTime,
    bytes_carried: Bytes,
}

impl SharedLink {
    /// Creates a new instance.
    pub fn new(bandwidth: Bandwidth) -> Self {
        SharedLink {
            bandwidth,
            busy_until: SimTime::ZERO,
            bytes_carried: Bytes::ZERO,
        }
    }

    /// Returns the bandwidth.
    pub fn bandwidth(&self) -> Bandwidth {
        self.bandwidth
    }

    /// Total bytes ever reserved through this link.
    pub fn bytes_carried(&self) -> Bytes {
        self.bytes_carried
    }

    /// When the link next becomes free.
    pub fn busy_until(&self) -> SimTime {
        self.busy_until
    }

    /// Reserve the link for a `bytes`-sized transfer requested at `now`,
    /// optionally capped to `sender_rate` (e.g. the CPU-bound 1.3 Gb/s
    /// migration sender). Returns when the transfer starts and ends.
    pub fn reserve(
        &mut self,
        now: SimTime,
        bytes: Bytes,
        sender_rate: Option<Bandwidth>,
    ) -> Reservation {
        let start = now.max(self.busy_until);
        let rate = match sender_rate {
            Some(r) => r.min(self.bandwidth),
            None => self.bandwidth,
        };
        let end = start + rate.transfer_time(bytes);
        self.busy_until = end;
        self.bytes_carried += bytes;
        Reservation { start, end }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calib;

    fn t(s: f64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs_f64(s)
    }

    #[test]
    fn down_port_is_not_active() {
        let fsm = LinkFsm::down();
        assert_eq!(fsm.state_at(t(100.0)), LinkState::Down);
        assert!(!fsm.is_active_at(t(100.0)));
    }

    #[test]
    fn ib_training_takes_about_30s() {
        let mut fsm = LinkFsm::down();
        let mut rng = SimRng::new(1);
        let cal = calib::infiniband_qdr();
        let active_at = fsm.begin_training(t(10.0), &cal, &mut rng);
        let dur = active_at.since(t(10.0)).as_secs_f64();
        assert!((29.6..30.0).contains(&dur), "training {dur}");
        assert!(!fsm.is_active_at(t(10.0)));
        assert!(!fsm.is_active_at(t(30.0)));
        assert!(fsm.is_active_at(active_at));
    }

    #[test]
    fn eth_training_is_instant() {
        let mut fsm = LinkFsm::down();
        let mut rng = SimRng::new(2);
        let cal = calib::tcp_virtio_10gbe();
        let active_at = fsm.begin_training(t(5.0), &cal, &mut rng);
        assert_eq!(active_at, t(5.0));
        assert!(fsm.is_active_at(t(5.0)));
    }

    #[test]
    fn training_is_idempotent() {
        let mut fsm = LinkFsm::down();
        let mut rng = SimRng::new(3);
        let cal = calib::infiniband_qdr();
        let first = fsm.begin_training(t(0.0), &cal, &mut rng);
        let second = fsm.begin_training(t(1.0), &cal, &mut rng);
        assert_eq!(first, second, "re-training while polling keeps schedule");
        // Once active, training is free.
        let third = fsm.begin_training(first + SimDuration::from_secs(1), &cal, &mut rng);
        assert_eq!(third, first + SimDuration::from_secs(1));
    }

    #[test]
    fn take_down_resets() {
        let mut fsm = LinkFsm::active();
        fsm.take_down();
        assert_eq!(fsm.state_at(t(0.0)), LinkState::Down);
    }

    #[test]
    fn shared_link_serializes() {
        let mut link = SharedLink::new(Bandwidth::from_gbps(8.0));
        // 1 GiB at 8 Gb/s = 2^30 bytes * 8 bits / 8e9 = ~1.0737 s
        let r1 = link.reserve(t(0.0), Bytes::from_gib(1), None);
        let r2 = link.reserve(t(0.0), Bytes::from_gib(1), None);
        assert_eq!(r1.start, t(0.0));
        assert_eq!(r2.start, r1.end, "second transfer queues behind first");
        let d1 = r1.end.since(r1.start).as_secs_f64();
        assert!((d1 - 1.0737).abs() < 0.01, "{d1}");
    }

    #[test]
    fn sender_rate_caps_throughput() {
        let mut link = SharedLink::new(Bandwidth::from_gbps(10.0));
        let r = link.reserve(t(0.0), Bytes::from_gib(1), Some(Bandwidth::from_gbps(1.3)));
        let d = r.end.since(r.start).as_secs_f64();
        let expect = (1u64 << 30) as f64 * 8.0 / 1.3e9;
        assert!((d - expect).abs() < 1e-6, "{d} vs {expect}");
    }

    #[test]
    fn link_idle_gap_not_billed() {
        let mut link = SharedLink::new(Bandwidth::from_gbps(8.0));
        let r1 = link.reserve(t(0.0), Bytes::from_mib(1), None);
        // Request long after the first completes: starts immediately.
        let r2 = link.reserve(t(100.0), Bytes::from_mib(1), None);
        assert!(r1.end < t(100.0));
        assert_eq!(r2.start, t(100.0));
    }

    #[test]
    fn bytes_accounting() {
        let mut link = SharedLink::new(Bandwidth::from_gbps(1.0));
        link.reserve(t(0.0), Bytes::from_mib(3), None);
        link.reserve(t(0.0), Bytes::from_mib(5), None);
        assert_eq!(link.bytes_carried(), Bytes::from_mib(8));
    }
}
