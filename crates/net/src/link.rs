//! Link-state machine.
//!
//! [`LinkFsm`] models the port training behaviour the paper measures: an
//! InfiniBand port that has just been hot-plugged stays in POLLING for
//! about 30 seconds before going ACTIVE (Table II / Section V), while an
//! Ethernet virtio NIC is usable immediately.

use crate::calib::TransportCalib;
use ninja_sim::{SimDuration, SimRng, SimTime};

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
}
