//! Ethernet NIC model.
//!
//! Two flavours appear in the paper's testbed: the physical Broadcom
//! 10 GbE NIC on the host, and the para-virtualized `virtio_net` device
//! the VMs use on the Ethernet cluster. Both have effectively zero
//! link-up time from the guest's perspective (Table II reports 0.00 s),
//! in contrast to InfiniBand's ~30 s training.

use crate::link::LinkFsm;
use ninja_sim::SimTime;

/// The kind of Ethernet device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EthKind {
    /// Para-virtualized virtio-net (guest side on the Ethernet cluster).
    Virtio,
    /// A physical NIC (host side / passthrough).
    Physical,
}

/// An Ethernet NIC (possibly virtio).
#[derive(Debug, Clone)]
pub struct EthNic {
    kind: EthKind,
    mac: u64,
    link: LinkFsm,
}

impl EthNic {
    /// A NIC that was present at boot and is already up.
    pub fn up(kind: EthKind, mac: u64) -> Self {
        EthNic {
            kind,
            mac,
            link: LinkFsm::active(),
        }
    }

    /// The kind.
    pub fn kind(&self) -> EthKind {
        self.kind
    }

    /// Returns the mac.
    pub fn mac(&self) -> u64 {
        self.mac
    }

    /// Unplug the device.
    pub fn unplug(&mut self) {
        self.link.take_down();
    }

    /// Whether this is active at.
    pub fn is_active_at(&self, now: SimTime) -> bool {
        self.link.is_active_at(now)
    }

    /// Returns the link.
    pub fn link(&self) -> &LinkFsm {
        &self.link
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ninja_sim::SimDuration;

    fn t(s: f64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs_f64(s)
    }

    #[test]
    fn unplug_takes_link_down() {
        let mut nic = EthNic::up(EthKind::Virtio, 1);
        assert!(nic.is_active_at(t(0.0)));
        nic.unplug();
        assert!(!nic.is_active_at(t(0.0)));
    }

    #[test]
    fn identity_preserved() {
        let nic = EthNic::up(EthKind::Physical, 0xabc);
        assert_eq!(nic.mac(), 0xabc);
        assert_eq!(nic.kind(), EthKind::Physical);
    }
}
