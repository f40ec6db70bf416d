//! The Byte Transfer Layer (BTL) framework.
//!
//! Open MPI's BTL provides "an interconnect agnostic abstraction, used
//! for MPI point-to-point messages on several types of networks"
//! (Section III-C). Each BTL component carries an **exclusivity**
//! parameter; for every peer pair the runtime picks the reachable
//! component with the highest exclusivity. The paper quotes the two that
//! matter: TCP = 100, InfiniBand (openib) = 1024 — which is the whole
//! transport-switching policy: if IB is reachable after a migration it
//! wins; otherwise MPI falls back to TCP.

use crate::layout::{JobLayout, Rank};
use ninja_cluster::DataCenter;
use ninja_net::{CostModel, Lid, QpNum, TransportKind};
use ninja_sim::SimTime;
use ninja_vmm::{VmId, VmPool};

/// Open MPI 1.6 default exclusivity values.
///
/// ```
/// use ninja_mpi::exclusivity;
/// use ninja_net::TransportKind;
/// // Section III-C: "that of TCP is 100; that of Infiniband is 1024."
/// assert_eq!(exclusivity(TransportKind::Tcp), 100);
/// assert_eq!(exclusivity(TransportKind::OpenIb), 1024);
/// ```
pub fn exclusivity(kind: TransportKind) -> u32 {
    match kind {
        TransportKind::SelfLoop => 64 * 1024,
        TransportKind::SharedMemory => 64 * 1024 - 1,
        TransportKind::OpenIb => 1024, // quoted in Section III-C
        TransportKind::Tcp => 100,     // quoted in Section III-C
    }
}

/// A BTL component known to the runtime.
#[derive(Debug, Clone)]
pub struct BtlComponent {
    /// The kind.
    pub kind: TransportKind,
    /// The exclusivity.
    pub exclusivity: u32,
    /// The cost.
    pub cost: CostModel,
}

impl BtlComponent {
    fn stock(kind: TransportKind) -> Self {
        let cost = match kind {
            TransportKind::OpenIb => ninja_net::models::openib(),
            TransportKind::Tcp => ninja_net::models::tcp(),
            TransportKind::SharedMemory | TransportKind::SelfLoop => ninja_net::models::sm(),
        };
        BtlComponent {
            kind,
            exclusivity: exclusivity(kind),
            cost,
        }
    }
}

/// The set of BTL components compiled into the runtime, optionally
/// restricted by the `--mca btl` parameter.
#[derive(Debug, Clone)]
pub struct BtlRegistry {
    /// Which of the stock components (`self`, `sm`, `openib`, `tcp`, in
    /// that order) are registered. A component is rendered from its
    /// kind when read, so a registry is one byte per kind and every
    /// runtime can hold its own.
    registered: [bool; 4],
}

/// The stock runtime's components, in its order.
const STOCK: [TransportKind; 4] = [
    TransportKind::SelfLoop,
    TransportKind::SharedMemory,
    TransportKind::OpenIb,
    TransportKind::Tcp,
];

impl Default for BtlRegistry {
    fn default() -> Self {
        BtlRegistry {
            registered: [true; 4],
        }
    }
}

impl BtlRegistry {
    /// Restrict to the listed kinds — models `--mca btl tcp,self,...`.
    pub fn restricted(kinds: &[TransportKind]) -> Self {
        BtlRegistry {
            registered: STOCK.map(|kind| kinds.contains(&kind)),
        }
    }

    /// Returns the contains.
    pub fn contains(&self, kind: TransportKind) -> bool {
        self.kinds().any(|k| k == kind)
    }

    /// The registered component of `kind`, if any.
    pub fn component(&self, kind: TransportKind) -> Option<BtlComponent> {
        self.contains(kind).then(|| BtlComponent::stock(kind))
    }

    /// Returns the kinds, in the stock order.
    pub fn kinds(&self) -> impl Iterator<Item = TransportKind> + '_ {
        STOCK
            .into_iter()
            .zip(self.registered)
            .filter_map(|(kind, on)| on.then_some(kind))
    }

    /// Select the BTL for a pair of ranks at `now`, following Open MPI's
    /// reachability + exclusivity rules:
    ///
    /// * same VM → `sm` (or `self` for the same process, which is not a
    ///   pair here);
    /// * across VMs: `openib` iff both VMs have an *active* IB port on
    ///   the same fabric (cluster), `tcp` iff both virtio NICs are up;
    /// * among reachable components, highest exclusivity wins.
    pub fn select(
        &self,
        layout: &JobLayout,
        a: Rank,
        b: Rank,
        pool: &VmPool,
        dc: &DataCenter,
        now: SimTime,
    ) -> Option<TransportKind> {
        assert_ne!(a, b, "no pairwise transport for a rank with itself");
        let va = layout.vm_of(a);
        let vb = layout.vm_of(b);
        if va == vb {
            return if self.contains(TransportKind::SharedMemory) {
                Some(TransportKind::SharedMemory)
            } else {
                None
            };
        }
        let ta = pool.available_transports(va, dc, now);
        let tb = pool.available_transports(vb, dc, now);
        let same_fabric = dc.cluster_of(pool.get(va).node) == dc.cluster_of(pool.get(vb).node);
        self.kinds()
            .filter(|&kind| match kind {
                TransportKind::OpenIb => {
                    same_fabric
                        && ta.contains(&TransportKind::OpenIb)
                        && tb.contains(&TransportKind::OpenIb)
                }
                TransportKind::Tcp => {
                    ta.contains(&TransportKind::Tcp) && tb.contains(&TransportKind::Tcp)
                }
                // Loopback/shared-memory never reach across VMs.
                TransportKind::SharedMemory | TransportKind::SelfLoop => false,
            })
            .max_by_key(|&kind| exclusivity(kind))
    }
}

/// The endpoint identity of one established connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// A pair of connected queue pairs; these identifiers change when
    /// connections are re-established after a migration.
    Ib {
        /// a.
        a: (Lid, QpNum),
        /// b.
        b: (Lid, QpNum),
    },
    /// A TCP connection (ephemeral ports).
    /// Documented item.
    /// Tcp.
    Tcp {
        /// Side a's ephemeral port.
        a_port: u16,
        /// Side b's ephemeral port.
        b_port: u16,
    },
    /// Shared-memory mapping.
    Sm,
}

/// An established BTL connection between two ranks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Connection {
    /// The kind.
    pub kind: TransportKind,
    /// The endpoint.
    pub endpoint: Endpoint,
    /// Reconstruction epoch this connection was built in.
    pub epoch: u32,
    /// HCA devices backing an IB connection (side a, side b), for
    /// validity checks after hotplug events.
    pub ib_devices: Option<(ninja_cluster::DeviceId, ninja_cluster::DeviceId)>,
    /// The VMs at each side.
    pub vms: (VmId, VmId),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exclusivity_ordering_matches_paper() {
        assert_eq!(exclusivity(TransportKind::Tcp), 100);
        assert_eq!(exclusivity(TransportKind::OpenIb), 1024);
        assert!(exclusivity(TransportKind::OpenIb) > exclusivity(TransportKind::Tcp));
        assert!(exclusivity(TransportKind::SharedMemory) > exclusivity(TransportKind::OpenIb));
        assert!(exclusivity(TransportKind::SelfLoop) > exclusivity(TransportKind::SharedMemory));
    }

    #[test]
    fn restricted_registry_drops_components() {
        let reg = BtlRegistry::restricted(&[TransportKind::Tcp, TransportKind::SelfLoop]);
        assert!(reg.contains(TransportKind::Tcp));
        assert!(!reg.contains(TransportKind::OpenIb));
        assert!(!reg.contains(TransportKind::SharedMemory));
    }

    #[test]
    fn default_registry_has_all_four() {
        let reg = BtlRegistry::default();
        assert_eq!(reg.kinds().count(), 4);
    }
}
