//! Data-center topology: clusters of nodes around interconnect fabrics.
//!
//! The paper's testbed (Table I) is one 16-blade enclosure logically split
//! into two 8-node virtualized clusters — one whose VMs use VMM-bypass
//! InfiniBand, one whose VMs use virtio-net over 10 GbE — with NFSv3
//! shared storage reachable from both. [`DataCenter::agc`] builds exactly
//! that; [`DataCenterBuilder`] builds arbitrary heterogeneous layouts.

use crate::calib::HotplugCalib;
use crate::hotplug::AcpiHotplug;
use crate::node::{Node, NodeId, NodeSpec};
use crate::pci::{ib_hca, Attachment, DeviceId, DeviceTable, PciAddr};
use crate::storage::{StorageId, StoragePool};
use ninja_net::{IbFabric, Reservation, SharedLink};
use ninja_sim::SimDuration;
use ninja_sim::{Bandwidth, Bytes, SimTime};
use std::collections::BTreeMap;
use std::fmt;

/// The interconnect technology of a cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FabricKind {
    /// QDR InfiniBand with VMM-bypass HCAs.
    Infiniband,
    /// 10 GbE with virtio-net in the guests.
    Ethernet,
}

impl fmt::Display for FabricKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FabricKind::Infiniband => write!(f, "infiniband"),
            FabricKind::Ethernet => write!(f, "ethernet"),
        }
    }
}

/// Identifier of a cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ClusterId(pub u32);

/// A homogeneous group of nodes sharing one interconnect.
#[derive(Debug)]
pub struct Cluster {
    /// The id.
    pub id: ClusterId,
    /// The name.
    pub name: String,
    /// The fabric.
    pub fabric: FabricKind,
    /// The nodes.
    pub nodes: Vec<NodeId>,
    /// The IB subnet manager state, present iff `fabric` is Infiniband.
    pub ib_fabric: Option<IbFabric>,
}

/// A wide-area link between two clusters (sites). The paper's future
/// work: "wide area migration of VMs for disaster recovery" (Section
/// VII). Inter-site transfers pay the link's propagation latency and
/// share its capacity: concurrent sender-capped streams multiplex onto
/// "lanes" (one lane per sender-rate's worth of capacity), so a 10 Gb/s
/// pipe carries several 1.3 Gb/s migrations in parallel while a 1 Gb/s
/// pipe serializes them.
#[derive(Debug)]
pub struct WanLink {
    bandwidth: Bandwidth,
    /// One-way propagation latency.
    pub latency: SimDuration,
    lanes: Vec<SharedLink>,
}

impl WanLink {
    fn new(bandwidth: Bandwidth, latency: SimDuration) -> Self {
        WanLink {
            bandwidth,
            latency,
            lanes: Vec::new(),
        }
    }

    /// Total pipe capacity.
    pub fn bandwidth(&self) -> Bandwidth {
        self.bandwidth
    }

    /// Reserve a `bytes` transfer at `now`, capped to `rate` per stream.
    /// Streams multiplex across lanes of `rate` each until the pipe is
    /// full, then queue on the earliest-free lane.
    pub fn reserve(&mut self, now: SimTime, bytes: Bytes, rate: Bandwidth) -> Reservation {
        let stream_rate = rate.min(self.bandwidth);
        let lane_count =
            ((self.bandwidth.as_gbps() / stream_rate.as_gbps()).floor() as usize).clamp(1, 64);
        if self.lanes.len() != lane_count {
            // (Re)provision lanes; existing occupancy is carried over
            // pessimistically by keeping the busiest lanes.
            self.lanes
                .resize_with(lane_count, || SharedLink::new(stream_rate));
        }
        let lane = self
            .lanes
            .iter_mut()
            .min_by_key(|l| l.busy_until())
            .expect("at least one lane");
        lane.reserve(now, bytes, Some(stream_rate))
    }
}

/// The whole simulated data center.
#[derive(Debug)]
pub struct DataCenter {
    clusters: Vec<Cluster>,
    nodes: Vec<Node>,
    /// All PCI devices (host pools + passthrough assignments).
    pub devices: DeviceTable,
    /// NFS exports.
    pub storage: StoragePool,
    /// Hotplug timing model.
    pub hotplug: AcpiHotplug,
    /// Wide-area links, keyed by unordered cluster pair. Absent entry =
    /// same-site connectivity (full LAN bandwidth, no extra latency).
    wan: BTreeMap<(u32, u32), WanLink>,
}

impl DataCenter {
    /// Build the paper's AGC testbed: 8 IB nodes + 8 Ethernet nodes,
    /// AGC blades, shared NFS storage mounted everywhere. Returns the
    /// data center and the (ib, eth) cluster ids.
    pub fn agc() -> (DataCenter, ClusterId, ClusterId) {
        let mut b = DataCenterBuilder::new();
        let ib = b.add_cluster("agc-ib", FabricKind::Infiniband, 8, NodeSpec::agc_blade());
        let eth = b.add_cluster("agc-eth", FabricKind::Ethernet, 8, NodeSpec::agc_blade());
        b.shared_storage("vm-images", &[ib, eth]);
        (b.build(), ib, eth)
    }

    /// Returns the cluster.
    pub fn cluster(&self, id: ClusterId) -> &Cluster {
        &self.clusters[id.0 as usize]
    }

    /// Returns the cluster mut.
    pub fn cluster_mut(&mut self, id: ClusterId) -> &mut Cluster {
        &mut self.clusters[id.0 as usize]
    }

    /// Returns the clusters.
    pub fn clusters(&self) -> impl Iterator<Item = &Cluster> {
        self.clusters.iter()
    }

    /// Returns the node.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0 as usize]
    }

    /// Returns the node mut.
    pub fn node_mut(&mut self, id: NodeId) -> &mut Node {
        &mut self.nodes[id.0 as usize]
    }

    /// Returns the nodes.
    pub fn nodes(&self) -> impl Iterator<Item = &Node> {
        self.nodes.iter()
    }

    /// Returns the node count.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The cluster a node belongs to.
    pub fn cluster_of(&self, node: NodeId) -> ClusterId {
        ClusterId(self.node(node).cluster)
    }

    /// The fabric kind at a node.
    pub fn fabric_at(&self, node: NodeId) -> FabricKind {
        self.cluster(self.cluster_of(node)).fabric
    }

    /// Mutable access to the IB subnet manager of the cluster containing
    /// `node`, if that cluster is InfiniBand.
    pub fn ib_fabric_at_mut(&mut self, node: NodeId) -> Option<&mut IbFabric> {
        let cid = self.cluster_of(node);
        self.clusters[cid.0 as usize].ib_fabric.as_mut()
    }

    /// Is `storage` reachable from the cluster containing `node`?
    pub fn storage_reachable(&self, storage: StorageId, node: NodeId) -> bool {
        self.storage
            .get(storage)
            .accessible_from(self.cluster_of(node).0)
    }

    /// Reserve the network path for a bulk migration transfer from `src`
    /// to `dst` at `now`: the transfer occupies both endpoints' Ethernet
    /// links (migration always travels over TCP/IP per Section V), capped
    /// by `sender_cap` (the CPU-bound QEMU sender, ~1.3 Gb/s).
    ///
    /// Concurrent migrations sharing an endpoint serialize on its link,
    /// which is what stretches simultaneous-migration scenarios.
    pub fn reserve_migration_path(
        &mut self,
        src: NodeId,
        dst: NodeId,
        bytes: Bytes,
        sender_cap: Option<Bandwidth>,
        now: SimTime,
    ) -> Reservation {
        if src == dst {
            // Self-migration loops through the loopback device: only the
            // sender cap applies, no NIC contention.
            let mut loopback =
                SharedLink::new(sender_cap.unwrap_or_else(|| Bandwidth::from_gbps(100.0)));
            return loopback.reserve(now, bytes, sender_cap);
        }
        let r_src = self.nodes[src.0 as usize]
            .eth_link
            .reserve(now, bytes, sender_cap);
        // The destination NIC must also carry the bytes; the transfer
        // completes when the later of the two is done.
        let r_dst =
            self.nodes[dst.0 as usize]
                .eth_link
                .reserve(r_src.start.max(now), bytes, sender_cap);
        let mut reservation = Reservation {
            start: r_src.start.max(r_dst.start),
            end: r_src.end.max(r_dst.end),
        };
        // Inter-site transfers additionally serialize on the WAN pipe
        // and pay its propagation latency.
        let (ca, cb) = (self.cluster_of(src).0, self.cluster_of(dst).0);
        if ca != cb {
            let key = if ca < cb { (ca, cb) } else { (cb, ca) };
            if let Some(wan) = self.wan.get_mut(&key) {
                let rate = sender_cap.unwrap_or_else(|| wan.bandwidth());
                let r_wan = wan.reserve(reservation.start, bytes, rate);
                reservation.end = reservation.end.max(r_wan.end) + wan.latency;
            }
        }
        reservation
    }

    /// Look up the WAN link between two clusters, if one is configured.
    pub fn wan_between(&self, a: ClusterId, b: ClusterId) -> Option<&WanLink> {
        let key = if a.0 < b.0 { (a.0, b.0) } else { (b.0, a.0) };
        self.wan.get(&key)
    }

    /// Host-pool IB HCA on a node, if any (for re-attach after recovery
    /// migration).
    pub fn free_ib_hca_on(&self, node: NodeId) -> Option<DeviceId> {
        self.devices
            .find_free_on_node(node.0, crate::pci::DeviceClass::IbHca)
    }

    /// Run `f` with simultaneous mutable access to a cluster's IB fabric
    /// (the subnet manager) and the device table — the borrow split needed
    /// when allocating fabric identifiers for a device (QP creation, port
    /// plugging). Returns `None` if the cluster has no IB fabric.
    pub fn with_ib_fabric<R>(
        &mut self,
        cluster: ClusterId,
        f: impl FnOnce(&mut IbFabric, &mut DeviceTable) -> R,
    ) -> Option<R> {
        let fabric = self.clusters[cluster.0 as usize].ib_fabric.as_mut()?;
        Some(f(fabric, &mut self.devices))
    }
}

/// Incremental builder for a [`DataCenter`].
#[derive(Debug, Default)]
pub struct DataCenterBuilder {
    clusters: Vec<Cluster>,
    nodes: Vec<Node>,
    devices: DeviceTable,
    storage: StoragePool,
    hotplug_calib: HotplugCalib,
    guid_counter: u64,
    wan: BTreeMap<(u32, u32), WanLink>,
}

impl DataCenterBuilder {
    /// Creates a new instance.
    pub fn new() -> Self {
        Self::default()
    }

    /// Override the hotplug calibration.
    pub fn hotplug_calib(&mut self, calib: HotplugCalib) -> &mut Self {
        self.hotplug_calib = calib;
        self
    }

    /// Add a cluster of `count` identical nodes. InfiniBand clusters get
    /// one host-pool HCA per node (the passthrough candidates).
    pub fn add_cluster(
        &mut self,
        name: impl Into<String>,
        fabric: FabricKind,
        count: usize,
        spec: NodeSpec,
    ) -> ClusterId {
        let cid = ClusterId(self.clusters.len() as u32);
        let name = name.into();
        let mut node_ids = Vec::with_capacity(count);
        for i in 0..count {
            let nid = NodeId(self.nodes.len() as u32);
            let hostname = format!("{name}-{i:02}");
            let node = Node::new(nid, hostname, spec.clone(), cid.0);
            if fabric == FabricKind::Infiniband {
                self.guid_counter += 1;
                self.devices.insert(
                    PciAddr::new(4, 0, 0),
                    format!("hca-{}", nid.0),
                    ib_hca(0x0002_c903_0000_0000 | self.guid_counter),
                    Attachment::Host { node: nid.0 },
                );
            }
            node_ids.push(nid);
            self.nodes.push(node);
        }
        self.clusters.push(Cluster {
            id: cid,
            name,
            fabric,
            nodes: node_ids,
            ib_fabric: match fabric {
                FabricKind::Infiniband => Some(IbFabric::new(format!("fabric-{}", cid.0))),
                FabricKind::Ethernet => None,
            },
        });
        cid
    }

    /// Connect two clusters over a wide-area link (disaster-recovery
    /// topologies). Inter-site migrations will be gated by this pipe.
    pub fn wan_link(
        &mut self,
        a: ClusterId,
        b: ClusterId,
        bandwidth: Bandwidth,
        latency: SimDuration,
    ) -> &mut Self {
        assert_ne!(a, b, "a WAN link connects distinct sites");
        let key = if a.0 < b.0 { (a.0, b.0) } else { (b.0, a.0) };
        self.wan.insert(key, WanLink::new(bandwidth, latency));
        self
    }

    /// Create an NFS export mounted on the given clusters.
    pub fn shared_storage(&mut self, name: impl Into<String>, clusters: &[ClusterId]) -> StorageId {
        let ids: Vec<u32> = clusters.iter().map(|c| c.0).collect();
        self.storage.create(name, &ids)
    }

    /// Returns the build.
    pub fn build(self) -> DataCenter {
        DataCenter {
            clusters: self.clusters,
            nodes: self.nodes,
            devices: self.devices,
            storage: self.storage,
            hotplug: AcpiHotplug::new(self.hotplug_calib),
            wan: self.wan,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ninja_sim::SimDuration;

    #[test]
    fn agc_testbed_shape() {
        let (dc, ib, eth) = DataCenter::agc();
        assert_eq!(dc.node_count(), 16);
        assert_eq!(dc.cluster(ib).nodes.len(), 8);
        assert_eq!(dc.cluster(eth).nodes.len(), 8);
        assert_eq!(dc.cluster(ib).fabric, FabricKind::Infiniband);
        assert_eq!(dc.cluster(eth).fabric, FabricKind::Ethernet);
        assert!(dc.cluster(ib).ib_fabric.is_some());
        assert!(dc.cluster(eth).ib_fabric.is_none());
    }

    #[test]
    fn ib_nodes_have_hcas_eth_nodes_do_not() {
        let (dc, ib, eth) = DataCenter::agc();
        for &n in &dc.cluster(ib).nodes {
            assert!(dc.free_ib_hca_on(n).is_some(), "IB node {n:?} has an HCA");
        }
        for &n in &dc.cluster(eth).nodes {
            assert!(dc.free_ib_hca_on(n).is_none(), "Eth node {n:?} has no HCA");
        }
    }

    #[test]
    fn storage_visible_from_both_clusters() {
        let (dc, ib, eth) = DataCenter::agc();
        let sid = StorageId(0);
        let ib_node = dc.cluster(ib).nodes[0];
        let eth_node = dc.cluster(eth).nodes[0];
        assert!(dc.storage_reachable(sid, ib_node));
        assert!(dc.storage_reachable(sid, eth_node));
    }

    #[test]
    fn migration_path_contends_on_shared_destination() {
        let (mut dc, ib, eth) = DataCenter::agc();
        let s1 = dc.cluster(ib).nodes[0];
        let s2 = dc.cluster(ib).nodes[1];
        let d = dc.cluster(eth).nodes[0];
        let cap = Some(Bandwidth::from_gbps(1.3));
        let now = SimTime::ZERO;
        let r1 = dc.reserve_migration_path(s1, d, Bytes::from_gib(2), cap, now);
        let r2 = dc.reserve_migration_path(s2, d, Bytes::from_gib(2), cap, now);
        assert!(r2.end > r1.end, "second migration to same dst queues");
    }

    #[test]
    fn self_migration_avoids_nic() {
        let (mut dc, ib, _) = DataCenter::agc();
        let n = dc.cluster(ib).nodes[0];
        let cap = Some(Bandwidth::from_gbps(1.3));
        let r = dc.reserve_migration_path(n, n, Bytes::from_gib(1), cap, SimTime::ZERO);
        let expect = (1u64 << 30) as f64 * 8.0 / 1.3e9;
        assert!((r.end.since(r.start).as_secs_f64() - expect).abs() < 1e-6);
        // NIC link untouched:
        assert_eq!(dc.node(n).eth_link.bytes_carried(), Bytes::ZERO);
    }

    #[test]
    fn fabric_lookup() {
        let (dc, ib, eth) = DataCenter::agc();
        assert_eq!(
            dc.fabric_at(dc.cluster(ib).nodes[3]),
            FabricKind::Infiniband
        );
        assert_eq!(dc.fabric_at(dc.cluster(eth).nodes[3]), FabricKind::Ethernet);
    }

    #[test]
    fn wan_link_gates_intersite_migration() {
        let mut b = DataCenterBuilder::new();
        let a = b.add_cluster("site-a", FabricKind::Infiniband, 2, NodeSpec::agc_blade());
        let c = b.add_cluster("site-b", FabricKind::Ethernet, 2, NodeSpec::agc_blade());
        b.shared_storage("geo-nfs", &[a, c]);
        b.wan_link(
            a,
            c,
            Bandwidth::from_gbps(1.0),
            SimDuration::from_millis(20),
        );
        let mut dc = b.build();
        let src = dc.cluster(a).nodes[0];
        let dst = dc.cluster(c).nodes[0];
        // 1 GiB over a 1 Gb/s WAN: ~8.6 s, even though NICs are 10 GbE
        // and the sender could do 1.3 Gb/s.
        let r = dc.reserve_migration_path(
            src,
            dst,
            Bytes::from_gib(1),
            Some(Bandwidth::from_gbps(1.3)),
            SimTime::ZERO,
        );
        let d = r.end.since(r.start).as_secs_f64();
        let expect = (1u64 << 30) as f64 * 8.0 / 1.0e9 + 0.020;
        assert!((d - expect).abs() < 0.05, "wan-gated: {d} vs {expect}");
        assert!(dc.wan_between(a, c).is_some());
        assert!(dc.wan_between(a, a).is_none());
    }

    #[test]
    fn intersite_without_wan_uses_lan_model() {
        let (mut dc, ib, eth) = DataCenter::agc();
        let src = dc.cluster(ib).nodes[0];
        let dst = dc.cluster(eth).nodes[0];
        let r = dc.reserve_migration_path(
            src,
            dst,
            Bytes::from_gib(1),
            Some(Bandwidth::from_gbps(1.3)),
            SimTime::ZERO,
        );
        let d = r.end.since(r.start).as_secs_f64();
        let expect = (1u64 << 30) as f64 * 8.0 / 1.3e9;
        assert!((d - expect).abs() < 1e-6, "lan: {d}");
    }

    #[test]
    fn concurrent_intersite_migrations_share_the_wan() {
        let mut b = DataCenterBuilder::new();
        let a = b.add_cluster("site-a", FabricKind::Infiniband, 2, NodeSpec::agc_blade());
        let c = b.add_cluster("site-b", FabricKind::Ethernet, 2, NodeSpec::agc_blade());
        b.wan_link(
            a,
            c,
            Bandwidth::from_gbps(1.0),
            SimDuration::from_millis(20),
        );
        let mut dc = b.build();
        let r1 = dc.reserve_migration_path(
            dc.cluster(a).nodes[0],
            dc.cluster(c).nodes[0],
            Bytes::from_gib(1),
            None,
            SimTime::ZERO,
        );
        let r2 = dc.reserve_migration_path(
            dc.cluster(a).nodes[1],
            dc.cluster(c).nodes[1],
            Bytes::from_gib(1),
            None,
            SimTime::ZERO,
        );
        assert!(
            r2.end.since(SimTime::ZERO) > r1.end.since(SimTime::ZERO),
            "distinct node pairs still queue on the shared WAN pipe"
        );
    }

    #[test]
    fn custom_hotplug_calibration_propagates() {
        let mut b = DataCenterBuilder::new();
        let calib = HotplugCalib {
            detach_ib: SimDuration::from_secs(9),
            ..HotplugCalib::default()
        };
        b.hotplug_calib(calib);
        b.add_cluster("x", FabricKind::Infiniband, 1, NodeSpec::agc_blade());
        let dc = b.build();
        assert_eq!(dc.hotplug.calib().detach_ib, SimDuration::from_secs(9));
    }
}
