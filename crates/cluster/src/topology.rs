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
use crate::pci::{ib_hca, Attachment, DeviceId, DeviceTable, DeviceTag, PciAddr};
use crate::storage::{StorageId, StoragePool, NFS_STREAM_BW};
use ninja_net::{Fabric, FlowId, IbFabric, LinkId, MAX_PATH};
use ninja_sim::{Bandwidth, Bytes, SimDuration};
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
/// share its capacity max-min fairly on the migration fabric, so a
/// 10 Gb/s pipe carries several 1.3 Gb/s migrations at full speed while
/// a 1 Gb/s pipe splits itself among them.
#[derive(Debug)]
pub struct WanLink {
    bandwidth: Bandwidth,
    /// One-way propagation latency.
    pub latency: SimDuration,
    link: LinkId,
}

impl WanLink {
    /// Total pipe capacity.
    pub fn bandwidth(&self) -> Bandwidth {
        self.bandwidth
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
    /// The links every precopy stream and snapshot image crosses: node
    /// migration ports, WAN pipes and NFS exports, plus any link a
    /// caller adds (a fleet's switch uplink). `World::advance_to` keeps
    /// its clock on the world clock.
    pub migration_fabric: Fabric,
    /// The rate rules migration ports were created for, in first-use
    /// order.
    port_rates: Vec<Bandwidth>,
    /// Each node's migration port, created at first use: one row of
    /// per-node slots for each rate in `port_rates`.
    ports: Vec<Option<LinkId>>,
    /// Each NFS export's link, by storage id, created at first use.
    exports: Vec<Option<LinkId>>,
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

    /// Is `storage` reachable from the cluster containing `node`?
    pub fn storage_reachable(&self, storage: StorageId, node: NodeId) -> bool {
        self.storage
            .get(storage)
            .accessible_from(self.cluster_of(node).0)
    }

    /// The one migration rate rule at `node`: the sender's cap, if any,
    /// bounded by the node's NIC.
    fn migration_rate(&self, node: NodeId, sender_cap: Option<Bandwidth>) -> Bandwidth {
        let nic = self.node(node).spec.eth_bandwidth;
        sender_cap.map_or(nic, |s| s.min(nic))
    }

    /// `node`'s migration port for streams at `rate`, created at first
    /// use. A port carries at most the rate rule, as a NIC that sends
    /// one migration stream at the sender's rate does: streams sharing
    /// an endpoint split it.
    fn port(&mut self, node: NodeId, rate: Bandwidth) -> LinkId {
        let slot = match self.port_slot(node, rate) {
            Some(slot) => slot,
            None => {
                self.port_rates.push(rate);
                self.ports.resize(self.ports.len() + self.nodes.len(), None);
                self.port_slot(node, rate).expect("row just added")
            }
        };
        let fabric = &mut self.migration_fabric;
        *self.ports[slot].get_or_insert_with(|| fabric.add_link(rate))
    }

    /// Where `node`'s port for `rate` lives in `ports`, if that rate has
    /// a row.
    fn port_slot(&self, node: NodeId, rate: Bandwidth) -> Option<usize> {
        let row = self.port_rates.iter().position(|&r| r == rate)?;
        Some(row * self.nodes.len() + node.0 as usize)
    }

    /// `node`'s migration port under `sender_cap`, if a stream has used
    /// it.
    pub fn migration_port(&self, node: NodeId, sender_cap: Option<Bandwidth>) -> Option<LinkId> {
        let rate = self.migration_rate(node, sender_cap);
        self.ports[self.port_slot(node, rate)?]
    }

    /// Open a bulk migration transfer of `bytes` from `src` to `dst` on
    /// the migration fabric, at its clock (migration always travels over
    /// TCP/IP, per Section V). Its path is the source's migration port,
    /// the WAN pipe if the transfer crosses sites, the destination's
    /// port, and `via` if given; the flow is capped by the rate rule at
    /// `src`. A self-migration loops through the loopback device: no
    /// link, the rate rule alone. Returns the flow and the path's
    /// propagation latency, which the stream pays once its last byte is
    /// on the wire.
    pub fn open_migration(
        &mut self,
        src: NodeId,
        dst: NodeId,
        bytes: Bytes,
        sender_cap: Option<Bandwidth>,
        via: Option<LinkId>,
    ) -> (FlowId, SimDuration) {
        let rate = self.migration_rate(src, sender_cap);
        if src == dst {
            let flow = self.migration_fabric.open(bytes, &[], Some(rate));
            return (flow, SimDuration::ZERO);
        }
        let mut path = [self.port(src, rate); MAX_PATH];
        let mut len = 1;
        let mut latency = SimDuration::ZERO;
        if let Some(wan) = self.wan_between(self.cluster_of(src), self.cluster_of(dst)) {
            path[len] = wan.link;
            len += 1;
            latency = wan.latency;
        }
        let dst_rate = self.migration_rate(dst, sender_cap);
        path[len] = self.port(dst, dst_rate);
        len += 1;
        if let Some(link) = via {
            path[len] = link;
            len += 1;
        }
        let flow = self.migration_fabric.open(bytes, &path[..len], Some(rate));
        (flow, latency)
    }

    /// Open a snapshot image transfer (a save or a restore) of `bytes`
    /// between `node` and `storage`'s NFS export on the migration
    /// fabric, at its clock. The path is the node's port at the NIC's
    /// rate and the export's link, made at first use at
    /// [`NFS_STREAM_BW`]: images on one export share it.
    pub fn open_image(&mut self, node: NodeId, storage: StorageId, bytes: Bytes) -> FlowId {
        let port = self.port(node, self.migration_rate(node, None));
        let slot = storage.0 as usize;
        if self.exports.len() <= slot {
            self.exports.resize(slot + 1, None);
        }
        let fabric = &mut self.migration_fabric;
        let export = *self.exports[slot].get_or_insert_with(|| fabric.add_link(NFS_STREAM_BW));
        fabric.open(bytes, &[port, export], None)
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
    wan: BTreeMap<(u32, u32), (Bandwidth, SimDuration)>,
}

impl DataCenterBuilder {
    /// Creates a new instance.
    pub fn new() -> Self {
        Self::default()
    }

    /// A builder with room for `nodes` nodes and `devices` devices in
    /// all, so that building a data center of that size (and booting
    /// its VMs' NICs into it) grows no array.
    pub fn with_capacity(nodes: usize, devices: usize) -> Self {
        let mut b = Self::default();
        b.nodes.reserve_exact(nodes);
        b.devices.reserve(devices);
        b
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
        self.nodes.reserve(count);
        if fabric == FabricKind::Infiniband {
            self.devices.reserve(count);
        }
        for _ in 0..count {
            let nid = NodeId(self.nodes.len() as u32);
            let node = Node::new(nid, spec.clone(), cid.0);
            if fabric == FabricKind::Infiniband {
                self.guid_counter += 1;
                self.devices.insert(
                    PciAddr::new(4, 0, 0),
                    DeviceTag::indexed("hca-", nid.0),
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
        self.wan.insert(key, (bandwidth, latency));
        self
    }

    /// Create an NFS export mounted on the given clusters.
    pub fn shared_storage(&mut self, name: impl Into<String>, clusters: &[ClusterId]) -> StorageId {
        let ids: Vec<u32> = clusters.iter().map(|c| c.0).collect();
        self.storage.create(name, &ids)
    }

    /// Returns the build.
    pub fn build(self) -> DataCenter {
        let mut migration_fabric = Fabric::new();
        let wan = self
            .wan
            .into_iter()
            .map(|(key, (bandwidth, latency))| {
                let link = migration_fabric.add_link(bandwidth);
                let wan = WanLink {
                    bandwidth,
                    latency,
                    link,
                };
                (key, wan)
            })
            .collect();
        DataCenter {
            clusters: self.clusters,
            nodes: self.nodes,
            devices: self.devices,
            storage: self.storage,
            hotplug: AcpiHotplug::new(self.hotplug_calib),
            wan,
            migration_fabric,
            port_rates: Vec::new(),
            ports: Vec::new(),
            exports: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ninja_sim::SimTime;

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

    /// Drain the migration fabric; the completion instant of `flow`.
    fn drained(dc: &mut DataCenter, flow: FlowId) -> SimTime {
        while let Some(t) = dc.migration_fabric.next_completion() {
            dc.migration_fabric.advance_to(t);
        }
        dc.migration_fabric.completion(flow).expect("drained")
    }

    /// When `gib` GiB finish at `gbps` from time zero, alone on the wire.
    fn alone(gib: u64, gbps: f64) -> SimTime {
        SimTime::ZERO + Bandwidth::from_gbps(gbps).transfer_time(Bytes::from_gib(gib))
    }

    #[test]
    fn migration_path_contends_on_shared_destination() {
        let (mut dc, ib, eth) = DataCenter::agc();
        let s1 = dc.cluster(ib).nodes[0];
        let s2 = dc.cluster(ib).nodes[1];
        let d = dc.cluster(eth).nodes[0];
        let cap = Some(Bandwidth::from_gbps(1.3));
        let (one, _) = dc.open_migration(s1, d, Bytes::from_gib(2), cap, None);
        assert_eq!(drained(&mut dc, one), alone(2, 1.3));
        let t = SimTime::ZERO + SimDuration::from_secs(100);
        dc.migration_fabric.advance_to(t);
        let (f1, _) = dc.open_migration(s1, d, Bytes::from_gib(2), cap, None);
        let (f2, _) = dc.open_migration(s2, d, Bytes::from_gib(2), cap, None);
        let (d1, d2) = (drained(&mut dc, f1).since(t), drained(&mut dc, f2).since(t));
        // The destination port carries one sender's rate: two streams
        // into it run at half of it each.
        assert_eq!(d1, d2, "equal streams share the port equally");
        assert_eq!(SimTime::ZERO + d2, alone(2, 0.65));
    }

    #[test]
    fn self_migration_avoids_nic() {
        let (mut dc, ib, eth) = DataCenter::agc();
        let n = dc.cluster(ib).nodes[0];
        let other = dc.cluster(eth).nodes[0];
        let cap = Some(Bandwidth::from_gbps(1.3));
        // A stream into `n` holds its port the whole time.
        let (busy, _) = dc.open_migration(other, n, Bytes::from_gib(4), cap, None);
        let (f, latency) = dc.open_migration(n, n, Bytes::from_gib(1), cap, None);
        assert_eq!(latency, SimDuration::ZERO);
        assert_eq!(
            drained(&mut dc, f),
            alone(1, 1.3),
            "loopback at the sender cap"
        );
        // The loopback flow never touched the port: the other stream
        // still ran at the full rate.
        assert_eq!(drained(&mut dc, busy), alone(4, 1.3));
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
        let cap = Some(Bandwidth::from_gbps(1.3));
        let (f, latency) = dc.open_migration(src, dst, Bytes::from_gib(1), cap, None);
        assert_eq!(latency, SimDuration::from_millis(20));
        assert_eq!(drained(&mut dc, f), alone(1, 1.0), "wan-gated");
        assert!(dc.wan_between(a, c).is_some());
        assert!(dc.wan_between(a, a).is_none());
    }

    #[test]
    fn intersite_without_wan_uses_lan_model() {
        let (mut dc, ib, eth) = DataCenter::agc();
        let src = dc.cluster(ib).nodes[0];
        let dst = dc.cluster(eth).nodes[0];
        let cap = Some(Bandwidth::from_gbps(1.3));
        let (f, latency) = dc.open_migration(src, dst, Bytes::from_gib(1), cap, None);
        assert_eq!(latency, SimDuration::ZERO);
        assert_eq!(drained(&mut dc, f), alone(1, 1.3), "lan");
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
        let (s0, s1) = (dc.cluster(a).nodes[0], dc.cluster(a).nodes[1]);
        let (d0, d1) = (dc.cluster(c).nodes[0], dc.cluster(c).nodes[1]);
        let gib = Bytes::from_gib(1);
        let (f1, _) = dc.open_migration(s0, d0, gib, None, None);
        let (f2, _) = dc.open_migration(s1, d1, gib, None, None);
        // Distinct node pairs still share the 1 Gb/s pipe: each stream
        // runs at 0.5 Gb/s.
        for f in [f1, f2] {
            assert_eq!(drained(&mut dc, f), alone(1, 0.5), "shared wan");
        }
        let wan = dc.wan_between(a, c).expect("wan").link;
        assert_eq!(dc.migration_fabric.bytes_carried(wan), Bytes::from_gib(2));
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
