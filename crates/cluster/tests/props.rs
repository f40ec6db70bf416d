//! Property-based tests of the cluster substrate.

use ninja_cluster::{
    Attachment, DataCenter, DeviceClass, DeviceId, DeviceTable, DeviceTag, HotplugCalib, HotplugOp,
    Node, NodeId, NodeSpec, PciAddr,
};
use ninja_sim::{Bandwidth, Bytes, SimRng, SimTime};
use proptest::prelude::*;

proptest! {
    /// Node commit/release accounting never goes negative and contention
    /// is exactly committed/cores when over-committed.
    #[test]
    fn node_accounting(ops in prop::collection::vec((any::<bool>(), 1u32..16, 1u64..30), 1..60)) {
        let mut node = Node::new(NodeId(0), NodeSpec::agc_blade(), 0);
        let mut live: Vec<(u32, Bytes)> = Vec::new();
        for &(add, vcpus, mem_gib) in &ops {
            let mem = Bytes::from_gib(mem_gib);
            if add {
                if node.commit_vm(vcpus, mem) {
                    live.push((vcpus, mem));
                }
            } else if let Some((v, m)) = live.pop() {
                node.release_vm(v, m);
            }
            let total_v: u32 = live.iter().map(|&(v, _)| v).sum();
            let total_m: u64 = live.iter().map(|&(_, m)| m.get()).sum();
            prop_assert_eq!(node.committed_vcpus(), total_v);
            prop_assert_eq!(node.committed_memory(), Bytes::new(total_m));
            prop_assert!(total_m <= node.spec.memory.get(), "memory never oversubscribed");
            let expect = if total_v <= 8 { 1.0 } else { total_v as f64 / 8.0 };
            prop_assert_eq!(node.cpu_contention(), expect);
        }
    }

    /// The Table II decomposition is order-consistent for any jittered
    /// sampling: combos with strictly more expensive parts sample
    /// strictly slower in expectation (checked via best-of-5).
    #[test]
    fn hotplug_combo_ordering(seed in any::<u64>()) {
        let hp = ninja_cluster::AcpiHotplug::new(HotplugCalib::default());
        let mut rng = SimRng::new(seed);
        let mut best = |op: HotplugOp, class: DeviceClass| {
            (0..5).map(|_| hp.duration(op, class, false, &mut rng)).min().unwrap()
        };
        let det_ib = best(HotplugOp::Detach, DeviceClass::IbHca);
        let att_ib = best(HotplugOp::Attach, DeviceClass::IbHca);
        let det_eth = best(HotplugOp::Detach, DeviceClass::EthNic);
        let att_eth = best(HotplugOp::Attach, DeviceClass::EthNic);
        prop_assert!(det_ib > att_ib, "IB detach slower than attach");
        prop_assert!(att_ib > det_eth + att_eth, "any IB op dwarfs Ethernet");
    }

    /// DeviceTable's indexed lookups agree with a scan of the whole
    /// table in id order (lowest id wins) under arbitrary attachment
    /// churn: HCAs and NICs move through host pools, guests and
    /// detached, several HCAs sit free on one node, and tags repeat.
    #[test]
    fn device_table_consistency(moves in prop::collection::vec((0usize..12, 0u8..3, 0u32..4), 1..80)) {
        let mut table = DeviceTable::new();
        let ids: Vec<DeviceId> = (0..12u32)
            .map(|i| {
                let (kind, at) = if i < 8 {
                    (ninja_cluster::pci::ib_hca(u64::from(i)), Attachment::Host { node: 0 })
                } else {
                    (ninja_cluster::pci::virtio_nic(u64::from(i)), Attachment::Guest { vm: i % 4 })
                };
                table.insert(PciAddr::new(4, i as u8, 0), DeviceTag::indexed("dev", i % 3), kind, at)
            })
            .collect();
        for &(which, place, target) in &moves {
            let at = match place {
                0 => Attachment::Host { node: target },
                1 => Attachment::Guest { vm: target },
                _ => Attachment::Detached,
            };
            table.set_attachment(ids[which], at);
            prop_assert_eq!(table.get(ids[which]).attachment(), at);
            for x in 0..4u32 {
                for class in [DeviceClass::IbHca, DeviceClass::EthNic] {
                    let scan = table
                        .iter()
                        .find(|d| d.kind.class() == class && d.attachment() == Attachment::Host { node: x })
                        .map(|d| d.id);
                    prop_assert_eq!(table.find_free_on_node(x, class), scan);
                }
                for tag in ["dev0", "dev1", "dev2"] {
                    let scan = table
                        .iter()
                        .find(|d| d.tag == *tag && d.attachment() == Attachment::Guest { vm: x })
                        .map(|d| d.id);
                    prop_assert_eq!(table.find_by_tag_on_vm(x, tag), scan);
                }
            }
        }
        prop_assert_eq!(table.len(), 12);
    }

    /// Streams on the migration fabric, opened in time order between
    /// random IB and Ethernet nodes (self-migrations included), land at
    /// or after their open and never beat the sender cap, and every
    /// node's port carries exactly the bytes of the streams into and out
    /// of that node.
    #[test]
    fn migration_paths_causal(requests in prop::collection::vec((0usize..16, 0usize..16, 0u64..60, 1u64..8), 1..30)) {
        let (mut dc, _, _) = DataCenter::agc();
        let cap = Some(Bandwidth::from_gbps(1.3));
        let mut requests = requests;
        requests.sort_by_key(|r| r.2);
        let mut flows = Vec::new();
        let mut port_bytes = vec![0u64; dc.node_count()];
        for &(s, d, at_s, gib) in &requests {
            let now = SimTime::ZERO + ninja_sim::SimDuration::from_secs(at_s);
            let (src, dst, bytes) = (NodeId(s as u32), NodeId(d as u32), Bytes::from_gib(gib));
            dc.migration_fabric.advance_to(now);
            let (flow, latency) = dc.open_migration(src, dst, bytes, cap, None);
            prop_assert_eq!(latency, ninja_sim::SimDuration::ZERO, "one site");
            if src != dst {
                port_bytes[s] += bytes.get();
                port_bytes[d] += bytes.get();
            }
            flows.push((flow, now, bytes));
        }
        while let Some(t) = dc.migration_fabric.next_completion() {
            dc.migration_fabric.advance_to(t);
        }
        for &(flow, opened, bytes) in &flows {
            let landed = dc.migration_fabric.completion(flow).expect("drained");
            prop_assert!(landed >= opened + Bandwidth::from_gbps(1.3).transfer_time(bytes));
        }
        for (n, &bytes) in port_bytes.iter().enumerate() {
            let carried = dc
                .migration_port(NodeId(n as u32), cap)
                .map_or(0, |l| dc.migration_fabric.bytes_carried(l).get());
            prop_assert_eq!(carried, bytes, "port of node {}", n);
        }
    }
}
