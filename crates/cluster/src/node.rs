//! Physical compute nodes.
//!
//! Modelled on the paper's AGC cluster blades (Table I): Dell PowerEdge
//! M610, 2x quad-core Xeon E5540, 48 GB RAM, QDR IB HCA, 10 GbE NIC.
//! The node tracks committed vCPUs of resident VMs so the transport and
//! workload models can compute the CPU over-commit factor (the source of
//! the "2 hosts (TCP)" slowdown in Fig. 8).

use ninja_sim::{Bandwidth, Bytes};

/// Identifier of a node within the [`crate::topology::DataCenter`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// Hardware description of a node.
#[derive(Debug, Clone)]
pub struct NodeSpec {
    /// Physical cores (Hyper-Threading disabled, as in the paper).
    pub cores: u32,
    /// Installed memory.
    pub memory: Bytes,
    /// Raw bandwidth of the node's Ethernet NIC (migration/TCP path).
    pub eth_bandwidth: Bandwidth,
}

impl NodeSpec {
    /// The paper's AGC blade: 8 cores, 48 GiB, 10 GbE.
    pub fn agc_blade() -> Self {
        NodeSpec {
            cores: 8,
            memory: Bytes::from_gib(48),
            eth_bandwidth: Bandwidth::from_gbps(10.0),
        }
    }
}

/// A physical node.
#[derive(Debug)]
pub struct Node {
    /// The id.
    pub id: NodeId,
    /// The spec.
    pub spec: NodeSpec,
    /// Cluster this node belongs to (set by the topology builder).
    pub cluster: u32,
    committed_vcpus: u32,
    committed_memory: Bytes,
}

impl Node {
    /// Creates a new instance.
    pub fn new(id: NodeId, spec: NodeSpec, cluster: u32) -> Self {
        Node {
            id,
            spec,
            cluster,
            committed_vcpus: 0,
            committed_memory: Bytes::ZERO,
        }
    }

    /// Reserve resources for a VM being placed here. Returns `false` if
    /// memory would be oversubscribed (vCPUs *may* be over-committed —
    /// that is the consolidation scenario — but memory may not).
    pub fn commit_vm(&mut self, vcpus: u32, memory: Bytes) -> bool {
        if (self.committed_memory + memory).get() > self.spec.memory.get() {
            return false;
        }
        self.committed_vcpus += vcpus;
        self.committed_memory += memory;
        true
    }

    /// Release a VM's resources (it migrated away or was destroyed).
    pub fn release_vm(&mut self, vcpus: u32, memory: Bytes) {
        self.committed_vcpus = self.committed_vcpus.saturating_sub(vcpus);
        self.committed_memory = self.committed_memory.saturating_sub(memory);
    }

    /// Returns the committed vcpus.
    pub fn committed_vcpus(&self) -> u32 {
        self.committed_vcpus
    }

    /// Returns the committed memory.
    pub fn committed_memory(&self) -> Bytes {
        self.committed_memory
    }

    /// CPU over-commit factor: 1.0 when committed vCPUs fit in physical
    /// cores, proportionally larger when over-committed. This stretches
    /// both guest computation and TCP protocol processing.
    pub fn cpu_contention(&self) -> f64 {
        if self.committed_vcpus <= self.spec.cores {
            1.0
        } else {
            self.committed_vcpus as f64 / self.spec.cores as f64
        }
    }

    /// How many VMs' worth of traffic share this node's NIC; used to
    /// derate per-VM TCP bandwidth under consolidation.
    pub fn resident_vm_count(&self, vcpus_per_vm: u32) -> u32 {
        self.committed_vcpus.checked_div(vcpus_per_vm).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node() -> Node {
        Node::new(NodeId(0), NodeSpec::agc_blade(), 0)
    }

    #[test]
    fn agc_blade_matches_table1() {
        let s = NodeSpec::agc_blade();
        assert_eq!(s.cores, 8);
        assert_eq!(s.memory, Bytes::from_gib(48));
        assert!((s.eth_bandwidth.as_gbps() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn no_contention_when_fitting() {
        let mut n = node();
        assert!(n.commit_vm(8, Bytes::from_gib(20)));
        assert_eq!(n.cpu_contention(), 1.0);
    }

    #[test]
    fn contention_under_overcommit() {
        let mut n = node();
        // The paper's consolidation: two 8-vCPU VMs on one 8-core host.
        assert!(n.commit_vm(8, Bytes::from_gib(20)));
        assert!(n.commit_vm(8, Bytes::from_gib(20)));
        assert_eq!(n.cpu_contention(), 2.0);
        assert_eq!(n.resident_vm_count(8), 2);
    }

    #[test]
    fn memory_cannot_oversubscribe() {
        let mut n = node();
        assert!(n.commit_vm(8, Bytes::from_gib(40)));
        assert!(
            !n.commit_vm(8, Bytes::from_gib(20)),
            "48 GiB node, 60 GiB asked"
        );
    }

    #[test]
    fn release_restores() {
        let mut n = node();
        n.commit_vm(8, Bytes::from_gib(20));
        n.commit_vm(8, Bytes::from_gib(20));
        n.release_vm(8, Bytes::from_gib(20));
        assert_eq!(n.cpu_contention(), 1.0);
        assert_eq!(n.committed_memory(), Bytes::from_gib(20));
    }

    #[test]
    fn release_saturates() {
        let mut n = node();
        n.release_vm(4, Bytes::from_gib(1));
        assert_eq!(n.committed_vcpus(), 0);
        assert_eq!(n.committed_memory(), Bytes::ZERO);
    }
}
