//! Power-aware VM placement — the paper's future-work item: "an
//! intelligent VM placement in a data center consists of heterogeneous
//! racks for power saving" (Section VII), building on the "high
//! resource utilization" use case of Section II-A.
//!
//! The planner turns a policy into a destination host list for
//! [`crate::NinjaOrchestrator::migrate`], and a [`PowerModel`] scores
//! whole-data-center power so scenarios can quantify the
//! performance/energy trade.

use crate::world::World;
use ninja_cluster::{ClusterId, FabricKind, NodeId};
use ninja_mpi::MpiRuntime;

/// Node-level power model.
#[derive(Debug, Clone)]
pub struct PowerModel {
    /// Watts for a powered-on but empty node.
    pub idle_watts: f64,
    /// Additional watts per committed vCPU.
    pub watts_per_vcpu: f64,
    /// Watts for a node with no VMs, if the operator powers it down.
    pub standby_watts: f64,
}

impl PowerModel {
    /// The paper's blades: dual Xeon E5540 servers idle around 160 W,
    /// add ~14 W per busy core, and draw ~15 W in standby (BMC only).
    pub fn agc_blade() -> Self {
        PowerModel {
            idle_watts: 160.0,
            watts_per_vcpu: 14.0,
            standby_watts: 15.0,
        }
    }

    /// Power of one node given its committed vCPUs (empty nodes are
    /// assumed powered down to standby).
    pub fn node_watts(&self, committed_vcpus: u32) -> f64 {
        if committed_vcpus == 0 {
            self.standby_watts
        } else {
            self.idle_watts + self.watts_per_vcpu * committed_vcpus as f64
        }
    }

    /// Aggregate power of the whole data center under the current
    /// placement.
    pub fn world_watts(&self, world: &World) -> f64 {
        world
            .dc
            .nodes()
            .map(|n| self.node_watts(n.committed_vcpus()))
            .sum()
    }
}

/// A placement policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementPolicy {
    /// One VM per node on the fastest fabric (performance-first).
    Spread,
    /// Densest legal packing (memory-constrained) on the given cluster
    /// (power-first; over-commits CPUs).
    Pack(ClusterId),
    /// Densest packing on whichever cluster minimizes power — ties
    /// broken toward Ethernet (its nodes lack the HCA's draw and the
    /// freed IB rack can power down entirely).
    PowerSave,
}

/// The planner's verdict for a policy.
#[derive(Debug, Clone)]
pub struct PlacementPlan {
    /// Destination host list for `NinjaOrchestrator::migrate` (VM i ->
    /// dsts[i % len]). Not serialized.
    pub dsts: Vec<NodeId>,
    /// Number of distinct hosts used.
    pub hosts: usize,
    /// Estimated data-center watts after the move.
    pub watts: f64,
    /// Whether the placement over-commits CPUs.
    pub overcommitted: bool,
}

/// Plans placements and scores power.
#[derive(Debug, Clone)]
pub struct PlacementPlanner {
    power: PowerModel,
}

impl Default for PlacementPlanner {
    fn default() -> Self {
        PlacementPlanner {
            power: PowerModel::agc_blade(),
        }
    }
}

impl PlacementPlanner {
    /// With an explicit power model.
    pub fn new(power: PowerModel) -> Self {
        PlacementPlanner { power }
    }

    /// The power model in use.
    pub fn power(&self) -> &PowerModel {
        &self.power
    }

    /// How many of the job's VMs fit per node (memory-constrained).
    fn vms_per_node(world: &World, rt: &MpiRuntime, node: NodeId) -> u32 {
        let vm_mem = world.pool.get(rt.layout().vms()[0]).spec.memory.get();
        (world.dc.node(node).spec.memory.get() / vm_mem.max(1)) as u32
    }

    /// Compute the destination list for a policy. The plan's power
    /// estimate assumes the job's VMs are the only load.
    pub fn plan(&self, world: &World, rt: &MpiRuntime, policy: PlacementPolicy) -> PlacementPlan {
        let n = rt.layout().vms().len();
        let vcpus = world.pool.get(rt.layout().vms()[0]).spec.vcpus;
        let build = |cluster: ClusterId, hosts: usize| -> Vec<NodeId> {
            world.dc.cluster(cluster).nodes[..hosts].to_vec()
        };
        let pack_hosts = |cluster: ClusterId| -> usize {
            let per = Self::vms_per_node(world, rt, world.dc.cluster(cluster).nodes[0]).max(1);
            n.div_ceil(per as usize)
        };
        let (dsts, hosts) = match policy {
            PlacementPolicy::Spread => {
                // Prefer an InfiniBand cluster with enough nodes.
                let cluster = world
                    .dc
                    .clusters()
                    .find(|c| c.fabric == FabricKind::Infiniband && c.nodes.len() >= n)
                    .map(|c| c.id)
                    .unwrap_or(world.ib_cluster);
                (build(cluster, n), n)
            }
            PlacementPolicy::Pack(cluster) => {
                let hosts = pack_hosts(cluster);
                (build(cluster, hosts), hosts)
            }
            PlacementPolicy::PowerSave => {
                // Densest packing anywhere; prefer Ethernet on ties so
                // the IB rack can fully power down.
                let mut best: Option<(ClusterId, usize, bool)> = None;
                for c in world.dc.clusters() {
                    let hosts = pack_hosts(c.id);
                    if hosts > c.nodes.len() {
                        continue;
                    }
                    let is_eth = c.fabric == FabricKind::Ethernet;
                    let better = match &best {
                        None => true,
                        Some((_, h, eth)) => hosts < *h || (hosts == *h && is_eth && !eth),
                    };
                    if better {
                        best = Some((c.id, hosts, is_eth));
                    }
                }
                let (cluster, hosts, _) = best.expect("some cluster fits the job");
                (build(cluster, hosts), hosts)
            }
        };
        // Score: hosts carrying ceil-distributed VMs, everything else
        // in standby.
        let per_host_vms = n.div_ceil(hosts) as u32;
        let active: f64 = (0..hosts)
            .map(|i| {
                let vms_here = ((n + hosts - 1 - i) / hosts) as u32; // round-robin share
                self.power.node_watts(vms_here * vcpus)
            })
            .sum();
        let standby = (world.dc.node_count() - hosts) as f64 * self.power.standby_watts;
        let overcommitted = per_host_vms * vcpus > world.dc.node(dsts[0]).spec.cores;
        PlacementPlan {
            dsts,
            hosts,
            watts: active + standby,
            overcommitted,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job_world() -> (World, MpiRuntime) {
        let mut w = World::agc(900);
        let vms = w.boot_ib_vms(4);
        let rt = w.start_job(vms, 8);
        (w, rt)
    }

    #[test]
    fn spread_uses_one_host_per_vm() {
        let (w, rt) = job_world();
        let plan = PlacementPlanner::default().plan(&w, &rt, PlacementPolicy::Spread);
        assert_eq!(plan.hosts, 4);
        assert!(!plan.overcommitted);
        // All on the IB cluster.
        for &n in &plan.dsts {
            assert_eq!(w.dc.fabric_at(n), FabricKind::Infiniband);
        }
    }

    #[test]
    fn pack_halves_hosts() {
        let (w, rt) = job_world();
        let plan = PlacementPlanner::default().plan(&w, &rt, PlacementPolicy::Pack(w.eth_cluster));
        // 48 GiB nodes, 20 GiB VMs: two per node.
        assert_eq!(plan.hosts, 2);
        assert!(plan.overcommitted, "16 vCPUs on 8 cores");
    }

    #[test]
    fn powersave_prefers_dense_ethernet() {
        let (w, rt) = job_world();
        let planner = PlacementPlanner::default();
        let save = planner.plan(&w, &rt, PlacementPolicy::PowerSave);
        let spread = planner.plan(&w, &rt, PlacementPolicy::Spread);
        assert_eq!(save.hosts, 2);
        assert!(
            save.watts < spread.watts,
            "{} < {}",
            save.watts,
            spread.watts
        );
        assert_eq!(w.dc.fabric_at(save.dsts[0]), FabricKind::Ethernet);
    }

    #[test]
    fn power_model_accounting() {
        let pm = PowerModel::agc_blade();
        assert_eq!(pm.node_watts(0), 15.0);
        assert_eq!(pm.node_watts(8), 160.0 + 8.0 * 14.0);
        let (w, _) = job_world();
        // 4 active nodes with 8 vCPUs each + 12 standby.
        let expect = 4.0 * (160.0 + 112.0) + 12.0 * 15.0;
        assert_eq!(pm.world_watts(&w), expect);
    }

    #[test]
    fn plan_is_executable() {
        let (mut w, mut rt) = job_world();
        let plan = PlacementPlanner::default().plan(&w, &rt, PlacementPolicy::Pack(w.eth_cluster));
        crate::NinjaOrchestrator::default()
            .migrate(&mut w, &mut rt, &plan.dsts)
            .expect("plan executes");
        let pm = PowerModel::agc_blade();
        let measured = pm.world_watts(&w);
        assert!(
            (measured - plan.watts).abs() < 1.0,
            "estimate {} vs measured {measured}",
            plan.watts
        );
    }
}
