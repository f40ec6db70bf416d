//! Cluster evacuation drills.
//!
//! The paper's disaster-recovery use case evacuates *a data center*, not
//! one job: "VMs are evacuated from a disaster-affected data center to a
//! safe data center before those VMs crash" (Section II-A). This module
//! plans the evacuation of **every** job resident on a failing cluster
//! (capacity-aware first-fit placement of each job's VMs onto the
//! destination cluster). The fleet engine executes the plan, one Ninja
//! migration per job (`ninja evacuate`), and its report is the
//! recovery-time record an operator holds against an RTO target.

use crate::world::World;
use ninja_cluster::{ClusterId, NodeId};
use ninja_mpi::MpiRuntime;
use std::collections::BTreeMap;

/// Errors from drill planning.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DrillError {
    /// The destination cluster cannot hold everything.
    InsufficientCapacity {
        /// VMs that could not be placed.
        unplaced: usize,
    },
}

impl std::fmt::Display for DrillError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DrillError::InsufficientCapacity { unplaced } => {
                write!(f, "destination cluster cannot hold {unplaced} of the VMs")
            }
        }
    }
}

impl std::error::Error for DrillError {}

/// Boots the two-job drill world on the IB cluster: job a on the first
/// `vms.min(6)` IB nodes with `procs` ranks per VM, and job b on up to
/// two nodes after it, one rank per VM. Job b's VMs are named
/// `job-b-{node}` and booted one after another, the clock advancing to
/// each HCA's link-up.
pub fn boot_drill_jobs(world: &mut World, vms: usize, procs: u32) -> (MpiRuntime, MpiRuntime) {
    let a_vms = vms.min(6);
    let a = world.boot_ib_vms(a_vms);
    let job_a = world.start_job(a, procs);
    let mut b = Vec::new();
    for i in a_vms..(a_vms + 2).min(8) {
        let node = world.ib_node(i);
        let vm = world
            .pool
            .create(
                format!("job-b-{i}"),
                ninja_vmm::VmSpec::paper_vm(),
                node,
                ninja_cluster::StorageId(0),
                &mut world.dc,
            )
            .expect("node free");
        let now = world.clock();
        let (_, at) = world
            .pool
            .attach_ib_hca(vm, &mut world.dc, now, &mut world.rng)
            .expect("HCA free");
        world.advance_to(at);
        b.push(vm);
    }
    let job_b = world.start_job(b, 1);
    (job_a, job_b)
}

/// Plan destination nodes for every job on `from`, first-fit by memory
/// onto `to`. Returns one host list per job (aligned with `jobs`);
/// jobs with no VMs on `from` get an empty list (not evacuated).
pub fn plan_evacuation(
    world: &World,
    jobs: &[&MpiRuntime],
    from: ClusterId,
    to: ClusterId,
) -> Result<Vec<Vec<NodeId>>, DrillError> {
    // Free memory per destination node, accounting for already-resident
    // VMs.
    let mut free: BTreeMap<NodeId, u64> = world
        .dc
        .cluster(to)
        .nodes
        .iter()
        .map(|&n| {
            let node = world.dc.node(n);
            (n, node.spec.memory.get() - node.committed_memory().get())
        })
        .collect();
    let mut plans = Vec::with_capacity(jobs.len());
    let mut unplaced = 0usize;
    for job in jobs {
        let mut dsts = Vec::new();
        for &vm in job.layout().vms() {
            let v = world.pool.get(vm);
            if world.dc.cluster_of(v.node) != from {
                continue; // not on the failing cluster
            }
            let need = v.spec.memory.get();
            // First-fit over destination nodes.
            match free.iter_mut().find(|(_, f)| **f >= need) {
                Some((&n, f)) => {
                    *f -= need;
                    dsts.push(n);
                }
                None => unplaced += 1,
            }
        }
        plans.push(dsts);
    }
    if unplaced > 0 {
        return Err(DrillError::InsufficientCapacity { unplaced });
    }
    Ok(plans)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_respects_capacity_first_fit() {
        let mut w = World::agc(1601);
        let (a, b) = boot_drill_jobs(&mut w, 4, 1);
        let plans = plan_evacuation(&w, &[&a, &b], w.ib_cluster, w.eth_cluster).unwrap();
        // 6 x 20 GiB VMs onto 8 x 48 GiB nodes: first-fit packs 2/node,
        // using 3 nodes.
        let mut used: std::collections::BTreeMap<NodeId, usize> = Default::default();
        for n in plans.iter().flatten() {
            *used.entry(*n).or_insert(0) += 1;
        }
        assert_eq!(plans[0].len() + plans[1].len(), 6);
        assert_eq!(used.len(), 3, "2:1 packing: {used:?}");
        assert!(used.values().all(|&c| c <= 2));
    }

    #[test]
    fn overfull_destination_is_rejected_up_front() {
        let mut w = World::agc(1602);
        let (a, b) = boot_drill_jobs(&mut w, 4, 1);
        // Pre-fill the Ethernet cluster so only two 20 GiB slots remain.
        for i in 0..7 {
            for j in 0..2 {
                w.pool
                    .create(
                        format!("squatter-{i}-{j}"),
                        ninja_vmm::VmSpec::paper_vm(),
                        w.eth_node(i),
                        ninja_cluster::StorageId(0),
                        &mut w.dc,
                    )
                    .unwrap();
            }
        }
        let err = plan_evacuation(&w, &[&a, &b], w.ib_cluster, w.eth_cluster).unwrap_err();
        assert_eq!(err, DrillError::InsufficientCapacity { unplaced: 4 });
    }
}
