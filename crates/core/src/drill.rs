//! Cluster evacuation drills.
//!
//! The paper's disaster-recovery use case evacuates *a data center*, not
//! one job: "VMs are evacuated from a disaster-affected data center to a
//! safe data center before those VMs crash" (Section II-A). This module
//! plans the evacuation of **every** job resident on a failing cluster
//! (capacity-aware first-fit placement of each job's VMs onto the
//! destination cluster) and defines the recovery-time report an operator
//! can hold against an RTO target. The fleet engine executes the plan,
//! one Ninja migration per job (`ninja evacuate`).

use crate::report::NinjaReport;
use crate::world::World;
use ninja_cluster::{ClusterId, NodeId};
use ninja_mpi::MpiRuntime;
use ninja_sim::{JsonWriter, WriteJson};
use std::collections::BTreeMap;
use std::fmt;

/// Outcome of an evacuation drill.
#[derive(Debug, Clone)]
pub struct DrillReport {
    /// Jobs moved.
    pub jobs: usize,
    /// VMs moved.
    pub vms: usize,
    /// Wall-clock recovery time: first trigger to last job resumed.
    pub total_seconds: f64,
    /// Per-job migration reports, in evacuation order.
    pub migrations: Vec<NinjaReport>,
    /// Per-job queue wait in seconds (trigger time → migration start),
    /// aligned with `migrations`. Under serial evacuation job *k* waits
    /// for the first *k−1* to finish; a fleet run with a higher
    /// concurrency cap shrinks these.
    pub queue_wait_s: Vec<f64>,
}

impl WriteJson for DrillReport {
    fn write_json<W: fmt::Write + ?Sized>(&self, w: &mut JsonWriter<'_, W>) -> fmt::Result {
        w.begin_object()?;
        w.field("jobs", &self.jobs)?;
        w.field("vms", &self.vms)?;
        w.field("total_seconds", &self.total_seconds)?;
        w.field("queue_wait_s", &self.queue_wait_s)?;
        w.field("migrations", &self.migrations)?;
        w.end_object()
    }
}

impl DrillReport {
    /// CSV export, one row per evacuated job: queue wait plus the same
    /// phase decomposition as the benchmark ledger.
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "job,vms,queue_wait_s,coordination_s,detach_s,migration_s,attach_s,linkup_s,total_s,wire_bytes\n",
        );
        for (i, r) in self.migrations.iter().enumerate() {
            let wait = self.queue_wait_s.get(i).copied().unwrap_or(0.0);
            out.push_str(&format!(
                "{},{},{:.3},{:.3},{:.3},{:.3},{:.3},{:.3},{:.3},{}\n",
                i,
                r.vm_count,
                wait,
                r.coordination.0,
                r.detach.0,
                r.migration.0,
                r.attach.0,
                r.linkup.0,
                r.total(),
                r.wire_bytes,
            ));
        }
        out
    }
}

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

    /// Two jobs (4 VMs + 2 VMs) on the IB cluster.
    fn two_jobs(world: &mut World) -> (MpiRuntime, MpiRuntime) {
        let a = world.boot_ib_vms(4);
        let job_a = world.start_job(a, 1);
        // Second job on the remaining IB nodes.
        let mut b = Vec::new();
        for i in 4..6 {
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
                .unwrap();
            let now = world.clock();
            let (_, at) = world
                .pool
                .attach_ib_hca(vm, &mut world.dc, now, &mut world.rng)
                .unwrap();
            world.advance_to(at);
            b.push(vm);
        }
        let job_b = world.start_job(b, 1);
        (job_a, job_b)
    }

    #[test]
    fn plan_respects_capacity_first_fit() {
        let mut w = World::agc(1601);
        let (a, b) = two_jobs(&mut w);
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
        let (a, b) = two_jobs(&mut w);
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
