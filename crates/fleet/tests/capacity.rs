//! A destination's memory counts migrations in flight.
//!
//! `migrate` moves a guest's memory to its destination in the node
//! ledger when the migration starts, so a job whose guests do not all
//! fit lands none of them, serially and in the fleet alike, and no node
//! ever holds more guests than its memory. Fixed cases on the AGC
//! testbed: 48 GiB Ethernet nodes, 20 GiB paper VMs.

use ninja_cluster::NodeId;
use ninja_fleet::{run_fleet, FleetConfig, FleetReport};
use ninja_migration::{CloudScheduler, NinjaOrchestrator, TriggerReason, World};
use ninja_mpi::MpiRuntime;
use ninja_sim::SimDuration;
use ninja_symvirt::{GuestCooperative, SymVirtError};
use ninja_vmm::{VmState, VmmError};

/// Every node's committed vCPUs and memory are the sums over the VMs
/// resident on it (the ledger invariant of `tests/soak.rs`).
fn assert_ledger(w: &World) {
    for node in w.dc.nodes() {
        let (vcpus, mem) = w
            .pool
            .iter()
            .filter(|v| v.node == node.id && v.state != VmState::Stopped)
            .fold((0, 0), |(c, m), v| {
                (c + v.spec.vcpus, m + v.spec.memory.get())
            });
        assert_eq!(node.committed_vcpus(), vcpus, "vCPUs on {:?}", node.id);
        assert_eq!(
            node.committed_memory().get(),
            mem,
            "memory on {:?}",
            node.id
        );
        assert!(
            mem <= node.spec.memory.get(),
            "{:?} oversubscribed",
            node.id
        );
    }
}

/// One MPI job per entry of `sizes`, each of that many paper VMs on
/// consecutive IB nodes.
fn boot(seed: u64, sizes: &[usize]) -> (World, Vec<MpiRuntime>) {
    let mut w = World::agc(seed);
    let mut vms = w.boot_ib_vms(sizes.iter().sum()).into_iter();
    let jobs = sizes
        .iter()
        .map(|&n| {
            let job = vms.by_ref().take(n).collect();
            w.start_job(job, 1)
        })
        .collect();
    (w, jobs)
}

/// Run `jobs` through the fleet engine: job `j` is triggered `j`
/// seconds from now with every VM bound for `dst`.
fn fleet(w: &mut World, jobs: &mut [MpiRuntime], dst: NodeId, concurrency: usize) -> FleetReport {
    let mut scheduler = CloudScheduler::new();
    for j in 0..jobs.len() {
        let at = w.clock() + SimDuration::from_secs(j as u64);
        scheduler.push_job(at, vec![dst], TriggerReason::Fallback, j);
    }
    let cfg = FleetConfig {
        concurrency,
        ..FleetConfig::default()
    };
    let mut refs: Vec<&mut dyn GuestCooperative> = jobs
        .iter_mut()
        .map(|j| j as &mut dyn GuestCooperative)
        .collect();
    run_fleet(w, &mut refs, scheduler, &cfg).expect("fleet run")
}

/// Every VM of `job` is still on `sources`, never migrated.
fn assert_unmoved(w: &World, job: &MpiRuntime, sources: &[NodeId]) {
    for (&vm, &src) in job.layout().vms().iter().zip(sources) {
        let v = w.pool.get(vm);
        assert_eq!(
            (v.node, v.migrations),
            (src, 0),
            "{} moved",
            w.pool.name(vm)
        );
    }
}

fn nodes_of(w: &World, job: &MpiRuntime) -> Vec<NodeId> {
    job.layout()
        .vms()
        .iter()
        .map(|&vm| w.pool.get(vm).node)
        .collect()
}

fn capacity_error(dst: NodeId) -> String {
    SymVirtError::Vmm(VmmError::InsufficientCapacity { dst }).to_string()
}

/// Three 20 GiB guests onto one 48 GiB node: the serial orchestrator
/// refuses the job before any guest lands.
#[test]
fn serial_job_that_does_not_fit_lands_no_vm() {
    let (mut w, mut jobs) = boot(401, &[3]);
    let sources = nodes_of(&w, &jobs[0]);
    let dst = w.eth_node(0);
    let err = NinjaOrchestrator::default()
        .migrate(&mut w, &mut jobs[0], &[dst])
        .unwrap_err();
    assert_eq!(err.to_string(), capacity_error(dst));
    assert_unmoved(&w, &jobs[0], &sources);
    assert_ledger(&w);
}

/// The same job as a one-job fleet: a recorded failure, no guest moved.
#[test]
fn fleet_job_that_does_not_fit_lands_no_vm() {
    let (mut w, mut jobs) = boot(401, &[3]);
    let sources = nodes_of(&w, &jobs[0]);
    let dst = w.eth_node(0);
    let report = fleet(&mut w, &mut jobs, dst, 1);
    assert!(report.jobs.is_empty());
    assert_eq!(report.failures.len(), 1);
    assert_eq!(report.failures[0].error, capacity_error(dst));
    assert_unmoved(&w, &jobs[0], &sources);
    assert_ledger(&w);
}

/// Two jobs of 2 and 1 guests onto one node at concurrency 2: job 1
/// opens while job 0 is still on the wire, and job 0's held memory
/// leaves no room for it.
#[test]
fn migrations_in_flight_count_against_the_destination() {
    let (mut w, mut jobs) = boot(403, &[2, 1]);
    let sources = nodes_of(&w, &jobs[1]);
    let dst = w.eth_node(0);
    let report = fleet(&mut w, &mut jobs, dst, 2);
    assert_eq!(report.jobs.len(), 1);
    assert_eq!(report.jobs[0].job, 0);
    assert_eq!(report.failures.len(), 1);
    assert_eq!(report.failures[0].job, 1);
    assert_eq!(report.failures[0].error, capacity_error(dst));
    let (landed, failed) = (&report.jobs[0], &report.failures[0]);
    assert!(landed.started_at < failed.failed_at && failed.failed_at < landed.finished_at);
    assert_eq!(nodes_of(&w, &jobs[0]), [dst, dst]);
    assert_unmoved(&w, &jobs[1], &sources);
    assert_ledger(&w);
}
