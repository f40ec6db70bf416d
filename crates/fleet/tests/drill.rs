//! Whole-cluster evacuation drills on the fleet engine: the path
//! `ninja evacuate` runs. `plan_evacuation` places every job resident on
//! the failing cluster, one job-tagged trigger per non-empty plan fires
//! at drill start, and `run_fleet` at concurrency 1 moves the jobs one
//! after another.

use ninja_fleet::{run_fleet, FleetConfig};
use ninja_migration::{plan_evacuation, CloudScheduler, DrillReport, TriggerReason, World};
use ninja_mpi::MpiRuntime;
use ninja_net::TransportKind;
use ninja_sim::WriteJson;
use ninja_symvirt::GuestCooperative;

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

/// Evacuate every job in `jobs` from the IB to the Ethernet cluster,
/// serially, and report it the way `ninja evacuate` does.
fn evacuate(world: &mut World, jobs: &mut [&mut MpiRuntime]) -> DrillReport {
    let plans = {
        let views: Vec<&MpiRuntime> = jobs.iter().map(|j| &**j).collect();
        plan_evacuation(world, &views, world.ib_cluster, world.eth_cluster).unwrap()
    };
    let mut sched = CloudScheduler::new();
    for (j, dsts) in plans.iter().enumerate() {
        if !dsts.is_empty() {
            sched.push_job(world.clock(), dsts.clone(), TriggerReason::Fallback, j);
        }
    }
    let mut guests: Vec<&mut dyn GuestCooperative> = jobs
        .iter_mut()
        .map(|j| &mut **j as &mut dyn GuestCooperative)
        .collect();
    let fleet = run_fleet(world, &mut guests, sched, &FleetConfig::default()).unwrap();
    assert!(fleet.failures.is_empty(), "{:?}", fleet.failures);
    fleet.to_drill_report()
}

#[test]
fn full_cluster_evacuation() {
    let mut w = World::agc(1600);
    let (mut a, mut b) = two_jobs(&mut w);
    let report = evacuate(&mut w, &mut [&mut a, &mut b]);
    assert_eq!(report.jobs, 2);
    assert_eq!(report.vms, 6);
    assert!(report.total_seconds > 0.0);
    // Every VM left the failing cluster; both jobs run on TCP.
    for vm in w.pool.iter() {
        assert_eq!(w.dc.cluster_of(vm.node), w.eth_cluster);
    }
    assert_eq!(a.uniform_network_kind(), Some(TransportKind::Tcp));
    assert_eq!(b.uniform_network_kind(), Some(TransportKind::Tcp));
    // The failing cluster is empty.
    for &n in &w.dc.cluster(w.ib_cluster).nodes {
        assert_eq!(w.dc.node(n).committed_vcpus(), 0);
    }
}

#[test]
fn serial_drill_records_queue_wait() {
    let mut w = World::agc(1604);
    let (mut a, mut b) = two_jobs(&mut w);
    let report = evacuate(&mut w, &mut [&mut a, &mut b]);
    assert_eq!(report.queue_wait_s.len(), 2);
    assert_eq!(report.queue_wait_s[0], 0.0, "first job starts immediately");
    // Concurrency 1: the second job waits out the whole first migration.
    let first_total = report.migrations[0].total();
    assert!(
        (report.queue_wait_s[1] - first_total).abs() < 1e-6,
        "wait {} vs first job total {}",
        report.queue_wait_s[1],
        first_total
    );
    let j = ninja_sim::parse(&report.to_json_compact()).unwrap();
    let waits = j["queue_wait_s"].as_array().unwrap();
    assert_eq!(waits.len(), 2);
    let wait_json = waits[1].as_f64().unwrap();
    assert!((wait_json - first_total).abs() < 1e-6, "{wait_json}");
    let csv = report.to_csv();
    let mut lines = csv.lines();
    assert!(lines.next().unwrap().starts_with("job,vms,queue_wait_s,"));
    assert_eq!(csv.lines().count(), 3, "header + 2 jobs");
    assert!(csv.lines().nth(2).unwrap().starts_with("1,2,"));
}

#[test]
fn jobs_elsewhere_are_skipped() {
    let mut w = World::agc(1603);
    let eth_vms = w.boot_eth_vms(2);
    let mut eth_job = w.start_job(eth_vms, 1);
    let plans = plan_evacuation(&w, &[&eth_job], w.ib_cluster, w.eth_cluster).unwrap();
    assert_eq!(
        plans,
        vec![Vec::new()],
        "already-safe job gets an empty plan"
    );
    let report = evacuate(&mut w, &mut [&mut eth_job]);
    assert_eq!(report.jobs, 0, "already-safe job untouched");
    assert_eq!(report.vms, 0);
}
