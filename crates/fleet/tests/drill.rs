//! Whole-cluster evacuation drills on the fleet engine: the path
//! `ninja evacuate` runs. `plan_evacuation` places every job resident on
//! the failing cluster, one job-tagged trigger per non-empty plan fires
//! at drill start, and `run_fleet` at concurrency 1 moves the jobs one
//! after another.

use ninja_fleet::{run_fleet, DrillView, FleetConfig, FleetReport};
use ninja_migration::{boot_drill_jobs, plan_evacuation, CloudScheduler, TriggerReason, World};
use ninja_mpi::MpiRuntime;
use ninja_net::TransportKind;
use ninja_sim::{SimDuration, WriteJson};
use ninja_symvirt::GuestCooperative;

/// Evacuate every job in `jobs` from the IB to the Ethernet cluster,
/// serially.
fn evacuate(world: &mut World, jobs: &mut [&mut MpiRuntime]) -> FleetReport {
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
    fleet
}

#[test]
fn full_cluster_evacuation() {
    let mut w = World::agc(1600);
    let (mut a, mut b) = boot_drill_jobs(&mut w, 4, 1);
    let fleet = evacuate(&mut w, &mut [&mut a, &mut b]);
    let j = ninja_sim::parse(&DrillView(&fleet).to_json_compact()).unwrap();
    assert_eq!(j["jobs"].as_u64(), Some(2));
    assert_eq!(j["vms"].as_u64(), Some(6));
    assert!(j["total_seconds"].as_f64().unwrap() > 0.0);
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
    let (mut a, mut b) = boot_drill_jobs(&mut w, 4, 1);
    let fleet = evacuate(&mut w, &mut [&mut a, &mut b]);
    assert_eq!(fleet.jobs.len(), 2);
    assert_eq!(
        fleet.jobs[0].queue_wait(),
        SimDuration::ZERO,
        "first job starts immediately"
    );
    // Concurrency 1: the second job waits out the whole first migration.
    let first_total = fleet.jobs[0].report.total();
    assert_eq!(
        fleet.jobs[1].queue_wait(),
        first_total,
        "second job's wait is the first job's total"
    );
    let j = ninja_sim::parse(&DrillView(&fleet).to_json_compact()).unwrap();
    let waits = j["queue_wait_s"].as_array().unwrap();
    assert_eq!(waits.len(), 2);
    let wait_json = waits[1].as_f64().unwrap();
    assert_eq!(wait_json, first_total.as_secs_f64(), "{wait_json}");
    assert_eq!(j["migrations"].as_array().unwrap().len(), 2);
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
    let fleet = evacuate(&mut w, &mut [&mut eth_job]);
    assert!(fleet.jobs.is_empty(), "already-safe job untouched");
    assert_eq!(DrillView(&fleet).vms(), 0);
}
