//! The heap allocations one more job costs the scenario build and
//! `run_fleet`.
//!
//! A counting global allocator wraps the system one for this test
//! binary alone (the library crates stay `forbid(unsafe_code)`). The
//! tests count the allocations of `build_auto` and of `run_fleet`, each
//! alone, on fault-free one-VM evacuations of 256 and 1024 jobs at
//! concurrency 4, with the trace off as `ninja fleet` runs without a
//! trace flag. Fixed costs (the run's arrays, the fabric's first flows)
//! cancel in the difference, so the slope is what each job adds: to the
//! build, its nodes, devices, VM, MPI runtime and trigger; to the run,
//! its migration machine, its streams, its transports and its outcome.

use ninja_fleet::{build_auto, run_fleet, FleetConfig, ScenarioKind, ScenarioSpec};
use ninja_sim::{SimDuration, Trace};
use ninja_symvirt::GuestCooperative;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    /// This thread's allocations: the tests run on parallel threads, and
    /// each counts only its own.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count() {
    // A thread being torn down no longer counts.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

fn allocations() -> usize {
    ALLOCATIONS.with(Cell::get)
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn evacuation(jobs: usize) -> ScenarioSpec {
    ScenarioSpec {
        kind: ScenarioKind::Evacuation,
        jobs,
        vms_per_job: 1,
        arrival: SimDuration::from_secs(20),
        seed: 1,
    }
}

/// Allocations `build_auto` makes for an untraced evacuation of `jobs`
/// one-VM jobs.
fn build_allocations(jobs: usize) -> usize {
    let spec = evacuation(jobs);
    let before = allocations();
    let s = build_auto(&spec, Trace::disabled()).expect("scenario fits");
    let made = allocations() - before;
    assert_eq!(s.jobs.len(), jobs);
    made
}

/// Allocations `run_fleet` makes on a fault-free evacuation of `jobs`
/// one-VM jobs at concurrency 4.
fn run_fleet_allocations(jobs: usize) -> usize {
    let mut s = build_auto(&evacuation(jobs), Trace::disabled()).expect("scenario fits");
    let cfg = FleetConfig {
        concurrency: 4,
        ..FleetConfig::default()
    };
    let mut guests: Vec<&mut dyn GuestCooperative> = s
        .jobs
        .iter_mut()
        .map(|j| j as &mut dyn GuestCooperative)
        .collect();
    let before = allocations();
    let report = run_fleet(&mut s.world, &mut guests, s.scheduler, &cfg).expect("fleet run");
    let made = allocations() - before;
    assert_eq!(report.jobs.len(), jobs, "every job migrated once");
    assert!(report.failures.is_empty());
    made
}

#[test]
fn each_job_costs_at_most_four_allocations() {
    let small = run_fleet_allocations(256);
    let large = run_fleet_allocations(1024);
    let per_job = (large - small) as f64 / 768.0;
    assert!(
        per_job <= 4.0,
        "{per_job:.2} allocations per job ({small} at 256 jobs, {large} at 1024)"
    );
}

#[test]
fn building_a_job_costs_at_most_three_allocations() {
    let small = build_allocations(256);
    let large = build_allocations(1024);
    let per_job = (large - small) as f64 / 768.0;
    assert!(
        per_job <= 3.0,
        "{per_job:.2} allocations per job ({small} at 256 jobs, {large} at 1024)"
    );
}
