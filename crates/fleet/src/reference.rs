//! The pre-optimization fleet engine, kept verbatim as a baseline.
//!
//! [`run_fleet_reference`] is the event loop exactly as it shipped
//! before the event-driven rewrite: every iteration sweeps all `J` jobs
//! looking for due machines, scans `running` and `pending_recovery` in
//! full to find the next event, re-sorts the recovery queue, and
//! re-emits the queue/inflight gauges whether they changed or not. It
//! drives a [`FairShareLink::reference`] link, which recomputes the
//! max-min rate assignment from scratch on every query.
//!
//! It exists for two reasons:
//!
//! * **equivalence** — `tests/equivalence.rs` pins the rewritten
//!   [`run_fleet`](crate::run_fleet) bit-identical to this engine
//!   (report JSON/CSV and exported metrics) across the scenario ×
//!   seed × fault-plan matrix;
//! * **measurement** — the `fleet_scale` benchmark in `ninja-bench`
//!   times both engines on the same fleets and records the speedup in
//!   `BENCH_fleet.json`.
//!
//! The only intentional deviation from the shipped code is the final
//! `ninja_fleet_engine_iterations_total` increment, mirrored here so
//! the two engines export identical metric sets (the counter is new in
//! this PR; both engines run the same number of loop iterations).

use crate::admission::{AdmissionController, QueuedJob};
use crate::engine::{FleetConfig, FleetError};
use crate::slo::{FleetReport, JobFailure, JobOutcome};
use ninja_migration::World;
use ninja_migration::{CloudScheduler, MigrationMachine, StepOutcome, TriggerReason, WireMode};
use ninja_net::FairShareLink;
use ninja_sim::SimTime;
use ninja_symvirt::GuestCooperative;

struct Running {
    machine: MigrationMachine,
    next_at: SimTime,
    triggered_at: SimTime,
    started_at: SimTime,
    reason: TriggerReason,
}

/// Drive every scheduled migration to completion with the
/// pre-optimization O(J)-per-iteration event loop. Semantics match
/// [`run_fleet`](crate::run_fleet) exactly; see the module docs.
pub fn run_fleet_reference(
    world: &mut World,
    jobs: &mut [&mut dyn GuestCooperative],
    mut scheduler: CloudScheduler,
    cfg: &FleetConfig,
) -> Result<FleetReport, FleetError> {
    let m = &mut world.metrics;
    m.describe(
        "ninja_fleet_queue_depth",
        "Triggered migrations waiting for an admission slot",
    );
    m.describe(
        "ninja_fleet_queue_wait_seconds",
        "Per-job wait from trigger to migration start",
    );
    m.describe(
        "ninja_fleet_inflight_migrations",
        "Migrations currently holding an admission slot",
    );

    let mut adm = AdmissionController::new(cfg.concurrency);
    let mut link = FairShareLink::reference(cfg.uplink);
    link.advance_to(world.clock());
    let first_trigger = scheduler.next_at();
    let mut running: Vec<Option<Running>> = (0..jobs.len()).map(|_| None).collect();
    let mut outcomes: Vec<Vec<JobOutcome>> = (0..jobs.len()).map(|_| Vec::new()).collect();
    let mut failures: Vec<JobFailure> = Vec::new();
    let mut externally_triggered = vec![false; jobs.len()];
    let mut mig_count = vec![0usize; jobs.len()];
    let mut pending_recovery: Vec<(SimTime, QueuedJob)> = Vec::new();
    let mut spins = 0u32;
    let mut last_clock = world.clock();
    let mut iterations: u64 = 0;

    loop {
        iterations += 1;
        if world.clock() > last_clock {
            last_clock = world.clock();
            spins = 0;
        } else {
            spins += 1;
            if spins > 100_000 {
                return Err(FleetError::Stalled);
            }
        }
        // 1. Deliver due triggers into the ready queue. External
        //    triggers first (scheduler order), then due recoveries in
        //    (time, job) order — all deterministic.
        while let Some(t) = scheduler.poll(world.clock()) {
            let job = t.job.ok_or(FleetError::UntaggedTrigger)?;
            if job >= jobs.len() {
                return Err(FleetError::BadJobIndex(job));
            }
            if externally_triggered[job] {
                return Err(FleetError::DuplicateTrigger(job));
            }
            externally_triggered[job] = true;
            adm.enqueue(QueuedJob {
                job,
                dsts: t.dsts,
                triggered_at: t.at,
                reason: t.reason,
            });
        }
        pending_recovery.sort_by_key(|(t, q)| (*t, q.job));
        while pending_recovery
            .first()
            .is_some_and(|(t, _)| *t <= world.clock())
        {
            let (_, q) = pending_recovery.remove(0);
            adm.enqueue(q);
        }
        // 2. Admit while slots are free.
        while let Some(q) = adm.admit() {
            let wait = world.clock().since(q.triggered_at);
            world
                .metrics
                .observe_duration("ninja_fleet_queue_wait_seconds", &[], wait);
            let machine = MigrationMachine::new(
                cfg.monitor.clone(),
                jobs[q.job].vms(),
                q.dsts,
                world.clock(),
            )
            .with_fault_target(q.job, mig_count[q.job])
            .with_retry(cfg.retry);
            mig_count[q.job] += 1;
            running[q.job] = Some(Running {
                machine,
                next_at: world.clock(),
                triggered_at: q.triggered_at,
                started_at: world.clock(),
                reason: q.reason,
            });
        }
        world
            .metrics
            .set_gauge("ninja_fleet_queue_depth", &[], adm.depth() as f64);
        world.metrics.set_gauge(
            "ninja_fleet_inflight_migrations",
            &[],
            adm.inflight() as f64,
        );

        // 3. Step every machine due at this instant (job order for
        //    determinism). A step may finish a job and free a slot.
        let mut freed_slot = false;
        for j in 0..jobs.len() {
            while running[j]
                .as_ref()
                .is_some_and(|r| r.next_at <= world.clock())
            {
                let r = running[j].as_mut().expect("checked above");
                let mut wire = WireMode::FairShare(&mut link);
                match r.machine.step(world, &mut *jobs[j], &mut wire) {
                    Err(e) => {
                        let r = running[j].take().expect("was running");
                        failures.push(JobFailure {
                            job: j,
                            reason: r.reason,
                            error: e.to_string(),
                            failed_at: r.machine.now(),
                        });
                        adm.release();
                        freed_slot = true;
                        break;
                    }
                    Ok(StepOutcome::Ready) => r.next_at = r.machine.now(),
                    Ok(StepOutcome::Waiting(t)) => {
                        r.next_at = t;
                        if t <= world.clock() {
                            continue;
                        }
                        break;
                    }
                    Ok(StepOutcome::Done(report)) => {
                        let r = running[j].take().expect("was running");
                        let finished = r.machine.now();
                        let turnaround = finished.since(r.triggered_at);
                        let degraded = report.degraded;
                        let missed = cfg.deadline.is_some_and(|d| turnaround > d);
                        if world.recorder.is_some() {
                            // Recorder-gated, mirroring `run_fleet`.
                            world.metrics.describe(
                                "ninja_fleet_deadline_misses_total",
                                "Jobs whose trigger-to-resume turnaround exceeded the deadline",
                            );
                            world.metrics.inc(
                                "ninja_fleet_deadline_misses_total",
                                &[],
                                missed as u64,
                            );
                        }
                        outcomes[j].push(JobOutcome {
                            job: j,
                            reason: r.reason,
                            triggered_at: r.triggered_at,
                            started_at: r.started_at,
                            finished_at: finished,
                            deadline_missed: missed,
                            report,
                        });
                        if degraded && r.reason != TriggerReason::Recovery {
                            let dsts = jobs[j]
                                .vms()
                                .iter()
                                .map(|&vm| world.pool.get(vm).node)
                                .collect();
                            world.metrics.describe(
                                "ninja_recovery_migrations_total",
                                "Automatic recovery migrations after degraded jobs",
                            );
                            world.metrics.inc("ninja_recovery_migrations_total", &[], 1);
                            pending_recovery.push((
                                finished,
                                QueuedJob {
                                    job: j,
                                    dsts,
                                    triggered_at: finished,
                                    reason: TriggerReason::Recovery,
                                },
                            ));
                        }
                        adm.release();
                        freed_slot = true;
                    }
                }
            }
        }
        if freed_slot && adm.depth() > 0 {
            continue;
        }

        // 4. Jump to the next event.
        let mut t_next = SimTime::MAX;
        for r in running.iter().flatten() {
            t_next = t_next.min(r.next_at);
        }
        if let Some(t) = scheduler.next_at() {
            t_next = t_next.min(t);
        }
        for (t, _) in &pending_recovery {
            t_next = t_next.min(*t);
        }
        if t_next == SimTime::MAX {
            debug_assert_eq!(adm.depth(), 0, "queued job with nothing running");
            break;
        }
        // Mirror `run_fleet`: pending scrapes cap the jump so both
        // engines land on identical scrape instants.
        if let Some(rec) = world.recorder.as_ref() {
            t_next = t_next.min(rec.next_due());
        }
        world.advance_to(t_next);
        link.advance_to(world.clock());
    }

    world.metrics.set_gauge("ninja_fleet_queue_depth", &[], 0.0);
    world
        .metrics
        .set_gauge("ninja_fleet_inflight_migrations", &[], 0.0);
    world.metrics.describe(
        "ninja_fleet_engine_iterations_total",
        "Fleet event-loop iterations per run (spin-guard observability)",
    );
    world
        .metrics
        .inc("ninja_fleet_engine_iterations_total", &[], iterations);
    world.finish_recorder();
    let alerts = world
        .recorder
        .as_ref()
        .and_then(|r| r.alerts())
        .map(|a| a.incidents().to_vec())
        .unwrap_or_default();

    let jobs_done: Vec<JobOutcome> = outcomes.into_iter().flatten().collect();
    let started = first_trigger.unwrap_or(world.clock());
    let makespan = jobs_done
        .iter()
        .map(|j| j.finished_at)
        .fold(started, SimTime::max)
        .since(started);
    Ok(FleetReport {
        jobs: jobs_done,
        makespan,
        concurrency: cfg.concurrency,
        peak_queue_depth: adm.peak_depth(),
        deadline: cfg.deadline,
        failures,
        alerts,
    })
}
