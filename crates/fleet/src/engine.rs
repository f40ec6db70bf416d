//! The fleet engine: many overlapping Ninja migrations in virtual time.
//!
//! An event loop over two clocks that must agree:
//!
//! * the **world clock** (`world.clock()`), shared by every job; it is
//!   also the clock of the data center's migration fabric, which drains
//!   the concurrent precopy flows as the world advances;
//! * each [`MigrationMachine`]'s job-local clock — where that job's
//!   next phase may start.
//!
//! Each iteration: deliver due [`CloudScheduler`] triggers into the
//! [`AdmissionController`], admit jobs while slots are free, step every
//! machine that is due at the current instant, then jump the world to
//! the earliest next event. Everything is deterministic per seed: jobs
//! are stepped in index order and the only randomness is the world RNG
//! the machines draw hotplug latencies from.
//!
//! # Event queues
//!
//! The engine does work only at real events. A machine becomes due from
//! one of three wake sources:
//!
//! * **its clock**: the instant its last phase ended;
//! * **an owned drain**: a machine parked on the wire
//!   ([`StepOutcome::OnLink`]) wakes when one of its own streams drains
//!   on the migration fabric, which reports the flows it drained; the
//!   other parked machines sleep on;
//! * **a trigger**: a scheduler trigger or a due recovery admits a new
//!   machine.
//!
//! The next event is the earliest machine wake, trigger, recovery or
//! fabric drain. A flight-recorder scrape is not an event: the world
//! takes every scrape due on the way (the scrape rule in
//! `ninja_sim::timeseries`), so a recorder never changes the run.
//!
//! Due-machine discovery, the recovery queue, and the next-event search
//! all run over `BinaryHeap`s keyed `(time, job)`, so one iteration
//! touches only the jobs that are actually due instead of sweeping the
//! whole fleet. Two invariants make the heap order reproduce the old
//! full-sweep order exactly:
//!
//! * the world clock only ever jumps to the *minimum* pending wake
//!   time, so every due machine at the top of an iteration satisfies
//!   `next_at == world.clock()` — min-heap pops at one instant come out
//!   in ascending job index, the documented tie-break;
//! * a machine's wake time changes only while it is being stepped or
//!   when an owned drain wakes it, so each running job that is not
//!   parked has exactly one live heap entry (a parked one has none);
//!   entries that stopped matching their slot's job and `next_at` (the
//!   job finished or failed meanwhile) are discarded lazily on pop.
//!
//! The same reasoning keys recovery migrations by `(not_before, job)`,
//! replacing the sort-every-iteration pending list. The engine's
//! outputs are pinned bit-identical to the pre-optimization full-sweep
//! loop by the digest table `tests/golden/matrix.sha256`, blessed while
//! that loop still existed; `docs/fleet.md` has the complexity budget.
//!
//! # Per-job state
//!
//! Only in-flight migrations hold a [`MigrationMachine`]: they live in a
//! slot array as long as the most migrations ever in flight at once (at
//! most `concurrency`), and a finished job's slot is reused. A queued job
//! costs its admission-queue entry and two bytes of bookkeeping. Every
//! outcome lands in one vector, ordered once at the end.

use crate::admission::{AdmissionController, QueuedJob};
use crate::slo::{FleetReport, JobFailure, JobOutcome};
use ninja_cluster::NodeId;
use ninja_migration::{
    reserve_job_telemetry, CloudScheduler, MigrationMachine, StepOutcome, TriggerReason, World,
};
use ninja_sim::{Bandwidth, SeriesId, SimDuration, SimTime};
use ninja_symvirt::{GuestCooperative, RetryPolicy, SymVirtError};
use ninja_vmm::QemuMonitor;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;

/// Fleet engine tunables.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Maximum migrations in flight at once.
    pub concurrency: usize,
    /// Per-job deadline (trigger → resumed); `None` disables deadline
    /// accounting. Missed deadlines are reported, not enforced — the
    /// migration still completes.
    pub deadline: Option<SimDuration>,
    /// Capacity of the shared switch uplink all precopy streams of the
    /// run cross, besides their own paths (self-migrations excepted: a
    /// loopback stream crosses no link).
    pub uplink: Bandwidth,
    /// Migration config (sender cap, scan rate, RDMA) for every job.
    pub monitor: QemuMonitor,
    /// Retry policy the machines use when the world's fault plan fires.
    pub retry: RetryPolicy,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            concurrency: 1,
            deadline: None,
            uplink: Bandwidth::from_gbps(10.0),
            monitor: QemuMonitor::default(),
            retry: RetryPolicy::default(),
        }
    }
}

/// Errors from a fleet run. Migration failures are NOT among them: a
/// job whose migration dies (injected fault, retries exhausted) is
/// recorded as a [`JobFailure`] in the report and the run continues.
#[derive(Debug)]
pub enum FleetError {
    /// A trigger without a `job` tag reached the fleet engine.
    UntaggedTrigger,
    /// A trigger named a job index outside the job slice.
    BadJobIndex(usize),
    /// A job was triggered again before its first migration finished.
    DuplicateTrigger(usize),
    /// The event loop stopped making progress (same-instant spin
    /// bound exceeded) — an engine bug, surfaced instead of hanging.
    Stalled,
    /// This many jobs were scheduled but neither finished nor failed:
    /// their triggers fell at the end of the clock ([`SimTime::MAX`]).
    Unfinished(usize),
}

impl fmt::Display for FleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetError::UntaggedTrigger => {
                write!(f, "fleet trigger missing a job tag (use push_job)")
            }
            FleetError::BadJobIndex(j) => write!(f, "trigger names unknown job {j}"),
            FleetError::DuplicateTrigger(j) => write!(f, "job {j} triggered twice"),
            FleetError::Stalled => write!(
                f,
                "fleet event loop stalled: no progress over the spin bound"
            ),
            FleetError::Unfinished(n) => write!(
                f,
                "{n} job(s) neither finished nor failed before the end of simulated time"
            ),
        }
    }
}

impl std::error::Error for FleetError {}

/// An in-flight migration, in its slot.
struct Running {
    job: usize,
    /// Which of the job's migrations this is (0 = the triggered one,
    /// 1 = its automatic recovery): the `mig` coordinate fault specs
    /// target.
    mig: usize,
    machine: MigrationMachine,
    /// When the machine can next do work: its clock, or the instant one
    /// of its streams drained.
    next_at: SimTime,
    /// Parked on the wire ([`StepOutcome::OnLink`]): no wake entry
    /// until one of its streams drains.
    parked: bool,
    triggered_at: SimTime,
    started_at: SimTime,
    reason: ninja_migration::TriggerReason,
}

/// Emit a gauge only when its value actually changed since the last
/// emission, so a scrape sees the workload's shape rather than the
/// loop's tick rate. The series id is resolved at the first emission
/// (not before: the series must not exist until it has a value).
struct TransitionGauge {
    name: &'static str,
    id: Option<SeriesId>,
    last: Option<f64>,
}

impl TransitionGauge {
    fn new(name: &'static str) -> Self {
        TransitionGauge {
            name,
            id: None,
            last: None,
        }
    }

    fn set(&mut self, world: &mut World, value: f64) {
        if self.last != Some(value) {
            let m = &mut world.metrics;
            let id = *self.id.get_or_insert_with(|| m.gauge_id(self.name, &[]));
            m.set(id, value);
            self.last = Some(value);
        }
    }
}

/// Drive every scheduled migration to completion. `jobs[i]` is the
/// application the scheduler's job-`i` triggers move; each job may be
/// externally triggered at most once per run. A job whose migration
/// lands degraded (TCP because the IB re-attach failed) gets one
/// automatic **recovery migration**: a self-migration back onto its
/// current hosts, enqueued no earlier than the instant the degraded
/// migration finished (per-VM causal order), re-attaching the HCAs and
/// restoring InfiniBand. Failed migrations are captured per job in the
/// report; structural errors (bad triggers) still abort the run.
pub fn run_fleet(
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

    // Room in the trace for every job's migration, recorded without
    // growing its arrays.
    let vms = jobs.iter().map(|j| j.vms().len()).sum();
    reserve_job_telemetry(&mut world.trace, jobs.len(), vms);

    let mut adm = AdmissionController::new(cfg.concurrency);
    let uplink = world.dc.migration_fabric.add_link(cfg.uplink);
    let first_trigger = scheduler.next_at();
    // In-flight migrations by slot; `free` lists the empty slots.
    let mut running: Vec<Option<Running>> = Vec::new();
    let mut free: Vec<usize> = Vec::new();
    // Every outcome of the run: one per job, plus one per automatic
    // recovery migration. Ordered by `(job, is_recovery)` at the end.
    let mut outcomes: Vec<JobOutcome> = Vec::with_capacity(jobs.len());
    let mut failures: Vec<JobFailure> = Vec::new();
    let mut externally_triggered = vec![false; jobs.len()];
    // Jobs whose triggered migration (`mig` 0) has finished or failed.
    let mut first_done = 0usize;
    // How many migrations each job has started — the `mig` coordinate
    // fault specs target (0 = the triggered one, 1 = recovery).
    let mut mig_count = vec![0u8; jobs.len()];
    // Machine wake queue: one live entry `(next_at, job, slot)` per
    // running job. Entries left behind by a job that finished or failed
    // are discarded lazily (their slot no longer holds that job at that
    // `next_at`).
    let mut wake: BinaryHeap<Reverse<(SimTime, usize, usize)>> = BinaryHeap::new();
    let live = |running: &[Option<Running>], (t, j, slot): (SimTime, usize, usize)| {
        running[slot]
            .as_ref()
            .is_some_and(|r| r.job == j && r.next_at == t)
    };
    // The slot of the machine each stream was opened by, indexed by
    // flow id (`u32::MAX` for none), set when the machine parks on it.
    let mut flow_owner: Vec<u32> = Vec::new();
    // Recovery migrations waiting for the world clock to reach the
    // instant their degraded predecessor finished (causal order), keyed
    // `(not_before, job)` with their destinations. At most one per job,
    // so the key is unique and the heap never compares destinations.
    let mut recovery_q: BinaryHeap<Reverse<(SimTime, usize, Vec<NodeId>)>> = BinaryHeap::new();
    let mut queue_depth = TransitionGauge::new("ninja_fleet_queue_depth");
    let mut inflight = TransitionGauge::new("ninja_fleet_inflight_migrations");
    // Resolved at the first admission and the first finish, like the
    // gauges' ids.
    let mut queue_wait: Option<SeriesId> = None;
    let mut deadline_misses: Option<SeriesId> = None;
    let mut machine_steps: u64 = 0;
    // Same-instant spin bound: a correct loop makes progress (clock
    // advance, admission, or completion) long before this.
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
        while recovery_q
            .peek()
            .is_some_and(|Reverse((t, _, _))| *t <= world.clock())
        {
            let Reverse((not_before, job, dsts)) = recovery_q.pop().expect("peeked");
            adm.enqueue(QueuedJob {
                job,
                dsts,
                triggered_at: not_before,
                reason: TriggerReason::Recovery,
            });
        }
        // 2. Admit while slots are free.
        while let Some(q) = adm.admit() {
            let wait = world.clock().since(q.triggered_at);
            let m = &mut world.metrics;
            let id = *queue_wait
                .get_or_insert_with(|| m.histogram_id("ninja_fleet_queue_wait_seconds", &[]));
            m.record(id, wait.as_secs_f64());
            let mig = usize::from(mig_count[q.job]);
            mig_count[q.job] += 1;
            let machine = MigrationMachine::new(
                cfg.monitor.clone(),
                jobs[q.job].vms().to_vec(),
                q.dsts,
                world.clock(),
            )
            .with_fault_target(q.job, mig)
            .with_retry(cfg.retry)
            .with_uplink(uplink);
            let r = Running {
                job: q.job,
                mig,
                machine,
                next_at: world.clock(),
                parked: false,
                triggered_at: q.triggered_at,
                started_at: world.clock(),
                reason: q.reason,
            };
            let slot = match free.pop() {
                Some(slot) => {
                    running[slot] = Some(r);
                    slot
                }
                None => {
                    running.push(Some(r));
                    running.len() - 1
                }
            };
            wake.push(Reverse((world.clock(), q.job, slot)));
        }

        // 3. Step every machine due at this instant. All due entries
        //    carry `next_at == world.clock()` (the clock only jumps to
        //    the minimum pending time), so the min-heap yields them in
        //    job order — the same order as the old full sweep. A step
        //    may finish a job and free a slot.
        let mut freed_slot = false;
        while wake
            .peek()
            .is_some_and(|&Reverse((t, _, _))| t <= world.clock())
        {
            let Reverse(entry) = wake.pop().expect("peeked");
            if !live(&running, entry) {
                continue; // stale: the job finished, failed, or moved
            }
            let (_, j, slot) = entry;
            while running[slot]
                .as_ref()
                .is_some_and(|r| r.next_at <= world.clock())
            {
                let r = running[slot].as_mut().expect("checked above");
                machine_steps += 1;
                match r.machine.step(world, &mut *jobs[j]) {
                    Err(e) => {
                        // This job is done for; the fleet is not. Record
                        // the failure, free the slot, keep going.
                        let r = running[slot].take().expect("was running");
                        free.push(slot);
                        first_done += usize::from(r.mig == 0);
                        failures.push(failure(r, &e));
                        adm.release();
                        freed_slot = true;
                        break;
                    }
                    Ok(StepOutcome::Ready) => r.next_at = r.machine.now(),
                    Ok(StepOutcome::OnLink) => {
                        // Parked until one of its streams drains.
                        r.parked = true;
                        for flow in r.machine.flows() {
                            let i = flow.0 as usize;
                            if flow_owner.len() <= i {
                                flow_owner.resize(i + 1, u32::MAX);
                            }
                            flow_owner[i] = slot as u32;
                        }
                        break;
                    }
                    Ok(StepOutcome::Done(report)) => {
                        let r = running[slot].take().expect("was running");
                        free.push(slot);
                        first_done += usize::from(r.mig == 0);
                        let finished = r.machine.now();
                        let turnaround = finished.since(r.triggered_at);
                        let degraded = report.degraded;
                        let missed = cfg.deadline.is_some_and(|d| turnaround > d);
                        // From the first finish on, so burn-rate alert
                        // rules see the series at 0 from the first
                        // miss-free scrape.
                        let m = &mut world.metrics;
                        let id = *deadline_misses.get_or_insert_with(|| {
                            m.describe(
                                "ninja_fleet_deadline_misses_total",
                                "Jobs whose trigger-to-resume turnaround exceeded the deadline",
                            );
                            m.counter_id("ninja_fleet_deadline_misses_total", &[])
                        });
                        m.add(id, missed as u64);
                        outcomes.push(JobOutcome {
                            job: j,
                            reason: r.reason,
                            triggered_at: r.triggered_at,
                            started_at: r.started_at,
                            finished_at: finished,
                            deadline_missed: missed,
                            report,
                        });
                        if degraded && r.reason != TriggerReason::Recovery {
                            // Schedule the recovery: a self-migration
                            // onto the job's current hosts re-attaches
                            // the HCAs the degrade left free, restoring
                            // IB after link training. Not before
                            // `finished`: the job's Fig. 4 phases must
                            // stay causally ordered per VM.
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
                            recovery_q.push(Reverse((finished, j, dsts)));
                        }
                        adm.release();
                        freed_slot = true;
                    }
                }
            }
            if let Some(r) = running[slot].as_ref().filter(|r| !r.parked) {
                debug_assert!(r.next_at > world.clock(), "stepped until not due");
                wake.push(Reverse((r.next_at, j, slot)));
            }
        }
        // The gauges after admitting and stepping, releases included,
        // so that every scrape of the next jump reads them fresh.
        queue_depth.set(world, adm.depth() as f64);
        inflight.set(world, adm.inflight() as f64);
        if freed_slot && adm.depth() > 0 {
            continue; // admit into the freed slots at this same instant
        }

        // 4. Jump to the next event: the earliest machine wake, trigger,
        //    recovery or stream drain. Discard stale wake entries until
        //    the top one is live; it is then the earliest machine wake
        //    (every running job that is not parked keeps exactly one
        //    live entry).
        while let Some(&Reverse(entry)) = wake.peek() {
            if live(&running, entry) {
                break;
            }
            wake.pop();
        }
        let mut t_next = SimTime::MAX;
        if let Some(&Reverse((t, _, _))) = wake.peek() {
            t_next = t_next.min(t);
        }
        if let Some(t) = scheduler.next_at() {
            t_next = t_next.min(t);
        }
        if let Some(Reverse((t, _, _))) = recovery_q.peek() {
            t_next = t_next.min(*t);
        }
        match world.dc.migration_fabric.next_completion() {
            Some(t) if t == SimTime::MAX => {
                // No stream drains before the end of the clock, so no
                // parked machine can ever land: fail each, in job order.
                let mut stuck: Vec<(usize, usize)> = running
                    .iter()
                    .enumerate()
                    .filter_map(|(slot, r)| Some((r.as_ref().filter(|r| r.parked)?.job, slot)))
                    .collect();
                if !stuck.is_empty() {
                    stuck.sort_unstable();
                    for (_, slot) in stuck {
                        let r = running[slot].take().expect("parked");
                        free.push(slot);
                        first_done += usize::from(r.mig == 0);
                        failures.push(failure(r, &SymVirtError::ClockExhausted));
                        adm.release();
                    }
                    continue; // admit into the freed slots at this instant
                }
            }
            Some(t) => t_next = t_next.min(t),
            None => {}
        }
        if t_next == SimTime::MAX {
            break;
        }
        // Scrapes are not events: the world takes every scrape due on
        // the way.
        world.advance_to(t_next);
        wake_owners(world, &mut running, &flow_owner, &mut wake);
    }

    // Nothing left to do but what is due at `SimTime::MAX`: every
    // triggered job must have reached the report, as an outcome or a
    // failure of its first migration.
    let triggered = externally_triggered.iter().filter(|&&t| t).count();
    let unfinished = scheduler.len() + (triggered - first_done);
    if unfinished > 0 {
        return Err(FleetError::Unfinished(unfinished));
    }

    // Terminal transition: both gauges return to zero at drain, and the
    // transition wrappers record it exactly once.
    queue_depth.set(world, 0.0);
    inflight.set(world, 0.0);
    world.metrics.describe(
        "ninja_fleet_engine_iterations_total",
        "Fleet event-loop iterations per run (spin-guard observability)",
    );
    world
        .metrics
        .inc("ninja_fleet_engine_iterations_total", &[], iterations);
    // Flush the recorder after the terminal gauge values so the final
    // scrape(s) see the drained fleet and active alerts can resolve.
    world.finish_recorder();
    let alerts = world
        .recorder
        .as_ref()
        .and_then(|r| r.alerts())
        .map(|a| a.incidents().to_vec())
        .unwrap_or_default();

    // A job's triggered migration, then its recovery (keys are unique:
    // one of each at most).
    outcomes.sort_unstable_by_key(|o| (o.job, o.reason == TriggerReason::Recovery));
    let started = first_trigger.unwrap_or(world.clock());
    let makespan = outcomes
        .iter()
        .map(|j| j.finished_at)
        .fold(started, SimTime::max)
        .since(started);
    Ok(FleetReport {
        jobs: outcomes,
        makespan,
        concurrency: cfg.concurrency,
        peak_queue_depth: adm.peak_depth(),
        deadline: cfg.deadline,
        failures,
        alerts,
        machine_steps,
    })
}

/// Wake the parked owner of every stream the migration fabric drained
/// since the last call, at that drain (or now, if later), and only
/// them.
fn wake_owners(
    world: &mut World,
    running: &mut [Option<Running>],
    flow_owner: &[u32],
    wake: &mut BinaryHeap<Reverse<(SimTime, usize, usize)>>,
) {
    let now = world.clock();
    let fabric = &mut world.dc.migration_fabric;
    for &flow in fabric.drained() {
        let Some(&slot) = flow_owner.get(flow.0 as usize) else {
            continue;
        };
        let Some(r) = running.get_mut(slot as usize).and_then(Option::as_mut) else {
            continue;
        };
        if r.parked {
            let at = fabric.completion(flow).expect("drained").max(now);
            r.parked = false;
            r.next_at = at;
            wake.push(Reverse((at, r.job, slot as usize)));
        }
    }
    fabric.clear_drained();
}

/// The failure record of an in-flight migration that failed with `error`.
fn failure(r: Running, error: &SymVirtError) -> JobFailure {
    JobFailure {
        job: r.job,
        reason: r.reason,
        error: error.to_string(),
        failed_at: r.machine.now(),
    }
}
