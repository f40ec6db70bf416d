//! Resumable, step-wise Ninja migration state machine.
//!
//! [`NinjaOrchestrator::migrate`](crate::NinjaOrchestrator::migrate)
//! used to execute the whole of Fig. 4 in one straight-line call, which
//! is fine for a single job but makes it impossible for a simulation
//! engine to *interleave* several jobs' migrations in virtual time. A
//! [`MigrationMachine`] is the same control flow cut at the phase
//! boundaries:
//!
//! ```text
//! Start ──quiesce──▶ Quiesced ──detach──▶ Detached ──migrate──▶
//!   Migrated ──attach──▶ Attached ──signal+linkup──▶ Done(report)
//! ```
//!
//! Each [`step`](MigrationMachine::step) performs exactly one phase and
//! advances the machine's *job-local* clock; the caller decides when to
//! advance the world. The serial orchestrator simply steps the machine
//! to completion. The fleet engine instead keeps many machines in
//! flight, stepping whichever is due next.
//!
//! Either way the migration phase opens every VM's migration
//! ([`Controller::migration_open`]: check, plan, hold the destination
//! memory, and open its precopy stream as a flow on the data center's
//! migration fabric) and polls them until
//! [`Controller::migration_land`] lands them all. The fabric is one
//! max-min model of every stream's path (source port, WAN pipe,
//! destination port, a fleet's uplink), so concurrent migrations split
//! bandwidth wherever their paths meet — that is what makes fleet
//! contention measurable — and a serial run is simply a fabric with
//! one job on it.
//!
//! Checkpoint, restart and abort are kinds of the machine
//! ([`MachineKind`]): their snapshot images are flows on the same
//! fabric.
//!
//! Per migration the machine copies the application's VM list once,
//! into its controller's hostlist, which is the machine's one VM list
//! ([`GuestCooperative::vms`] lends it). The open migrations that
//! [`Controller::migration_open`] returns stay with the machine as its
//! record of what each VM put on the wire. The controller records its
//! per-VM intervals only when the world's trace is on, since the trace
//! is their one reader.

use crate::report::NinjaReport;
use crate::world::World;
use ninja_cluster::NodeId;
use ninja_net::{FlowId, LinkId};
use ninja_sim::{Bytes, MetricsRegistry, SeriesId, SimTime, Trace};
use ninja_symvirt::{
    freeze, Controller, FaultKind, FaultPhase, GuestCooperative, PendingMigration, ResumeOutcome,
    RetryPolicy, SymVirtError, VmSpan,
};
use ninja_vmm::{snapshot::image_bytes, QemuMonitor, VmId, VmmError};

/// What a [`MigrationMachine::step`] call produced.
#[derive(Debug)]
pub enum StepOutcome {
    /// The phase completed; the machine's clock moved to
    /// [`MigrationMachine::now`] and the next phase can run as soon as
    /// the world reaches that instant.
    Ready,
    /// The machine is parked on the wire: its precopy streams
    /// ([`MigrationMachine::flows`]) are on the migration fabric, and
    /// it has nothing to do until one of them drains. Advance the world
    /// (which drains the fabric) past such a drain, then step again; a
    /// serial driver uses [`World::advance_to_next_drain`].
    OnLink,
    /// The migration finished; the report is the same breakdown the
    /// one-shot orchestrator returns.
    Done(NinjaReport),
}

/// What a [`MigrationMachine`] runs. A kind decides the phase the
/// machine enters at, what the transfer phase opens and lands, and the
/// names of the envelope span and the counter; nothing else differs,
/// except that only a migration consults the world's fault plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MachineKind {
    /// A Ninja migration: the precopy streams of Fig. 4.
    Migrate,
    /// A checkpoint: save every image, recorded in [`World::snapshots`].
    Checkpoint,
    /// A restart of VMs restored in SymVirt wait: enters at the
    /// transfer (every image read back); always waits out link-up.
    Restart,
    /// Roll back a migration that failed between freeze and signal:
    /// enters at the attach, on the current hosts.
    Abort,
}

impl MachineKind {
    /// The envelope span (component `ninja`) and the counter of a run.
    fn names(self) -> (&'static str, &'static str) {
        match self {
            MachineKind::Migrate => ("ninja", "ninja_migrations_total"),
            MachineKind::Checkpoint => ("checkpoint", "ninja_checkpoints_total"),
            MachineKind::Restart => ("restart", "ninja_restarts_total"),
            MachineKind::Abort => ("abort", "ninja_aborts_total"),
        }
    }
}

enum State {
    Start,
    Quiesced,
    Detached,
    /// The migration preflight moved the clock: the transfer opens at
    /// the next step, once the world has caught up.
    Open,
    Transferring,
    Migrated,
    Attached,
    Done,
}

/// What the fault preflight decided for a phase.
enum Preflight {
    /// Run the real phase operation.
    Proceed,
    /// IB re-attach failed for good: skip `device_add`, resume on TCP
    /// (the BTL exclusivity logic picks tcp=100 when no HCA is
    /// attached), and mark the report degraded.
    Degrade,
}

/// A single Ninja migration, resumable one phase at a time.
pub struct MigrationMachine {
    kind: MachineKind,
    /// The controller; its hostlist is the machine's one VM list.
    ctl: Controller,
    dsts: Vec<NodeId>,
    state: State,
    now: SimTime,
    /// The phase instants: each phase of the report, its trace span and
    /// its histogram sample runs from one of these to the next (link-up
    /// ends at the final clock), so retry backoff and stalls count in
    /// the phase they delayed.
    t_start: SimTime,
    t_coord_end: SimTime,
    t_detach_end: SimTime,
    t_mig_end: SimTime,
    t_attach_end: SimTime,
    transport_before: Option<&'static str>,
    real_move: bool,
    /// The VMs' migrations, in hostlist order: open while precopying,
    /// then the record of what each put on the wire.
    pending: Vec<PendingMigration>,
    /// A checkpoint's or restart's image streams, in hostlist order.
    images: Vec<FlowId>,
    /// Bytes the transfer phase put on the wire.
    wire: Bytes,
    /// When the re-attached IB links become usable (`None` without an
    /// attach, or when it attached no HCA).
    link_active_at: Option<SimTime>,
    /// Fault-plan coordinates: which fleet job this machine migrates
    /// and which of that job's migrations this is (0 = first; the
    /// fleet engine's automatic recovery migration is 1).
    job: usize,
    mig: usize,
    policy: RetryPolicy,
    degraded: bool,
    /// An extra link every stream crosses (a fleet's switch uplink).
    uplink: Option<LinkId>,
}

impl MigrationMachine {
    /// A machine migrating `vms` so VM *i* lands on `dsts[i % len]`,
    /// starting at `start`. `monitor` carries the migration config. The
    /// list becomes the controller's hostlist.
    pub fn new(monitor: QemuMonitor, vms: Vec<VmId>, dsts: Vec<NodeId>, start: SimTime) -> Self {
        assert!(!dsts.is_empty(), "empty hostlist");
        MigrationMachine {
            kind: MachineKind::Migrate,
            ctl: Controller::new(vms, monitor),
            dsts,
            state: State::Start,
            now: start,
            t_start: start,
            t_coord_end: start,
            t_detach_end: start,
            t_mig_end: start,
            t_attach_end: start,
            transport_before: None,
            real_move: false,
            pending: Vec::new(),
            images: Vec::new(),
            wire: Bytes::ZERO,
            link_active_at: None,
            job: 0,
            mig: 0,
            policy: RetryPolicy::default(),
            degraded: false,
            uplink: None,
        }
    }

    /// Run `kind`, with `dsts` the VMs' current hosts.
    pub fn with_kind(mut self, kind: MachineKind) -> Self {
        self.kind = kind;
        self
    }

    /// Route every precopy stream over `link` too (a fleet's shared
    /// switch uplink) besides its own path.
    pub fn with_uplink(mut self, link: LinkId) -> Self {
        self.uplink = Some(link);
        self
    }

    /// Aim the world's fault plan at this machine: it runs migration
    /// number `mig` of fleet job `job` (specs match on those
    /// coordinates). The default is job 0, migration 0 — what a serial
    /// single-job run is.
    pub fn with_fault_target(mut self, job: usize, mig: usize) -> Self {
        self.job = job;
        self.mig = mig;
        self
    }

    /// Use this retry policy when injected faults strike.
    pub fn with_retry(mut self, policy: RetryPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Whether the destination IB re-attach failed and the job resumed
    /// on TCP (graceful degradation).
    pub fn degraded(&self) -> bool {
        self.degraded
    }

    /// The machine's job-local clock: the instant its last completed
    /// phase ended, i.e. when its next phase may start.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The VMs this machine migrates (its controller's hostlist).
    pub fn vms(&self) -> &[VmId] {
        self.ctl.hostlist()
    }

    /// Consult the world's fault plan before executing `phase`, driving
    /// the retry-with-bounded-backoff loop in virtual time. Each fired
    /// fault counts in `ninja_fault_injections_total`; each retry adds
    /// `policy.backoff_before(attempt)` to the machine's clock and
    /// counts in `ninja_retries_total`. When retries are exhausted the
    /// fault becomes terminal: a failed IB re-attach degrades the job
    /// to TCP, a stall is absorbed as extra virtual time, and the rest
    /// fail the migration cleanly with a typed error. A fault that keeps
    /// firing is taken as one run ([`ninja_symvirt::FaultPlan::fire`]),
    /// so the loop turns once per spec however many retries the policy
    /// allows. With an empty plan this is a single hash-free lookup: no
    /// RNG draws, no clock movement, no metrics — fault-free runs stay
    /// bit-identical. Only a migration consults the plan.
    fn preflight(
        &mut self,
        world: &mut World,
        phase: FaultPhase,
    ) -> Result<Preflight, SymVirtError> {
        if self.kind != MachineKind::Migrate {
            return Ok(Preflight::Proceed);
        }
        let mut attempt: u32 = 0;
        loop {
            let left = self.policy.max_retries - attempt;
            let Some((inj, fires)) =
                world
                    .faults
                    .fire(self.job, self.mig, phase, u64::from(left) + 1)
            else {
                return Ok(Preflight::Proceed);
            };
            let m = &mut world.metrics;
            m.describe(
                "ninja_fault_injections_total",
                "Injected faults, by kind and phase",
            );
            m.inc(
                "ninja_fault_injections_total",
                &[("kind", inj.kind.name()), ("phase", phase.name())],
                fires,
            );
            if inj.kind == FaultKind::AgentDisconnect {
                if let Some(&vm) = self.ctl.hostlist().first() {
                    self.ctl.inject_agent_failure(vm);
                }
            }
            // Every fire but a last one past the budget is retried.
            let retries = fires.min(u64::from(left)) as u32;
            if retries > 0 {
                world
                    .metrics
                    .describe("ninja_retries_total", "Phase retries after injected faults");
                world.metrics.inc(
                    "ninja_retries_total",
                    &[("phase", phase.name())],
                    u64::from(retries),
                );
            }
            // Each retry backs off in virtual time first; a stall delays
            // every fire instead, the one past the budget too.
            self.now += match inj.kind {
                FaultKind::PrecopyStall => inj.stall * fires,
                _ => self
                    .policy
                    .backoff_before_each(attempt + 1, attempt + retries),
            };
            attempt += retries;
            if self.now == SimTime::MAX {
                return Err(SymVirtError::ClockExhausted);
            }
            if u64::from(retries) == fires {
                if inj.kind == FaultKind::AgentDisconnect {
                    self.ctl.repair_agents();
                }
                continue;
            }
            // Retries exhausted: degrade, absorb the stall, or fail
            // cleanly.
            return match inj.kind {
                FaultKind::HotplugAttach => Ok(Preflight::Degrade),
                FaultKind::PrecopyStall => Ok(Preflight::Proceed),
                FaultKind::QmpTimeout => Err(SymVirtError::Vmm(VmmError::MonitorTimeout {
                    command: phase.name().into(),
                })),
                FaultKind::PrecopyAbort => Err(SymVirtError::Vmm(VmmError::MigrationAborted)),
                FaultKind::AgentDisconnect => {
                    Err(SymVirtError::AgentsDisconnected(self.ctl.failed_agents()))
                }
            };
        }
    }

    /// The streams of the transfer phase, in hostlist order (empty
    /// before the phase opens them): what an
    /// [`OnLink`](StepOutcome::OnLink) machine waits on.
    pub fn flows(&self) -> impl Iterator<Item = FlowId> + '_ {
        let precopy = self.pending.iter().map(|p| p.flow);
        precopy.chain(self.images.iter().copied())
    }

    /// Run one phase. The caller must have advanced `world` to
    /// [`now`](Self::now) — the machine never reads the world clock, so
    /// stepping "in the past" relative to other machines is the caller's
    /// bug, not detectable here. A phase that would end at
    /// [`SimTime::MAX`] (where clock arithmetic saturates, and which
    /// event loops read as "nothing pending") fails the migration with
    /// [`SymVirtError::ClockExhausted`]; so does a wait on streams that
    /// cannot drain before it (the driver's to detect, as
    /// [`World::advance_to_next_drain`] does).
    ///
    /// # Panics
    ///
    /// If the machine already returned [`StepOutcome::Done`].
    pub fn step(
        &mut self,
        world: &mut World,
        app: &mut dyn GuestCooperative,
    ) -> Result<StepOutcome, SymVirtError> {
        let out = self.run_phase(world, app)?;
        if self.now == SimTime::MAX {
            return Err(SymVirtError::ClockExhausted);
        }
        Ok(out)
    }

    fn run_phase(
        &mut self,
        world: &mut World,
        app: &mut dyn GuestCooperative,
    ) -> Result<StepOutcome, SymVirtError> {
        match std::mem::replace(&mut self.state, State::Done) {
            State::Start => {
                // Degrade is impossible here (hotplug faults only fire
                // at attach); errors fail the job before any state moved.
                self.preflight(world, FaultPhase::Coordination)?;
                let traced = world.trace.is_enabled();
                let buf = traced.then(|| world.span_bufs.pop().unwrap_or_default());
                self.ctl.record_spans(buf);
                let entry = match self.kind {
                    MachineKind::Migrate | MachineKind::Checkpoint => None,
                    MachineKind::Restart => Some(State::Open),
                    MachineKind::Abort => Some(State::Migrated),
                };
                if let Some(state) = entry {
                    // Already frozen: enter at the transfer or attach.
                    self.ctl.wait_all(&world.pool)?;
                    self.state = state;
                    return self.run_phase(world, app);
                }
                self.transport_before = app.transport_label();
                let prep = freeze(app, &mut world.pool, &mut world.dc, self.now)?;
                self.now += prep.duration;
                self.t_coord_end = self.now;
                self.ctl.wait_all(&world.pool)?;
                // A "real" move (to different nodes) makes hotplug noisy.
                self.real_move = self
                    .ctl
                    .hostlist()
                    .iter()
                    .enumerate()
                    .any(|(i, &vm)| world.pool.get(vm).node != self.dsts[i % self.dsts.len()]);
                self.state = State::Quiesced;
                Ok(StepOutcome::Ready)
            }
            State::Quiesced => {
                self.preflight(world, FaultPhase::Detach)?;
                let detach = self.ctl.device_detach(
                    "hca-",
                    &mut world.pool,
                    &mut world.dc,
                    self.now,
                    &mut world.rng,
                    self.real_move,
                )?;
                self.now += detach.duration;
                self.t_detach_end = self.now;
                self.state = State::Detached;
                Ok(StepOutcome::Ready)
            }
            State::Detached => {
                let at = self.now;
                self.preflight(world, FaultPhase::Migration)?;
                if self.now > at {
                    // Streams open at the world clock, which is still
                    // at `at`: open them once it reaches the machine's.
                    self.state = State::Open;
                    return Ok(StepOutcome::Ready);
                }
                self.open(world)
            }
            State::Open => self.open(world),
            State::Transferring => self.poll(world),
            State::Migrated => {
                match self.preflight(world, FaultPhase::Attach)? {
                    Preflight::Degrade => {
                        // The destination HCAs never attach: leave them
                        // on the host, close the attach phase after the
                        // retries' backoff with no link horizon, and
                        // resume on TCP — the BTL reachability/exclusivity
                        // logic (tcp 100) lands the job there instead of
                        // failing it. The fleet engine schedules a
                        // recovery migration later.
                        self.degraded = true;
                        self.t_attach_end = self.now;
                    }
                    Preflight::Proceed => {
                        let attach = self.ctl.device_attach(
                            &mut world.pool,
                            &mut world.dc,
                            self.now,
                            &mut world.rng,
                            self.real_move,
                        )?;
                        self.now += attach.duration;
                        self.t_attach_end = self.now;
                        self.link_active_at = attach.link_active_at;
                    }
                }
                self.state = State::Attached;
                Ok(StepOutcome::Ready)
            }
            State::Attached => {
                self.ctl.signal(&mut world.pool)?;
                let vm_spans = self.ctl.take_spans();
                let hotplug_leaked = self.ctl.hotplug_leaked();
                self.ctl.close();
                // Confirm link-up + BTL reconstruction: the application
                // resumes inside the continue callback; if it will
                // rebuild modules while IB links train it must wait. A
                // restarted job rebuilds every connection, so it waits.
                if self.kind == MachineKind::Restart || app.needs_link_wait() {
                    if let Some(active_at) = self.link_active_at {
                        self.now = self.now.max(active_at);
                    }
                }
                let instants = [
                    self.t_start,
                    self.t_coord_end,
                    self.t_detach_end,
                    self.t_mig_end,
                    self.t_attach_end,
                    self.now,
                ];
                let windows: [_; 5] =
                    std::array::from_fn(|i| (crate::PHASE_NAMES[i], instants[i], instants[i + 1]));
                let phase = |i: usize| instants[i + 1].since(instants[i]);
                let outcome = app.resume_after_blackout(&world.pool, &mut world.dc, self.now)?;
                let btl_reconstructed = matches!(outcome, ResumeOutcome::Rebuilt);
                let mut report = NinjaReport::new(
                    phase(0),
                    phase(1),
                    phase(2),
                    phase(3),
                    phase(4),
                    self.wire,
                    self.transport_before,
                    app.transport_label(),
                    btl_reconstructed,
                    self.ctl.hostlist().len(),
                );
                report.degraded = self.degraded;
                record_job_telemetry(
                    world,
                    self.kind,
                    &report,
                    self.ctl.hostlist(),
                    &windows,
                    &vm_spans,
                    &self.pending,
                    hotplug_leaked,
                    self.t_start,
                    self.job,
                    self.mig,
                );
                if world.trace.is_enabled() {
                    world.span_bufs.push(vm_spans);
                }
                self.state = State::Done;
                Ok(StepOutcome::Done(report))
            }
            State::Done => unreachable!("`step` answers a finished machine"),
        }
    }

    /// Open the transfer at the machine's clock, which is the world's,
    /// and poll it: every VM's precopy stream, or every VM's snapshot
    /// image between its host and its NFS export.
    fn open(&mut self, world: &mut World) -> Result<StepOutcome, SymVirtError> {
        if self.kind == MachineKind::Migrate {
            self.pending = self.ctl.migration_open(
                &self.dsts,
                &mut world.pool,
                &mut world.dc,
                self.now,
                &mut world.rng,
                self.uplink,
            )?;
            self.wire = self.pending.iter().map(|p| p.plan.wire_bytes()).sum();
        } else {
            debug_assert_eq!(self.now, world.clock(), "open at the world clock");
            for &vm in self.ctl.hostlist() {
                let vm = world.pool.get(vm);
                let bytes = image_bytes(&vm.memory);
                self.images
                    .push(world.dc.open_image(vm.node, vm.disk, bytes));
                self.wire += bytes;
            }
        }
        self.poll(world)
    }

    /// Land the transfer if every stream has drained (and, for precopy,
    /// its scan floor passed) and close the phase; otherwise park on the
    /// streams.
    fn poll(&mut self, world: &mut World) -> Result<StepOutcome, SymVirtError> {
        let landed = match self.kind {
            MachineKind::Migrate => {
                self.ctl
                    .migration_land(&self.pending, &mut world.pool, &mut world.dc)
            }
            _ => self.land_images(world),
        };
        let Some(landed) = landed else {
            self.state = State::Transferring;
            return Ok(StepOutcome::OnLink);
        };
        self.now = self.now.max(landed);
        self.t_mig_end = self.now;
        self.state = State::Migrated;
        Ok(StepOutcome::Ready)
    }

    /// The last image's drain, once all have drained; a checkpoint then
    /// records every VM's snapshot, taken when the save began.
    fn land_images(&self, world: &mut World) -> Option<SimTime> {
        let fabric = &world.dc.migration_fabric;
        let mut last = SimTime::ZERO;
        for &flow in &self.images {
            last = last.max(fabric.completion(flow)?);
        }
        if self.kind == MachineKind::Checkpoint {
            for &vm in self.ctl.hostlist() {
                world.snapshots.save(&world.pool, vm, self.t_detach_end);
            }
        }
        Some(last)
    }
}

/// Series ids of the fixed per-migration metrics, cached beside the
/// registry in [`World`]. Each id is resolved at its series' first
/// write, so a series still comes into existence only once it has a
/// value; later migrations skip the key hash. Valid only for the
/// registry in the same `World`.
#[derive(Debug, Default)]
pub(crate) struct MigrationSeries {
    migrations: Option<SeriesId>,
    wire_bytes: Option<SeriesId>,
    hotplug_leaked: Option<SeriesId>,
    btl_reconstructions: Option<SeriesId>,
    phase_duration: [Option<SeriesId>; 5],
    trace_dropped: Option<SeriesId>,
}

/// Help texts of the per-migration metrics.
fn describe_migration_metrics(m: &mut MetricsRegistry) {
    m.describe("ninja_migrations_total", "Completed Ninja migrations");
    m.describe(
        "ninja_wire_bytes_total",
        "Precopy bytes on the wire across all migrations",
    );
    m.describe(
        "ninja_phase_duration_seconds",
        "Duration of each migration phase",
    );
    m.describe(
        "ninja_btl_reconstructions_total",
        "BTL module reconstructions after migration",
    );
    // Named for what it counts: IB resources (QPs/MRs) the monitor
    // reported leaked by unsafe teardown during device detach. This was
    // historically mis-exported as `ninja_hotplug_retries_total`.
    m.describe(
        "ninja_hotplug_leaked_total",
        "IB resources torn down unsafely during device detach",
    );
    m.describe(
        "ninja_trace_dropped_records",
        "Trace records evicted by the ring-buffer cap",
    );
}

/// Makes room in `trace` for the spans a [`MigrationMachine`] records
/// for `migrations` migrations moving `vms` VMs in all: per migration, six
/// job-level spans (the five phases and the envelope) with 16 labels
/// among them; per VM, one span per phase with 16 labels among them.
pub fn reserve_job_telemetry(trace: &mut Trace, migrations: usize, vms: usize) {
    trace.reserve(6 * migrations + 5 * vms, 16 * (migrations + vms));
}

/// Record the job-level phase spans, fill in per-VM spans for phases the
/// controller skipped on a VM (so every VM shows one complete span per
/// phase), and update the metrics registry. Shared by the serial
/// orchestrator and the fleet engine — both funnel through
/// [`MigrationMachine`]. Every span carries `job`/`mig` labels so the
/// critical-path analyzer can reassemble each migration's span tree
/// from a fleet trace. Labels are written straight into the trace, so
/// recording allocates only when the trace's arrays grow. A checkpoint,
/// restart or abort records the same phase spans under its own envelope
/// (`vms`, or `images` and `transport_after` for a restart) and adds one
/// to its counter only.
#[allow(clippy::too_many_arguments)]
pub(crate) fn record_job_telemetry(
    world: &mut World,
    kind: MachineKind,
    report: &NinjaReport,
    vms: &[VmId],
    windows: &[(&'static str, SimTime, SimTime); 5],
    vm_spans: &[VmSpan],
    migrations: &[PendingMigration],
    hotplug_leaked: u64,
    t_start: SimTime,
    job: usize,
    mig: usize,
) {
    // Spans: nothing to record when the trace is off.
    if world.trace.is_enabled() {
        let (job, mig) = (job as u64, mig as u64);
        let (trace, pool) = (&mut world.trace, &world.pool);
        // Job-level phase spans (component "ninja").
        for &(name, start, end) in windows {
            let span = trace
                .add_span("ninja", name, start, end)
                .label_u64("job", job)
                .label_u64("mig", mig);
            if name == "migration" {
                span.label_u64("wire_bytes", report.wire_bytes);
            }
        }
        // The whole run as one envelope span: a migration's carries its
        // coordinates and both transports, a restart's its images and
        // the transport it bound, the others their VM count.
        let (migrate, restart) = (kind == MachineKind::Migrate, kind == MachineKind::Restart);
        let mut overall = trace.add_span("ninja", kind.names().0, t_start, windows[4].2);
        if migrate {
            overall = overall.label_u64("job", job).label_u64("mig", mig);
        }
        let count = if restart { "images" } else { "vms" };
        overall = overall.label_u64(count, report.vm_count as u64);
        if let Some(t) = report.transport_before.filter(|_| migrate) {
            overall = overall.label("transport_before", t);
        }
        if let Some(t) = report.transport_after.filter(|_| migrate || restart) {
            overall.label("transport_after", t);
        }

        // Per-VM spans: the controller's real ones, plus the job window
        // for any (phase, vm) pair it skipped (e.g. detach on an HCA-less
        // VM), so every VM shows one span per phase. Each VM's first
        // `migration` span carries its precopy wire bytes.
        let vm_span = |trace: &mut Trace, name, vm: VmId, start, end, wire: Option<u64>| {
            let span = trace
                .add_span("symvirt", name, start, end)
                .label("vm", pool.name(vm))
                .label_u64("job", job)
                .label_u64("mig", mig);
            if let Some(bytes) = wire {
                span.label_u64("wire_bytes", bytes);
            }
        };
        let wire_of = |name: &str, v: usize| {
            let mig = migrations.get(v).filter(|_| name == "migration");
            mig.map(|p| p.plan.wire_bytes().get())
        };
        let covered = &mut world.covered;
        covered.clear();
        covered.resize(vms.len(), 0);
        for &(name, vm, start, end) in vm_spans {
            let phase = windows.iter().position(|w| w.0 == name);
            let mut wire = None;
            if let (Some(p), Some(v)) = (phase, vms.iter().position(|&x| x == vm)) {
                if covered[v] & (1 << p) == 0 {
                    wire = wire_of(name, v);
                }
                covered[v] |= 1 << p;
            }
            vm_span(trace, name, vm, start, end, wire);
        }
        for (p, &(name, start, end)) in windows.iter().enumerate() {
            for (v, &vm) in vms.iter().enumerate() {
                if covered[v] & (1 << p) == 0 {
                    vm_span(trace, name, vm, start, end, wire_of(name, v));
                }
            }
        }
    }

    if kind != MachineKind::Migrate {
        world.metrics.inc(kind.names().1, &[], 1);
        return;
    }
    let (m, s) = (&mut world.metrics, &mut world.migration_series);
    if s.migrations.is_none() {
        describe_migration_metrics(m); // the world's first migration
    }
    let mut add = |slot: &mut Option<SeriesId>, name: &str, delta: u64| {
        let id = *slot.get_or_insert_with(|| m.counter_id(name, &[]));
        m.add(id, delta);
    };
    add(&mut s.migrations, "ninja_migrations_total", 1);
    add(
        &mut s.wire_bytes,
        "ninja_wire_bytes_total",
        report.wire_bytes,
    );
    add(
        &mut s.hotplug_leaked,
        "ninja_hotplug_leaked_total",
        hotplug_leaked,
    );
    if report.btl_reconstructed {
        add(
            &mut s.btl_reconstructions,
            "ninja_btl_reconstructions_total",
            1,
        );
    }
    if report.degraded {
        // Described lazily so fault-free runs export an unchanged
        // metric set.
        m.describe(
            "ninja_degraded_jobs",
            "Migrations that resumed on TCP because the IB re-attach failed",
        );
        m.inc("ninja_degraded_jobs", &[], 1);
    }
    for (&(name, start, end), slot) in windows.iter().zip(&mut s.phase_duration) {
        let id = *slot.get_or_insert_with(|| {
            m.histogram_id("ninja_phase_duration_seconds", &[("phase", name)])
        });
        m.record(id, end.since(start).as_secs_f64());
    }
    let id = *s
        .trace_dropped
        .get_or_insert_with(|| m.gauge_id("ninja_trace_dropped_records", &[]));
    m.set(id, world.trace.dropped() as f64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use ninja_sim::{Bandwidth, SimDuration};

    #[test]
    fn stepwise_serial_run_matches_phase_order() {
        let mut w = World::agc(61);
        let vms = w.boot_ib_vms(2);
        let mut rt = w.start_job(vms.clone(), 1);
        let dsts: Vec<NodeId> = (0..2).map(|i| w.eth_node(i)).collect();
        let mut m = MigrationMachine::new(QemuMonitor::default(), vms, dsts, w.clock());
        let mut steps = 0;
        let report = loop {
            match m.step(&mut w, &mut rt).unwrap() {
                StepOutcome::Ready => {
                    w.advance_to(m.now());
                    steps += 1;
                }
                StepOutcome::OnLink => w.advance_to_next_drain().unwrap(),
                StepOutcome::Done(r) => break r,
            }
        };
        assert_eq!(steps, 4, "quiesce, detach, migrate, attach");
        assert!(report.migration > SimDuration::from_secs(10));
        assert_eq!(w.clock(), m.now(), "world caught up with the machine");
    }

    #[test]
    fn fair_share_mode_waits_on_the_wire() {
        // Two streams from distinct IB nodes onto one Ethernet node
        // share its migration port: the machine blocks on the fabric
        // until both drain, and the phase takes twice one stream's wire
        // time.
        let mut w = World::agc(62);
        let vms = w.boot_ib_vms(2);
        let mut rt = w.start_job(vms.clone(), 1);
        let dst = w.eth_node(0);
        let mut m = MigrationMachine::new(QemuMonitor::default(), vms, vec![dst], w.clock());
        let mut waits = 0;
        let report = loop {
            match m.step(&mut w, &mut rt).unwrap() {
                StepOutcome::Ready => w.advance_to(m.now()),
                StepOutcome::OnLink => {
                    waits += 1;
                    assert_eq!(w.dc.migration_fabric.active_flows(), 2, "both on the wire");
                    w.advance_to_next_drain().unwrap();
                }
                StepOutcome::Done(r) => break r,
            }
        };
        assert_eq!(waits, 1, "equal streams drain together");
        let one = Bandwidth::from_gbps(1.3).transfer_time(Bytes::new(report.wire_bytes / 2));
        let ratio = report.migration.as_secs_f64() / one.as_secs_f64();
        assert!((ratio - 2.0).abs() < 1e-3, "{ratio}");
        let port = w.dc.migration_port(dst, Some(Bandwidth::from_gbps(1.3)));
        let carried =
            w.dc.migration_fabric
                .bytes_carried(port.expect("port used"));
        assert_eq!(carried.get(), report.wire_bytes);
        assert_eq!(w.dc.migration_fabric.active_flows(), 0);
    }

    use ninja_symvirt::{FaultPlan, FaultSpec};

    /// Drive a machine to completion, or return the error it failed
    /// with.
    fn drive(
        w: &mut World,
        rt: &mut ninja_mpi::MpiRuntime,
        m: &mut MigrationMachine,
    ) -> Result<NinjaReport, SymVirtError> {
        loop {
            match m.step(w, rt)? {
                StepOutcome::Ready => w.advance_to(m.now()),
                StepOutcome::OnLink => w.advance_to_next_drain()?,
                StepOutcome::Done(r) => return Ok(r),
            }
        }
    }

    #[test]
    fn transient_fault_retries_to_success() {
        let mut w = World::agc(71);
        let vms = w.boot_ib_vms(2);
        let mut rt = w.start_job(vms.clone(), 1);
        w.faults =
            FaultPlan::from_specs(vec![
                FaultSpec::parse("qmp-timeout:phase=detach:times=1").unwrap()
            ]);
        let dsts: Vec<NodeId> = (0..2).map(|i| w.eth_node(i)).collect();
        let mut m = MigrationMachine::new(QemuMonitor::default(), vms, dsts, w.clock());
        let report = drive(&mut w, &mut rt, &mut m).expect("one retry clears the fault");
        assert!(!report.degraded);
        assert_eq!(w.metrics.counter_total("ninja_fault_injections_total"), 1);
        assert_eq!(
            w.metrics
                .counter("ninja_retries_total", &[("phase", "detach")]),
            1
        );
    }

    #[test]
    fn retry_backoff_moves_virtual_time_only() {
        // Same seed with and without a transient fault: the faulted run
        // finishes exactly one backoff later and is otherwise identical
        // (no RNG perturbation).
        let run = |faulted: bool| {
            let mut w = World::agc(72);
            let vms = w.boot_ib_vms(2);
            let mut rt = w.start_job(vms.clone(), 1);
            if faulted {
                w.faults = FaultPlan::from_specs(vec![FaultSpec::parse(
                    "qmp-timeout:phase=detach:times=1",
                )
                .unwrap()]);
            }
            let dsts: Vec<NodeId> = (0..2).map(|i| w.eth_node(i)).collect();
            let mut m = MigrationMachine::new(QemuMonitor::default(), vms, dsts, w.clock());
            let report = drive(&mut w, &mut rt, &mut m).unwrap();
            (w.clock(), report)
        };
        let (t_clean, r_clean) = run(false);
        let (t_faulted, r_faulted) = run(true);
        let backoff = RetryPolicy::default().backoff_before(1);
        assert_eq!(t_faulted.since(t_clean), backoff);
        assert_eq!(r_clean.wire_bytes, r_faulted.wire_bytes);
        // The backoff delayed the detach phase, and the report counts
        // it there; the hotplug draws themselves are the same.
        assert_eq!(r_faulted.detach, r_clean.detach + backoff);
        assert_eq!(r_faulted.total(), r_clean.total() + backoff);
    }

    #[test]
    fn persistent_attach_failure_degrades_to_tcp() {
        let mut w = World::agc(73);
        let vms = w.boot_ib_vms(2);
        let mut rt = w.start_job(vms.clone(), 1);
        w.faults = FaultPlan::from_specs(vec![FaultSpec::parse("hotplug-attach").unwrap()]);
        // IB -> IB move: the attach phase would normally restore openib.
        let dsts: Vec<NodeId> = (2..4).map(|i| w.ib_node(i)).collect();
        let mut m = MigrationMachine::new(QemuMonitor::default(), vms, dsts, w.clock());
        let report = drive(&mut w, &mut rt, &mut m).expect("degrades, not fails");
        assert!(report.degraded);
        assert_eq!(report.transport_after, Some("tcp"));
        // No device_add happened: each guest holds only its virtio NIC.
        for &vm in m.vms() {
            let nic = w.pool.get(vm).virtio_nic;
            let devices: Vec<_> = w.dc.devices.on_vm(vm.0).collect();
            assert_eq!(devices, [nic], "no device_add on {vm:?}");
        }
        // The attach phase lasted exactly the retries' backoff.
        let policy = RetryPolicy::default();
        let backoff: SimDuration = (1..=policy.max_retries)
            .map(|a| policy.backoff_before(a))
            .sum();
        assert_eq!(report.attach, backoff);
        assert_eq!(report.linkup, SimDuration::ZERO, "no IB link to wait for");
        assert!(m.degraded());
        assert_eq!(w.metrics.counter_total("ninja_degraded_jobs"), 1);
        // max_retries retries, then the terminal degrade fire.
        let retries = RetryPolicy::default().max_retries as u64;
        assert_eq!(
            w.metrics.counter_total("ninja_fault_injections_total"),
            retries + 1
        );
    }

    #[test]
    fn persistent_timeout_fails_the_job_cleanly() {
        let mut w = World::agc(74);
        let vms = w.boot_ib_vms(2);
        let mut rt = w.start_job(vms.clone(), 1);
        w.faults = FaultPlan::from_specs(vec![
            FaultSpec::parse("qmp-timeout:phase=migration").unwrap()
        ]);
        let dsts: Vec<NodeId> = (0..2).map(|i| w.eth_node(i)).collect();
        let mut m = MigrationMachine::new(QemuMonitor::default(), vms, dsts, w.clock());
        let err = drive(&mut w, &mut rt, &mut m).unwrap_err();
        assert!(
            matches!(&err, SymVirtError::Vmm(VmmError::MonitorTimeout { command }) if command == "migration"),
            "{err}"
        );
        // Guests are still safely frozen on their sources.
        for &vm in m.vms() {
            assert_eq!(w.pool.get(vm).state, ninja_vmm::VmState::SymWait);
        }
    }

    #[test]
    fn agent_disconnect_retries_after_respawn() {
        let mut w = World::agc(75);
        let vms = w.boot_ib_vms(2);
        let mut rt = w.start_job(vms.clone(), 1);
        w.faults = FaultPlan::from_specs(vec![FaultSpec::parse(
            "agent-disconnect:phase=attach:times=1",
        )
        .unwrap()]);
        let dsts: Vec<NodeId> = (2..4).map(|i| w.ib_node(i)).collect();
        let mut m = MigrationMachine::new(QemuMonitor::default(), vms, dsts, w.clock());
        let report = drive(&mut w, &mut rt, &mut m).expect("respawned agent retries");
        assert!(!report.degraded);
        assert_eq!(report.transport_after, Some("openib"));
        assert_eq!(
            w.metrics
                .counter("ninja_retries_total", &[("phase", "attach")]),
            1
        );
    }

    #[test]
    fn persistent_agent_disconnect_lists_failed_vms() {
        let mut w = World::agc(76);
        let vms = w.boot_ib_vms(2);
        let mut rt = w.start_job(vms.clone(), 1);
        w.faults = FaultPlan::from_specs(vec![FaultSpec::parse("agent-disconnect").unwrap()]);
        let dsts: Vec<NodeId> = (0..2).map(|i| w.eth_node(i)).collect();
        let mut m = MigrationMachine::new(QemuMonitor::default(), vms.clone(), dsts, w.clock());
        let err = drive(&mut w, &mut rt, &mut m).unwrap_err();
        assert!(
            matches!(&err, SymVirtError::AgentsDisconnected(f) if f == &vec![vms[0]]),
            "{err}"
        );
    }

    #[test]
    fn precopy_stall_adds_time_and_proceeds() {
        let run = |stall: bool| {
            let mut w = World::agc(77);
            let vms = w.boot_ib_vms(2);
            let mut rt = w.start_job(vms.clone(), 1);
            if stall {
                w.faults =
                    FaultPlan::from_specs(
                        vec![FaultSpec::parse("precopy-stall:stall=45").unwrap()],
                    );
            }
            let dsts: Vec<NodeId> = (0..2).map(|i| w.eth_node(i)).collect();
            let mut m = MigrationMachine::new(QemuMonitor::default(), vms, dsts, w.clock());
            let r = drive(&mut w, &mut rt, &mut m).unwrap();
            (w.clock(), r)
        };
        let (t_clean, _) = run(false);
        let (t_stalled, r) = run(true);
        assert!(!r.degraded);
        assert_eq!(
            t_stalled.since(t_clean),
            SimDuration::from_secs(45),
            "one 45 s stall"
        );
    }

    #[test]
    fn hotplug_leak_metric_name_pins_semantics() {
        // Regression: the leak counter is exported under
        // `ninja_hotplug_leaked_total` (it counts leaked IB resources,
        // not retries) and the old misnomer is gone.
        let mut w = World::agc(78);
        let vms = w.boot_ib_vms(2);
        let mut rt = w.start_job(vms.clone(), 1);
        let dsts: Vec<NodeId> = (0..2).map(|i| w.eth_node(i)).collect();
        let mut m = MigrationMachine::new(QemuMonitor::default(), vms, dsts, w.clock());
        drive(&mut w, &mut rt, &mut m).unwrap();
        let prom = w.metrics.to_prometheus();
        assert!(
            prom.contains("ninja_hotplug_leaked_total"),
            "leak counter exported:\n{prom}"
        );
        assert!(
            !prom.contains("ninja_hotplug_retries_total"),
            "misnamed counter must not reappear"
        );
        // Graceful (non-forced) detach leaks nothing.
        assert_eq!(w.metrics.counter_total("ninja_hotplug_leaked_total"), 0);
    }
}
