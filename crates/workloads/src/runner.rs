//! Iterative workload runner.
//!
//! Every benchmark in the paper is iteration-structured, and Ninja
//! migrations fire at globally consistent points — in practice, at
//! iteration boundaries (the CRCP quiesce completes whatever is in
//! flight). The runner advances the virtual clock through iterations,
//! polls the [`CloudScheduler`] between them, and charges any migration
//! overhead to the iteration in which it occurred — exactly how Fig. 8
//! plots "the elapsed time of iteration steps 11, 21, and 31 include
//! the migration time".

use ninja_migration::{CloudScheduler, NinjaOrchestrator, NinjaReport, World};
use ninja_mpi::{CommEnv, MpiRuntime};
use ninja_sim::{Bytes, SimDuration};
use ninja_symvirt::SymVirtError;

/// Per-VM memory behaviour of a workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemoryProfile {
    /// Bytes the workload touches in each VM.
    pub touched: Bytes,
    /// Fraction of touched pages holding uniform (compressible) data.
    pub uniform_frac: f64,
    /// Redirty rate while running, bytes/sec.
    pub dirty_bytes_per_sec: f64,
}

/// An iteration-structured MPI workload.
pub trait IterativeWorkload {
    /// Human-readable name (e.g. `bt.D.64`).
    fn name(&self) -> &str;

    /// Number of iterations (time steps).
    fn iterations(&self) -> u32;

    /// Per-VM memory behaviour.
    fn memory_profile(&self) -> MemoryProfile;

    /// Pure computation per iteration per rank, on dedicated cores.
    fn compute_per_iteration(&self) -> SimDuration;

    /// Communication per iteration, over the current connections.
    fn comm_per_iteration(&self, rt: &MpiRuntime, env: &CommEnv) -> SimDuration;
}

/// One iteration's outcome.
#[derive(Debug, Clone)]
pub struct IterationRecord {
    /// 1-based iteration number.
    pub step: u32,
    /// Application time (compute + communication).
    pub app_time: SimDuration,
    /// Migration overhead charged to this iteration (zero for most).
    pub overhead: SimDuration,
    /// The migration report, if one fired here.
    pub migration: Option<NinjaReport>,
}

impl IterationRecord {
    /// Total elapsed for the iteration (what Fig. 8's bars show).
    pub fn elapsed(&self) -> SimDuration {
        self.app_time + self.overhead
    }
}

/// Outcome of a full run.
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// Workload name.
    pub name: String,
    /// Per-iteration records.
    pub iterations: Vec<IterationRecord>,
    /// Total wall-clock time of the run.
    pub total: SimDuration,
}

impl RunRecord {
    /// Sum of application time only.
    pub fn app_total(&self) -> SimDuration {
        self.iterations.iter().map(|r| r.app_time).sum()
    }

    /// Sum of migration overhead only.
    pub fn overhead_total(&self) -> SimDuration {
        self.iterations.iter().map(|r| r.overhead).sum()
    }

    /// All migration reports, in order.
    pub fn migrations(&self) -> impl Iterator<Item = &NinjaReport> {
        self.iterations.iter().filter_map(|r| r.migration.as_ref())
    }
}

/// Install the workload's memory profile on every VM of the job.
pub fn install_memory_profile(world: &mut World, rt: &MpiRuntime, profile: MemoryProfile) {
    for &vm in rt.layout().vms() {
        world.pool.get_mut(vm).memory.set_workload(
            profile.touched,
            profile.uniform_frac,
            profile.dirty_bytes_per_sec,
        );
    }
}

/// A migration plan keyed by iteration step instead of wall-clock time —
/// Fig. 8 launches Ninja migration "every 10 iteration steps", i.e. at
/// the start of iterations 11, 21, and 31.
pub type StepPlan = Vec<(u32, Vec<ninja_cluster::NodeId>)>;

/// Run `workload` with migrations fired at fixed iteration steps.
pub fn run_with_step_plan(
    world: &mut World,
    rt: &mut MpiRuntime,
    workload: &dyn IterativeWorkload,
    plan: &StepPlan,
    orch: &NinjaOrchestrator,
) -> Result<RunRecord, SymVirtError> {
    run_with_trigger(world, rt, workload, orch, |step, _now| {
        plan.iter()
            .find(|(s, _)| *s == step)
            .map(|(_, d)| d.clone())
    })
}

/// Run `workload` to completion, firing any due scheduler triggers at
/// iteration boundaries through `orch`.
pub fn run_workload(
    world: &mut World,
    rt: &mut MpiRuntime,
    workload: &dyn IterativeWorkload,
    scheduler: &mut CloudScheduler,
    orch: &NinjaOrchestrator,
) -> Result<RunRecord, SymVirtError> {
    run_with_trigger(world, rt, workload, orch, |_step, now| {
        scheduler.poll(now).map(|t| t.dsts)
    })
}

/// The shared iteration loop: before each iteration, `trigger` may
/// return a destination host list to migrate to (the globally consistent
/// point); the iteration's cost is then computed under whatever
/// placement resulted.
fn run_with_trigger(
    world: &mut World,
    rt: &mut MpiRuntime,
    workload: &dyn IterativeWorkload,
    orch: &NinjaOrchestrator,
    mut trigger: impl FnMut(u32, ninja_sim::SimTime) -> Option<Vec<ninja_cluster::NodeId>>,
) -> Result<RunRecord, SymVirtError> {
    install_memory_profile(world, rt, workload.memory_profile());
    let started = world.clock();
    let mut iterations = Vec::with_capacity(workload.iterations() as usize);
    for step in 1..=workload.iterations() {
        let mut overhead = SimDuration::ZERO;
        let mut migration = None;
        if let Some(dsts) = trigger(step, world.clock()) {
            let before = world.clock();
            let report = orch.migrate(world, rt, &dsts)?;
            overhead = world.clock().since(before);
            migration = Some(report);
        }
        // Iteration cost under the (possibly new) placement.
        let env = world.comm_env();
        let contention = rt
            .layout()
            .vms()
            .iter()
            .map(|&vm| world.dc.node(world.pool.get(vm).node).cpu_contention())
            .fold(1.0_f64, f64::max);
        let compute = workload.compute_per_iteration().mul_f64(contention);
        let comm = workload.comm_per_iteration(rt, &env);
        let app_time = compute + comm;
        world.advance(app_time);
        iterations.push(IterationRecord {
            step,
            app_time,
            overhead,
            migration,
        });
    }
    // The job's dirty-rate contribution ends with the workload.
    for &vm in rt.layout().vms() {
        world.pool.get_mut(vm).memory.clear_workload();
    }
    Ok(RunRecord {
        name: workload.name().to_string(),
        iterations,
        total: world.clock().since(started),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ninja_migration::TriggerReason;
    use ninja_mpi::Rank;

    /// A trivial workload for runner tests.
    struct Toy;

    impl IterativeWorkload for Toy {
        fn name(&self) -> &str {
            "toy"
        }
        fn iterations(&self) -> u32 {
            5
        }
        fn memory_profile(&self) -> MemoryProfile {
            MemoryProfile {
                touched: Bytes::from_gib(1),
                uniform_frac: 0.0,
                dirty_bytes_per_sec: 1e8,
            }
        }
        fn compute_per_iteration(&self) -> SimDuration {
            SimDuration::from_secs(2)
        }
        fn comm_per_iteration(&self, rt: &MpiRuntime, env: &CommEnv) -> SimDuration {
            rt.bcast_time(Rank(0), Bytes::from_mib(64), env)
        }
    }

    #[test]
    fn run_without_triggers() {
        let mut w = World::agc(60);
        let vms = w.boot_ib_vms(4);
        let mut rt = w.start_job(vms, 1);
        let mut sched = CloudScheduler::new();
        let rec = run_workload(
            &mut w,
            &mut rt,
            &Toy,
            &mut sched,
            &NinjaOrchestrator::default(),
        )
        .unwrap();
        assert_eq!(rec.iterations.len(), 5);
        assert_eq!(rec.overhead_total(), SimDuration::ZERO);
        assert!(rec.total.as_secs_f64() > 10.0, "5 x 2 s compute minimum");
        assert_eq!(rec.total, rec.app_total());
    }

    #[test]
    fn trigger_charges_one_iteration() {
        let mut w = World::agc(61);
        let vms = w.boot_ib_vms(4);
        let mut rt = w.start_job(vms, 1);
        let mut sched = CloudScheduler::new();
        // Fire as soon as possible (t=0 is already past).
        let dsts: Vec<_> = (0..4).map(|i| w.eth_node(i)).collect();
        sched.push(ninja_sim::SimTime::ZERO, dsts, TriggerReason::Fallback);
        let rec = run_workload(
            &mut w,
            &mut rt,
            &Toy,
            &mut sched,
            &NinjaOrchestrator::default(),
        )
        .unwrap();
        let with_overhead: Vec<_> = rec
            .iterations
            .iter()
            .filter(|r| r.migration.is_some())
            .collect();
        assert_eq!(with_overhead.len(), 1);
        assert_eq!(with_overhead[0].step, 1);
        assert!(with_overhead[0].overhead.as_secs_f64() > 10.0);
        // Remaining iterations run on TCP: slower comm than IB.
        let first_tcp = rec.iterations[1].app_time;
        assert!(first_tcp > SimDuration::from_secs(2), "{first_tcp}");
    }

    #[test]
    fn memory_profile_installed_and_cleared() {
        let mut w = World::agc(62);
        let vms = w.boot_ib_vms(2);
        let mut rt = w.start_job(vms.clone(), 1);
        let mut sched = CloudScheduler::new();
        run_workload(
            &mut w,
            &mut rt,
            &Toy,
            &mut sched,
            &NinjaOrchestrator::default(),
        )
        .unwrap();
        for &vm in &vms {
            assert_eq!(w.pool.get(vm).memory.workload_touched(), Bytes::ZERO);
        }
    }
}
