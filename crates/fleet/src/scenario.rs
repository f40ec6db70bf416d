//! Canned fleet scenarios, mapped to the paper's Section II-A use cases.
//!
//! Each builder produces a booted [`World`], one MPI job per fleet job,
//! and a [`CloudScheduler`] whose job-tagged triggers drive the engine:
//!
//! * [`ScenarioKind::Evacuation`] — *disaster recovery*: every job is
//!   triggered at once (the burst), IB cluster → Ethernet cluster;
//! * [`ScenarioKind::RollingDrain`] — *non-stop maintenance*: jobs are
//!   drained one after another with randomized inter-arrival gaps;
//! * [`ScenarioKind::Rebalance`] — *power-aware consolidation*: jobs
//!   already on the Ethernet cluster stream onto fewer hosts.
//!
//! Scenario construction is deterministic per seed and independent of
//! the engine's concurrency cap — the same trigger schedule and the
//! same precopy plans feed every run, which is what makes
//! makespan-vs-concurrency and wire-byte-conservation comparisons
//! meaningful.

use ninja_cluster::{DataCenterBuilder, FabricKind, NodeId, NodeSpec, StorageId};
use ninja_migration::{CloudScheduler, TriggerReason, World};
use ninja_mpi::MpiRuntime;
use ninja_net::IbFabric;
use ninja_sim::{SimDuration, Trace};
use ninja_vmm::{VmId, VmSpec};
use std::fmt;

/// Which Section II-A use case to synthesize.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScenarioKind {
    /// Disaster evacuation burst: all jobs triggered at t₀, IB → Eth.
    Evacuation,
    /// Rolling maintenance drain: staggered triggers, IB → Eth.
    RollingDrain,
    /// Consolidation stream: staggered triggers, Eth → fewer Eth hosts.
    Rebalance,
    /// Failover burst onto *spare IB nodes*: all jobs triggered at t₀,
    /// IB → IB. The destinations have free HCAs, so the attach phase
    /// normally restores InfiniBand — which is exactly what injected
    /// `hotplug-attach` faults break, making this the canvas for the
    /// degrade-to-TCP / recovery-migration story (`ninja faults`).
    Failover,
}

impl ScenarioKind {
    /// Parse a `--scenario` flag value.
    pub fn parse(s: &str) -> Option<ScenarioKind> {
        match s {
            "evacuation" => Some(ScenarioKind::Evacuation),
            "drain" => Some(ScenarioKind::RollingDrain),
            "rebalance" => Some(ScenarioKind::Rebalance),
            "failover" => Some(ScenarioKind::Failover),
            _ => None,
        }
    }

    /// The flag spelling.
    pub fn name(self) -> &'static str {
        match self {
            ScenarioKind::Evacuation => "evacuation",
            ScenarioKind::RollingDrain => "drain",
            ScenarioKind::Rebalance => "rebalance",
            ScenarioKind::Failover => "failover",
        }
    }
}

/// A fleet scenario recipe.
#[derive(Debug, Clone)]
pub struct ScenarioSpec {
    /// The use case.
    pub kind: ScenarioKind,
    /// Number of jobs (each gets its own MPI runtime).
    pub jobs: usize,
    /// VMs per job. `jobs × vms_per_job` must fit the 8-node source
    /// cluster (one paper VM + HCA per IB node).
    pub vms_per_job: usize,
    /// Mean inter-arrival gap for staggered scenarios (exponentially
    /// distributed; ignored by the evacuation burst).
    pub arrival: SimDuration,
    /// World seed.
    pub seed: u64,
}

/// A built scenario, ready for the engine.
pub struct Scenario {
    /// The booted world.
    pub world: World,
    /// One MPI runtime per fleet job, in job order.
    pub jobs: Vec<MpiRuntime>,
    /// Job-tagged trigger schedule.
    pub scheduler: CloudScheduler,
}

/// Why a [`ScenarioSpec`] cannot be built.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScenarioError {
    /// `jobs` is zero.
    NoJobs,
    /// `vms_per_job` is zero.
    NoVms,
    /// `jobs × vms_per_job` VMs do not fit the source cluster.
    TooManyVms {
        /// `jobs × vms_per_job`.
        vms: usize,
        /// Nodes on the source cluster.
        nodes: usize,
    },
    /// A failover fleet needs a spare IB node per VM: `2 × vms` nodes.
    NoSpareNodes {
        /// `2 × jobs × vms_per_job`.
        needed: usize,
        /// Nodes on the IB cluster.
        nodes: usize,
    },
    /// The fleet needs more InfiniBand LIDs than the IB fabric's subnet
    /// manager hands out ([`IbFabric::LID_CAPACITY`]).
    TooManyLids {
        /// One LID per VM booted on InfiniBand, plus one per VM a
        /// failover attaches on the spare half.
        needed: usize,
        /// LIDs the fabric hands out.
        lids: usize,
    },
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::NoJobs => write!(f, "need at least one job"),
            ScenarioError::NoVms => write!(f, "need at least one VM per job"),
            ScenarioError::TooManyVms { vms, nodes } => write!(
                f,
                "jobs x vms-per-job = {vms} exceeds the {nodes}-node source cluster"
            ),
            ScenarioError::NoSpareNodes { needed, nodes } => write!(
                f,
                "failover needs spare IB nodes: 2 x jobs x vms-per-job = {needed} exceeds the {nodes}-node cluster"
            ),
            ScenarioError::TooManyLids { needed, lids } => write!(
                f,
                "the fleet needs {needed} InfiniBand LIDs, but the subnet manager hands out only {lids}"
            ),
        }
    }
}

impl std::error::Error for ScenarioError {}

/// Build `spec` on the paper's 8-node AGC testbed. Fails if
/// `jobs × vms_per_job` does not fit its source cluster.
pub fn build(spec: &ScenarioSpec) -> Result<Scenario, ScenarioError> {
    check_fit(spec, 8)?;
    Ok(build_in(spec, World::agc(spec.seed)))
}

/// Build `spec` over a synthetic data center with `nodes_per_cluster`
/// AGC-blade nodes on each side (IB and Ethernet), lifting the paper
/// testbed's 8-node cap so scalability experiments can run
/// thousand-job fleets. The trigger/boot logic is byte-for-byte the
/// one [`build`] uses, and tracing stays on so the flight recorder and
/// critical-path attribution see every span. Fails if the fleet does
/// not fit.
pub fn build_scaled(
    spec: &ScenarioSpec,
    nodes_per_cluster: usize,
) -> Result<Scenario, ScenarioError> {
    check_fit(spec, nodes_per_cluster)?;
    Ok(build_in(spec, scaled_world(spec.seed, nodes_per_cluster)))
}

/// A world over `nodes_per_cluster` AGC-blade nodes on an IB and an
/// Ethernet cluster that share one image store.
fn scaled_world(seed: u64, nodes_per_cluster: usize) -> World {
    let mut b = DataCenterBuilder::new();
    let ib = b.add_cluster(
        "scale-ib",
        FabricKind::Infiniband,
        nodes_per_cluster,
        NodeSpec::agc_blade(),
    );
    let eth = b.add_cluster(
        "scale-eth",
        FabricKind::Ethernet,
        nodes_per_cluster,
        NodeSpec::agc_blade(),
    );
    b.shared_storage("vm-images", &[ib, eth]);
    World::from_parts(b.build(), ib, eth, seed)
}

/// Build `spec` on the paper's 8-node AGC testbed when it fits, or on
/// a synthetic cluster sized exactly to the fleet when it doesn't.
/// Fleets that fit the testbed build byte-identically to [`build`].
/// Fails only on an empty fleet or one that needs more InfiniBand LIDs
/// than the fabric hands out.
///
/// The world records into `trace` from the first boot on: pass
/// `Trace::new()` for what [`build`] records, or `Trace::disabled()`
/// when nothing will read the trace, so the boot records none.
pub fn build_auto(spec: &ScenarioSpec, trace: Trace) -> Result<Scenario, ScenarioError> {
    let total = spec.jobs * spec.vms_per_job;
    let need = if spec.kind == ScenarioKind::Failover {
        2 * total
    } else {
        total
    };
    check_fit(spec, need.max(8))?;
    let mut world = if need <= 8 {
        World::agc(spec.seed)
    } else {
        scaled_world(spec.seed, need)
    };
    world.trace = trace;
    Ok(build_in(spec, world))
}

fn check_fit(spec: &ScenarioSpec, nodes: usize) -> Result<(), ScenarioError> {
    let vms = spec.jobs * spec.vms_per_job;
    let lids = lids_needed(spec);
    if spec.jobs == 0 {
        Err(ScenarioError::NoJobs)
    } else if spec.vms_per_job == 0 {
        Err(ScenarioError::NoVms)
    } else if vms > nodes {
        Err(ScenarioError::TooManyVms { vms, nodes })
    } else if spec.kind == ScenarioKind::Failover && 2 * vms > nodes {
        Err(ScenarioError::NoSpareNodes {
            needed: 2 * vms,
            nodes,
        })
    } else if lids > IbFabric::LID_CAPACITY {
        Err(ScenarioError::TooManyLids {
            needed: lids,
            lids: IbFabric::LID_CAPACITY,
        })
    } else {
        Ok(())
    }
}

/// LIDs the fleet takes from the IB fabric: one per VM booted on
/// InfiniBand (every kind but rebalance, which starts on Ethernet), and
/// for failover one more per VM attached on the spare half.
fn lids_needed(spec: &ScenarioSpec) -> usize {
    let vms = spec.jobs * spec.vms_per_job;
    match spec.kind {
        ScenarioKind::Rebalance => 0,
        ScenarioKind::Failover => 2 * vms,
        ScenarioKind::Evacuation | ScenarioKind::RollingDrain => vms,
    }
}

fn build_in(spec: &ScenarioSpec, mut world: World) -> Scenario {
    let on_ib = spec.kind != ScenarioKind::Rebalance;
    let jobs = boot_jobs(&mut world, spec.jobs, spec.vms_per_job, on_ib);
    let mut scheduler = CloudScheduler::new();
    let t0 = world.clock();
    let mut arrivals = world.rng.fork(0xf1ee7);
    let mut at = t0;
    let burst = matches!(spec.kind, ScenarioKind::Evacuation | ScenarioKind::Failover);
    for (j, job) in jobs.iter().enumerate() {
        if !burst {
            at += SimDuration::from_secs_f64(arrivals.exponential(spec.arrival.as_secs_f64()));
        }
        let dsts = destinations(&world, spec, j, job);
        scheduler.push_job(at, dsts, reason(spec.kind), j);
    }
    Scenario {
        world,
        jobs,
        scheduler,
    }
}

fn reason(kind: ScenarioKind) -> TriggerReason {
    match kind {
        ScenarioKind::Evacuation => TriggerReason::Fallback,
        ScenarioKind::RollingDrain => TriggerReason::Fallback,
        ScenarioKind::Rebalance => TriggerReason::Placement,
        ScenarioKind::Failover => TriggerReason::Fallback,
    }
}

/// Boot the fleet's jobs: job `j` gets `vms_per_job` paper VMs on
/// consecutive source-cluster nodes (with HCAs and trained links on the
/// IB side).
fn boot_jobs(world: &mut World, jobs: usize, vms_per_job: usize, on_ib: bool) -> Vec<MpiRuntime> {
    let mut runtimes = Vec::with_capacity(jobs);
    let mut ready = world.clock();
    let mut job_vms: Vec<Vec<VmId>> = Vec::with_capacity(jobs);
    for j in 0..jobs {
        let mut vms = Vec::with_capacity(vms_per_job);
        for k in 0..vms_per_job {
            let i = j * vms_per_job + k;
            let node = if on_ib {
                world.ib_node(i)
            } else {
                world.eth_node(i)
            };
            let vm = world
                .pool
                .create(
                    format!("job{j}-vm{k}"),
                    VmSpec::paper_vm(),
                    node,
                    StorageId(0),
                    &mut world.dc,
                )
                .expect("source node holds one paper VM");
            if on_ib {
                let now = world.clock();
                let (_, active_at) = world
                    .pool
                    .attach_ib_hca(vm, &mut world.dc, now, &mut world.rng)
                    .expect("IB node has a free HCA");
                ready = ready.max(active_at);
            }
            vms.push(vm);
        }
        job_vms.push(vms);
    }
    world.advance_to(ready);
    for vms in job_vms {
        runtimes.push(world.start_job(vms, 1));
    }
    runtimes
}

/// Destination host list for job `j`.
fn destinations(world: &World, spec: &ScenarioSpec, j: usize, job: &MpiRuntime) -> Vec<NodeId> {
    let n = job.layout().vms().len();
    match spec.kind {
        // Straight across: source slot i lands on Ethernet node i. The
        // 48 GiB nodes hold two 20 GiB paper VMs, so ≤ 8 VMs always fit.
        ScenarioKind::Evacuation | ScenarioKind::RollingDrain => (0..n)
            .map(|k| world.eth_node(j * spec.vms_per_job + k))
            .collect(),
        // Consolidate pairs of source slots onto one host (power-aware
        // packing at 2 VMs/node).
        ScenarioKind::Rebalance => (0..n)
            .map(|k| world.eth_node((j * spec.vms_per_job + k) / 2))
            .collect(),
        // Onto the spare half of the IB cluster, straight across: the
        // destinations' HCAs are untouched, so attach restores IB.
        ScenarioKind::Failover => {
            let total = spec.jobs * spec.vms_per_job;
            (0..n)
                .map(|k| world.ib_node(total + j * spec.vms_per_job + k))
                .collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ninja_sim::SimTime;

    fn spec(kind: ScenarioKind) -> ScenarioSpec {
        ScenarioSpec {
            kind,
            jobs: 4,
            vms_per_job: 2,
            arrival: SimDuration::from_secs(30),
            seed: 7,
        }
    }

    #[test]
    fn evacuation_bursts_at_t0() {
        let s = build(&spec(ScenarioKind::Evacuation)).unwrap();
        assert_eq!(s.jobs.len(), 4);
        assert_eq!(s.scheduler.len(), 4);
        let t0 = s.scheduler.next_at().unwrap();
        let mut sched = s.scheduler;
        let mut seen = Vec::new();
        while let Some(t) = sched.poll(SimTime::MAX) {
            assert_eq!(t.at, t0, "burst: all triggers at once");
            seen.push(t.job.unwrap());
        }
        assert_eq!(seen, vec![0, 1, 2, 3]);
    }

    #[test]
    fn drain_staggers_arrivals() {
        let s = build(&spec(ScenarioKind::RollingDrain)).unwrap();
        let mut sched = s.scheduler;
        let mut last = SimTime::ZERO;
        let mut count = 0;
        while let Some(t) = sched.poll(SimTime::MAX) {
            assert!(t.at > last, "strictly staggered");
            last = t.at;
            count += 1;
        }
        assert_eq!(count, 4);
    }

    #[test]
    fn rebalance_consolidates_two_per_node() {
        let s = build(&spec(ScenarioKind::Rebalance)).unwrap();
        let mut sched = s.scheduler;
        let mut dst_nodes = std::collections::BTreeSet::new();
        while let Some(t) = sched.poll(SimTime::MAX) {
            assert_eq!(t.reason, TriggerReason::Placement);
            dst_nodes.extend(t.dsts);
        }
        assert_eq!(dst_nodes.len(), 4, "8 VMs onto 4 hosts");
    }

    #[test]
    fn deterministic_per_seed() {
        let a = build(&spec(ScenarioKind::RollingDrain)).unwrap();
        let b = build(&spec(ScenarioKind::RollingDrain)).unwrap();
        let mut sa = a.scheduler;
        let mut sb = b.scheduler;
        while let Some(ta) = sa.poll(SimTime::MAX) {
            let tb = sb.poll(SimTime::MAX).unwrap();
            assert_eq!(ta.at, tb.at);
            assert_eq!(ta.dsts, tb.dsts);
        }
        assert!(sb.is_empty());
    }

    #[test]
    fn oversized_fleet_rejected() {
        let err = build(&ScenarioSpec {
            kind: ScenarioKind::Evacuation,
            jobs: 5,
            vms_per_job: 2,
            arrival: SimDuration::from_secs(1),
            seed: 1,
        })
        .err()
        .expect("10 VMs do not fit 8 nodes");
        assert_eq!(err, ScenarioError::TooManyVms { vms: 10, nodes: 8 });
        assert!(err.to_string().contains("exceeds the 8-node"), "{err}");
    }

    #[test]
    fn empty_fleet_rejected() {
        let err = build_auto(
            &ScenarioSpec {
                jobs: 0,
                ..spec(ScenarioKind::Evacuation)
            },
            Trace::new(),
        )
        .err()
        .expect("no jobs");
        assert_eq!(err, ScenarioError::NoJobs);
        assert_eq!(err.to_string(), "need at least one job");
    }

    #[test]
    fn vm_less_jobs_rejected() {
        let err = build_scaled(
            &ScenarioSpec {
                vms_per_job: 0,
                ..spec(ScenarioKind::Evacuation)
            },
            16,
        )
        .err()
        .expect("no VMs per job");
        assert_eq!(err, ScenarioError::NoVms);
        assert_eq!(err.to_string(), "need at least one VM per job");
    }

    /// `check_fit` for `jobs` one-VM jobs of `kind` on a cluster big
    /// enough for them, so only the LID count can fail.
    fn fit_lids(kind: ScenarioKind, jobs: usize) -> Result<(), ScenarioError> {
        check_fit(
            &ScenarioSpec {
                jobs,
                vms_per_job: 1,
                ..spec(kind)
            },
            2 * jobs,
        )
    }

    #[test]
    fn evacuation_past_the_lid_space_is_rejected() {
        assert_eq!(fit_lids(ScenarioKind::Evacuation, 65_534), Ok(()));
        let err = build_auto(
            &ScenarioSpec {
                jobs: 65_535,
                vms_per_job: 1,
                ..spec(ScenarioKind::Evacuation)
            },
            Trace::new(),
        )
        .err()
        .expect("one boot LID per VM");
        assert_eq!(
            err,
            ScenarioError::TooManyLids {
                needed: 65_535,
                lids: 65_534
            }
        );
        assert!(err.to_string().contains("65535 InfiniBand LIDs"), "{err}");
    }

    #[test]
    fn drain_past_the_lid_space_is_rejected() {
        assert_eq!(fit_lids(ScenarioKind::RollingDrain, 65_534), Ok(()));
        assert_eq!(
            fit_lids(ScenarioKind::RollingDrain, 65_535),
            Err(ScenarioError::TooManyLids {
                needed: 65_535,
                lids: 65_534
            })
        );
    }

    #[test]
    fn failover_counts_boot_and_attach_lids() {
        assert_eq!(fit_lids(ScenarioKind::Failover, 32_767), Ok(()));
        assert_eq!(
            fit_lids(ScenarioKind::Failover, 32_768),
            Err(ScenarioError::TooManyLids {
                needed: 65_536,
                lids: 65_534
            })
        );
    }

    #[test]
    fn rebalance_takes_no_lids() {
        assert_eq!(fit_lids(ScenarioKind::Rebalance, 65_535), Ok(()));
    }

    #[test]
    fn failover_bursts_onto_spare_ib_nodes() {
        let s = build(&ScenarioSpec {
            kind: ScenarioKind::Failover,
            jobs: 2,
            vms_per_job: 2,
            arrival: SimDuration::from_secs(30),
            seed: 7,
        })
        .unwrap();
        let spare: Vec<_> = (4..8).map(|i| s.world.ib_node(i)).collect();
        let mut sched = s.scheduler;
        let t0 = sched.next_at().unwrap();
        let mut dsts_seen = Vec::new();
        while let Some(t) = sched.poll(SimTime::MAX) {
            assert_eq!(t.at, t0, "failover is a burst");
            assert_eq!(t.reason, TriggerReason::Fallback);
            dsts_seen.extend(t.dsts);
        }
        assert_eq!(dsts_seen, spare, "straight across onto the spare half");
    }

    #[test]
    fn build_auto_scales_past_the_testbed_with_tracing_on() {
        let small = build_auto(&spec(ScenarioKind::Evacuation), Trace::new()).unwrap();
        assert!(small.world.trace.is_enabled());
        assert_eq!(small.jobs.len(), 4);
        let big = build_auto(
            &ScenarioSpec {
                jobs: 16,
                vms_per_job: 1,
                ..spec(ScenarioKind::Evacuation)
            },
            Trace::new(),
        )
        .unwrap();
        assert_eq!(big.jobs.len(), 16);
        assert!(
            big.world.trace.is_enabled(),
            "auto-scaled worlds keep their spans for the flight recorder"
        );
        let failover = build_auto(
            &ScenarioSpec {
                kind: ScenarioKind::Failover,
                jobs: 8,
                vms_per_job: 1,
                arrival: SimDuration::from_secs(30),
                seed: 7,
            },
            Trace::new(),
        )
        .unwrap();
        assert_eq!(failover.jobs.len(), 8, "failover doubles the node need");
    }

    #[test]
    fn an_untraced_build_records_nothing_and_boots_the_same() {
        let traced = build_auto(&spec(ScenarioKind::Evacuation), Trace::new()).unwrap();
        let plain = build_auto(&spec(ScenarioKind::Evacuation), Trace::disabled()).unwrap();
        assert!(
            traced.world.trace.instants().len() >= 4,
            "one launch per job"
        );
        assert!(!plain.world.trace.is_enabled());
        assert_eq!(plain.world.trace.instants().len(), 0);
        assert_eq!(plain.world.clock(), traced.world.clock());
        assert_eq!(plain.scheduler.len(), traced.scheduler.len());
    }

    #[test]
    fn oversized_failover_rejected() {
        let err = build(&ScenarioSpec {
            kind: ScenarioKind::Failover,
            jobs: 3,
            vms_per_job: 2,
            arrival: SimDuration::from_secs(1),
            seed: 1,
        })
        .err()
        .expect("12 nodes needed, 8 present");
        assert_eq!(
            err,
            ScenarioError::NoSpareNodes {
                needed: 12,
                nodes: 8
            }
        );
        assert!(err.to_string().contains("spare IB nodes"), "{err}");
    }
}
