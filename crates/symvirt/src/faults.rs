//! Deterministic fault injection for the migration control plane.
//!
//! MigrOS and DMTCP's InfiniBand work both treat *failure-time*
//! transport teardown as the hard part of transparent migration; this
//! module lets the simulator exercise every Fig. 4 phase under failure
//! without giving up determinism. A [`FaultPlan`] is a seeded list of
//! [`FaultSpec`]s — each names a fault kind, a phase, and optionally a
//! job/migration to target — and the stepper consults it (via
//! [`FaultPlan::fire`]) before executing each phase. Firing draws no
//! randomness and, when the plan is empty, leaves neither the RNG nor
//! the clock disturbed, so a fault-free run is bit-identical to a run
//! without the subsystem.
//!
//! Recovery is governed by a [`RetryPolicy`]: bounded retries with
//! exponential backoff in *virtual* time. When retries are exhausted
//! the stepper either degrades gracefully (a failed IB re-attach lands
//! the job on TCP — the BTL exclusivity logic does the rest) or fails
//! the job cleanly with a typed error.

use ninja_sim::{SimDuration, SimRng};
use std::fmt;

/// What goes wrong.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The QEMU monitor stops answering: the phase's QMP command times
    /// out. Retryable; terminal failure is `VmmError::MonitorTimeout`.
    QmpTimeout,
    /// The precopy makes no progress for a while (dirty-page storm,
    /// throttled wire). Adds virtual time; never terminal by itself.
    PrecopyStall,
    /// QEMU aborts the live migration mid-stream. Retryable; terminal
    /// failure is `VmmError::MigrationAborted`.
    PrecopyAbort,
    /// `device_add` of the destination HCA fails. At the attach phase
    /// this degrades the job to TCP instead of failing it.
    HotplugAttach,
    /// A SymVirt agent loses its monitor connection. Retryable (the
    /// controller respawns the agent); terminal failure lists every
    /// disconnected VM.
    AgentDisconnect,
}

impl FaultKind {
    /// The `--fault` flag spelling (also the metric label).
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::QmpTimeout => "qmp-timeout",
            FaultKind::PrecopyStall => "precopy-stall",
            FaultKind::PrecopyAbort => "precopy-abort",
            FaultKind::HotplugAttach => "hotplug-attach",
            FaultKind::AgentDisconnect => "agent-disconnect",
        }
    }

    /// Parse a flag spelling.
    pub fn parse(s: &str) -> Option<FaultKind> {
        match s {
            "qmp-timeout" => Some(FaultKind::QmpTimeout),
            "precopy-stall" => Some(FaultKind::PrecopyStall),
            "precopy-abort" => Some(FaultKind::PrecopyAbort),
            "hotplug-attach" => Some(FaultKind::HotplugAttach),
            "agent-disconnect" => Some(FaultKind::AgentDisconnect),
            _ => None,
        }
    }

    /// The phase this kind targets when the spec names none.
    fn default_phase(self) -> FaultPhase {
        match self {
            FaultKind::QmpTimeout | FaultKind::AgentDisconnect => FaultPhase::Detach,
            FaultKind::PrecopyStall | FaultKind::PrecopyAbort => FaultPhase::Migration,
            FaultKind::HotplugAttach => FaultPhase::Attach,
        }
    }

    /// Whether this kind can fire at `phase` at all.
    fn valid_at(self, phase: FaultPhase) -> bool {
        match self {
            FaultKind::QmpTimeout | FaultKind::AgentDisconnect => true,
            FaultKind::PrecopyStall | FaultKind::PrecopyAbort => phase == FaultPhase::Migration,
            FaultKind::HotplugAttach => phase == FaultPhase::Attach,
        }
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Which Fig. 4 phase a fault targets. (The linkup wait is passive —
/// there is no command to fail there.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultPhase {
    /// CRCP quiesce + SymVirt wait.
    Coordination,
    /// The parallel `device_del` phase.
    Detach,
    /// The live precopy migration.
    Migration,
    /// The parallel `device_add` phase.
    Attach,
}

impl FaultPhase {
    /// The flag/metric spelling.
    pub fn name(self) -> &'static str {
        match self {
            FaultPhase::Coordination => "coordination",
            FaultPhase::Detach => "detach",
            FaultPhase::Migration => "migration",
            FaultPhase::Attach => "attach",
        }
    }

    /// Parse a flag spelling.
    pub fn parse(s: &str) -> Option<FaultPhase> {
        match s {
            "coordination" => Some(FaultPhase::Coordination),
            "detach" => Some(FaultPhase::Detach),
            "migration" => Some(FaultPhase::Migration),
            "attach" => Some(FaultPhase::Attach),
            _ => None,
        }
    }

    const ALL: [FaultPhase; 4] = [
        FaultPhase::Coordination,
        FaultPhase::Detach,
        FaultPhase::Migration,
        FaultPhase::Attach,
    ];
}

impl fmt::Display for FaultPhase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One injected fault: kind + where it strikes.
#[derive(Debug, Clone)]
pub struct FaultSpec {
    /// What goes wrong.
    pub kind: FaultKind,
    /// At which Fig. 4 phase.
    pub phase: FaultPhase,
    /// Which fleet job (`None` = every job).
    pub job: Option<usize>,
    /// Which of the job's migrations (0 = the first; a recovery
    /// migration scheduled by the fleet engine is index 1).
    pub mig: usize,
    /// How many times the fault fires before clearing. `None` =
    /// persistent: it keeps firing until retries are exhausted, which
    /// forces degradation or clean failure.
    pub times: Option<u32>,
    /// Extra virtual time a [`FaultKind::PrecopyStall`] adds per fire.
    pub stall: SimDuration,
}

impl FaultSpec {
    /// A persistent fault of `kind` at its default phase, striking
    /// every job's first migration.
    pub fn new(kind: FaultKind) -> FaultSpec {
        FaultSpec {
            kind,
            phase: kind.default_phase(),
            job: None,
            mig: 0,
            times: match kind {
                // A persistent stall would add time forever; default to
                // a single stall unless the spec says otherwise.
                FaultKind::PrecopyStall => Some(1),
                _ => None,
            },
            stall: SimDuration::from_secs(30),
        }
    }

    /// Parse a `--fault` flag value:
    /// `KIND[:phase=P][:job=J][:mig=M][:times=N][:stall=SECS]` where
    /// KIND is one of `qmp-timeout`, `precopy-stall`, `precopy-abort`,
    /// `hotplug-attach`, `agent-disconnect` and P is a Fig. 4 phase
    /// (`coordination`, `detach`, `migration`, `attach`).
    pub fn parse(s: &str) -> Result<FaultSpec, String> {
        let mut parts = s.split(':');
        let kind_s = parts.next().unwrap_or_default();
        let kind = FaultKind::parse(kind_s)
            .ok_or_else(|| format!("unknown fault kind '{kind_s}' (see --help)"))?;
        let mut spec = FaultSpec::new(kind);
        for part in parts {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("fault option '{part}' is not key=value"))?;
            match key {
                "phase" => {
                    spec.phase = FaultPhase::parse(value)
                        .ok_or_else(|| format!("unknown fault phase '{value}'"))?;
                }
                "job" => {
                    spec.job = Some(
                        value
                            .parse()
                            .map_err(|_| format!("fault job '{value}' is not an index"))?,
                    );
                }
                "mig" => {
                    spec.mig = value
                        .parse()
                        .map_err(|_| format!("fault mig '{value}' is not an index"))?;
                }
                "times" => {
                    let n: u32 = value
                        .parse()
                        .map_err(|_| format!("fault times '{value}' is not a count"))?;
                    if n == 0 {
                        return Err("fault times must be at least 1".into());
                    }
                    spec.times = Some(n);
                }
                "stall" => {
                    let secs: f64 = value
                        .parse()
                        .map_err(|_| format!("fault stall '{value}' is not seconds"))?;
                    if secs <= 0.0 {
                        return Err("fault stall must be positive seconds".into());
                    }
                    spec.stall = SimDuration::checked_from_secs_f64(secs).ok_or_else(|| {
                        format!("fault stall '{value}' is not a finite time the clock holds")
                    })?;
                }
                _ => return Err(format!("unknown fault option '{key}'")),
            }
        }
        if !spec.kind.valid_at(spec.phase) {
            return Err(format!(
                "fault kind {} cannot fire at phase {}",
                spec.kind, spec.phase
            ));
        }
        Ok(spec)
    }
}

/// What [`FaultPlan::fire`] hands the stepper.
#[derive(Debug, Clone, Copy)]
pub struct Injected {
    /// The fault that fired.
    pub kind: FaultKind,
    /// The stall duration (meaningful for [`FaultKind::PrecopyStall`]).
    pub stall: SimDuration,
}

/// A seeded, deterministic set of faults to inject into a run.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    specs: Vec<FaultSpec>,
    /// Fires consumed per spec (for `times`-bounded specs).
    fired: Vec<u32>,
}

impl FaultPlan {
    /// An empty plan: nothing ever fires.
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// A plan from explicit specs.
    pub fn from_specs(specs: Vec<FaultSpec>) -> FaultPlan {
        let fired = vec![0; specs.len()];
        FaultPlan { specs, fired }
    }

    /// Add a spec.
    pub fn push(&mut self, spec: FaultSpec) {
        self.specs.push(spec);
        self.fired.push(0);
    }

    /// Whether any fault could ever fire.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// The specs, for reporting.
    pub fn specs(&self) -> &[FaultSpec] {
        &self.specs
    }

    /// A seeded random plan over `jobs` fleet jobs: 1–3 faults, each
    /// aimed at a random job's first migration at a random (valid)
    /// phase, with a mix of one-shot and persistent budgets. The draw
    /// uses its own generator — building a plan never perturbs a
    /// world's RNG stream.
    pub fn random(seed: u64, jobs: usize) -> FaultPlan {
        assert!(jobs > 0, "a fault plan needs at least one job to target");
        let mut rng = SimRng::new(seed ^ 0xfa17_0000);
        let kinds = [
            FaultKind::QmpTimeout,
            FaultKind::PrecopyStall,
            FaultKind::PrecopyAbort,
            FaultKind::HotplugAttach,
            FaultKind::AgentDisconnect,
        ];
        let count = 1 + rng.below(3) as usize;
        let mut plan = FaultPlan::new();
        for _ in 0..count {
            let kind = kinds[rng.below(kinds.len() as u64) as usize];
            let valid: Vec<FaultPhase> = FaultPhase::ALL
                .into_iter()
                .filter(|&p| kind.valid_at(p))
                .collect();
            let phase = valid[rng.below(valid.len() as u64) as usize];
            let mut spec = FaultSpec::new(kind);
            spec.phase = phase;
            spec.job = Some(rng.below(jobs as u64) as usize);
            // Half the specs retry to success, half exhaust retries.
            if rng.below(2) == 0 {
                spec.times = Some(1 + rng.below(2) as u32);
            } else if kind != FaultKind::PrecopyStall {
                spec.times = None;
            }
            plan.push(spec);
        }
        plan
    }

    /// Consult the plan before executing `phase` of migration `mig` of
    /// job `job`, up to `up_to` (≥ 1) times in a row. Returns the first
    /// matching armed fault and how often it fires: `up_to`, or fewer if
    /// its budget runs out first (the fires are taken from the budget).
    /// Until then it stays the first armed match, so the next calls
    /// would have returned it one fire at a time. `None` if nothing
    /// fires. Pure bookkeeping: no RNG, no clock.
    pub fn fire(
        &mut self,
        job: usize,
        mig: usize,
        phase: FaultPhase,
        up_to: u64,
    ) -> Option<(Injected, u64)> {
        for (i, spec) in self.specs.iter().enumerate() {
            if spec.phase != phase || spec.mig != mig {
                continue;
            }
            if spec.job.is_some_and(|j| j != job) {
                continue;
            }
            let budget = spec.times.map_or(u64::MAX, |times| {
                u64::from(times.saturating_sub(self.fired[i]))
            });
            if budget == 0 {
                continue;
            }
            let fires = up_to.min(budget);
            self.fired[i] = self.fired[i].saturating_add(u32::try_from(fires).unwrap_or(u32::MAX));
            let injected = Injected {
                kind: spec.kind,
                stall: spec.stall,
            };
            return Some((injected, fires));
        }
        None
    }
}

/// Bounded retry with exponential backoff, in virtual time.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Retries after the first failure before giving up.
    pub max_retries: u32,
    /// Backoff before retry 1; doubles per retry (capped at 64×).
    pub backoff: SimDuration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 2,
            backoff: SimDuration::from_secs(5),
        }
    }
}

impl RetryPolicy {
    /// The wait before retry `attempt` (1-based): `backoff · 2^(a-1)`.
    pub fn backoff_before(&self, attempt: u32) -> SimDuration {
        let shift = attempt.saturating_sub(1).min(6);
        self.backoff * (1 << shift)
    }

    /// The waits before retries `first..=last`, summed (saturating).
    /// From retry 7 on every wait is the capped 64×, so this takes at
    /// most six steps however many retries it covers.
    pub fn backoff_before_each(&self, first: u32, last: u32) -> SimDuration {
        let doubling: SimDuration = (first..=last.min(6)).map(|a| self.backoff_before(a)).sum();
        let capped = u64::from(last.saturating_add(1).saturating_sub(first.max(7)));
        doubling + self.backoff_before(7) * capped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_full_grammar() {
        let s = FaultSpec::parse("hotplug-attach:phase=attach:job=0:times=2:stall=4.5").unwrap();
        assert_eq!(s.kind, FaultKind::HotplugAttach);
        assert_eq!(s.phase, FaultPhase::Attach);
        assert_eq!(s.job, Some(0));
        assert_eq!(s.times, Some(2));
        assert_eq!(s.mig, 0);
        let s = FaultSpec::parse("qmp-timeout:phase=coordination:mig=1").unwrap();
        assert_eq!(s.phase, FaultPhase::Coordination);
        assert_eq!(s.mig, 1);
        assert_eq!(s.times, None, "defaults to persistent");
    }

    #[test]
    fn parse_rejects_nonsense() {
        assert!(FaultSpec::parse("disk-full").is_err());
        assert!(FaultSpec::parse("qmp-timeout:phase=linkup").is_err());
        assert!(
            FaultSpec::parse("precopy-abort:phase=attach").is_err(),
            "abort only at migration"
        );
        assert!(FaultSpec::parse("hotplug-attach:phase=detach").is_err());
        assert!(FaultSpec::parse("qmp-timeout:times=0").is_err());
        assert!(FaultSpec::parse("qmp-timeout:stall=-3").is_err());
        for stall in ["inf", "nan", "1e30", "18446744074"] {
            let spec = format!("precopy-stall:stall={stall}");
            assert!(FaultSpec::parse(&spec).is_err(), "{spec}");
        }
        assert!(FaultSpec::parse("precopy-stall:stall=18446744073").is_ok());
        assert!(FaultSpec::parse("qmp-timeout:bogus=1").is_err());
    }

    #[test]
    fn stall_defaults_to_one_shot() {
        let s = FaultSpec::parse("precopy-stall").unwrap();
        assert_eq!(s.times, Some(1), "a persistent stall would never end");
        assert_eq!(s.phase, FaultPhase::Migration);
    }

    #[test]
    fn fire_respects_target_and_budget() {
        let mut plan = FaultPlan::from_specs(vec![FaultSpec::parse(
            "qmp-timeout:phase=detach:job=1:times=2",
        )
        .unwrap()]);
        assert!(
            plan.fire(0, 0, FaultPhase::Detach, 1).is_none(),
            "wrong job"
        );
        assert!(
            plan.fire(1, 1, FaultPhase::Detach, 1).is_none(),
            "wrong mig"
        );
        assert!(
            plan.fire(1, 0, FaultPhase::Attach, 1).is_none(),
            "wrong phase"
        );
        assert!(plan.fire(1, 0, FaultPhase::Detach, 1).is_some());
        assert!(plan.fire(1, 0, FaultPhase::Detach, 1).is_some());
        assert!(
            plan.fire(1, 0, FaultPhase::Detach, 1).is_none(),
            "budget spent"
        );
    }

    #[test]
    fn fire_takes_a_run_from_one_spec() {
        let mut plan = FaultPlan::from_specs(vec![
            FaultSpec::parse("qmp-timeout:phase=detach:times=5").unwrap(),
            FaultSpec::parse("qmp-timeout:phase=detach").unwrap(),
        ]);
        let mut fire = |up_to| plan.fire(0, 0, FaultPhase::Detach, up_to).map(|(_, n)| n);
        assert_eq!(fire(3), Some(3));
        assert_eq!(fire(3), Some(2), "the rest of the first spec's budget");
        assert_eq!(fire(u64::MAX), Some(u64::MAX), "then the persistent one");
        assert_eq!(fire(1), Some(1), "which never clears");
    }

    #[test]
    fn summed_backoff_matches_each_retry() {
        let p = RetryPolicy::default();
        for (first, last) in [(1, 0), (1, 1), (1, 6), (2, 9), (7, 12), (5, 40)] {
            let each: SimDuration = (first..=last).map(|a| p.backoff_before(a)).sum();
            assert_eq!(p.backoff_before_each(first, last), each, "{first}..={last}");
        }
        let all = p.backoff_before_each(1, u32::MAX);
        assert_eq!(all, SimDuration::MAX, "saturates instead of looping");
    }

    #[test]
    fn persistent_fault_never_clears() {
        let mut plan = FaultPlan::from_specs(vec![FaultSpec::parse("precopy-abort").unwrap()]);
        for _ in 0..100 {
            assert!(plan.fire(3, 0, FaultPhase::Migration, 1).is_some());
        }
        assert!(
            plan.fire(3, 1, FaultPhase::Migration, 1).is_none(),
            "mig 1 untouched"
        );
    }

    #[test]
    fn random_plans_are_seeded_and_valid() {
        let a = FaultPlan::random(7, 4);
        let b = FaultPlan::random(7, 4);
        assert_eq!(a.specs().len(), b.specs().len());
        for (x, y) in a.specs().iter().zip(b.specs()) {
            assert_eq!(x.kind, y.kind);
            assert_eq!(x.phase, y.phase);
            assert_eq!(x.job, y.job);
        }
        assert!(!FaultPlan::random(8, 4).is_empty());
        for seed in 0..50 {
            for s in FaultPlan::random(seed, 3).specs() {
                assert!(s.kind.valid_at(s.phase), "{s:?}");
                assert!(s.job.unwrap() < 3);
                assert!(s.kind != FaultKind::PrecopyStall || s.times.is_some());
            }
        }
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let p = RetryPolicy {
            max_retries: 10,
            backoff: SimDuration::from_secs(2),
        };
        assert_eq!(p.backoff_before(1).as_secs_f64(), 2.0);
        assert_eq!(p.backoff_before(2).as_secs_f64(), 4.0);
        assert_eq!(p.backoff_before(3).as_secs_f64(), 8.0);
        assert_eq!(p.backoff_before(40).as_secs_f64(), 128.0, "capped at 64x");
    }

    #[test]
    fn backoff_doubles_exactly_in_nanoseconds() {
        // Doubling through f64 seconds used to truncate: a 1.001 s
        // backoff came back 1 ns short (1_000_999_999 ns).
        let mut rng = ninja_sim::SimRng::new(0xb0ff);
        let mut backoffs = vec![1_001_000_000];
        backoffs.extend((0..500).map(|_| rng.below(600_000_000_000)));
        backoffs.extend((0..500).map(|_| rng.below(600_000) * 1_000_000));
        for ns in backoffs {
            let p = RetryPolicy {
                max_retries: 10,
                backoff: SimDuration::from_nanos(ns),
            };
            for a in 1..=7u32 {
                assert_eq!(
                    p.backoff_before(a).as_nanos(),
                    ns << (a - 1),
                    "backoff {ns} ns, attempt {a}"
                );
            }
            assert_eq!(p.backoff_before(8), p.backoff_before(7), "capped at 64x");
        }
    }
}
