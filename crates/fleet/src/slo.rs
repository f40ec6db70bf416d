//! Fleet SLO reporting.
//!
//! A fleet run is judged on distributions, not single numbers: the p50
//! and p99 of per-job **blackout** (the Fig. 4 total the frozen
//! application observes) and **queue wait** (trigger → migration
//! start), plus the **drain makespan** (first trigger → last job
//! resumed). [`FleetReport`] carries those, per-job detail, and deadline
//! accounting, with JSON/CSV exports matching the rest of the repo.
//! [`DrillView`] reads the same report as a cluster-evacuation drill.

use ninja_migration::{NinjaReport, TriggerReason};
use ninja_sim::{AlertIncident, JsonWriter, SimDuration, SimTime, WriteJson};
use std::fmt;

/// One job's journey through the fleet engine.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// Fleet job index.
    pub job: usize,
    /// Why the scheduler moved it.
    pub reason: TriggerReason,
    /// Trigger time.
    pub triggered_at: SimTime,
    /// When the migration was admitted and began.
    pub started_at: SimTime,
    /// When the job resumed on its destination.
    pub finished_at: SimTime,
    /// Whether `finished_at - triggered_at` exceeded the deadline.
    pub deadline_missed: bool,
    /// The migration's phase breakdown (blackout = its `total()`).
    pub report: NinjaReport,
}

impl JobOutcome {
    /// Trigger to admission: `started_at - triggered_at`.
    pub fn queue_wait(&self) -> SimDuration {
        self.started_at.since(self.triggered_at)
    }

    /// The application-observed blackout (Fig. 4 total).
    pub fn blackout(&self) -> SimDuration {
        self.report.total()
    }

    /// Whether this migration landed on TCP because the IB re-attach
    /// failed (graceful degradation).
    pub fn degraded(&self) -> bool {
        self.report.degraded
    }
}

/// A job whose migration failed mid-flight (retries exhausted on a
/// non-degradable fault). The fleet run keeps going; the failure is
/// reported instead of aborting the whole drill.
#[derive(Debug, Clone)]
pub struct JobFailure {
    /// Fleet job index.
    pub job: usize,
    /// Why the scheduler had moved it.
    pub reason: TriggerReason,
    /// The terminal error, rendered.
    pub error: String,
    /// When the migration gave up.
    pub failed_at: SimTime,
}

impl WriteJson for JobFailure {
    fn write_json<W: fmt::Write + ?Sized>(&self, w: &mut JsonWriter<'_, W>) -> fmt::Result {
        w.begin_object()?;
        w.field("job", &self.job)?;
        w.field("reason", reason_label(self.reason))?;
        w.field("error", &self.error)?;
        w.field("failed_at", &self.failed_at)?;
        w.end_object()
    }
}

fn reason_label(r: TriggerReason) -> &'static str {
    match r {
        TriggerReason::Fallback => "fallback",
        TriggerReason::Recovery => "recovery",
        TriggerReason::Placement => "placement",
    }
}

impl WriteJson for JobOutcome {
    fn write_json<W: fmt::Write + ?Sized>(&self, w: &mut JsonWriter<'_, W>) -> fmt::Result {
        w.begin_object()?;
        w.field("job", &self.job)?;
        w.field("reason", reason_label(self.reason))?;
        w.field("triggered_at", &self.triggered_at)?;
        w.field("started_at", &self.started_at)?;
        w.field("queue_wait_s", &self.queue_wait())?;
        w.field("finished_at", &self.finished_at)?;
        w.field("blackout_s", &self.blackout())?;
        w.field("deadline_missed", &self.deadline_missed)?;
        // `degraded` only appears when true: fault-free runs serialize
        // bit-identically to builds without fault injection.
        if self.degraded() {
            w.field("degraded", &true)?;
        }
        w.field("report", &self.report)?;
        w.end_object()
    }
}

/// The SLO summary of one fleet run.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// Per-job outcomes, in job order.
    pub jobs: Vec<JobOutcome>,
    /// First trigger to last job resumed.
    pub makespan: SimDuration,
    /// Concurrency cap the run used.
    pub concurrency: usize,
    /// Deepest the admission queue got.
    pub peak_queue_depth: usize,
    /// Per-job deadline, if one was set.
    pub deadline: Option<SimDuration>,
    /// Jobs whose migration failed mid-flight (fault injection with
    /// retries exhausted). Empty on every fault-free run.
    pub failures: Vec<JobFailure>,
    /// Alert incidents the run's flight recorder raised, in firing
    /// order. Always empty when no recorder/alert rules were installed,
    /// so default runs serialize bit-identically to older builds.
    pub alerts: Vec<AlertIncident>,
    /// [`MigrationMachine::step`](ninja_migration::MigrationMachine::step)
    /// calls the engine made: host-side bookkeeping, part of no export.
    pub machine_steps: u64,
}

/// Nearest-rank percentile (the convention SLO dashboards use): the
/// smallest value such that at least `q`% of samples are ≤ it; zero
/// for no samples.
pub fn percentile(values: &[SimDuration], q: f64) -> SimDuration {
    if values.is_empty() {
        return SimDuration::ZERO;
    }
    let mut values = values.to_vec();
    let i = rank_index(values.len(), q);
    *values.select_nth_unstable(i).1
}

/// The index of the nearest-rank `q` percentile among `len > 0` samples
/// sorted ascending.
fn rank_index(len: usize, q: f64) -> usize {
    let rank = ((q / 100.0) * len as f64).ceil() as usize;
    rank.clamp(1, len) - 1
}

/// The p50 and p99 of a report's blackout and queue-wait samples, for
/// the JSON and text outputs.
struct Distributions {
    blackout: [SimDuration; 2],
    queue_wait: [SimDuration; 2],
}

impl Distributions {
    fn of(jobs: &[JobOutcome]) -> Self {
        let mut samples: Vec<SimDuration> = jobs.iter().map(JobOutcome::blackout).collect();
        let blackout = p50_p99(&mut samples);
        samples.clear();
        samples.extend(jobs.iter().map(JobOutcome::queue_wait));
        Distributions {
            blackout,
            queue_wait: p50_p99(&mut samples),
        }
    }
}

/// The nearest-rank p50 and p99 of `values` (see [`percentile`]),
/// found by selection rather than a full sort: the two ranks hold the
/// values a sort would put there.
fn p50_p99(values: &mut [SimDuration]) -> [SimDuration; 2] {
    if values.is_empty() {
        return [SimDuration::ZERO; 2];
    }
    let (i50, i99) = (
        rank_index(values.len(), 50.0),
        rank_index(values.len(), 99.0),
    );
    let (_, &mut p50, above) = values.select_nth_unstable(i50);
    let p99 = match i99 - i50 {
        0 => p50,
        d => *above.select_nth_unstable(d - 1).1,
    };
    [p50, p99]
}

impl FleetReport {
    /// Jobs that blew their deadline.
    pub fn deadline_misses(&self) -> usize {
        self.jobs.iter().filter(|j| j.deadline_missed).count()
    }

    /// Total precopy bytes across all jobs (conserved under max-min
    /// contention: the wire reshuffles time, not bytes).
    pub fn total_wire_bytes(&self) -> u64 {
        self.jobs.iter().map(|j| j.report.wire_bytes).sum()
    }

    /// Distinct jobs that degraded to TCP at least once during the run
    /// (even if a recovery migration later restored InfiniBand).
    pub fn degraded_jobs(&self) -> usize {
        let mut seen = std::collections::BTreeSet::new();
        for j in self.jobs.iter().filter(|j| j.degraded()) {
            seen.insert(j.job);
        }
        seen.len()
    }

    /// Automatic recovery migrations the engine ran (reason `recovery`).
    pub fn recovery_migrations(&self) -> usize {
        self.jobs
            .iter()
            .filter(|j| j.reason == TriggerReason::Recovery)
            .count()
    }

    /// Jobs that degraded to TCP and whose recovery migration then
    /// restored a non-degraded transport.
    pub fn recovered_jobs(&self) -> usize {
        let mut degraded = std::collections::BTreeSet::new();
        let mut restored = std::collections::BTreeSet::new();
        for j in &self.jobs {
            if j.degraded() {
                degraded.insert(j.job);
            } else if j.reason == TriggerReason::Recovery {
                restored.insert(j.job);
            }
        }
        degraded.intersection(&restored).count()
    }

    /// CSV export, one row per job.
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "job,reason,vms,triggered_at,started_at,queue_wait_s,blackout_s,finished_at,wire_bytes,deadline_missed,degraded\n",
        );
        for j in &self.jobs {
            out.push_str(&format!(
                "{},{},{},{:.3},{:.3},{:.3},{:.3},{:.3},{},{},{}\n",
                j.job,
                reason_label(j.reason),
                j.report.vm_count,
                j.triggered_at.as_secs_f64(),
                j.started_at.as_secs_f64(),
                j.queue_wait().as_secs_f64(),
                j.blackout().as_secs_f64(),
                j.finished_at.as_secs_f64(),
                j.report.wire_bytes,
                j.deadline_missed,
                j.degraded(),
            ));
        }
        out
    }
}

impl WriteJson for FleetReport {
    fn write_json<W: fmt::Write + ?Sized>(&self, w: &mut JsonWriter<'_, W>) -> fmt::Result {
        w.begin_object()?;
        w.field("jobs", &self.jobs.len())?;
        w.field("concurrency", &self.concurrency)?;
        w.field("makespan_s", &self.makespan)?;
        let d = Distributions::of(&self.jobs);
        w.field("p50_blackout_s", &d.blackout[0])?;
        w.field("p99_blackout_s", &d.blackout[1])?;
        w.field("p50_queue_wait_s", &d.queue_wait[0])?;
        w.field("p99_queue_wait_s", &d.queue_wait[1])?;
        w.field("peak_queue_depth", &self.peak_queue_depth)?;
        w.field("total_wire_bytes", &self.total_wire_bytes())?;
        w.field("deadline_s", &self.deadline)?;
        w.field("deadline_misses", &self.deadline_misses())?;
        // The fault-accounting keys only appear when nonzero, keeping
        // fault-free output byte-stable.
        let degraded = self.degraded_jobs();
        if degraded > 0 {
            w.field("degraded_jobs", &degraded)?;
            w.field("recovered_jobs", &self.recovered_jobs())?;
        }
        let recoveries = self.recovery_migrations();
        if recoveries > 0 {
            w.field("recovery_migrations", &recoveries)?;
        }
        if !self.failures.is_empty() {
            w.field("failures", &self.failures)?;
        }
        if !self.alerts.is_empty() {
            w.field("alerts", &self.alerts)?;
        }
        w.field("outcomes", &self.jobs)?;
        w.end_object()
    }
}

impl fmt::Display for FleetReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "fleet run: {} jobs, concurrency {}",
            self.jobs.len(),
            self.concurrency
        )?;
        writeln!(f, "  makespan     {:>9.2}s", self.makespan.as_secs_f64())?;
        let d = Distributions::of(&self.jobs);
        writeln!(
            f,
            "  blackout     {:>9.2}s p50   {:>9.2}s p99",
            d.blackout[0].as_secs_f64(),
            d.blackout[1].as_secs_f64()
        )?;
        writeln!(
            f,
            "  queue wait   {:>9.2}s p50   {:>9.2}s p99",
            d.queue_wait[0].as_secs_f64(),
            d.queue_wait[1].as_secs_f64()
        )?;
        writeln!(f, "  peak queue depth {}", self.peak_queue_depth)?;
        writeln!(
            f,
            "  wire bytes   {:.2} GiB",
            self.total_wire_bytes() as f64 / (1u64 << 30) as f64
        )?;
        match self.deadline {
            Some(d) => write!(
                f,
                "  deadline     {:.0}s, {} missed",
                d.as_secs_f64(),
                self.deadline_misses()
            )?,
            None => write!(f, "  deadline     none")?,
        }
        let degraded = self.degraded_jobs();
        if degraded > 0 {
            write!(
                f,
                "\n  degraded     {} job(s) fell back to TCP, {} recovered to IB",
                degraded,
                self.recovered_jobs()
            )?;
        }
        if !self.failures.is_empty() {
            for fail in &self.failures {
                write!(f, "\n  FAILED job {} : {}", fail.job, fail.error)?;
            }
        }
        for a in &self.alerts {
            write!(
                f,
                "\n  ALERT {} fired {:.1}s",
                a.rule,
                a.fired_at.as_secs_f64()
            )?;
            match a.resolved_at {
                Some(t) => write!(f, ", resolved {:.1}s", t.as_secs_f64())?,
                None => write!(f, ", unresolved at end of run")?,
            }
        }
        Ok(())
    }
}

/// A fleet run read as a cluster-evacuation drill (`ninja evacuate`):
/// one entry per migration, in job order, with the makespan as the
/// recovery time. Borrows the report; nothing is copied.
#[derive(Debug, Clone, Copy)]
pub struct DrillView<'a>(pub &'a FleetReport);

impl DrillView<'_> {
    /// VMs moved.
    pub fn vms(&self) -> usize {
        self.0.jobs.iter().map(|j| j.report.vm_count).sum()
    }
}

impl WriteJson for DrillView<'_> {
    fn write_json<W: fmt::Write + ?Sized>(&self, w: &mut JsonWriter<'_, W>) -> fmt::Result {
        let jobs = &self.0.jobs;
        w.begin_object()?;
        w.field("jobs", &jobs.len())?;
        w.field("vms", &self.vms())?;
        w.field("total_seconds", &self.0.makespan)?;
        w.key("queue_wait_s")?;
        w.begin_array()?;
        for j in jobs {
            j.queue_wait().write_json(w)?;
        }
        w.end_array()?;
        w.key("migrations")?;
        w.begin_array()?;
        for j in jobs {
            j.report.write_json(w)?;
        }
        w.end_array()?;
        w.end_object()
    }
}

/// The text report, without a trailing newline.
impl fmt::Display for DrillView<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "evacuated {} jobs ({} VMs) in {:.1}s",
            self.0.jobs.len(),
            self.vms(),
            self.0.makespan.as_secs_f64()
        )?;
        for (i, j) in self.0.jobs.iter().enumerate() {
            write!(
                f,
                "\n\n--- job {} (queued {:.1}s) ---\n{}",
                i + 1,
                j.queue_wait().as_secs_f64(),
                j.report
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ninja_sim::Bytes;

    fn outcome(job: usize, wait_s: u64, mig_s: u64) -> JobOutcome {
        let report = NinjaReport::new(
            SimDuration::from_millis(5),
            SimDuration::from_secs(3),
            SimDuration::from_secs(mig_s),
            SimDuration::ZERO,
            SimDuration::ZERO,
            Bytes::from_gib(1),
            Some("openib"),
            Some("tcp"),
            true,
            1,
        );
        let triggered = SimTime::ZERO + SimDuration::from_secs(10);
        let wait = SimDuration::from_secs(wait_s);
        JobOutcome {
            job,
            reason: TriggerReason::Fallback,
            triggered_at: triggered,
            started_at: triggered + wait,
            finished_at: triggered + wait + report.total(),
            deadline_missed: wait_s > 100,
            report,
        }
    }

    fn ns(values: &[u64]) -> Vec<SimDuration> {
        values
            .iter()
            .copied()
            .map(SimDuration::from_nanos)
            .collect()
    }

    #[test]
    fn report_percentiles_match_percentile() {
        let mut rng = ninja_sim::SimRng::new(0x9950);
        for n in 0..300u64 {
            let values = ns(&(0..n).map(|_| rng.below(40)).collect::<Vec<_>>());
            let want = [percentile(&values, 50.0), percentile(&values, 99.0)];
            assert_eq!(p50_p99(&mut values.clone()), want, "{n} samples");
        }
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v = ns(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10]);
        assert_eq!(percentile(&v, 50.0).as_nanos(), 5);
        assert_eq!(percentile(&v, 99.0).as_nanos(), 10);
        assert_eq!(percentile(&v, 100.0).as_nanos(), 10);
        assert_eq!(percentile(&[], 50.0), SimDuration::ZERO);
        assert_eq!(percentile(&ns(&[7_500]), 99.0).as_nanos(), 7_500);
    }

    /// Property: on degenerate sample sets, nearest-rank `percentile`
    /// agrees with `ninja_sim::Histogram::quantile` whenever the
    /// histogram's bucket bounds are exactly the sorted unique sample
    /// values — both implement "smallest value with cumulative count ≥
    /// ceil(q·n), at least 1".
    #[test]
    fn percentile_matches_histogram_quantile_on_degenerate_sets() {
        use ninja_sim::{Histogram, SimRng};
        let mut rng = SimRng::new(0x51_0e);
        let mut cases: Vec<Vec<u64>> = vec![
            vec![42],                     // n = 1
            vec![5; 7],                   // all ties
            vec![1, 1, 2, 2, 2],          // partial ties
            vec![0, 0, 0, 1_000_000_000], // extreme spread with ties
            (1..=100).collect(),
        ];
        for n in [2usize, 3, 17] {
            cases.push((0..n).map(|_| rng.below(5) * 500_000_000).collect());
        }
        for values in &cases {
            let mut bounds: Vec<f64> = values.iter().map(|&v| v as f64).collect();
            bounds.sort_by(f64::total_cmp);
            bounds.dedup();
            let mut h = Histogram::new(bounds);
            for &v in values {
                h.record(v as f64);
            }
            for q in [0.0, 50.0, 99.0, 100.0] {
                let ours = percentile(&ns(values), q).as_nanos() as f64;
                let hist = h.quantile(q / 100.0).expect("non-empty histogram");
                assert_eq!(
                    ours, hist,
                    "q={q} diverged on {values:?}: percentile {ours} vs histogram {hist}"
                );
            }
        }
    }

    #[test]
    fn report_aggregates_and_serializes() {
        let jobs: Vec<JobOutcome> = (0..4).map(|i| outcome(i, i as u64 * 50, 40)).collect();
        let last = jobs.iter().map(|j| j.finished_at).max().unwrap();
        let r = FleetReport {
            jobs,
            makespan: last.since(SimTime::ZERO + SimDuration::from_secs(10)),
            concurrency: 2,
            peak_queue_depth: 3,
            deadline: Some(SimDuration::from_secs(120)),
            failures: Vec::new(),
            alerts: Vec::new(),
            machine_steps: 0,
        };
        assert_eq!(r.deadline_misses(), 1, "the 150 s wait missed");
        assert_eq!(r.total_wire_bytes(), 4 * (1u64 << 30));
        let compact = r.to_json_compact();
        let j = ninja_sim::parse(&r.to_json_pretty()).unwrap();
        assert_eq!(j["jobs"].as_u64(), Some(4));
        assert!(j["p99_queue_wait_s"].as_f64().unwrap() >= 150.0);
        assert_eq!(j["deadline_misses"].as_u64(), Some(1));
        let back = ninja_sim::parse(&compact).unwrap();
        assert_eq!(back["outcomes"].as_array().unwrap().len(), 4);
        let csv = r.to_csv();
        assert_eq!(csv.lines().count(), 5);
        assert!(csv.lines().nth(1).unwrap().starts_with("0,fallback,1,"));
        let shown = r.to_string();
        assert!(shown.contains("makespan"));
        assert!(shown.contains("p99"));
        // Fault-free: no fault-accounting keys, columns, or lines.
        assert!(compact.find("degraded").is_none());
        assert!(!shown.contains("degraded"));
        assert!(csv.lines().next().unwrap().ends_with(",degraded"));
        // No recorder: no alerts key or section either.
        assert!(!compact.contains("\"alerts\""));
        assert!(!shown.contains("ALERT"));
    }

    #[test]
    fn alert_incidents_serialize_and_display() {
        let at = |s: u64| SimTime::ZERO + SimDuration::from_secs(s);
        let r = FleetReport {
            jobs: vec![outcome(0, 0, 40)],
            makespan: SimDuration::from_secs(50),
            concurrency: 1,
            peak_queue_depth: 1,
            deadline: None,
            failures: Vec::new(),
            alerts: vec![
                AlertIncident {
                    rule: "queue-backlog".into(),
                    fired_at: at(40),
                    resolved_at: Some(at(130)),
                },
                AlertIncident {
                    rule: "retry-burn".into(),
                    fired_at: at(60),
                    resolved_at: None,
                },
            ],
            machine_steps: 0,
        };
        let j = ninja_sim::parse(&r.to_json_compact()).unwrap();
        let alerts = j["alerts"].as_array().unwrap();
        assert_eq!(alerts.len(), 2);
        assert_eq!(alerts[0]["rule"].as_str(), Some("queue-backlog"));
        assert_eq!(alerts[0]["resolved_at"].as_f64(), Some(130.0));
        assert!(alerts[1]["resolved_at"].is_null());
        let shown = r.to_string();
        assert!(shown.contains("ALERT queue-backlog fired 40.0s, resolved 130.0s"));
        assert!(shown.contains("ALERT retry-burn fired 60.0s, unresolved at end of run"));
    }

    #[test]
    fn degraded_and_recovery_accounting() {
        let mut degraded = outcome(0, 0, 40);
        degraded.report.degraded = true;
        let mut recovery = outcome(0, 0, 40);
        recovery.reason = TriggerReason::Recovery;
        let r = FleetReport {
            jobs: vec![degraded, outcome(1, 5, 40), recovery],
            makespan: SimDuration::from_secs(100),
            concurrency: 1,
            peak_queue_depth: 1,
            deadline: None,
            failures: vec![JobFailure {
                job: 2,
                reason: TriggerReason::Fallback,
                error: "QMP command 'detach' timed out".into(),
                failed_at: SimTime::ZERO + SimDuration::from_secs(33),
            }],
            alerts: Vec::new(),
            machine_steps: 0,
        };
        assert_eq!(r.degraded_jobs(), 1);
        assert_eq!(r.recovery_migrations(), 1);
        assert_eq!(r.recovered_jobs(), 1, "recovery restored the transport");
        let j = ninja_sim::parse(&r.to_json_compact()).unwrap();
        assert_eq!(j["degraded_jobs"].as_u64(), Some(1));
        assert_eq!(j["recovered_jobs"].as_u64(), Some(1));
        assert_eq!(j["recovery_migrations"].as_u64(), Some(1));
        assert_eq!(j["failures"].as_array().unwrap().len(), 1);
        let shown = r.to_string();
        assert!(shown.contains("1 job(s) fell back to TCP"));
        assert!(shown.contains("FAILED job 2"));
        let csv = r.to_csv();
        assert!(csv.lines().nth(1).unwrap().ends_with(",true"));
        assert!(csv.contains(",recovery,"));
    }
}
