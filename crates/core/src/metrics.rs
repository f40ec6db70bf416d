//! Aggregation of migration reports across a scenario.
//!
//! Long scenarios (the Fig. 8 sequence, a week of day/night placement
//! moves, a fleet-wide evacuation drill) produce many [`NinjaReport`]s;
//! the [`MigrationLedger`] collects them and answers the questions an
//! operator asks afterwards: how much total frozen time, how do the
//! phases distribute, which transport transitions happened, and what
//! does the CSV for the plotting pipeline look like.

use crate::report::NinjaReport;
use ninja_sim::{JsonWriter, MetricsRegistry, Summary, WriteJson};
use std::collections::BTreeMap;
use std::fmt;

/// Per-phase distribution over a set of migrations.
///
/// Carries both granularities of the hotplug cost: the raw `detach`
/// and `attach` samples *and* their per-migration sum `hotplug`, so
/// consumers never have to re-derive one from the other (and so the
/// CSV, JSON, and Prometheus exports can all agree).
#[derive(Debug, Clone, Default)]
pub struct PhaseStats {
    /// Coordination (CRCP + release + SymVirt).
    pub coordination: Summary,
    /// `device_del` phase alone.
    pub detach: Summary,
    /// `device_add` phase alone.
    pub attach: Summary,
    /// Hotplug (detach + attach) — the paper's combined figure.
    pub hotplug: Summary,
    /// Live-migration transfer.
    pub migration: Summary,
    /// Link training.
    pub linkup: Summary,
    /// End-to-end overhead.
    pub total: Summary,
}

/// An append-only collection of migration reports.
#[derive(Debug, Clone, Default)]
pub struct MigrationLedger {
    reports: Vec<NinjaReport>,
}

impl MigrationLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one migration.
    pub fn push(&mut self, report: NinjaReport) {
        self.reports.push(report);
    }

    /// Number of migrations recorded.
    pub fn len(&self) -> usize {
        self.reports.len()
    }

    /// Whether the ledger is empty.
    pub fn is_empty(&self) -> bool {
        self.reports.is_empty()
    }

    /// Borrow the raw reports.
    pub fn reports(&self) -> &[NinjaReport] {
        &self.reports
    }

    /// Total frozen (application-observed) seconds across all
    /// migrations.
    pub fn total_overhead(&self) -> f64 {
        self.reports.iter().map(|r| r.total()).sum()
    }

    /// Total bytes moved across all migrations.
    pub fn total_wire_bytes(&self) -> u64 {
        self.reports.iter().map(|r| r.wire_bytes).sum()
    }

    /// Phase distributions.
    pub fn phase_stats(&self) -> PhaseStats {
        let mut s = PhaseStats::default();
        for r in &self.reports {
            s.coordination.record(r.coordination.0);
            s.detach.record(r.detach.0);
            s.attach.record(r.attach.0);
            s.hotplug.record(r.hotplug());
            s.migration.record(r.migration.0);
            s.linkup.record(r.linkup.0);
            s.total.record(r.total());
        }
        s
    }

    /// Histogram of transport transitions, e.g. `("openib","tcp") -> 2`.
    pub fn transitions(&self) -> BTreeMap<(String, String), usize> {
        let mut m = BTreeMap::new();
        for r in &self.reports {
            let key = (
                r.transport_before.clone().unwrap_or_else(|| "mixed".into()),
                r.transport_after.clone().unwrap_or_else(|| "mixed".into()),
            );
            *m.entry(key).or_insert(0) += 1;
        }
        m
    }

    /// Render as CSV (one row per migration) for external plotting.
    ///
    /// Schema (all durations in seconds, Fig. 4 phase order):
    ///
    /// | column           | meaning                                          |
    /// |------------------|--------------------------------------------------|
    /// | `index`          | 0-based migration number within the scenario     |
    /// | `vms`            | VMs moved in this migration                      |
    /// | `coordination_s` | CRCP quiesce + resource release + handshakes     |
    /// | `detach_s`       | `device_del` phase (parallel max across VMs)     |
    /// | `migration_s`    | live-migration transfer (until last VM lands)    |
    /// | `attach_s`       | `device_add` phase (parallel max across VMs)     |
    /// | `hotplug_s`      | `detach_s + attach_s` (the paper's figure)       |
    /// | `linkup_s`       | IB link training wait after resume               |
    /// | `total_s`        | coordination + detach + migration + attach + linkup |
    /// | `wire_bytes`     | bytes put on the wire by the transfers           |
    /// | `from`, `to`     | uniform transport before/after (`mixed` if not)  |
    /// | `reconstructed`  | whether BTL modules were rebuilt                 |
    ///
    /// `hotplug_s` is derived — it always equals `detach_s + attach_s`
    /// exactly, and the JSON ([`NinjaReport`]'s `WriteJson`) and Prometheus
    /// ([`MigrationLedger::to_metrics`]) exports use the same
    /// definition.
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "index,vms,coordination_s,detach_s,migration_s,attach_s,hotplug_s,linkup_s,total_s,wire_bytes,from,to,reconstructed\n",
        );
        for (i, r) in self.reports.iter().enumerate() {
            out.push_str(&format!(
                "{},{},{:.6},{:.6},{:.6},{:.6},{:.6},{:.6},{:.6},{},{},{},{}\n",
                i,
                r.vm_count,
                r.coordination.0,
                r.detach.0,
                r.migration.0,
                r.attach.0,
                r.hotplug(),
                r.linkup.0,
                r.total(),
                r.wire_bytes,
                r.transport_before.as_deref().unwrap_or("mixed"),
                r.transport_after.as_deref().unwrap_or("mixed"),
                r.btl_reconstructed,
            ));
        }
        out
    }

    /// Fold the ledger into a fresh [`MetricsRegistry`] using the same
    /// metric names the orchestrator records live
    /// (`ninja_migrations_total`, `ninja_wire_bytes_total`,
    /// `ninja_phase_duration_seconds{phase=...}`), so offline analysis
    /// of a ledger and scraping a live run read identically.
    pub fn to_metrics(&self) -> MetricsRegistry {
        let mut m = MetricsRegistry::new();
        m.describe("ninja_migrations_total", "Completed Ninja migrations");
        m.describe(
            "ninja_wire_bytes_total",
            "Bytes moved by migration transfers",
        );
        m.describe(
            "ninja_phase_duration_seconds",
            "Per-phase migration overhead (Fig. 4 phases plus hotplug = detach + attach)",
        );
        for r in &self.reports {
            m.inc("ninja_migrations_total", &[], 1);
            m.inc("ninja_wire_bytes_total", &[], r.wire_bytes);
            for (phase, secs) in [
                ("coordination", r.coordination.0),
                ("detach", r.detach.0),
                ("migration", r.migration.0),
                ("attach", r.attach.0),
                ("hotplug", r.hotplug()),
                ("linkup", r.linkup.0),
            ] {
                m.observe("ninja_phase_duration_seconds", &[("phase", phase)], secs);
            }
        }
        m
    }
}

impl WriteJson for MigrationLedger {
    fn write_json<W: fmt::Write + ?Sized>(&self, w: &mut JsonWriter<'_, W>) -> fmt::Result {
        w.begin_object()?;
        w.field("migrations", &self.reports)?;
        w.field("total_overhead_s", &self.total_overhead())?;
        w.field("total_wire_bytes", &self.total_wire_bytes())?;
        w.end_object()
    }
}

impl fmt::Display for MigrationLedger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let stats = self.phase_stats();
        writeln!(
            f,
            "{} migrations, {:.1}s total overhead, {:.2} GiB on wire",
            self.len(),
            self.total_overhead(),
            self.total_wire_bytes() as f64 / (1u64 << 30) as f64
        )?;
        writeln!(f, "  coordination {}", stats.coordination)?;
        writeln!(f, "  hotplug      {}", stats.hotplug)?;
        writeln!(f, "  migration    {}", stats.migration)?;
        writeln!(f, "  link-up      {}", stats.linkup)?;
        write!(f, "  total        {}", stats.total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NinjaOrchestrator, World};

    fn ledger_from_roundtrip() -> MigrationLedger {
        let mut w = World::agc(1500);
        let vms = w.boot_ib_vms(2);
        let mut rt = w.start_job(vms, 1);
        let orch = NinjaOrchestrator::default();
        let mut ledger = MigrationLedger::new();
        let eth: Vec<_> = (0..2).map(|i| w.eth_node(i)).collect();
        let ib: Vec<_> = (0..2).map(|i| w.ib_node(i)).collect();
        ledger.push(orch.migrate(&mut w, &mut rt, &eth).unwrap());
        ledger.push(orch.migrate(&mut w, &mut rt, &ib).unwrap());
        ledger
    }

    #[test]
    fn aggregates_roundtrip() {
        let ledger = ledger_from_roundtrip();
        assert_eq!(ledger.len(), 2);
        let stats = ledger.phase_stats();
        assert_eq!(stats.total.count(), 2);
        assert!(ledger.total_overhead() > 0.0);
        assert!(
            (ledger.total_overhead() - stats.total.mean() * 2.0).abs() < 1e-9,
            "sum == mean x n"
        );
        assert!(ledger.total_wire_bytes() > 0);
    }

    #[test]
    fn transitions_counted() {
        let ledger = ledger_from_roundtrip();
        let t = ledger.transitions();
        assert_eq!(t.get(&("openib".into(), "tcp".into())), Some(&1));
        assert_eq!(t.get(&("tcp".into(), "openib".into())), Some(&1));
    }

    #[test]
    fn csv_has_header_and_rows() {
        let ledger = ledger_from_roundtrip();
        let csv = ledger.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("index,vms,"));
        assert!(lines[1].contains("openib,tcp"));
    }

    #[test]
    fn display_summarizes() {
        let ledger = ledger_from_roundtrip();
        let s = ledger.to_string();
        assert!(s.contains("2 migrations"));
        assert!(s.contains("link-up"));
    }

    #[test]
    fn csv_hotplug_column_is_detach_plus_attach() {
        let ledger = ledger_from_roundtrip();
        let csv = ledger.to_csv();
        let header: Vec<&str> = csv.lines().next().unwrap().split(',').collect();
        let col = |name: &str| header.iter().position(|h| *h == name).unwrap();
        for line in csv.lines().skip(1) {
            let f: Vec<f64> = line
                .split(',')
                .map(|v| v.parse().unwrap_or(f64::NAN))
                .collect();
            assert!(
                (f[col("hotplug_s")] - (f[col("detach_s")] + f[col("attach_s")])).abs() < 1e-9,
                "hotplug_s must equal detach_s + attach_s: {line}"
            );
        }
    }

    #[test]
    fn exports_agree_across_formats() {
        let ledger = ledger_from_roundtrip();
        let stats = ledger.phase_stats();
        // CSV, JSON, and Prometheus all describe the same migrations.
        let m = ledger.to_metrics();
        assert_eq!(m.counter_total("ninja_migrations_total"), 2);
        assert_eq!(
            m.counter_total("ninja_wire_bytes_total"),
            ledger.total_wire_bytes()
        );
        let h = m
            .histogram("ninja_phase_duration_seconds", &[("phase", "hotplug")])
            .unwrap();
        assert_eq!(h.count(), 2);
        assert!((h.sum() - stats.hotplug.mean() * 2.0).abs() < 1e-9);
        let j = ninja_sim::parse(&ledger.to_json_compact()).unwrap();
        assert_eq!(j["migrations"].as_array().unwrap().len(), 2);
        assert!((j["total_overhead_s"].as_f64().unwrap() - ledger.total_overhead()).abs() < 1e-9);
    }

    #[test]
    fn empty_ledger() {
        let ledger = MigrationLedger::new();
        assert!(ledger.is_empty());
        assert_eq!(ledger.total_overhead(), 0.0);
        assert_eq!(ledger.to_csv().lines().count(), 1);
    }
}
