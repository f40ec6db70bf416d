//! Overhead accounting in the paper's terms.
//!
//! Section IV-B decomposes the Ninja migration overhead into
//! *coordination* + *hotplug* (detach + re-attach + confirm) + *link-up*
//! + *migration*. [`NinjaReport`] carries exactly those fields so the
//!   benchmark harness can print the same stacked bars as Figs. 6-8.

use ninja_sim::{Bytes, JsonWriter, SimDuration, WriteJson};
use std::fmt;

/// The per-phase overhead of one Ninja migration.
#[derive(Debug, Clone)]
pub struct NinjaReport {
    /// CRCP quiesce + IB resource release + SymVirt handshakes.
    pub coordination: SimDuration,
    /// `device_del` phase (parallel across VMs; max).
    pub detach: SimDuration,
    /// The live migration itself (parallel; until the last VM lands).
    pub migration: SimDuration,
    /// `device_add` phase (parallel; max). Zero when falling back to a
    /// cluster without HCAs.
    pub attach: SimDuration,
    /// Wait from resume until the (re-)attached IB links are usable and
    /// BTL reconstruction could bind them. Zero on Ethernet.
    pub linkup: SimDuration,
    /// Total bytes the migrations put on the wire.
    pub wire_bytes: u64,
    /// Transport uniformly in use before the migration (None if mixed).
    pub transport_before: Option<&'static str>,
    /// Transport uniformly in use after BTL reconstruction.
    pub transport_after: Option<&'static str>,
    /// Whether BTL modules were rebuilt (vs. kept).
    pub btl_reconstructed: bool,
    /// Number of VMs migrated.
    pub vm_count: usize,
    /// Whether the job degraded to TCP because the destination IB
    /// re-attach failed (graceful degradation; a recovery migration can
    /// restore InfiniBand later). `false` on every fault-free run.
    pub degraded: bool,
}

impl NinjaReport {
    /// The paper's "hotplug" figure: detach + re-attach (+ confirm,
    /// which our monitor folds into the attach sample).
    pub fn hotplug(&self) -> SimDuration {
        self.detach + self.attach
    }

    /// Total overhead the frozen application observes.
    pub fn total(&self) -> SimDuration {
        self.coordination + self.detach + self.migration + self.attach + self.linkup
    }

    /// Wire traffic in GiB (reporting convenience).
    pub fn wire_gib(&self) -> f64 {
        self.wire_bytes as f64 / (1u64 << 30) as f64
    }

    /// Helper for constructing from raw pieces.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        coordination: SimDuration,
        detach: SimDuration,
        migration: SimDuration,
        attach: SimDuration,
        linkup: SimDuration,
        wire_bytes: Bytes,
        transport_before: Option<&'static str>,
        transport_after: Option<&'static str>,
        btl_reconstructed: bool,
        vm_count: usize,
    ) -> Self {
        NinjaReport {
            coordination,
            detach,
            migration,
            attach,
            linkup,
            wire_bytes: wire_bytes.get(),
            transport_before,
            transport_after,
            btl_reconstructed,
            vm_count,
            degraded: false,
        }
    }
}

impl WriteJson for NinjaReport {
    fn write_json<W: fmt::Write + ?Sized>(&self, w: &mut JsonWriter<'_, W>) -> fmt::Result {
        w.begin_object()?;
        w.field("coordination", &self.coordination)?;
        w.field("detach", &self.detach)?;
        w.field("migration", &self.migration)?;
        w.field("attach", &self.attach)?;
        w.field("linkup", &self.linkup)?;
        w.field("hotplug", &self.hotplug())?;
        w.field("total", &self.total())?;
        w.field("wire_bytes", &self.wire_bytes)?;
        w.field("transport_before", &self.transport_before)?;
        w.field("transport_after", &self.transport_after)?;
        w.field("btl_reconstructed", &self.btl_reconstructed)?;
        w.field("vm_count", &self.vm_count)?;
        // The `degraded` key only appears when true so fault-free runs
        // serialize bit-identically to builds without fault injection.
        if self.degraded {
            w.field("degraded", &true)?;
        }
        w.end_object()
    }
}

impl fmt::Display for NinjaReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "ninja migration: {} VMs, {} -> {}",
            self.vm_count,
            self.transport_before.unwrap_or("mixed"),
            self.transport_after.unwrap_or("mixed"),
        )?;
        writeln!(f, "  coordination {:>8}", secs(self.coordination))?;
        writeln!(
            f,
            "  hotplug      {:>8}  (detach {} + attach {})",
            secs(self.hotplug()),
            secs(self.detach),
            secs(self.attach)
        )?;
        writeln!(
            f,
            "  migration    {:>8}  ({:.2} GiB on wire)",
            secs(self.migration),
            self.wire_gib()
        )?;
        writeln!(f, "  link-up      {:>8}", secs(self.linkup))?;
        write!(f, "  total        {:>8}", secs(self.total()))?;
        if self.degraded {
            write!(f, "\n  DEGRADED: IB re-attach failed; running on TCP")?;
        }
        Ok(())
    }
}

/// `d` in seconds to two decimals, as the report tables print it.
fn secs(d: SimDuration) -> String {
    format!("{:.2}s", d.as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> NinjaReport {
        NinjaReport::new(
            SimDuration::from_millis(5),
            SimDuration::from_millis(2800),
            SimDuration::from_secs(40),
            SimDuration::from_millis(1100),
            SimDuration::from_millis(29_800),
            Bytes::from_gib(3),
            Some("openib"),
            Some("openib"),
            true,
            8,
        )
    }

    #[test]
    fn totals_add_up() {
        let r = sample();
        assert_eq!(r.hotplug(), SimDuration::from_millis(3_900));
        assert_eq!(
            r.total(),
            SimDuration::from_millis(5 + 2_800 + 40_000 + 1_100 + 29_800)
        );
        assert!((r.wire_gib() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn display_mentions_phases() {
        let s = sample().to_string();
        assert!(s.contains("hotplug"));
        assert!(s.contains("link-up"));
        assert!(s.contains("migration"));
        assert!(s.contains("openib -> openib"));
    }

    #[test]
    fn serializes_to_json() {
        let j = ninja_sim::parse(&sample().to_json_pretty()).unwrap();
        assert_eq!(j["vm_count"].as_u64(), Some(8));
        assert_eq!(j["linkup"].as_f64(), Some(29.8));
        assert_eq!(j["transport_after"].as_str(), Some("openib"));
        // Round-trips through the in-repo parser.
        let back = ninja_sim::parse(&sample().to_json_compact()).unwrap();
        assert_eq!(back["btl_reconstructed"].as_bool(), Some(true));
        assert_eq!(back["hotplug"].as_f64(), Some(3.9));
    }
}
