//! Precopy live-migration planner (QEMU-style).
//!
//! The paper uses QEMU/KVM's default precopy live migration. Its observed
//! properties, all modelled here:
//!
//! * the sender is a single TCP thread that saturates one core at about
//!   **1.3 Gb/s** (Section V), regardless of the 10 GbE link underneath;
//! * the VMM **traverses the whole of guest memory** each pass, so even
//!   a mostly-zero 20 GiB guest pays a scan cost (Section IV-B.2);
//! * zero/uniform pages are **compressed** to a small header, making
//!   migration time sublinear in RAM size;
//! * in Ninja migration the guest is **paused** (SymVirt wait) for the
//!   whole procedure, so precopy converges in a single pass; with a
//!   running guest the planner iterates dirty rounds like real QEMU —
//!   the ablation benches compare both.

use crate::memory::GuestMemory;
use ninja_sim::{Bandwidth, Bytes, SimDuration};

/// Tunables of the migration engine.
#[derive(Debug, Clone)]
pub struct MigrationConfig {
    /// CPU-bound sender throughput cap (Section V: "less than 1.3 Gbps
    /// ... the utilization of one CPU core is saturated at 100%").
    pub sender_cap: Bandwidth,
    /// Rate at which the VMM walks guest pages (zero-page detection is a
    /// memory-bandwidth-bound scan).
    pub page_scan_rate: Bandwidth,
    /// Precopy stops iterating when the remaining dirty set transfers
    /// within this bound (then does the stop-and-copy).
    pub downtime_limit: SimDuration,
    /// Safety valve on precopy rounds (QEMU eventually forces
    /// convergence).
    pub max_rounds: u32,
    /// QEMU's zero/uniform-page compression (Section IV-B.2). Disabled
    /// only by the ablation benches, to show migration time becoming
    /// linear in RAM size.
    pub zero_page_compression: bool,
    /// RDMA-based migration (Section V: "RDMA-based migration can
    /// reduce CPU utilization and improve the throughput, compared with
    /// TCP/IP-based migration" [20, 21]). Lifts the single-threaded
    /// TCP sender's CPU cap; the wire then runs at link rate.
    pub rdma_transport: bool,
}

impl Default for MigrationConfig {
    fn default() -> Self {
        MigrationConfig {
            sender_cap: Bandwidth::from_gbps(1.3),
            page_scan_rate: Bandwidth::from_bytes_per_sec(6.0e9),
            downtime_limit: SimDuration::from_millis(300),
            max_rounds: 30,
            zero_page_compression: true,
            rdma_transport: false,
        }
    }
}

impl MigrationConfig {
    /// The one rate rule of a precopy stream: the TCP sender's CPU cap,
    /// or `None` under RDMA, where the HCA copies at link rate. The plan,
    /// the path reservation and the fair-share flow all read it here.
    pub fn sender_cap(&self) -> Option<Bandwidth> {
        (!self.rdma_transport).then_some(self.sender_cap)
    }
}

/// One precopy round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrecopyRound {
    /// Bytes put on the wire this round (after compression).
    pub wire_bytes: Bytes,
    /// Guest bytes walked this round.
    pub scanned: Bytes,
    /// Wall-clock duration of the round.
    pub duration: SimDuration,
}

/// The planned migration.
#[derive(Debug, Clone)]
pub struct PrecopyPlan {
    /// Every round, first to last (the last round is the stop-and-copy).
    pub rounds: Vec<PrecopyRound>,
    /// Whether precopy converged under the downtime limit (vs. being
    /// forced at `max_rounds`).
    pub converged: bool,
}

impl PrecopyPlan {
    /// Total bytes on the wire.
    pub fn wire_bytes(&self) -> Bytes {
        self.rounds.iter().map(|r| r.wire_bytes).sum()
    }

    /// Total wall-clock migration time.
    pub fn duration(&self) -> SimDuration {
        self.rounds.iter().map(|r| r.duration).sum()
    }

    /// Guest-observed downtime: the final stop-and-copy round (for a
    /// guest paused throughout, this equals the whole duration).
    pub fn downtime(&self) -> SimDuration {
        self.rounds
            .last()
            .map(|r| r.duration)
            .unwrap_or(SimDuration::ZERO)
    }

    /// Returns the round count.
    pub fn round_count(&self) -> usize {
        self.rounds.len()
    }
}

/// Plan a precopy migration of `mem` at `link_rate` (the reserved path
/// bandwidth; the sender cap is applied on top). `guest_running` selects
/// between Ninja's paused-guest single pass and iterative precopy.
///
/// ```
/// use ninja_sim::{Bandwidth, Bytes};
/// use ninja_vmm::{plan_precopy, GuestMemory, MigrationConfig};
/// let mut mem = GuestMemory::new(Bytes::from_gib(20));
/// mem.set_workload(Bytes::from_gib(4), 0.0, 1e9);
/// let cfg = MigrationConfig::default();
/// // Ninja pauses the guest: one pass, downtime == duration.
/// let plan = plan_precopy(&mem, false, Bandwidth::from_gbps(10.0), &cfg);
/// assert_eq!(plan.round_count(), 1);
/// assert_eq!(plan.downtime(), plan.duration());
/// ```
pub fn plan_precopy(
    mem: &GuestMemory,
    guest_running: bool,
    link_rate: Bandwidth,
    cfg: &MigrationConfig,
) -> PrecopyPlan {
    let rate = cfg.sender_cap().map_or(link_rate, |cap| cap.min(link_rate));
    let mut rounds = Vec::new();

    // Round 0: full pass — walk all of RAM, send the incompressible part
    // (or, with compression disabled, every page).
    let wire0 = if cfg.zero_page_compression {
        mem.full_pass_wire_bytes()
    } else {
        mem.total()
    };
    let scan0 = mem.total();
    let d0 = rate
        .transfer_time(wire0)
        .max(cfg.page_scan_rate.transfer_time(scan0));
    rounds.push(PrecopyRound {
        wire_bytes: wire0,
        scanned: scan0,
        duration: d0,
    });

    if !guest_running {
        // Paused guest (SymVirt wait): nothing gets dirtied; one pass.
        return PrecopyPlan {
            rounds,
            converged: true,
        };
    }

    // Iterative rounds: each round must resend what the guest dirtied
    // during the previous round. Dirtied pages are application data and
    // do not compress.
    let mut prev = d0;
    let mut converged = false;
    for _ in 1..=cfg.max_rounds {
        let dirty = mem.dirtied_over(prev.as_secs_f64());
        let xfer = rate.transfer_time(dirty);
        let dur = xfer.max(cfg.page_scan_rate.transfer_time(dirty));
        if dirty.is_zero() {
            converged = true;
            break;
        }
        rounds.push(PrecopyRound {
            wire_bytes: dirty,
            scanned: dirty,
            duration: dur,
        });
        if xfer <= cfg.downtime_limit {
            // This round *was* the stop-and-copy.
            converged = true;
            break;
        }
        prev = dur;
    }
    PrecopyPlan { rounds, converged }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vm_mem(workload_gib: u64, uniform: f64, dirty_rate: f64) -> GuestMemory {
        let mut m = GuestMemory::new(Bytes::from_gib(20));
        m.set_workload(Bytes::from_gib(workload_gib), uniform, dirty_rate);
        m
    }

    fn link() -> Bandwidth {
        Bandwidth::from_gbps(10.0)
    }

    #[test]
    fn paused_guest_single_pass() {
        let mem = vm_mem(8, 0.0, 5e9); // high dirty rate, but paused
        let plan = plan_precopy(&mem, false, link(), &MigrationConfig::default());
        assert_eq!(plan.round_count(), 1);
        assert!(plan.converged);
        assert_eq!(plan.downtime(), plan.duration());
    }

    #[test]
    fn sender_cap_gates_rate() {
        let mem = vm_mem(8, 0.0, 0.0);
        let cfg = MigrationConfig::default();
        let plan = plan_precopy(&mem, false, link(), &cfg);
        // Expected: wire bytes at 1.3 Gb/s, since that's below scan floor.
        let expect = cfg.sender_cap.transfer_time(plan.wire_bytes());
        let scan = cfg.page_scan_rate.transfer_time(mem.total());
        assert_eq!(plan.duration(), expect.max(scan));
        assert!(
            expect > scan,
            "1.3 Gb/s of ~8 GiB dominates the 20 GiB scan"
        );
    }

    #[test]
    fn scan_floor_for_empty_vm() {
        // A near-empty 20 GiB VM: wire bytes tiny, but the scan of all
        // RAM sets the floor ("the VMM traverses the whole of the guest
        // OS's memory").
        let mem = GuestMemory::new(Bytes::from_gib(20));
        let cfg = MigrationConfig::default();
        let plan = plan_precopy(&mem, false, link(), &cfg);
        let scan = cfg.page_scan_rate.transfer_time(mem.total());
        assert!(plan.duration() >= scan);
    }

    #[test]
    fn migration_time_grows_sublinearly_with_uniform_workload() {
        // The memtest pattern: footprint grows 2 -> 16 GiB, much of it
        // uniform. Time must grow, but by less than 8x.
        let cfg = MigrationConfig::default();
        let t2 = plan_precopy(&vm_mem(2, 0.6, 0.0), false, link(), &cfg).duration();
        let t16 = plan_precopy(&vm_mem(16, 0.6, 0.0), false, link(), &cfg).duration();
        assert!(t16 > t2);
        let ratio = t16.as_secs_f64() / t2.as_secs_f64();
        assert!(ratio < 8.0, "sublinear, got {ratio}");
    }

    #[test]
    fn running_guest_iterates() {
        // 2 GiB workload redirtying at 80 MB/s against ~160 MB/s
        // effective sender: needs multiple rounds, converges since each
        // round roughly halves.
        let mem = vm_mem(2, 0.0, 0.08e9);
        let cfg = MigrationConfig::default();
        let plan = plan_precopy(&mem, true, link(), &cfg);
        assert!(plan.round_count() > 1, "rounds: {}", plan.round_count());
        assert!(plan.converged);
        assert!(plan.wire_bytes().get() > mem.full_pass_wire_bytes().get());
    }

    #[test]
    fn hot_guest_hits_round_cap() {
        // Dirtying faster than the sender drains: never converges, the
        // round cap forces it.
        let mem = vm_mem(8, 0.0, 3e9);
        let cfg = MigrationConfig::default();
        let plan = plan_precopy(&mem, true, link(), &cfg);
        assert!(!plan.converged);
        assert_eq!(plan.round_count() as u32, 1 + cfg.max_rounds);
    }

    #[test]
    fn paused_beats_running_on_wire_bytes() {
        let mem = vm_mem(4, 0.0, 0.5e9);
        let cfg = MigrationConfig::default();
        let paused = plan_precopy(&mem, false, link(), &cfg);
        let running = plan_precopy(&mem, true, link(), &cfg);
        assert!(paused.wire_bytes() < running.wire_bytes());
    }

    #[test]
    fn rdma_transport_lifts_the_sender_cap() {
        // Section V's optimization: same memory, same link, the RDMA
        // path is gated by the wire instead of one saturated core.
        let mem = vm_mem(8, 0.0, 0.0);
        let tcp_cfg = MigrationConfig::default();
        let rdma_cfg = MigrationConfig {
            rdma_transport: true,
            ..MigrationConfig::default()
        };
        let tcp = plan_precopy(&mem, false, link(), &tcp_cfg).duration();
        let rdma = plan_precopy(&mem, false, link(), &rdma_cfg).duration();
        assert!(
            rdma.as_secs_f64() < 0.3 * tcp.as_secs_f64(),
            "rdma {rdma} vs tcp {tcp}"
        );
        // RDMA is still floored by the page scan.
        let cfgd = MigrationConfig::default();
        let scan = cfgd.page_scan_rate.transfer_time(mem.total());
        assert!(rdma >= scan);
    }

    #[test]
    fn downtime_under_limit_when_converged() {
        let mem = vm_mem(2, 0.0, 0.1e9);
        let cfg = MigrationConfig::default();
        let plan = plan_precopy(&mem, true, link(), &cfg);
        assert!(plan.converged);
        let final_xfer = cfg
            .sender_cap
            .min(link())
            .transfer_time(plan.rounds.last().unwrap().wire_bytes);
        assert!(final_xfer <= cfg.downtime_limit, "{final_xfer}");
    }
}
