//! Property-based tests of the VMM models.

use ninja_sim::{Bandwidth, Bytes};
use ninja_vmm::{plan_precopy, GuestMemory, MigrationConfig, COMPRESSED_PAGE_BYTES, PAGE_SIZE};
use proptest::prelude::*;

fn memory_strategy() -> impl Strategy<Value = GuestMemory> {
    (1u64..=48, 0u64..=48, 0.0f64..=1.0, 0.0f64..5e9).prop_map(
        |(total_gib, touched_gib, uniform, dirty)| {
            let mut m = GuestMemory::new(Bytes::from_gib(total_gib));
            m.set_workload(Bytes::from_gib(touched_gib), uniform, dirty);
            m
        },
    )
}

proptest! {
    /// Wire bytes of a full pass are bounded: at least the OS resident
    /// set, at most RAM plus compression headers.
    #[test]
    fn full_pass_wire_bounds(mem in memory_strategy()) {
        let wire = mem.full_pass_wire_bytes();
        prop_assert!(wire.get() >= mem.os_resident().get());
        let headers = mem.total().pages(PAGE_SIZE) * COMPRESSED_PAGE_BYTES;
        prop_assert!(wire.get() <= mem.total().get() + headers);
    }

    /// More uniform data never increases wire bytes.
    #[test]
    fn uniformity_only_helps(total in 2u64..=48, touched in 0u64..=48, u in 0.0f64..1.0) {
        let mut a = GuestMemory::new(Bytes::from_gib(total));
        a.set_workload(Bytes::from_gib(touched), u, 0.0);
        let mut b = GuestMemory::new(Bytes::from_gib(total));
        b.set_workload(Bytes::from_gib(touched), (u + 0.3).min(1.0), 0.0);
        prop_assert!(b.full_pass_wire_bytes() <= a.full_pass_wire_bytes());
    }

    /// A paused guest always migrates in exactly one round, converged,
    /// with downtime == duration.
    #[test]
    fn paused_guest_single_round(mem in memory_strategy(), link_gbps in 0.5f64..40.0) {
        let cfg = MigrationConfig::default();
        let plan = plan_precopy(&mem, false, Bandwidth::from_gbps(link_gbps), &cfg);
        prop_assert_eq!(plan.round_count(), 1);
        prop_assert!(plan.converged);
        prop_assert_eq!(plan.downtime(), plan.duration());
        prop_assert_eq!(plan.wire_bytes(), mem.full_pass_wire_bytes());
    }

    /// Migration duration is at least the wire time at the effective
    /// rate AND at least the full-RAM scan time.
    #[test]
    fn migration_duration_lower_bounds(mem in memory_strategy(), link_gbps in 0.5f64..40.0) {
        let cfg = MigrationConfig::default();
        let link = Bandwidth::from_gbps(link_gbps);
        let plan = plan_precopy(&mem, false, link, &cfg);
        let rate = cfg.sender_cap.min(link);
        prop_assert!(plan.duration() >= rate.transfer_time(plan.wire_bytes()));
        prop_assert!(plan.duration() >= cfg.page_scan_rate.transfer_time(mem.total()));
    }

    /// A running guest never transfers less than a paused one, and if
    /// the plan converged its final round fits the downtime limit.
    #[test]
    fn running_guest_costs_more(mem in memory_strategy(), link_gbps in 0.5f64..40.0) {
        let cfg = MigrationConfig::default();
        let link = Bandwidth::from_gbps(link_gbps);
        let paused = plan_precopy(&mem, false, link, &cfg);
        let running = plan_precopy(&mem, true, link, &cfg);
        prop_assert!(running.wire_bytes() >= paused.wire_bytes());
        prop_assert!(running.round_count() >= paused.round_count());
        if running.converged && running.round_count() > 1 {
            let rate = cfg.sender_cap.min(link);
            let last = running.rounds.last().unwrap();
            prop_assert!(rate.transfer_time(last.wire_bytes) <= cfg.downtime_limit);
        }
        // Round count is always bounded by the safety valve.
        prop_assert!(running.round_count() as u32 <= cfg.max_rounds + 1);
    }

    /// Disabling zero-page compression makes every migration pay for
    /// all of RAM.
    #[test]
    fn no_compression_is_flat(mem in memory_strategy(), link_gbps in 0.5f64..40.0) {
        let cfg = MigrationConfig { zero_page_compression: false, ..MigrationConfig::default() };
        let plan = plan_precopy(&mem, false, Bandwidth::from_gbps(link_gbps), &cfg);
        prop_assert_eq!(plan.wire_bytes(), mem.total());
    }

    /// Dirty volume over an interval never exceeds the owned footprint
    /// and is monotone in time.
    #[test]
    fn dirty_caps(mem in memory_strategy(), secs in 0.0f64..1000.0) {
        let d1 = mem.dirtied_over(secs);
        let d2 = mem.dirtied_over(secs * 2.0);
        prop_assert!(d2 >= d1);
        prop_assert!(d1.get() <= mem.workload_touched().max(mem.os_resident()).get());
    }
}
