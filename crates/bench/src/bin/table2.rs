//! Regenerates **Table II**: elapsed time of hotplug and link-up for the
//! four interconnect combinations of a self-migration (8 VMs running the
//! memtest benchmark; "each value is measured three times and the best
//! is taken").
//!
//! ```text
//! cargo run -p ninja-bench --bin table2
//! ```

use ninja_bench::{claim, finish, render_table, write_json};
use ninja_cluster::{DeviceClass, HotplugOp};
use ninja_migration::{NinjaOrchestrator, World};
use ninja_net::{calib, LinkFsm};
use ninja_sim::{DurationSamples, SimRng, SimTime};

struct Row {
    combo: String,
    hotplug_s: f64,
    linkup_s: f64,
    paper_hotplug_s: f64,
    paper_linkup_s: f64,
}
ninja_bench::impl_write_json!(Row {
    combo,
    hotplug_s,
    linkup_s,
    paper_hotplug_s,
    paper_linkup_s
});

/// Best-of-three sample of a full hotplug (detach src-class device +
/// attach dst-class device), without migration noise (self-migration).
fn hotplug_best_of_three(world: &mut World, src: DeviceClass, dst: DeviceClass) -> f64 {
    let mut samples = DurationSamples::new();
    for _ in 0..3 {
        let det = world
            .dc
            .hotplug
            .duration(HotplugOp::Detach, src, false, &mut world.rng);
        let att = world
            .dc
            .hotplug
            .duration(HotplugOp::Attach, dst, false, &mut world.rng);
        samples.record(det + att);
    }
    samples.best().as_secs_f64()
}

/// Best-of-three link-up sample for the destination device class.
fn linkup_best_of_three(rng: &mut SimRng, dst: DeviceClass) -> f64 {
    let cal = match dst {
        DeviceClass::IbHca => calib::infiniband_qdr(),
        DeviceClass::EthNic => calib::tcp_virtio_10gbe(),
    };
    let mut samples = DurationSamples::new();
    for _ in 0..3 {
        let mut fsm = LinkFsm::down();
        let active = fsm.begin_training(SimTime::ZERO, &cal, rng);
        samples.record(active.since(SimTime::ZERO));
    }
    samples.best().as_secs_f64()
}

fn main() {
    println!("== Table II: elapsed time of hotplug and link-up [seconds] ==");
    println!("(8 VMs, memtest, self-migration, best of three)\n");

    let mut world = World::agc(2013);
    let _vms = world.boot_ib_vms(8); // the memtest VMs of the experiment

    let combos = [
        (
            "Infiniband -> Infiniband",
            DeviceClass::IbHca,
            DeviceClass::IbHca,
            3.88,
            29.91,
        ),
        (
            "Infiniband -> Ethernet",
            DeviceClass::IbHca,
            DeviceClass::EthNic,
            2.80,
            0.00,
        ),
        (
            "Ethernet -> Infiniband",
            DeviceClass::EthNic,
            DeviceClass::IbHca,
            1.15,
            29.79,
        ),
        (
            "Ethernet -> Ethernet",
            DeviceClass::EthNic,
            DeviceClass::EthNic,
            0.13,
            0.00,
        ),
    ];

    let mut rows = Vec::new();
    let mut out_rows = Vec::new();
    for (name, src, dst, paper_hp, paper_lu) in combos {
        let hotplug = hotplug_best_of_three(&mut world, src, dst);
        let linkup = linkup_best_of_three(&mut world.rng, dst);
        out_rows.push(Row {
            combo: name.to_string(),
            hotplug_s: hotplug,
            linkup_s: linkup,
            paper_hotplug_s: paper_hp,
            paper_linkup_s: paper_lu,
        });
        rows.push(vec![
            name.to_string(),
            format!("{hotplug:.2}"),
            format!("{linkup:.2}"),
            format!("{paper_hp:.2}"),
            format!("{paper_lu:.2}"),
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "combo",
                "hotplug [s]",
                "link-up [s]",
                "paper hotplug",
                "paper link-up"
            ],
            &rows
        )
    );

    // Cross-check the IB->IB row end-to-end through the full Ninja stack
    // (self-migration of a real job), not just the component models.
    let mut w2 = World::agc(99);
    let vms = w2.boot_ib_vms(8);
    let mut rt = w2.start_job(vms, 1);
    let same: Vec<_> = (0..8).map(|i| w2.ib_node(i)).collect();
    let report = NinjaOrchestrator::default()
        .migrate(&mut w2, &mut rt, &same)
        .expect("self-migration");
    println!(
        "end-to-end self-migration (IB -> IB): hotplug {:.2}s, link-up {:.2}s",
        report.hotplug().as_secs_f64(),
        report.linkup.as_secs_f64()
    );

    println!("\nclaims:");
    let mut ok = true;
    ok &= claim(
        "IB->IB hotplug within 10% of paper's 3.88 s",
        (out_rows[0].hotplug_s - 3.88).abs() / 3.88 < 0.10,
    );
    ok &= claim(
        "IB link-up ~30 s (paper: 29.8-29.9 s)",
        (29.0..31.0).contains(&out_rows[0].linkup_s)
            && (29.0..31.0).contains(&out_rows[2].linkup_s),
    );
    ok &= claim(
        "Ethernet link-up is zero",
        out_rows[1].linkup_s == 0.0 && out_rows[3].linkup_s == 0.0,
    );
    ok &= claim(
        "hotplug ordering: IB->IB > IB->Eth > Eth->IB > Eth->Eth",
        out_rows[0].hotplug_s > out_rows[1].hotplug_s
            && out_rows[1].hotplug_s > out_rows[2].hotplug_s
            && out_rows[2].hotplug_s > out_rows[3].hotplug_s,
    );
    ok &= claim(
        "end-to-end self-migration agrees with component model (hotplug 3.5-5 s)",
        (3.5..5.0).contains(&report.hotplug().as_secs_f64()),
    );

    write_json("table2", &out_rows);
    finish(ok);
}
