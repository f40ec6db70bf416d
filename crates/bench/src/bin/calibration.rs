//! Calibration audit: every constant the simulation is built on, with
//! its paper source, in one table — so a reviewer can check the model
//! against the paper without reading the source.
//!
//! ```text
//! cargo run -p ninja-bench --bin calibration
//! ```

use ninja_bench::{claim, finish, render_table};
use ninja_cluster::HotplugCalib;
use ninja_net::{calib, Switch};
use ninja_vmm::MigrationConfig;

fn main() {
    println!("== Calibration audit: model constants vs. paper sources ==\n");
    let hp = HotplugCalib::default();
    let ib = calib::infiniband_qdr();
    let tcp = calib::tcp_virtio_10gbe();
    let ipoib = calib::tcp_ipoib();
    let sm = calib::shared_memory();
    let mig = MigrationConfig::default();
    let m3601q = Switch::mellanox_m3601q();
    let m8024 = Switch::dell_m8024();

    let rows = vec![
        vec![
            "IB link-up (mean)".into(),
            format!("{:.1} s", ib.linkup_mean.as_secs_f64()),
            "Table II: 29.91 / 29.79 s; SV: 'about 30 seconds'".into(),
        ],
        vec![
            "Ethernet link-up".into(),
            format!("{:.1} s", tcp.linkup_mean.as_secs_f64()),
            "Table II: 0.00 s".into(),
        ],
        vec![
            "detach(IB HCA)".into(),
            format!("{:.2} s", hp.detach_ib.as_secs_f64()),
            "decomposed from Table II combos (SIV-B.1)".into(),
        ],
        vec![
            "attach(IB HCA)".into(),
            format!("{:.2} s", hp.attach_ib.as_secs_f64()),
            "decomposed from Table II combos".into(),
        ],
        vec![
            "detach/attach (Ethernet)".into(),
            format!(
                "{:.2} / {:.2} s",
                hp.detach_eth.as_secs_f64(),
                hp.attach_eth.as_secs_f64()
            ),
            "Table II: Eth->Eth = 0.13 s".into(),
        ],
        vec![
            "hotplug migration-noise factor".into(),
            format!("{:.1}x", hp.migration_noise_factor),
            "SIV-B.2: 'three times longer than that of self-migration'".into(),
        ],
        vec![
            "migration sender cap".into(),
            format!("{:.1} Gb/s", mig.sender_cap.as_gbps()),
            "SV: 'less than 1.3 Gbps ... one CPU core is saturated'".into(),
        ],
        vec![
            "guest page-scan rate".into(),
            format!("{:.1} GB/s", mig.page_scan_rate.bits_per_sec() as f64 / 8e9),
            "SIV-B.2: 'a VMM traverses the whole of the guest OS's memory'".into(),
        ],
        vec![
            "zero/uniform-page compression".into(),
            format!("{}", mig.zero_page_compression),
            "SIV-B.2: 'compresses pages that contain uniform data'".into(),
        ],
        vec![
            "openib latency / bandwidth".into(),
            format!("{} / {}", ib.latency, ib.bandwidth),
            "QDR ConnectX + Open MPI 1.6 (Table I era)".into(),
        ],
        vec![
            "tcp (virtio) latency / bandwidth".into(),
            format!("{} / {}", tcp.latency, tcp.bandwidth),
            "virtio-net on 10 GbE, 2012 era".into(),
        ],
        vec![
            "tcp (IPoIB) latency / bandwidth".into(),
            format!("{} / {}", ipoib.latency, ipoib.bandwidth),
            "IPoIB on QDR (forced-TCP path)".into(),
        ],
        vec![
            "sm latency / bandwidth".into(),
            format!("{} / {}", sm.latency, sm.bandwidth),
            "intra-VM shared memory".into(),
        ],
        vec![
            "tcp CPU cost".into(),
            format!("{:.2} core-s/GB", tcp.cpu_sec_per_byte * 1e9),
            "drives the '2 hosts (TCP)' over-commit slowdown (Fig. 8)".into(),
        ],
        vec![
            "BTL exclusivity tcp/openib".into(),
            format!(
                "{} / {}",
                ninja_mpi::exclusivity(ninja_net::TransportKind::Tcp),
                ninja_mpi::exclusivity(ninja_net::TransportKind::OpenIb)
            ),
            "SIII-C: 'that of TCP is 100; that of Infiniband is 1024'".into(),
        ],
        vec![
            "switches".into(),
            format!("{} / {}", m3601q.name(), m8024.name()),
            "Table I (both non-blocking at testbed scale)".into(),
        ],
    ];
    println!(
        "{}",
        render_table(&["constant", "value", "paper source"], &rows)
    );

    println!("consistency checks:");
    let mut ok = true;
    ok &= claim(
        "Table II combos reproduce within 0.05 s",
        [
            (true, true, 3.88),
            (true, false, 2.80),
            (false, true, 1.15),
            (false, false, 0.13),
        ]
        .iter()
        .all(|&(s, d, expect)| (hp.combo(s, d).as_secs_f64() - expect).abs() <= 0.05),
    );
    ok &= claim(
        "guest-OS stage decomposition sums to the hotplug calibration",
        {
            use ninja_vmm::{DriverTimings, GuestDriver};
            let mlx4 = DriverTimings::for_driver(GuestDriver::Mlx4);
            let virtio = DriverTimings::for_driver(GuestDriver::VirtioNet);
            mlx4.attach_total() == hp.attach_ib
                && mlx4.detach_total() == hp.detach_ib
                && virtio.attach_total() == hp.attach_eth
                && virtio.detach_total() == hp.detach_eth
        },
    );
    ok &= claim(
        "paper's observed link-ups (29.79, 29.91) lie inside the jitter band",
        {
            let lo = ib.linkup_mean.as_secs_f64() * (1.0 - ib.linkup_jitter);
            let hi = ib.linkup_mean.as_secs_f64() * (1.0 + ib.linkup_jitter);
            lo <= 29.79 && 29.91 <= hi
        },
    );
    ok &= claim(
        "both Table I switches are non-blocking",
        m3601q.is_nonblocking() && m8024.is_nonblocking(),
    );
    finish(ok);
}
