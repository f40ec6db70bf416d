//! Regenerates **Figure 8**: fallback and recovery migration under the
//! bcast+reduce benchmark (8 GB per node per iteration).
//!
//! Scenario (Section IV-C): 4 VMs traverse
//! `4 hosts (IB) -> 2 hosts (TCP) -> 4 hosts (IB) -> 4 hosts (TCP)`,
//! with Ninja migration launched every 10 iteration steps (i.e. at
//! steps 11, 21, 31 of 40). Run twice: 1 process/VM (4 ranks) and
//! 8 processes/VM (32 ranks).
//!
//! ```text
//! cargo run -p ninja-bench --bin fig8
//! ```

use ninja_bench::{claim, finish, render_stacked_bars, render_table, write_json};
use ninja_migration::NinjaOrchestrator;
use ninja_workloads::{run_with_step_plan, scenarios, RunRecord};

struct IterRow {
    step: u32,
    app_s: f64,
    overhead_s: f64,
}
ninja_bench::impl_write_json!(IterRow {
    step,
    app_s,
    overhead_s
});

struct Setting {
    procs_per_vm: u32,
    iterations: Vec<IterRow>,
    phase_means: [f64; 4],
    overheads: Vec<f64>,
}
ninja_bench::impl_write_json!(Setting {
    procs_per_vm,
    iterations,
    phase_means,
    overheads
});

fn phase_of(step: u32) -> usize {
    match step {
        1..=10 => 0,  // 4 hosts (IB)
        11..=20 => 1, // 2 hosts (TCP)
        21..=30 => 2, // 4 hosts (IB)
        _ => 3,       // 4 hosts (TCP)
    }
}

fn run_setting(procs_per_vm: u32, seed: u64) -> (Setting, RunRecord) {
    let (mut w, mut rt, bench, plan) = scenarios::fig8(seed, procs_per_vm);
    let rec = run_with_step_plan(
        &mut w,
        &mut rt,
        &bench,
        &plan,
        &NinjaOrchestrator::default(),
    )
    .expect("fig8 scenario");

    let iterations: Vec<IterRow> = rec
        .iterations
        .iter()
        .map(|r| IterRow {
            step: r.step,
            app_s: r.app_time.as_secs_f64(),
            overhead_s: r.overhead.as_secs_f64(),
        })
        .collect();
    let mut sums = [0.0; 4];
    let mut counts = [0u32; 4];
    for r in &iterations {
        // Exclude the migration iterations from phase means.
        if r.overhead_s == 0.0 {
            let p = phase_of(r.step);
            sums[p] += r.app_s;
            counts[p] += 1;
        }
    }
    let phase_means = [
        sums[0] / counts[0] as f64,
        sums[1] / counts[1] as f64,
        sums[2] / counts[2] as f64,
        sums[3] / counts[3] as f64,
    ];
    let overheads = iterations
        .iter()
        .filter(|r| r.overhead_s > 0.0)
        .map(|r| r.overhead_s)
        .collect();
    (
        Setting {
            procs_per_vm,
            iterations,
            phase_means,
            overheads,
        },
        rec,
    )
}

fn main() {
    println!("== Figure 8: fallback and recovery migration (bcast+reduce, 8 GB/node) ==\n");
    let phases = [
        "4 hosts (IB)",
        "2 hosts (TCP)",
        "4 hosts (IB)",
        "4 hosts (TCP)",
    ];

    let (s1, _) = run_setting(1, 800);
    let (s8, _) = run_setting(8, 801);

    for s in [&s1, &s8] {
        println!(
            "--- {} process(es)/VM (total {} ranks) ---",
            s.procs_per_vm,
            s.procs_per_vm * 4
        );
        let rows: Vec<Vec<String>> = phases
            .iter()
            .enumerate()
            .map(|(i, p)| vec![p.to_string(), format!("{:.1}", s.phase_means[i])])
            .collect();
        println!("{}", render_table(&["phase", "mean iteration [s]"], &rows));
        println!(
            "{}",
            render_stacked_bars(
                &s.iterations
                    .iter()
                    .map(|r| format!("step {:02}", r.step))
                    .collect::<Vec<_>>(),
                &[
                    (
                        "application",
                        s.iterations.iter().map(|r| r.app_s).collect()
                    ),
                    (
                        "overhead",
                        s.iterations.iter().map(|r| r.overhead_s).collect()
                    ),
                ],
                "s",
                50,
            )
        );
        println!(
            "migration overheads at steps 11/21/31: {}",
            s.overheads
                .iter()
                .map(|o| format!("{o:.1}s"))
                .collect::<Vec<_>>()
                .join(", ")
        );
        println!();
    }

    println!("claims (Section IV-C):");
    let mut ok = true;
    for s in [&s1, &s8] {
        let p = s.phase_means;
        ok &= claim(
            &format!(
                "{}ppv: IB iterations faster than TCP ({:.1}s vs {:.1}s)",
                s.procs_per_vm, p[0], p[3]
            ),
            p[0] < p[3] && p[2] < p[3],
        );
        ok &= claim(
            &format!(
                "{}ppv: '2 hosts (TCP)' slowest phase ({:.1}s; consolidation contention)",
                s.procs_per_vm, p[1]
            ),
            p[1] > p[0] && p[1] > p[2] && p[1] >= p[3],
        );
        ok &= claim(
            &format!(
                "{}ppv: recovery returns to IB speed (phase 3 == phase 1)",
                s.procs_per_vm
            ),
            (p[2] - p[0]).abs() / p[0] < 0.05,
        );
        ok &= claim(
            &format!(
                "{}ppv: exactly 3 migrations, at steps 11/21/31",
                s.procs_per_vm
            ),
            s.overheads.len() == 3
                && s.iterations
                    .iter()
                    .filter(|r| r.overhead_s > 0.0)
                    .map(|r| r.step)
                    .eq([11, 21, 31]),
        );
    }
    // "The total overhead is identical as the number of process per VM
    // increases from 1 to 8."
    let o1: f64 = s1.overheads.iter().sum();
    let o8: f64 = s8.overheads.iter().sum();
    ok &= claim(
        &format!("total overhead identical across proc counts ({o1:.1}s vs {o8:.1}s)"),
        (o1 - o8).abs() / o1 < 0.15,
    );
    // "the execution times of 8 processes per VM are faster than those of
    // 1 process per VM, except for '2 hosts (TCP)'."
    ok &= claim(
        "8ppv iterations faster than 1ppv on IB phases",
        s8.phase_means[0] < s1.phase_means[0] && s8.phase_means[2] < s1.phase_means[2],
    );

    write_json("fig8", &[s1, s8]);
    finish(ok);
}
