//! The paper regenerators against their committed outputs: every bin
//! that `scripts/reproduce.sh` runs is run here in a fresh directory,
//! and its stdout and the `results/<bin>.json` it writes must equal the
//! committed `results/<bin>.txt` and `results/<bin>.json` byte for
//! byte. A change that moves a regenerator's output fails here, so the
//! rebless of `results/` is a reviewable diff.

use std::path::{Path, PathBuf};
use std::process::Command;

fn workspace() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// The bins `scripts/reproduce.sh` runs, from its `for bin in` line.
fn regenerators() -> Vec<String> {
    let script = std::fs::read_to_string(workspace().join("scripts/reproduce.sh"))
        .expect("scripts/reproduce.sh");
    let line = script
        .lines()
        .find_map(|l| l.trim().strip_prefix("for bin in "))
        .expect("reproduce.sh loops over its bins");
    let bins = line.trim_end_matches("; do");
    bins.split_whitespace().map(str::to_owned).collect()
}

/// The path of a built bench bin.
fn exe(bin: &str) -> &'static str {
    match bin {
        "calibration" => env!("CARGO_BIN_EXE_calibration"),
        "table2" => env!("CARGO_BIN_EXE_table2"),
        "fig6" => env!("CARGO_BIN_EXE_fig6"),
        "fig7" => env!("CARGO_BIN_EXE_fig7"),
        "fig8" => env!("CARGO_BIN_EXE_fig8"),
        "scalability" => env!("CARGO_BIN_EXE_scalability"),
        "ablation" => env!("CARGO_BIN_EXE_ablation"),
        "wan" => env!("CARGO_BIN_EXE_wan"),
        "power" => env!("CARGO_BIN_EXE_power"),
        "checkpoint" => env!("CARGO_BIN_EXE_checkpoint"),
        other => panic!("reproduce.sh runs `{other}`, which this test does not know"),
    }
}

#[test]
fn regenerators_reproduce_the_committed_results() {
    let committed = workspace().join("results");
    let mut moved = Vec::new();
    for bin in regenerators() {
        let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("regen-{bin}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch directory");
        let out = Command::new(exe(&bin))
            .current_dir(&dir)
            .output()
            .expect("run the regenerator");
        assert!(
            out.status.success(),
            "{bin} failed its claims: {}",
            String::from_utf8_lossy(&out.stdout)
        );
        let txt = std::fs::read(committed.join(format!("{bin}.txt"))).expect("committed text");
        if out.stdout != txt {
            moved.push(format!("{bin}.txt"));
        }
        let json = format!("{bin}.json");
        let want = std::fs::read(committed.join(&json)).ok();
        if std::fs::read(dir.join("results").join(&json)).ok() != want {
            moved.push(json);
        }
    }
    assert!(
        moved.is_empty(),
        "moved from the committed results/: {moved:?} (outputs under {})",
        env!("CARGO_TARGET_TMPDIR")
    );
}
