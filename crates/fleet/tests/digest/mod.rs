//! Digest fixtures shared by the fleet's integration tests: the
//! `NINJA_BLESS=1` fixture check, the SHA-256 the digests use, and the
//! engine matrix pinned by `tests/golden/matrix.sha256`.
//!
//! The matrix table has one line per case, `<case> <output>=<sha256>
//! ...`, over the report JSON and CSV, the Prometheus metrics text, and
//! for recorder cases the recorded series as Prometheus text, JSONL and
//! CSV. It was blessed while the pre-optimization engine,
//! `run_fleet_reference`, still ran beside `run_fleet` and was proven
//! bit-identical to it on every case, so each line pins that engine's
//! outputs. The cases fall into [`Group`]s, each checked by its own
//! test; a group's outputs are kept in `golden-matrix/<case>/` under
//! the target directory.

use ninja_fleet::{
    build, build_auto, build_scaled, run_fleet, FleetConfig, Scenario, ScenarioKind, ScenarioSpec,
};
use ninja_sim::{alerts, AlertEngine, SimDuration, TimeSeriesRecorder, Trace, WriteJson};
use ninja_symvirt::{FaultPlan, GuestCooperative};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, PoisonError};

pub fn fixture_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.sha256"))
}

fn blessing() -> bool {
    std::env::var_os("NINJA_BLESS").is_some_and(|v| v == "1")
}

/// Rewrites the fixture at `path` with `actual` under `NINJA_BLESS=1`.
/// Otherwise compares them and, on a mismatch, returns a message naming
/// `dir` (where the outputs were kept) and the lines on either side that
/// the other lacks.
#[allow(dead_code)] // Only golden.rs has per-case fixtures.
pub fn check_fixture(name: &str, path: &Path, dir: &Path, actual: &str) -> Option<String> {
    if blessing() {
        std::fs::write(path, actual).unwrap();
        return None;
    }
    let expected = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("{}: {e} (bless with NINJA_BLESS=1)", path.display()));
    mismatch(name, path, dir, &expected, actual)
}

fn mismatch(name: &str, path: &Path, dir: &Path, expected: &str, actual: &str) -> Option<String> {
    if actual == expected {
        return None;
    }
    let only = |a: &str, b: &str| -> String {
        a.lines()
            .filter(|l| !b.lines().any(|m| m == *l))
            .map(|l| format!("{l}\n"))
            .collect()
    };
    Some(format!(
        "{name}: outputs in {} differ from {}\n--- expected\n{}--- actual\n{}",
        dir.display(),
        path.display(),
        only(expected, actual),
        only(actual, expected),
    ))
}

/// The families of matrix cases, one test each.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Group {
    /// Every scenario kind × seeds 2013, 42, 7 × no faults or `0xfa17`
    /// × concurrency 1 and 3.
    Matrix,
    /// Three-job fleets with the flight recorder installed.
    Recorder,
    /// A 32-node-per-cluster evacuation with a deep admission queue.
    Scaled,
    /// Recorded six-job fleets over `build_auto`'s sized worlds.
    Auto,
    /// The `fleet_scale --quick` shapes.
    FleetScale,
}

/// One in-process engine run of the matrix.
struct MatrixCase {
    name: String,
    group: Group,
    spec: ScenarioSpec,
    build: fn(&ScenarioSpec) -> Scenario,
    fault_seed: Option<u64>,
    concurrency: usize,
    /// A flight recorder (30 s scrapes, default alert rules) and a 60 s
    /// deadline.
    recorder: bool,
}

fn spec(kind: ScenarioKind, jobs: usize, seed: u64) -> ScenarioSpec {
    ScenarioSpec {
        kind,
        jobs,
        vms_per_job: 1,
        arrival: SimDuration::from_secs(20),
        seed,
    }
}

fn faults_tag(fault_seed: Option<u64>) -> String {
    fault_seed.map_or("nofaults".into(), |fs| format!("faults{fs:x}"))
}

/// Every case of the table, in table order.
fn matrix_cases() -> Vec<MatrixCase> {
    let mut cases = Vec::new();
    let mut add = |name, group, spec, build, fault_seed, concurrency, recorder| {
        cases.push(MatrixCase {
            name,
            group,
            spec,
            build,
            fault_seed,
            concurrency,
            recorder,
        })
    };
    let agc: fn(&ScenarioSpec) -> Scenario = |s| build(s).expect("scenario fits");
    for kind in [
        ScenarioKind::Evacuation,
        ScenarioKind::RollingDrain,
        ScenarioKind::Rebalance,
        ScenarioKind::Failover,
    ] {
        for seed in [2013u64, 42, 7] {
            for fs in [None, Some(0xfa17)] {
                for c in [1usize, 3] {
                    let name = format!("{}-seed{seed}-{}-c{c}", kind.name(), faults_tag(fs));
                    add(name, Group::Matrix, spec(kind, 3, seed), agc, fs, c, false);
                }
            }
        }
    }
    // The recorder's alert rules write back into the registry.
    for kind in [ScenarioKind::Evacuation, ScenarioKind::Failover] {
        for fs in [None, Some(0xfa17)] {
            let name = format!("recorder-{}-{}-c3", kind.name(), faults_tag(fs));
            add(name, Group::Recorder, spec(kind, 3, 2013), agc, fs, 3, true);
        }
    }
    let scaled: fn(&ScenarioSpec) -> Scenario = |s| build_scaled(s, 32).expect("scenario fits");
    let evac = spec(ScenarioKind::Evacuation, 24, 2013);
    add(
        "scaled-evacuation-24-c6".into(),
        Group::Scaled,
        evac,
        scaled,
        None,
        6,
        false,
    );
    for kind in [ScenarioKind::Evacuation, ScenarioKind::RollingDrain] {
        for fs in [None, Some(0xfa17)] {
            for seed in [2013u64, 7] {
                let name = format!("auto-{}-6-seed{seed}-{}-c2", kind.name(), faults_tag(fs));
                let auto = |s: &ScenarioSpec| build_auto(s, Trace::new()).expect("scenario fits");
                add(name, Group::Auto, spec(kind, 6, seed), auto, fs, 2, true);
            }
        }
    }
    // One node per job on each side, trace off, half the fleet in
    // flight at once.
    for jobs in [16usize, 64, 256] {
        let untraced = |s: &ScenarioSpec| {
            let mut scenario = build_scaled(s, s.jobs).expect("scenario fits");
            scenario.world.trace = Trace::disabled();
            scenario
        };
        let (c, evac) = (jobs / 2, spec(ScenarioKind::Evacuation, jobs, 2013));
        add(
            format!("fleet-scale-{jobs}-c{c}"),
            Group::FleetScale,
            evac,
            untraced,
            None,
            c,
            false,
        );
    }
    cases
}

/// Runs `case` and returns its outputs by file name.
fn matrix_outputs(case: &MatrixCase) -> BTreeMap<String, Vec<u8>> {
    let mut s = (case.build)(&case.spec);
    if let Some(fs) = case.fault_seed {
        s.world.faults = FaultPlan::random(fs, case.spec.jobs);
    }
    if case.recorder {
        s.world.install_recorder(
            TimeSeriesRecorder::new(SimDuration::from_secs(30)).with_alerts(AlertEngine::new(
                alerts::parse_rules(alerts::default_rules()).unwrap(),
            )),
        );
    }
    let cfg = FleetConfig {
        concurrency: case.concurrency,
        deadline: case.recorder.then(|| SimDuration::from_secs(60)),
        ..FleetConfig::default()
    };
    let report = {
        let mut jobs: Vec<&mut dyn GuestCooperative> = s
            .jobs
            .iter_mut()
            .map(|j| j as &mut dyn GuestCooperative)
            .collect();
        run_fleet(&mut s.world, &mut jobs, s.scheduler, &cfg).expect("structural failure")
    };
    let mut files = BTreeMap::new();
    files.insert("report.json", report.to_json_compact());
    files.insert("report.csv", report.to_csv());
    files.insert("metrics.prom", s.world.metrics.to_prometheus());
    if let Some(rec) = &s.world.recorder {
        files.insert("series.prom", rec.to_prometheus());
        files.insert("series.jsonl", rec.to_jsonl());
        files.insert("series.csv", rec.to_csv());
    }
    files
        .into_iter()
        .map(|(name, text)| (name.to_string(), text.into_bytes()))
        .collect()
}

/// Serializes the read-modify-write of `matrix.sha256` between tests of
/// one binary under `NINJA_BLESS=1`.
static TABLE: Mutex<()> = Mutex::new(());

/// Runs every case of `group` and checks its lines of `matrix.sha256`.
/// Under `NINJA_BLESS=1` it rewrites those lines instead, keeping the
/// other groups' lines and the table order.
pub fn check_matrix(group: Group) {
    let _table = TABLE.lock().unwrap_or_else(PoisonError::into_inner);
    let path = fixture_path("matrix");
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join("golden-matrix");
    let text = match std::fs::read_to_string(&path) {
        Ok(text) => text,
        Err(_) if blessing() => String::new(),
        Err(e) => panic!("{}: {e} (bless with NINJA_BLESS=1)", path.display()),
    };
    let recorded: BTreeMap<&str, &str> = text
        .lines()
        .filter_map(|l| Some((l.split(' ').next()?, l)))
        .collect();
    let (mut expected, mut actual, mut table) = (String::new(), String::new(), String::new());
    for case in matrix_cases() {
        let old = recorded.get(case.name.as_str()).copied();
        if case.group != group {
            table.extend(old.map(|l| format!("{l}\n")));
            continue;
        }
        let dir = root.join(&case.name);
        std::fs::create_dir_all(&dir).unwrap();
        let mut line = case.name.clone();
        for (file, bytes) in &matrix_outputs(&case) {
            std::fs::write(dir.join(file), bytes).unwrap();
            line.push_str(&format!(" {file}={}", sha256_hex(bytes)));
        }
        line.push('\n');
        expected.extend(old.map(|l| format!("{l}\n")));
        actual.push_str(&line);
        table.push_str(&line);
    }
    if blessing() {
        std::fs::write(&path, table).unwrap();
        return;
    }
    let name = format!("matrix ({group:?})");
    let failure = mismatch(&name, &path, &root, &expected, &actual);
    assert!(failure.is_none(), "{}", failure.unwrap_or_default());
}

/// SHA-256 (FIPS 180-4), hex-encoded. The workspace has no crates.io
/// dependencies, so the goldens carry their own.
pub fn sha256_hex(data: &[u8]) -> String {
    const K: [u32; 64] = [
        0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4,
        0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe,
        0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f,
        0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7,
        0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
        0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
        0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116,
        0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
        0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7,
        0xc67178f2,
    ];
    let mut h: [u32; 8] = [
        0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
        0x5be0cd19,
    ];
    let mut msg = data.to_vec();
    msg.push(0x80);
    while msg.len() % 64 != 56 {
        msg.push(0);
    }
    msg.extend_from_slice(&(data.len() as u64 * 8).to_be_bytes());
    for block in msg.chunks(64) {
        let mut w = [0u32; 64];
        for (i, word) in block.chunks(4).enumerate() {
            w[i] = u32::from_be_bytes(word.try_into().unwrap());
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let mut v = h;
        for i in 0..64 {
            let [a, b, c, d, e, f, g, hh] = v;
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = hh
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            v = [t1.wrapping_add(t2), a, b, c, d.wrapping_add(t1), e, f, g];
        }
        for (x, y) in h.iter_mut().zip(v) {
            *x = x.wrapping_add(y);
        }
    }
    h.iter().map(|x| format!("{x:08x}")).collect()
}
