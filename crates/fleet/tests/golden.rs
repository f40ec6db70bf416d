//! Byte-identity goldens for every telemetry exporter of the fleet-engine
//! commands (`ninja fleet`, `ninja faults`, `ninja evacuate`).
//!
//! Each case runs the CLI and pins the SHA-256 of everything it writes:
//! the report JSON on stdout, the Chrome trace (`--trace-out`), the
//! metrics registry as Prometheus text and as JSON (`--metrics-out`),
//! and the flight-recorder series as timestamped Prometheus text, JSONL
//! and CSV (`--timeseries-out`). The digests live in
//! `tests/golden/<case>.sha256` in `sha256sum` format, so a fixture can
//! be checked by hand with `sha256sum -c` against a directory of outputs.
//!
//! The fixtures change only on purpose: run
//!
//! ```text
//! NINJA_BLESS=1 cargo test -p ninja-fleet --test golden
//! ```
//!
//! to rewrite them. On a mismatch the test keeps the offending outputs
//! under the target directory and names them, so they can be diffed.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

/// One golden case: the subcommand and its flags, and whether the flight
/// recorder (30 s scrapes and the default alert rules) is on.
struct Case {
    name: &'static str,
    cmd: &'static str,
    flags: &'static [&'static str],
    recorder: bool,
}

const CASES: &[Case] = &[
    Case {
        name: "evacuation-64",
        cmd: "fleet",
        flags: &[
            "--scenario",
            "evacuation",
            "--jobs",
            "64",
            "--concurrency",
            "8",
            "--seed",
            "7",
        ],
        recorder: true,
    },
    Case {
        name: "evacuation-64-plain",
        cmd: "fleet",
        flags: &[
            "--scenario",
            "evacuation",
            "--jobs",
            "64",
            "--concurrency",
            "8",
            "--seed",
            "7",
        ],
        recorder: false,
    },
    Case {
        name: "failover-faults",
        cmd: "fleet",
        flags: &[
            "--scenario",
            "failover",
            "--jobs",
            "8",
            "--concurrency",
            "2",
            "--seed",
            "7",
            "--fault-seed",
            "2013",
        ],
        recorder: true,
    },
    // The ring cap's eviction path: 50 entries per store, so the trace
    // keeps only the newest spans and records and the metrics carry
    // `ninja_trace_dropped_records`.
    Case {
        name: "evacuation-64-capped",
        cmd: "fleet",
        flags: &[
            "--scenario",
            "evacuation",
            "--jobs",
            "64",
            "--concurrency",
            "8",
            "--seed",
            "7",
            "--trace-cap",
            "50",
        ],
        recorder: true,
    },
    // The chaos drill with its defaults: 2 failover jobs under a random
    // fault plan drawn from the world seed.
    Case {
        name: "faults-default",
        cmd: "faults",
        flags: &["--seed", "7"],
        recorder: true,
    },
    // The two-job cluster evacuation drill, serial by default.
    Case {
        name: "evacuate-4",
        cmd: "evacuate",
        flags: &["--vms", "4"],
        recorder: true,
    },
    // The same drill with both jobs in flight at once.
    Case {
        name: "evacuate-4-c2",
        cmd: "evacuate",
        flags: &["--vms", "4", "--concurrency", "2"],
        recorder: true,
    },
    Case {
        name: "drain-24",
        cmd: "fleet",
        flags: &[
            "--scenario",
            "drain",
            "--jobs",
            "24",
            "--concurrency",
            "4",
            "--seed",
            "11",
        ],
        recorder: true,
    },
    // Faults on a wide-open admission cap: retries and degraded
    // re-attaches overlap many migrations.
    Case {
        name: "rebalance-24-faults",
        cmd: "fleet",
        flags: &[
            "--scenario",
            "rebalance",
            "--jobs",
            "24",
            "--concurrency",
            "16",
            "--seed",
            "11",
            "--fault-seed",
            "5",
        ],
        recorder: true,
    },
];

fn run(case: &Case, dir: &Path, outputs: &[(&str, &str)]) -> Vec<u8> {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_ninja"));
    cmd.arg(case.cmd).args(case.flags).arg("--json");
    if case.recorder {
        cmd.args(["--scrape-interval", "30", "--alerts", "default"]);
    }
    for (flag, file) in outputs {
        cmd.arg(flag).arg(dir.join(file));
    }
    let out = cmd.output().expect("spawn ninja");
    assert!(
        out.status.success(),
        "{}: {}",
        case.name,
        String::from_utf8_lossy(&out.stderr)
    );
    out.stdout
}

/// Runs `case` once per output format (each flag takes one path) and
/// returns every output file's bytes by name.
fn outputs(case: &Case, dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut runs: Vec<Vec<(&str, &str)>> = vec![
        vec![
            ("--trace-out", "trace.json"),
            ("--metrics-out", "metrics.prom"),
        ],
        vec![("--metrics-out", "metrics.json")],
    ];
    if case.recorder {
        runs[0].push(("--timeseries-out", "series.prom"));
        runs[1].push(("--timeseries-out", "series.jsonl"));
        runs.push(vec![("--timeseries-out", "series.csv")]);
    }
    let mut files = BTreeMap::new();
    let mut report: Option<Vec<u8>> = None;
    for outs in &runs {
        let stdout = run(case, dir, outs);
        if let Some(first) = &report {
            assert!(
                *first == stdout,
                "{}: report differs between runs",
                case.name
            );
        }
        report = Some(stdout);
        for (_, file) in outs {
            let bytes = std::fs::read(dir.join(file)).expect("output written");
            files.insert(file.to_string(), bytes);
        }
    }
    let report = report.expect("at least one run");
    std::fs::write(dir.join("report.json"), &report).unwrap();
    files.insert("report.json".to_string(), report);
    files
}

fn fixture_path(case: &Case) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{}.sha256", case.name))
}

fn digest_lines(files: &BTreeMap<String, Vec<u8>>) -> String {
    files
        .iter()
        .map(|(name, bytes)| format!("{}  {name}\n", sha256_hex(bytes)))
        .collect()
}

#[test]
fn telemetry_outputs_match_goldens() {
    let bless = std::env::var_os("NINJA_BLESS").is_some_and(|v| v == "1");
    let mut failures = Vec::new();
    for case in CASES {
        let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("golden-{}", case.name));
        std::fs::create_dir_all(&dir).unwrap();
        let files = outputs(case, &dir);
        let actual = digest_lines(&files);
        let path = fixture_path(case);
        if bless {
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(&path, &actual).unwrap();
            continue;
        }
        let expected = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("{}: {e} (bless with NINJA_BLESS=1)", path.display()));
        if actual != expected {
            failures.push(format!(
                "{}: outputs in {} differ from {}\n--- expected\n{expected}--- actual\n{actual}",
                case.name,
                dir.display(),
                path.display()
            ));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[test]
fn sha256_matches_published_vectors() {
    assert_eq!(
        sha256_hex(b""),
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    );
    assert_eq!(
        sha256_hex(b"abc"),
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    );
    assert_eq!(
        sha256_hex(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
        "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
    );
}

/// SHA-256 (FIPS 180-4), hex-encoded. The workspace has no crates.io
/// dependencies, so the goldens carry their own.
fn sha256_hex(data: &[u8]) -> String {
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
