//! Byte-identity goldens for the fleet engine's outputs.
//!
//! Two fixture families live in `tests/golden/`:
//!
//! * `<case>.sha256`, one per CLI case of the fleet-engine commands
//!   (`ninja fleet`, `ninja faults`, `ninja evacuate`). Each case runs
//!   the CLI and pins the SHA-256 of everything it writes: the report
//!   JSON on stdout, the Chrome trace (`--trace-out`), the metrics
//!   registry as Prometheus text and as JSON (`--metrics-out`), and the
//!   flight-recorder series as timestamped Prometheus text, JSONL and
//!   CSV (`--timeseries-out`). The files are in `sha256sum` format, so a
//!   fixture can be checked by hand with `sha256sum -c` against a
//!   directory of outputs.
//! * `matrix.sha256`, the in-process engine matrix (see the `digest`
//!   module): one line per case, `<case> <output>=<sha256> ...`. This
//!   file checks its `fleet_scale --quick` shapes; `equivalence.rs` and
//!   `flight_recorder.rs` check the rest.
//!
//! * `commands.sha256`, the single-job commands (`migrate`, `roundtrip`,
//!   `selfmig`, `checkpoint`, `fig8`, `fallback`): one line per command
//!   line × output, `<sha256>  <case>/<output>`, over stdout, stderr, the
//!   exit code and every `--*-out` file. Each case runs in its own
//!   directory with relative output paths, so stderr's `(wrote ...)`
//!   lines are the same everywhere.
//! * `trace-readers.sha256`, `ninja trace summarize` and `ninja trace
//!   critical-path` over the traces of two runs, the edge documents in
//!   `tests/fixtures/trace-edges/` and 64 seeded random Chrome-like
//!   documents: one line per input × subcommand, `<sha256>
//!   <input>.<subcommand>`, over the exit code, stdout and stderr.
//!
//! The fixtures change only on purpose: run
//!
//! ```text
//! NINJA_BLESS=1 cargo test -p ninja-fleet --test golden --test equivalence --test flight_recorder
//! ```
//!
//! to rewrite them. On a mismatch the test keeps the offending outputs
//! under the target directory and names them, so they can be diffed.

mod digest;

use digest::{check_fixture, check_matrix, fixture_path, sha256_hex, Group};
use std::collections::BTreeMap;
use std::path::Path;
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

fn digest_lines(files: &BTreeMap<String, Vec<u8>>) -> String {
    files
        .iter()
        .map(|(name, bytes)| format!("{}  {name}\n", sha256_hex(bytes)))
        .collect()
}

#[test]
fn telemetry_outputs_match_goldens() {
    let mut failures = Vec::new();
    for case in CASES {
        let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("golden-{}", case.name));
        std::fs::create_dir_all(&dir).unwrap();
        let files = outputs(case, &dir);
        let actual = digest_lines(&files);
        failures.extend(check_fixture(
            case.name,
            &fixture_path(case.name),
            &dir,
            &actual,
        ));
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

/// The single-job command lines of `commands.sha256`, by case name.
/// Output paths are relative to the case's directory.
const COMMANDS: &[(&str, &[&str])] = &[
    (
        "migrate-eth",
        &[
            "migrate",
            "--vms",
            "2",
            "--json",
            "--trace-out",
            "trace.json",
            "--metrics-out",
            "metrics.prom",
        ],
    ),
    (
        "migrate-ib",
        &[
            "migrate",
            "--to",
            "ib",
            "--vms",
            "2",
            "--json",
            "--metrics-out",
            "metrics.json",
        ],
    ),
    // A retried detach timeout and a 5 s precopy stall: the run
    // succeeds late.
    (
        "migrate-faulted",
        &[
            "migrate",
            "--vms",
            "2",
            "--fault",
            "qmp-timeout:phase=detach:times=1",
            "--fault",
            "precopy-stall:stall=5",
            "--json",
            "--metrics-out",
            "metrics.prom",
        ],
    ),
    // A persistent migration timeout: exit 1.
    (
        "migrate-failed",
        &[
            "migrate",
            "--vms",
            "2",
            "--fault",
            "qmp-timeout:phase=migration",
        ],
    ),
    (
        "roundtrip",
        &["roundtrip", "--json", "--metrics-out", "metrics.prom"],
    ),
    ("selfmig", &["selfmig", "--json"]),
    ("checkpoint", &["checkpoint"]),
    ("checkpoint-json", &["checkpoint", "--json"]),
    (
        "checkpoint-1vm-json",
        &["checkpoint", "--vms", "1", "--json"],
    ),
    (
        "checkpoint-telemetry",
        &["checkpoint", "--trace", "--metrics-out", "metrics.prom"],
    ),
    ("fig8", &["fig8"]),
    ("fallback", &["fallback", "--trace-out", "trace.json"]),
];

#[test]
fn single_job_commands_match_goldens() {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join("golden-commands");
    let mut actual = String::new();
    for &(name, args) in COMMANDS {
        let dir = root.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let out = Command::new(env!("CARGO_BIN_EXE_ninja"))
            .args(args)
            .current_dir(&dir)
            .output()
            .expect("spawn ninja");
        let code = out.status.code().expect("exited");
        let mut files = BTreeMap::from([
            ("stdout".to_string(), out.stdout),
            ("stderr".to_string(), out.stderr),
            ("exit".to_string(), format!("{code}\n").into_bytes()),
        ]);
        for pair in args.windows(2) {
            if pair[0].ends_with("-out") {
                let bytes = std::fs::read(dir.join(pair[1])).expect("output written");
                files.insert(pair[1].to_string(), bytes);
            }
        }
        for (file, bytes) in &files {
            std::fs::write(dir.join(file), bytes).unwrap();
            actual.push_str(&format!("{}  {name}/{file}\n", sha256_hex(bytes)));
        }
    }
    let failure = check_fixture("commands", &fixture_path("commands"), &root, &actual);
    assert!(failure.is_none(), "{}", failure.unwrap_or_default());
}

/// Runs both `ninja trace` subcommands on `file` in `dir` (a relative
/// path, so error messages are the same everywhere), keeps each
/// result as `<file>.<subcommand>` and appends its digest line.
fn trace_reader_lines(dir: &Path, file: &str, actual: &mut String) {
    for sub in ["summarize", "critical-path"] {
        let out = Command::new(env!("CARGO_BIN_EXE_ninja"))
            .args(["trace", sub, file])
            .current_dir(dir)
            .output()
            .expect("spawn ninja");
        let code = out.status.code().expect("exited");
        let mut text = format!("exit {code}\n--- stdout\n").into_bytes();
        text.extend(out.stdout);
        text.extend(b"--- stderr\n");
        text.extend(out.stderr);
        let name = format!("{file}.{sub}");
        std::fs::write(dir.join(&name), &text).unwrap();
        actual.push_str(&format!("{}  {name}\n", sha256_hex(&text)));
    }
}

/// A xorshift stream for the random trace documents.
struct Xorshift(u64);

impl Xorshift {
    fn below(&mut self, n: u64) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0 % n
    }

    fn pick<'a>(&mut self, items: &[&'a str]) -> &'a str {
        items[self.below(items.len() as u64) as usize]
    }
}

/// A seeded Chrome-like trace document: events over the Fig. 4 phases
/// with the value forms a reader meets (odd numbers, escapes, duplicate
/// and missing keys, nested `args`, elements that are not objects) and
/// random whitespace; one document in eight is cut short.
fn random_trace(seed: u64) -> String {
    const NAMES: &[&str] = &[
        "ninja",
        "ninja",
        "ninja",
        "coordination",
        "detach",
        "migration",
        "attach",
        "linkup",
        "precopy",
        r#"a\"b"#,
        r"caf\u00e9",
        r"\ud83d\ude00",
    ];
    const CATS: &[&str] = &["ninja", "ninja", "ninja", "symvirt", "symvirt", "vmm"];
    const PHS: &[&str] = &["X", "X", "X", "X", "i", "B"];
    const SPACE: &[&str] = &["", "", "", " ", "\n", "\t "];
    const OTHER: &[&str] = &[
        "1",
        r#""s""#,
        "null",
        "[]",
        r#"{"ph":"X"}"#,
        "true",
        "-2.5e1",
    ];
    let mut rng = Xorshift(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
    for _ in 0..8 {
        rng.below(2);
    }
    let number = |rng: &mut Xorshift, v: u64| match rng.below(16) {
        0 => format!("{v}.0"),
        1 => format!("{v}e0"),
        2 => format!("{v}.5"),
        3 => format!("-{v}"),
        4 => format!("0{v}"),
        5 => format!("{}e3", v / 1000),
        6 => ["1e30", "18446744073709551616", "null", r#""7""#][rng.below(4) as usize].to_string(),
        _ => v.to_string(),
    };
    let mut doc = String::from("{\"traceEvents\":[");
    for i in 0..rng.below(40) {
        if i > 0 {
            doc.push(',');
        }
        doc.push_str(rng.pick(SPACE));
        if rng.below(12) == 0 {
            doc.push_str(rng.pick(OTHER));
            continue;
        }
        let job = rng.below(3);
        let ts = rng.below(20) * 1_000_000 + rng.below(1000);
        let dur = rng.below(6_000_000);
        let mut fields = vec![
            format!(r#""name":"{}""#, rng.pick(NAMES)),
            format!(r#""cat":"{}""#, rng.pick(CATS)),
            format!(r#""ph":"{}""#, rng.pick(PHS)),
            format!(r#""ts":{}"#, number(&mut rng, ts)),
            format!(r#""dur":{}"#, number(&mut rng, dur)),
            r#""pid":1"#.to_string(),
            format!(
                r#""args":{{"job":"{job}","mig":"{}","vm":"j{job}v{}"{}}}"#,
                rng.below(2),
                rng.below(3),
                [
                    "",
                    "",
                    r#","n":1"#,
                    r#","job":"9""#,
                    r#","deep":{"a":[1,{"b":"c"}]}"#
                ][rng.below(5) as usize]
            ),
        ];
        fields.retain(|_| rng.below(16) != 0);
        if rng.below(10) == 0 && !fields.is_empty() {
            let dup = fields[rng.below(fields.len() as u64) as usize].clone();
            fields.push(dup);
        }
        for k in (1..fields.len()).rev() {
            fields.swap(k, rng.below(k as u64 + 1) as usize);
        }
        let gap = rng.pick(SPACE);
        doc.push('{');
        doc.push_str(&fields.join(&format!(",{gap}")));
        doc.push('}');
    }
    doc.push_str("]}");
    if rng.below(8) == 0 {
        doc.truncate(rng.below(doc.len() as u64) as usize);
    }
    doc
}

/// `ninja trace summarize` and `critical-path` print exactly what they
/// printed when these goldens were blessed, on run traces, on every
/// edge of the reading rule and on invalid input.
#[test]
fn trace_readers_match_goldens() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("golden-trace-readers");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let mut actual = String::new();
    for (file, args) in [
        ("fallback.json", &["fallback"][..]),
        (
            "fleet.json",
            &["fleet", "--jobs", "8", "--concurrency", "4"][..],
        ),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_ninja"))
            .args(args)
            .args(["--trace-out", file])
            .current_dir(&dir)
            .output()
            .expect("spawn ninja");
        assert!(out.status.success(), "{args:?}");
        trace_reader_lines(&dir, file, &mut actual);
    }
    let edges = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/trace-edges");
    let mut files: Vec<_> = std::fs::read_dir(&edges)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    files.sort();
    for file in &files {
        std::fs::copy(edges.join(file), dir.join(file)).unwrap();
        trace_reader_lines(&dir, file, &mut actual);
    }
    for seed in 0..64 {
        let file = format!("random-{seed:02}.json");
        std::fs::write(dir.join(&file), random_trace(seed)).unwrap();
        trace_reader_lines(&dir, &file, &mut actual);
    }
    let fixture = fixture_path("trace-readers");
    let failure = check_fixture("trace-readers", &fixture, &dir, &actual);
    assert!(failure.is_none(), "{}", failure.unwrap_or_default());
}

/// The `fleet_scale --quick` shapes (16/8, 64/32 and 256/128 through
/// `build_scaled`, trace off) against their lines of `matrix.sha256`.
#[test]
fn fleet_scale_shapes_match_matrix_table() {
    check_matrix(Group::FleetScale);
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
