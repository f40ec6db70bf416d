//! `append_run`, the one way the benches add a run to a `BENCH_*.json`
//! trend file: on copies of the committed files the old bytes stay a
//! verbatim prefix and the result reads back as the old runs plus the
//! new one, laid out as the whole array rendered pretty would be; a
//! file that is not one JSON array is left byte-identical and reported;
//! a missing or blank file starts a one-run array.

use ninja_bench::append_run;
use ninja_json_tree::{parse, Json};
use ninja_sim::WriteJson;
use std::path::{Path, PathBuf};

/// A fresh scratch file for one case.
fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("append_run");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    let _ = std::fs::remove_file(&path);
    path
}

/// A run record shaped like the benches' own.
fn run() -> Json {
    Json::obj(vec![
        ("unix_time", Json::from(1_786_000_000u64)),
        ("mode", Json::from("quick")),
        ("bench", Json::from("append \"test\"")),
        (
            "rows",
            Json::Arr(vec![Json::obj(vec![
                ("jobs", Json::from(16u64)),
                ("wall_ms", Json::from(1.25)),
                ("nested", Json::Arr(vec![Json::obj::<&str>(vec![])])),
            ])]),
        ),
    ])
}

fn runs(doc: &Json) -> Vec<Json> {
    doc.as_array().expect("an array of runs").to_vec()
}

#[test]
fn appending_to_the_committed_files_keeps_their_bytes() {
    for name in ["BENCH_fleet.json", "BENCH_telemetry.json"] {
        let committed = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join(name);
        let old = std::fs::read_to_string(&committed).unwrap();
        let path = scratch(name);
        std::fs::write(&path, &old).unwrap();
        append_run(&path, &run().to_json_pretty()).unwrap();
        let new = std::fs::read_to_string(&path).unwrap();

        let close = old.trim_end().len() - 1;
        assert!(
            new.starts_with(old[..close].trim_end()),
            "{name}: old bytes are a prefix"
        );
        assert!(
            new.ends_with(&old[close..]),
            "{name}: same closing bracket and tail"
        );
        let mut want = runs(&parse(&old).unwrap());
        want.push(run());
        assert_eq!(runs(&parse(&new).unwrap()), want, "{name}");
        let tail = &old[close + 1..];
        assert_eq!(
            new,
            Json::Arr(want).to_json_pretty() + tail,
            "{name}: pretty layout"
        );
    }
}

#[test]
fn a_file_that_is_not_an_array_is_left_untouched() {
    let fleet = std::fs::read_to_string(
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_fleet.json"),
    )
    .unwrap();
    let unclosed = fleet.trim_end().strip_suffix(']').unwrap().to_string();
    let cases = [
        ("truncated.json", fleet[..fleet.len() / 2].to_string()),
        (
            "truncated-at-bracket.json",
            fleet[..fleet.find("]").unwrap() + 1].to_string(),
        ),
        ("unclosed.json", unclosed),
        ("object.json", r#"{"runs": []}"#.to_string()),
        ("trailing.json", "[]\n]".to_string()),
    ];
    for (name, text) in cases {
        let path = scratch(name);
        std::fs::write(&path, &text).unwrap();
        let err = append_run(&path, &run().to_json_pretty()).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{name}: {err}");
        assert_eq!(std::fs::read_to_string(&path).unwrap(), text, "{name}");
    }
    // Bytes that are not UTF-8 are not a record file either.
    let path = scratch("binary.json");
    std::fs::write(&path, b"[\xff]").unwrap();
    assert!(append_run(&path, &run().to_json_pretty()).is_err());
    assert_eq!(std::fs::read(&path).unwrap(), b"[\xff]");
}

#[test]
fn a_missing_blank_or_empty_file_gives_a_one_run_array() {
    for (name, text) in [
        ("missing.json", None),
        ("blank.json", Some(" \n\t\n")),
        ("empty-array.json", Some("[]\n")),
    ] {
        let path = scratch(name);
        if let Some(text) = text {
            std::fs::write(&path, text).unwrap();
        }
        append_run(&path, &run().to_json_pretty()).unwrap();
        let new = std::fs::read_to_string(&path).unwrap();
        assert_eq!(runs(&parse(&new).unwrap()), vec![run()], "{name}");
        assert_eq!(
            new,
            Json::Arr(vec![run()]).to_json_pretty() + "\n",
            "{name}"
        );
        // A second append extends the same array.
        append_run(&path, &run().to_json_pretty()).unwrap();
        let twice = std::fs::read_to_string(&path).unwrap();
        assert_eq!(runs(&parse(&twice).unwrap()), vec![run(), run()], "{name}");
    }
}
