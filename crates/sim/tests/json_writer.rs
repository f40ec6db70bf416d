//! `JsonWriter`'s byte-level paths against `fmt`.
//!
//! `write_f64` renders a float that is a whole number of nanoseconds
//! without `fmt`; every value must still come out exactly as `{}` prints
//! it (after the writer's two documented rules: non-finite is `null`,
//! `-0` is `0`). Strings skip `fmt` when they need no escape, and must
//! still escape exactly as `write_escaped` does. The writer hands its
//! sink 64 KiB pieces and the rest at the end of the top-level value,
//! and a sink error reaches the caller. One document that takes every
//! structural path (deep nesting, odd keys, empty containers, duration
//! edges) is pinned byte for byte in `tests/fixtures/`.

use ninja_sim::export::{write_escaped, write_f64};
use ninja_sim::{JsonWriter, SimDuration, SimRng, SimTime, WriteJson};
use std::fmt::{self, Write};
use std::path::Path;

const CHUNK: usize = 64 * 1024;

/// What `{}` makes of `v` under the writer's `null` and `-0` rules.
fn expected(v: f64) -> String {
    if !v.is_finite() {
        "null".to_string()
    } else if v == 0.0 {
        "0".to_string()
    } else {
        format!("{v}")
    }
}

fn check(v: f64, out: &mut String) {
    out.clear();
    write_f64(v, out).unwrap();
    assert_eq!(*out, expected(v), "bits {:#018x}", v.to_bits());
}

/// A whole number of nanoseconds with a random number of digits, in
/// seconds. Up to 15 digits take the fast path; 16 and 17 digits probe
/// its bound.
fn whole_nanos(rng: &mut SimRng) -> f64 {
    let digits = rng.below(18) as u32;
    rng.below(10u64.pow(digits).max(2)) as f64 / 1e9
}

#[test]
fn write_f64_matches_display_over_a_million_values() {
    let mut rng = SimRng::new(0x0f64);
    let mut out = String::new();
    let edges = [
        1e-9,
        999_999.999_999_999,
        1e6,
        (1u64 << 53) as f64 / 1e9,
        f64::MIN_POSITIVE,
        f64::MIN_POSITIVE / 2.0,
        f64::from_bits(1),
        f64::MAX,
        f64::MIN,
        f64::EPSILON,
        0.1 + 0.2,
        1e15 / 1e9,
        999_999_999_999_999.0 / 1e9,
        -0.0,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
    ];
    for v in edges {
        check(v, &mut out);
        check(-v, &mut out);
    }
    for _ in 0..300_000 {
        let a = whole_nanos(&mut rng);
        let b = whole_nanos(&mut rng);
        check(a, &mut out);
        check(-a, &mut out);
        check(a + b, &mut out);
        check(f64::from_bits(rng.next_u64()), &mut out);
    }
}

#[test]
fn writer_floats_match_write_f64() {
    let mut rng = SimRng::new(7);
    let values: Vec<f64> = (0..10_000)
        .map(|i| match i % 3 {
            0 => whole_nanos(&mut rng),
            1 => -whole_nanos(&mut rng) * 3.0,
            _ => f64::from_bits(rng.next_u64()),
        })
        .collect();
    let mut text = String::new();
    let mut w = JsonWriter::compact(&mut text);
    w.begin_array().unwrap();
    for &v in &values {
        w.f64(v).unwrap();
    }
    w.end_array().unwrap();
    let want = format!(
        "[{}]",
        values
            .iter()
            .map(|&v| expected(v))
            .collect::<Vec<_>>()
            .join(",")
    );
    assert_eq!(text, want);
}

#[test]
fn writer_strings_escape_as_write_escaped_does() {
    // Every ASCII byte, alone and inside a longer string, plus
    // multi-byte characters (whose bytes are all >= 0x80).
    let mut cases: Vec<String> = (0u8..0x80)
        .flat_map(|b| {
            let c = char::from(b);
            [c.to_string(), format!("job-{c}-vm0"), format!("{c}é🦀")]
        })
        .collect();
    cases.push(String::new());
    for s in &cases {
        let (mut got, mut want) = (String::new(), String::new());
        JsonWriter::compact(&mut got).str(s).unwrap();
        write_escaped(s, &mut want).unwrap();
        assert_eq!(got, want, "{s:?}");
    }
}

/// A sink that records the length of every piece it is handed.
#[derive(Default)]
struct Pieces {
    lens: Vec<usize>,
    text: String,
}

impl Write for Pieces {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.lens.push(s.len());
        self.text.push_str(s);
        Ok(())
    }
}

/// Writes a pretty document of `n` job objects: about 140 bytes each.
fn jobs_document<W: Write>(n: u64, w: &mut JsonWriter<'_, W>) -> fmt::Result {
    w.begin_object()?;
    w.key("jobs")?;
    w.begin_array()?;
    for j in 0..n {
        w.begin_object()?;
        w.field("job", &j)?;
        w.field("name", "job \"evac\"")?;
        w.field("blackout_s", &(j as f64 * 0.001_234_567))?;
        w.key("delta")?;
        w.i64(-(j as i64))?;
        w.field("ok", &true)?;
        w.end_object()?;
    }
    w.end_array()?;
    w.end_object()
}

#[test]
fn writer_hands_the_sink_64_kib_pieces() {
    let mut sink = Pieces::default();
    jobs_document(5_000, &mut JsonWriter::pretty(&mut sink)).unwrap();
    let (last, full) = sink.lens.split_last().unwrap();
    assert!(full.len() >= 4, "{:?}", sink.lens);
    assert!(*last > 0);
    assert!(
        full.iter().all(|&len| len >= CHUNK),
        "pieces before the last are at least 64 KiB: {:?}",
        sink.lens
    );

    // The pieces add up to the document `String` rendering gives.
    let mut whole = String::new();
    jobs_document(5_000, &mut JsonWriter::pretty(&mut whole)).unwrap();
    assert_eq!(sink.text, whole);
    assert!(whole.contains("\"name\": \"job \\\"evac\\\"\""));
    assert!(whole.contains("\"delta\": -4999"));
    assert!(whole.contains("\n      \"job\": 4999,"));
}

#[test]
fn small_documents_reach_the_sink_in_one_piece() {
    let mut sink = Pieces::default();
    jobs_document(3, &mut JsonWriter::compact(&mut sink)).unwrap();
    assert_eq!(sink.lens.len(), 1);
    let mut scalar = Pieces::default();
    JsonWriter::compact(&mut scalar).f64(2.5).unwrap();
    assert_eq!(scalar.text, "2.5");
}

/// A sink that fails once it has taken `room` bytes.
struct Full {
    room: usize,
}

impl Write for Full {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.room = self.room.checked_sub(s.len()).ok_or(fmt::Error)?;
        Ok(())
    }
}

#[test]
fn sink_errors_reach_the_caller() {
    assert!(jobs_document(5_000, &mut JsonWriter::pretty(&mut Full { room: 0 })).is_err());
    assert!(jobs_document(5_000, &mut JsonWriter::pretty(&mut Full { room: 200_000 })).is_err());
    assert!(jobs_document(3, &mut JsonWriter::compact(&mut Full { room: 0 })).is_err());
    assert!(JsonWriter::compact(&mut Full { room: 0 }).null().is_err());
    assert!(jobs_document(5_000, &mut JsonWriter::pretty(&mut Full { room: 1 << 20 })).is_ok());
}

/// Levels of nesting in [`structure_document`]'s `deep` value: past 32,
/// so its indentation outgrows any fixed block of spaces.
const DEEP: u64 = 40;

/// A document that takes every structural path of the writer: empty
/// containers in each position, keys that need escapes, non-ASCII keys
/// and keys longer than any fixed block, every scalar, `SimDuration`
/// and `SimTime` edge values, and nesting [`DEEP`] levels down with a
/// value after each close.
fn structure_document<W: Write>(w: &mut JsonWriter<'_, W>) -> fmt::Result {
    w.begin_object()?;
    w.key("empty_array")?;
    w.begin_array()?;
    w.end_array()?;
    w.key("empty_object")?;
    w.begin_object()?;
    w.end_object()?;
    w.key("empties")?;
    w.begin_array()?;
    w.begin_array()?;
    w.end_array()?;
    w.begin_object()?;
    w.end_object()?;
    w.begin_array()?;
    w.begin_object()?;
    w.end_object()?;
    w.end_array()?;
    w.begin_object()?;
    w.key("inner")?;
    w.begin_array()?;
    w.end_array()?;
    w.end_object()?;
    w.end_array()?;

    w.field("", &0u64)?;
    w.field("quote\"back\\slash", &1u64)?;
    w.field("tab\tnewline\ncr\rbell\u{7}unit\u{1f}", &2u64)?;
    w.field("blackout_é_ö_日本_🦀", &3u64)?;
    let long = "a_key_longer_than_any_fixed_block_".repeat(4);
    w.field(&long, &4u64)?;
    let long_escaped = format!("{long}\"quoted\"\u{0}é{long}");
    w.field(&long_escaped, &5u64)?;
    let long_wide = "日本語のキー🦀".repeat(8);
    w.field(&long_wide, &6u64)?;

    w.key("scalars")?;
    w.begin_object()?;
    w.field("null", &None::<u64>)?;
    w.field("true", &true)?;
    w.field("false", &false)?;
    w.field("u64_max", &u64::MAX)?;
    w.field("u64_zero", &0u64)?;
    w.key("i64_min")?;
    w.i64(i64::MIN)?;
    w.key("i64_negative")?;
    w.i64(-42)?;
    w.field("f64_nan", &f64::NAN)?;
    w.field("f64_negative_zero", &-0.0f64)?;
    w.field("f64_whole_nanos", &1.000_000_001f64)?;
    w.field("f64_other", &0.1f64)?;
    w.field("str_escapes", "line\nquote\"tab\t\u{0}")?;
    w.field("str_wide", "é日本🦀")?;
    w.field("str_empty", "")?;
    w.end_object()?;

    w.key("durations")?;
    w.begin_array()?;
    for ns in [
        0,
        1,
        10,
        100_000_000,
        999_999_999,
        1_000_000_000,
        1_000_000_001,
        1_500_000_000,
        60_000_000_000,
        86_400_000_000_000,
        u64::MAX,
    ] {
        SimDuration::from_nanos(ns).write_json(w)?;
    }
    w.end_array()?;
    w.key("times")?;
    w.begin_array()?;
    for t in [SimTime::ZERO, SimTime::from_nanos(1), SimTime::MAX] {
        t.write_json(w)?;
    }
    w.end_array()?;

    w.key("deep")?;
    for level in 0..DEEP {
        if level % 2 == 0 {
            w.begin_array()?;
            w.u64(level)?;
        } else {
            w.begin_object()?;
            w.field("level", &level)?;
            w.key("next")?;
        }
    }
    w.str("bottom")?;
    for level in (0..DEEP).rev() {
        if level % 2 == 0 {
            w.end_array()?;
        } else {
            w.end_object()?;
        }
        // A value after each close, so the separator and indentation
        // of every depth are written after a container ends.
        // Level `level - 1` is an object when odd, an array when even.
        if level % 2 == 0 && level > 0 {
            w.field("after", &SimDuration::from_nanos(level))?;
        } else if level % 2 == 1 {
            w.str("after")?;
        }
    }
    w.field("last", &SimDuration::MAX)?;
    w.end_object()
}

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn writer_structure_matches_its_fixtures() {
    let mut pretty = String::new();
    structure_document(&mut JsonWriter::pretty(&mut pretty)).unwrap();
    let mut compact = String::new();
    structure_document(&mut JsonWriter::compact(&mut compact)).unwrap();
    assert_eq!(pretty, fixture("writer-structure.json"));
    assert_eq!(compact, fixture("writer-structure.compact.json"));
    // Both forms read back as the same value.
    let value = ninja_json_tree::parse(&pretty).unwrap();
    assert_eq!(ninja_json_tree::parse(&compact).unwrap(), value);
    // The innermost key sits inside the root object and DEEP containers.
    let indent = " ".repeat(2 * (DEEP as usize + 1));
    assert!(pretty.contains(&format!("\n{indent}\"next\": \"bottom\"\n")));
}
