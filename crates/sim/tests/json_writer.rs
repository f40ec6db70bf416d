//! `JsonWriter`'s byte-level paths against `fmt`.
//!
//! `write_f64` renders a float that is a whole number of nanoseconds
//! without `fmt`; every value must still come out exactly as `{}` prints
//! it (after the writer's two documented rules: non-finite is `null`,
//! `-0` is `0`). Strings skip `fmt` when they need no escape, and must
//! still escape exactly as `write_escaped` does. The writer hands its
//! sink 64 KiB pieces and the rest at the end of the top-level value,
//! and a sink error reaches the caller.

use ninja_sim::export::{write_escaped, write_f64};
use ninja_sim::{JsonWriter, SimRng};
use std::fmt::{self, Write};

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
