//! The Chrome trace writer: exact byte layout, string escaping, and the
//! chunks it hands its sink.
//!
//! `Trace::write_chrome_json` renders without `fmt`: it escapes each
//! name once per export into a table of pre-rendered pieces, copies
//! those into every event, and writes integer labels, kept as integers
//! until then, in decimal. These tests pin what the fast paths must not
//! change: a fixture line with every field set; a round trip through
//! the JSON parser of names, components, label keys and values, and
//! instant details full of characters that need escaping (or look as if
//! they might); a store rebuilt from a file (owned names, escapes,
//! non-ASCII text) exporting the file's own bytes; a ring-capped trace
//! after eviction; and integer labels from 0 to `u64::MAX`.

use ninja_sim::{parse, spans_from_chrome, SimDuration, SimTime, Trace, TraceLevel};
use std::fmt::{self, Write};

fn at_us(us: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_micros(us)
}

/// Strings that exercise every escaping rule: quotes, backslashes,
/// named and `\u00XX` control escapes, DEL (not escaped), U+2028 (legal
/// raw in JSON strings), and multi-byte UTF-8.
const TRICKY: &[&str] = &[
    "plain",
    "",
    "say \"hi\"",
    "C:\\path\\to",
    "tab\there\nnewline\r\u{8}\u{c}",
    "ctl \u{0}\u{1}\u{1f} end",
    "del \u{7f}",
    "line\u{2028}sep\u{2029}para",
    "grüße, 日本語, 🦀",
    "\\\"mixed\u{2028}\"\u{1}ü",
];

#[test]
fn fixture_line_with_every_field_set() {
    let mut tr = Trace::new();
    tr.add_span("symvirt", "migration", at_us(1_500_000), at_us(3_750_123))
        .label("vm", "job0-vm0")
        .label_u64("job", 0)
        .label_u64("mig", 18_446_744_073_709_551_615)
        .label_u64("wire_bytes", 1_654_259_712);
    tr.add_instant("vmm", "precopy.round", at_us(2_000_999), TraceLevel::Warn)
        .label("detail", "round 1");
    let expected = concat!(
        r#"{"traceEvents":["#,
        r#"{"name":"migration","cat":"symvirt","ph":"X","ts":1500000,"dur":2250123,"#,
        r#""pid":1,"tid":"symvirt","args":{"vm":"job0-vm0","job":"0","#,
        r#""mig":"18446744073709551615","wire_bytes":"1654259712"}},"#,
        r#"{"name":"precopy.round","cat":"vmm","ph":"i","ts":2000999,"pid":1,"tid":"vmm","#,
        r#""s":"t","args":{"level":"WARN","detail":"round 1"}}"#,
        r#"]}"#,
    );
    assert_eq!(tr.to_chrome_json(), expected);
}

#[test]
fn label_free_span_has_no_args_and_empty_trace_is_an_empty_list() {
    assert_eq!(Trace::new().to_chrome_json(), r#"{"traceEvents":[]}"#);
    let mut tr = Trace::new();
    tr.add_span("net", "flow", at_us(0), at_us(0));
    assert_eq!(
        tr.to_chrome_json(),
        r#"{"traceEvents":[{"name":"flow","cat":"net","ph":"X","ts":0,"dur":0,"pid":1,"tid":"net"}]}"#
    );
}

#[test]
fn tricky_strings_round_trip_through_the_parser() {
    let mut tr = Trace::new();
    for (i, s) in TRICKY.iter().enumerate() {
        let start = at_us(i as u64 * 10);
        let end = start + SimDuration::from_micros(7);
        tr.add_span(s.to_string(), format!("name {s}"), start, end)
            .label(s.to_string(), s)
            .label("plain", &format!("{s}{s}"));
        tr.add_instant(s.to_string(), s.to_string(), start, TraceLevel::Warn)
            .label("detail", s);
    }
    let doc = parse(&tr.to_chrome_json()).expect("the writer emits valid JSON");

    let back = spans_from_chrome(&doc);
    assert_eq!(back.all_spans().len(), tr.all_spans().len());
    for (a, b) in tr.all_spans().zip(back.all_spans()) {
        assert_eq!(a.component(), b.component());
        assert_eq!(a.name(), b.name());
        assert_eq!((a.start(), a.end()), (b.start(), b.end()));
        let (la, lb): (Vec<_>, Vec<_>) = (a.labels().collect(), b.labels().collect());
        assert_eq!(la, lb);
    }

    let instants: Vec<_> = doc["traceEvents"]
        .as_array()
        .unwrap()
        .iter()
        .filter(|e| e["ph"].as_str() == Some("i"))
        .collect();
    assert_eq!(instants.len(), tr.instants().len());
    for (r, e) in tr.instants().zip(instants) {
        assert_eq!(e["name"].as_str(), Some(r.name()));
        assert_eq!(e["cat"].as_str(), Some(r.component()));
        assert_eq!(e["tid"].as_str(), Some(r.component()));
        assert_eq!(e["args"]["level"].as_str(), Some("WARN"));
        assert_eq!(
            e["args"]["detail"].as_str(),
            r.label("detail").and_then(|v| v.as_str())
        );
    }
}

/// A file's own component, span and label names (hundreds of them, each
/// recurring, none a producer's static name) survive the trip through
/// `spans_from_chrome` and back out byte for byte.
#[test]
fn file_names_outside_the_static_set_round_trip() {
    let events: Vec<String> = (0..600u64)
        .map(|i| {
            let (n, cat) = (i % 300, format!("comp-{}", i % 7));
            format!(
                r#"{{"name":"kind-{n}","cat":"{cat}","ph":"X","ts":{i},"dur":{},"pid":1,"tid":"{cat}","args":{{"key-{n}":"v{i}","key-{}":"w"}}}}"#,
                i % 5,
                n + 1
            )
        })
        .collect();
    let text = format!(r#"{{"traceEvents":[{}]}}"#, events.join(","));
    let back = spans_from_chrome(&parse(&text).unwrap());
    assert_eq!(back.all_spans().len(), 600);
    let last = back.all_spans().last().unwrap();
    assert_eq!((last.component(), last.name()), ("comp-4", "kind-299"));
    assert_eq!(last.label("key-299").unwrap(), "v599");
    assert_eq!(last.label("key-300").unwrap(), "w");
    assert_eq!(back.to_chrome_json(), text);
}

/// A store rebuilt from a file holds owned names, not a producer's
/// static ones. Exported again, it gives back the file it was read from
/// byte for byte, escapes and non-ASCII text included, and integer
/// labels read back as the text they were written as.
#[test]
fn rebuilt_store_with_escapes_exports_the_same_bytes() {
    let mut tr = Trace::new();
    for (i, s) in TRICKY.iter().enumerate() {
        let start = at_us(i as u64 * 10);
        tr.add_span(
            s.to_string(),
            format!("kind {s}"),
            start,
            start + SimDuration::from_micros(3),
        )
        .label(format!("key {s}"), s)
        .label_u64("n", i as u64)
        .label("vm", &format!("{s}-vm0"));
    }
    let text = tr.to_chrome_json();
    let back = spans_from_chrome(&parse(&text).expect("valid JSON"));
    assert_eq!(back.to_chrome_json(), text);
    let last = back.all_spans().last().unwrap();
    assert_eq!(last.label("n").and_then(|v| v.as_str()), Some("9"));
    assert_eq!(last.label("n").and_then(|v| v.as_u64()), Some(9));
}

/// After the ring cap has evicted spans and instants, the export holds
/// exactly the survivors, byte for byte what a trace that recorded only
/// them writes, though names that only evicted records used stay in the
/// capped trace's name table.
#[test]
fn capped_trace_exports_what_an_uncapped_trace_of_the_survivors_does() {
    // Span `i` and, for even `i`, instant `i`, with names that repeat
    // every 7 spans and text that needs escaping.
    fn span(tr: &mut Trace, i: u64) {
        tr.add_span(
            "symvirt",
            format!("phase-{}", i % 7),
            at_us(i),
            at_us(i + 2),
        )
        .label("vm", &format!("job{i}-vm\"{}\"", i % 3))
        .label_u64("job", i)
        .label_u64("wire_bytes", i * 1_000_003);
    }
    fn instant(tr: &mut Trace, i: u64) {
        tr.add_instant(
            "alerts",
            format!("alert-{}", i % 5),
            at_us(i),
            TraceLevel::Warn,
        )
        .label("detail", &format!("ü{i}"));
    }
    let evens: Vec<u64> = (0..200).step_by(2).collect();
    for cap in [1, 3, 10] {
        let mut capped = Trace::new();
        capped.set_capacity(Some(cap));
        for i in 0..200 {
            span(&mut capped, i);
            if i % 2 == 0 {
                instant(&mut capped, i);
            }
        }
        assert!(capped.dropped() > 0);
        let spans = capped.all_spans().len() as u64;
        let instants = capped.instants().len();
        assert_eq!(
            capped.all_spans().next().unwrap().start(),
            at_us(200 - spans)
        );
        let mut survivors = Trace::new();
        for i in 200 - spans..200 {
            span(&mut survivors, i);
        }
        for &i in &evens[evens.len() - instants..] {
            instant(&mut survivors, i);
        }
        assert_eq!(
            capped.to_chrome_json(),
            survivors.to_chrome_json(),
            "cap {cap}"
        );
    }
}

/// Integer labels keep their value until export and print in decimal:
/// 0, `u64::MAX`, and every boundary of a power of ten.
#[test]
fn integer_labels_export_in_decimal_across_their_range() {
    let mut values = vec![0, 1, u64::MAX, u64::MAX - 1];
    for p in 1..20 {
        let pow = 10u64.pow(p);
        values.extend([pow - 1, pow, pow + 1]);
    }
    let mut tr = Trace::new();
    for (i, &v) in values.iter().enumerate() {
        tr.add_span("net", "flow", at_us(i as u64), at_us(v % 1_000_000))
            .label_u64("bytes", v);
    }
    let doc = parse(&tr.to_chrome_json()).expect("valid JSON");
    let events = doc["traceEvents"].as_array().unwrap();
    for (e, &v) in events.iter().zip(&values) {
        assert_eq!(e["args"]["bytes"].as_str(), Some(v.to_string().as_str()));
    }
    for (s, &v) in tr.all_spans().zip(&values) {
        assert_eq!(s.label("bytes").and_then(|l| l.as_u64()), Some(v));
        assert_eq!(s.label("bytes").unwrap(), v.to_string().as_str());
    }
}

/// A sink that keeps the size of every piece it is handed.
#[derive(Default)]
struct Pieces {
    text: String,
    sizes: Vec<usize>,
}

impl Write for Pieces {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.text.push_str(s);
        self.sizes.push(s.len());
        Ok(())
    }
}

#[test]
fn large_traces_reach_the_sink_in_chunks_of_about_64_kib() {
    let mut tr = Trace::new();
    for i in 0..4000u64 {
        tr.add_span("symvirt", "migration", at_us(i), at_us(i + 5))
            .label("vm", "job0-vm0")
            .label_u64("job", i);
        tr.add_instant("vmm", "precopy.round", at_us(i), TraceLevel::Info)
            .label("detail", "round");
    }
    let mut sink = Pieces::default();
    tr.write_chrome_json(&mut sink).unwrap();
    assert_eq!(sink.text, tr.to_chrome_json());
    let (last, full) = sink.sizes.split_last().unwrap();
    assert!(full.len() >= 4, "{:?}", sink.sizes);
    for &n in full {
        assert!(
            (64 * 1024..64 * 1024 + 1024).contains(&n),
            "{:?}",
            sink.sizes
        );
    }
    assert!(*last <= 64 * 1024 + 1024);
}
