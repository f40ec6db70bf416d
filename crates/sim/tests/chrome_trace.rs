//! The Chrome trace writer: exact byte layout, string escaping, and the
//! chunks it hands its sink.
//!
//! `Trace::write_chrome_json` renders without `fmt` and pushes strings
//! that need no escaping whole, so these tests pin what the fast paths
//! must not change: a fixture line with every field set, and a
//! round trip through the JSON parser of names, components, label keys
//! and values, and instant details full of characters that need escaping
//! (or look as if they might).

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
        assert_eq!(e["args"]["detail"].as_str(), r.label("detail"));
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
