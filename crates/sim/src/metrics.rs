//! A labeled metrics registry with dependency-free exporters.
//!
//! Components record counters (monotone `u64`), gauges (latest `f64`),
//! and log-bucketed histograms (built on [`Histogram`] and [`Summary`])
//! keyed by metric name plus sorted label pairs, Prometheus-style.
//!
//! Each series is interned once to a [`SeriesId`]; values live in one
//! flat vector indexed by id, and hot call sites can keep the id. The
//! `&str`-label methods ([`MetricsRegistry::inc`] and friends) are thin
//! lookups on top that allocate only when they create a series.
//! Exposition order (counters, gauges, histograms; each sorted by name
//! then label set) comes from a sorted index built at export time. The
//! registry exports:
//!
//! * Prometheus text exposition format ([`MetricsRegistry::write_prometheus`]),
//! * a pretty-printed JSON document ([`MetricsRegistry::write_json`]).
//!
//! Metric and label naming follows the Prometheus conventions
//! (`ninja_wire_bytes_total`, `ninja_phase_duration_seconds{phase="detach"}`,
//! ...); the full catalog lives in `docs/observability.md`.

use crate::export::{render, write_escaped, write_f64};
use crate::stats::{Histogram, Summary};
use std::collections::hash_map::RandomState;
use std::collections::{BTreeMap, HashMap};
use std::fmt::{self, Write};
use std::hash::{BuildHasher, Hash};

/// Sorted label pairs identifying one series of a metric.
pub type LabelSet = Vec<(String, String)>;

/// Handle of one interned series, valid for the registry that issued it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SeriesId(u32);

/// Metric type of a series, in exposition order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) enum Kind {
    Counter,
    Gauge,
    Histogram,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
        }
    }
}

/// A histogram series: log-bucketed counts, the exact running sum
/// behind `_sum`, and streaming moments (min/max/mean for the JSON
/// export).
#[derive(Debug, Clone)]
pub struct HistogramMetric {
    hist: Histogram,
    summary: Summary,
    sum: f64,
}

impl HistogramMetric {
    /// Records one observation.
    pub fn observe(&mut self, v: f64) {
        self.hist.record(v);
        self.summary.record(v);
        self.sum += v;
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.summary.count()
    }

    /// Sum of all observations, added up in observation order.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// The underlying bucketed histogram.
    pub fn histogram(&self) -> &Histogram {
        &self.hist
    }

    /// The streaming summary of observations.
    pub fn summary(&self) -> &Summary {
        &self.summary
    }
}

/// Default bucket layout for duration histograms: 1 ms doubling up to
/// ~2.3 h, which brackets every phase the paper measures (sub-second
/// Ethernet hotplug up to week-long drill windows land in overflow).
const DURATION_BUCKETS: (f64, f64, usize) = (0.001, 2.0, 23);

#[derive(Debug, Clone)]
enum Value {
    Counter(u64),
    Gauge(f64),
    Histogram(Box<HistogramMetric>),
}

impl Value {
    fn kind(&self) -> Kind {
        match self {
            Value::Counter(_) => Kind::Counter,
            Value::Gauge(_) => Kind::Gauge,
            Value::Histogram(_) => Kind::Histogram,
        }
    }
}

/// An empty histogram series with an exponential bucket layout.
fn histogram_value(first: f64, base: f64, n: usize) -> Value {
    Value::Histogram(Box::new(HistogramMetric {
        hist: Histogram::exponential(first, base, n),
        summary: Summary::new(),
        sum: 0.0,
    }))
}

/// The registry: every series of every metric, plus help texts.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    help: BTreeMap<String, String>,
    /// `(name, sorted labels)` per series id.
    keys: Vec<(String, LabelSet)>,
    /// Current value per series id.
    values: Vec<Value>,
    /// Series ids by key hash (colliding keys share a bucket).
    index: HashMap<u64, Vec<SeriesId>>,
    hasher: RandomState,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers help text shown in the Prometheus exposition; a no-op
    /// when the same text is already stored.
    pub fn describe(&mut self, name: &str, help: &str) {
        if self.help.get(name).map(String::as_str) != Some(help) {
            self.help.insert(name.to_string(), help.to_string());
        }
    }

    /// Hash of a series key. `String` hashes as `str`, so a borrowed
    /// `(&str, &str)` query hashes like the stored `(String, String)`.
    fn key_hash<K: Hash, V: Hash>(&self, kind: Kind, name: &str, labels: &[(K, V)]) -> u64 {
        self.hasher.hash_one((kind, name, labels))
    }

    /// Looks a series up by key; `labels` in any order.
    fn find(&self, kind: Kind, name: &str, labels: &[(&str, &str)]) -> Option<SeriesId> {
        if !labels.windows(2).all(|w| w[0] <= w[1]) {
            let mut sorted = labels.to_vec();
            sorted.sort_unstable();
            return self.find(kind, name, &sorted);
        }
        let bucket = self.index.get(&self.key_hash(kind, name, labels))?;
        bucket.iter().copied().find(|&id| {
            let (n, ls) = &self.keys[id.0 as usize];
            self.values[id.0 as usize].kind() == kind
                && n == name
                && ls.len() == labels.len()
                && ls
                    .iter()
                    .zip(labels)
                    .all(|((k, v), (qk, qv))| k == qk && v == qv)
        })
    }

    /// The id of a `kind` series, creating it with `init` if it is new.
    fn intern(
        &mut self,
        kind: Kind,
        name: &str,
        labels: &[(&str, &str)],
        init: impl FnOnce() -> Value,
    ) -> SeriesId {
        if let Some(id) = self.find(kind, name, labels) {
            return id;
        }
        let value = init();
        debug_assert_eq!(value.kind(), kind);
        let mut key: LabelSet = labels
            .iter()
            .map(|&(k, v)| (k.to_string(), v.to_string()))
            .collect();
        key.sort();
        let id = SeriesId(u32::try_from(self.keys.len()).expect("fewer than 2^32 series"));
        let hash = self.key_hash(kind, name, &key);
        self.index.entry(hash).or_default().push(id);
        self.keys.push((name.to_string(), key));
        self.values.push(value);
        id
    }

    /// The id of a counter series, created at zero if new.
    pub fn counter_id(&mut self, name: &str, labels: &[(&str, &str)]) -> SeriesId {
        self.intern(Kind::Counter, name, labels, || Value::Counter(0))
    }

    /// The id of a gauge series, created at zero if new.
    pub fn gauge_id(&mut self, name: &str, labels: &[(&str, &str)]) -> SeriesId {
        self.intern(Kind::Gauge, name, labels, || Value::Gauge(0.0))
    }

    /// The id of a histogram series with the default duration layout,
    /// created empty if new.
    pub fn histogram_id(&mut self, name: &str, labels: &[(&str, &str)]) -> SeriesId {
        let (first, base, n) = DURATION_BUCKETS;
        self.intern(Kind::Histogram, name, labels, || {
            histogram_value(first, base, n)
        })
    }

    /// Adds `delta` to the counter `id`.
    pub fn add(&mut self, id: SeriesId, delta: u64) {
        match &mut self.values[id.0 as usize] {
            Value::Counter(v) => *v += delta,
            other => panic!("series {id:?} is a {}, not a counter", other.kind().name()),
        }
    }

    /// Sets the gauge `id` to `value`.
    pub fn set(&mut self, id: SeriesId, value: f64) {
        match &mut self.values[id.0 as usize] {
            Value::Gauge(v) => *v = value,
            other => panic!("series {id:?} is a {}, not a gauge", other.kind().name()),
        }
    }

    /// Records one observation of `value` into the histogram `id`.
    pub fn record(&mut self, id: SeriesId, value: f64) {
        match &mut self.values[id.0 as usize] {
            Value::Histogram(h) => h.observe(value),
            other => panic!(
                "series {id:?} is a {}, not a histogram",
                other.kind().name()
            ),
        }
    }

    /// Adds `delta` to a counter series (created at zero).
    pub fn inc(&mut self, name: &str, labels: &[(&str, &str)], delta: u64) {
        let id = self.counter_id(name, labels);
        self.add(id, delta);
    }

    /// Sets a gauge series to `value`.
    pub fn set_gauge(&mut self, name: &str, labels: &[(&str, &str)], value: f64) {
        let id = self.gauge_id(name, labels);
        self.set(id, value);
    }

    /// Records an observation into a histogram series with the default
    /// log-bucket layout.
    pub fn observe(&mut self, name: &str, labels: &[(&str, &str)], value: f64) {
        let id = self.histogram_id(name, labels);
        self.record(id, value);
    }

    fn get(&self, kind: Kind, name: &str, labels: &[(&str, &str)]) -> Option<&Value> {
        self.find(kind, name, labels)
            .map(|id| &self.values[id.0 as usize])
    }

    /// Reads a counter series (0 if absent — counters start at zero).
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        match self.get(Kind::Counter, name, labels) {
            Some(Value::Counter(v)) => *v,
            _ => 0,
        }
    }

    /// Sum of a counter over all label sets.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.keys
            .iter()
            .zip(&self.values)
            .filter_map(|((n, _), v)| match v {
                Value::Counter(c) if n == name => Some(*c),
                _ => None,
            })
            .sum()
    }

    /// Reads a gauge series.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        match self.get(Kind::Gauge, name, labels) {
            Some(Value::Gauge(v)) => Some(*v),
            _ => None,
        }
    }

    /// Reads a histogram series.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Option<&HistogramMetric> {
        match self.get(Kind::Histogram, name, labels) {
            Some(Value::Histogram(h)) => Some(h),
            _ => None,
        }
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Internal: number of series. Ids are dense and never reused, so
    /// a scraper can pick up new series by id alone.
    pub(crate) fn len(&self) -> usize {
        self.keys.len()
    }

    /// Internal: kind, name and labels of series `id`.
    pub(crate) fn series(&self, id: usize) -> (Kind, &str, &LabelSet) {
        let (name, labels) = &self.keys[id];
        (self.values[id].kind(), name, labels)
    }

    /// Internal: the scraped value of series `id` — the value of a
    /// counter or gauge, a histogram's `_count` or (`sum`) `_sum`.
    pub(crate) fn scrape_value(&self, id: usize, sum: bool) -> f64 {
        match &self.values[id] {
            Value::Counter(v) => *v as f64,
            Value::Gauge(v) => *v,
            Value::Histogram(h) if sum => h.sum(),
            Value::Histogram(h) => h.count() as f64,
        }
    }

    /// Series ids in exposition order: counters, gauges, histograms,
    /// each by name then label set.
    fn sorted_ids(&self) -> Vec<usize> {
        let mut ids: Vec<usize> = (0..self.keys.len()).collect();
        ids.sort_unstable_by(|&a, &b| {
            (self.values[a].kind(), &self.keys[a]).cmp(&(self.values[b].kind(), &self.keys[b]))
        });
        ids
    }

    /// Folds another registry into this one: counters add, gauges take
    /// the other's value, histogram summaries merge (bucket counts too
    /// when the layouts match — keep layouts consistent per name).
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (name, help) in &other.help {
            self.help
                .entry(name.clone())
                .or_insert_with(|| help.clone());
        }
        for ((name, labels), value) in other.keys.iter().zip(&other.values) {
            let labels: Vec<(&str, &str)> = labels
                .iter()
                .map(|(k, v)| (k.as_str(), v.as_str()))
                .collect();
            let Some(id) = self.find(value.kind(), name, &labels) else {
                self.intern(value.kind(), name, &labels, || value.clone());
                continue;
            };
            match (&mut self.values[id.0 as usize], value) {
                (Value::Counter(mine), Value::Counter(theirs)) => *mine += theirs,
                (Value::Gauge(mine), Value::Gauge(theirs)) => *mine = *theirs,
                (Value::Histogram(mine), Value::Histogram(theirs)) => {
                    mine.summary.merge(&theirs.summary);
                    mine.hist.merge(&theirs.hist);
                    mine.sum += theirs.sum;
                }
                _ => unreachable!("found by kind"),
            }
        }
    }

    /// Prometheus text exposition format (version 0.0.4).
    pub fn to_prometheus(&self) -> String {
        render(self.keys.len() * 96, |out| self.write_prometheus(out))
    }

    /// Streams the Prometheus text exposition into `out`.
    pub fn write_prometheus<W: Write + ?Sized>(&self, out: &mut W) -> fmt::Result {
        let mut group: Option<(Kind, &str)> = None;
        for id in self.sorted_ids() {
            let (kind, name, labels) = self.series(id);
            if group != Some((kind, name)) {
                group = Some((kind, name));
                if let Some(help) = self.help.get(name) {
                    write!(out, "# HELP {name} ")?;
                    write_prom_escaped(help, false, out)?;
                    out.write_char('\n')?;
                }
                writeln!(out, "# TYPE {name} {}", kind.name())?;
            }
            match &self.values[id] {
                Value::Counter(v) => {
                    out.write_str(name)?;
                    write_labels(labels, None, out)?;
                    writeln!(out, " {v}")?;
                }
                Value::Gauge(v) => {
                    out.write_str(name)?;
                    write_labels(labels, None, out)?;
                    out.write_char(' ')?;
                    write_prom_f64(*v, out)?;
                    out.write_char('\n')?;
                }
                Value::Histogram(h) => {
                    let mut cum = 0u64;
                    let buckets = h.hist.buckets().map(|(bound, count)| {
                        cum += count;
                        (bound, cum)
                    });
                    for (le, n) in buckets.chain([(f64::INFINITY, h.count())]) {
                        write!(out, "{name}_bucket")?;
                        write_labels(labels, Some(le), out)?;
                        writeln!(out, " {n}")?;
                    }
                    write!(out, "{name}_sum")?;
                    write_labels(labels, None, out)?;
                    out.write_char(' ')?;
                    write_prom_f64(h.sum(), out)?;
                    write!(out, "\n{name}_count")?;
                    write_labels(labels, None, out)?;
                    writeln!(out, " {}", h.count())?;
                }
            }
        }
        Ok(())
    }

    /// Pretty-printed JSON document with every series (the
    /// `--metrics-out` form when the file name ends in `.json`).
    pub fn to_json(&self) -> String {
        render(self.keys.len() * 160, |out| self.write_json(out))
    }

    /// Streams the JSON document into `out`: `counters`, `gauges` and
    /// `histograms` arrays of `{name, labels?, value | count, sum, min,
    /// mean, max}` objects, two-space indented.
    pub fn write_json<W: Write + ?Sized>(&self, out: &mut W) -> fmt::Result {
        let ids = self.sorted_ids();
        out.write_char('{')?;
        for (g, kind) in [Kind::Counter, Kind::Gauge, Kind::Histogram]
            .into_iter()
            .enumerate()
        {
            write!(
                out,
                "{}\n  \"{}s\": ",
                if g > 0 { "," } else { "" },
                kind.name()
            )?;
            let mut empty = true;
            for &id in ids.iter().filter(|&&id| self.values[id].kind() == kind) {
                out.write_str(if empty { "[\n    {\n" } else { ",\n    {\n" })?;
                empty = false;
                let (_, name, labels) = self.series(id);
                out.write_str("      \"name\": ")?;
                write_escaped(name, out)?;
                if !labels.is_empty() {
                    out.write_str(",\n      \"labels\": {")?;
                    for (i, (k, v)) in labels.iter().enumerate() {
                        out.write_str(if i > 0 { ",\n        " } else { "\n        " })?;
                        write_escaped(k, out)?;
                        out.write_str(": ")?;
                        write_escaped(v, out)?;
                    }
                    out.write_str("\n      }")?;
                }
                match &self.values[id] {
                    Value::Counter(v) => write!(out, ",\n      \"value\": {v}")?,
                    Value::Gauge(v) => {
                        out.write_str(",\n      \"value\": ")?;
                        write_f64(*v, out)?;
                    }
                    Value::Histogram(h) => {
                        write!(out, ",\n      \"count\": {}", h.count())?;
                        let s = &h.summary;
                        for (field, v) in [
                            ("sum", h.sum()),
                            ("min", s.min()),
                            ("mean", s.mean()),
                            ("max", s.max()),
                        ] {
                            write!(out, ",\n      \"{field}\": ")?;
                            write_f64(v, out)?;
                        }
                    }
                }
                out.write_str("\n    }")?;
            }
            out.write_str(if empty { "[]" } else { "\n  ]" })?;
        }
        out.write_str("\n}")
    }
}

/// Writes a float for Prometheus exposition (`NaN`, `+Inf`, `-Inf`
/// spellings per the format spec).
pub(crate) fn write_prom_f64<W: Write + ?Sized>(v: f64, out: &mut W) -> fmt::Result {
    if v.is_nan() {
        out.write_str("NaN")
    } else if v == f64::INFINITY {
        out.write_str("+Inf")
    } else if v == f64::NEG_INFINITY {
        out.write_str("-Inf")
    } else {
        write!(out, "{v}")
    }
}

/// Writes `v` with Prometheus escaping: backslash and newline, plus the
/// double quote inside label values.
fn write_prom_escaped<W: Write + ?Sized>(v: &str, quote: bool, out: &mut W) -> fmt::Result {
    let mut start = 0;
    for (i, b) in v.bytes().enumerate() {
        let escape = match b {
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'"' if quote => "\\\"",
            _ => continue,
        };
        out.write_str(&v[start..i])?;
        out.write_str(escape)?;
        start = i + 1;
    }
    out.write_str(&v[start..])
}

/// Writes `{k="v",...}` with an optional extra `le` bound (histogram
/// buckets); empty label sets write nothing.
pub(crate) fn write_labels<W: Write + ?Sized>(
    labels: &LabelSet,
    le: Option<f64>,
    out: &mut W,
) -> fmt::Result {
    if labels.is_empty() && le.is_none() {
        return Ok(());
    }
    out.write_char('{')?;
    for (i, (k, v)) in labels.iter().enumerate() {
        write!(out, "{}{k}=\"", if i > 0 { "," } else { "" })?;
        write_prom_escaped(v, true, out)?;
        out.write_char('"')?;
    }
    if let Some(le) = le {
        out.write_str(if labels.is_empty() { "le=\"" } else { ",le=\"" })?;
        write_prom_f64(le, out)?;
        out.write_char('"')?;
    }
    out.write_char('}')
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_per_label_set() {
        let mut m = MetricsRegistry::new();
        m.inc("ninja_migrations_total", &[("to", "eth")], 1);
        m.inc("ninja_migrations_total", &[("to", "eth")], 2);
        m.inc("ninja_migrations_total", &[("to", "ib")], 5);
        assert_eq!(m.counter("ninja_migrations_total", &[("to", "eth")]), 3);
        assert_eq!(m.counter_total("ninja_migrations_total"), 8);
        // Label order does not matter.
        m.inc("x", &[("a", "1"), ("b", "2")], 1);
        assert_eq!(m.counter("x", &[("b", "2"), ("a", "1")]), 1);
        // A name used by two kinds keeps two series.
        m.set_gauge("x", &[("a", "1"), ("b", "2")], 7.0);
        assert_eq!(m.counter("x", &[("a", "1"), ("b", "2")]), 1);
        assert_eq!(m.gauge("x", &[("b", "2"), ("a", "1")]), Some(7.0));
    }

    #[test]
    fn ids_resolve_once_and_match_the_str_api() {
        let mut m = MetricsRegistry::new();
        let id = m.counter_id("c_total", &[("k", "v")]);
        assert_eq!(m.counter_id("c_total", &[("k", "v")]), id);
        m.add(id, 4);
        m.inc("c_total", &[("k", "v")], 1);
        assert_eq!(m.counter("c_total", &[("k", "v")]), 5);
        let g = m.gauge_id("g", &[]);
        m.set(g, 2.5);
        assert_eq!(m.gauge("g", &[]), Some(2.5));
    }

    #[test]
    fn histogram_records_moments_and_buckets() {
        let mut m = MetricsRegistry::new();
        for v in [0.01, 0.02, 10.0] {
            m.observe("ninja_phase_duration_seconds", &[("phase", "detach")], v);
        }
        let h = m
            .histogram("ninja_phase_duration_seconds", &[("phase", "detach")])
            .unwrap();
        assert_eq!(h.count(), 3);
        assert!((h.sum() - 10.03).abs() < 1e-9);
    }

    #[test]
    fn histogram_sum_is_the_running_sum_not_mean_times_count() {
        let mut m = MetricsRegistry::new();
        let values = [1.0, 1.0, 24.0];
        for v in values {
            m.observe("ninja_phase_duration_seconds", &[("phase", "linkup")], v);
        }
        let h = m
            .histogram("ninja_phase_duration_seconds", &[("phase", "linkup")])
            .unwrap();
        // The streaming mean rounds on every update: mean x count is
        // 26.000000000000004 here, while the running sum stays exact.
        let approx = h.summary().mean() * h.count() as f64;
        assert_ne!(approx, 26.0);
        assert_eq!(h.sum(), 26.0);
        let text = m.to_prometheus();
        assert!(
            text.contains("ninja_phase_duration_seconds_sum{phase=\"linkup\"} 26\n"),
            "{text}"
        );
    }

    #[test]
    fn prometheus_exposition_shape() {
        let mut m = MetricsRegistry::new();
        m.describe("ninja_wire_bytes_total", "Bytes moved over the wire");
        m.inc("ninja_wire_bytes_total", &[], 1234);
        m.set_gauge("ninja_vms", &[("cluster", "ib")], 4.0);
        m.observe("ninja_phase_duration_seconds", &[("phase", "linkup")], 30.0);
        let text = m.to_prometheus();
        assert!(text.contains("# HELP ninja_wire_bytes_total Bytes moved over the wire"));
        assert!(text.contains("# TYPE ninja_wire_bytes_total counter"));
        assert!(text.contains("ninja_wire_bytes_total 1234"));
        assert!(text.contains("ninja_vms{cluster=\"ib\"} 4"));
        assert!(
            text.contains("ninja_phase_duration_seconds_bucket{phase=\"linkup\",le=\"+Inf\"} 1")
        );
        assert!(text.contains("ninja_phase_duration_seconds_sum{phase=\"linkup\"} 30"));
        assert!(text.contains("ninja_phase_duration_seconds_count{phase=\"linkup\"} 1"));
        // Buckets are cumulative: the last finite bucket holds the count.
        let last_finite = text
            .lines()
            .rev()
            .find(|l| l.contains("_bucket") && !l.contains("+Inf"))
            .unwrap();
        assert!(last_finite.ends_with(" 1"), "{last_finite}");
    }

    #[test]
    fn label_values_are_escaped() {
        let mut m = MetricsRegistry::new();
        m.inc("c", &[("vm", "a\"b\\c\nd")], 1);
        m.describe("c", "two\nlines \\ \"quoted\"");
        let text = m.to_prometheus();
        assert!(text.contains(r#"vm="a\"b\\c\nd""#), "{text}");
        assert!(
            text.contains(r#"# HELP c two\nlines \\ "quoted""#),
            "{text}"
        );
    }

    #[test]
    fn merge_adds_counters_and_histograms() {
        let mut a = MetricsRegistry::new();
        let mut b = MetricsRegistry::new();
        a.inc("n", &[], 1);
        b.inc("n", &[], 2);
        a.observe("h", &[], 1.0);
        b.observe("h", &[], 3.0);
        b.observe("only_b", &[], 0.5);
        a.merge(&b);
        assert_eq!(a.counter("n", &[]), 3);
        let h = a.histogram("h", &[]).unwrap();
        assert_eq!(h.count(), 2);
        assert!((h.sum() - 4.0).abs() < 1e-9);
        // A series new to `a` arrives with `b`'s bucket layout.
        let only = a.histogram("only_b", &[]).unwrap();
        assert!(only.histogram().buckets().eq(b
            .histogram("only_b", &[])
            .unwrap()
            .histogram()
            .buckets()));
    }

    #[test]
    fn json_export_lists_series() {
        let mut m = MetricsRegistry::new();
        m.inc("ninja_migrations_total", &[("to", "eth")], 2);
        // One counter with its name, labels and value; no gauges.
        assert_eq!(
            m.to_json(),
            "{\n  \"counters\": [\n    {\n      \"name\": \"ninja_migrations_total\",\n      \
             \"labels\": {\n        \"to\": \"eth\"\n      },\n      \"value\": 2\n    }\n  ],\n  \
             \"gauges\": [],\n  \"histograms\": []\n}"
        );
    }
}
