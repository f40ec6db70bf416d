//! Virtual-time metric time-series: a flight recorder for
//! [`MetricsRegistry`].
//!
//! A [`TimeSeriesRecorder`] samples every series of a registry on a
//! fixed virtual-time interval into a ring-buffered, columnar store:
//! one column of `f64` per registry series (two for a histogram, its
//! `_count` and `_sum`) plus one column of scrape instants. A scrape
//! appends one value per column; names and labels are copied once, when
//! a series first appears. A recorder scrapes one registry for its
//! whole life.
//!
//! # The scrape rule
//!
//! A scrape is not an event. The driving loop (the `World` clock in
//! `ninja-migration`) calls [`TimeSeriesRecorder::advance_to`] whenever
//! virtual time moves, and never moves it for the recorder's sake;
//! every scrape instant due between the old and the new clock gets its
//! own sample, so the series is exactly periodic however the simulation
//! jumps. The scrape at instant `s` sees every event strictly before
//! `s` and none at or after it. So installing a recorder, at any
//! interval, changes nothing else a run computes: only the alert
//! engine's own series and trace instants are added.
//!
//! Each scrape may also drive an [`AlertEngine`](crate::alerts): every
//! rule's series reference is resolved once per new column, and rules
//! are evaluated against the registry's current values and the columns'
//! previous ones. Fire and resolve transitions become trace instants
//! (`alert.fired` / `alert.resolved` under the `alerts` component) plus
//! the `ninja_alerts_fired_total{rule=...}` counter, and the
//! `ninja_alerts_active` gauge tracks how many rules are firing — all
//! of which land in the *same* scrape's sample, so the exported series
//! carries its own alerting history.
//!
//! Exporters: timestamped Prometheus text
//! ([`TimeSeriesRecorder::write_prometheus`], one line per sample with a
//! millisecond timestamp), JSONL (one scrape per line), and CSV (one
//! sample per row). All stream, and are dependency-free and
//! deterministic. [`TimeSeriesRecorder::samples`] materializes the
//! row-wise [`ScrapeSample`] view on demand.

use crate::alerts::AlertEngine;
use crate::export::{render, write_escaped, write_f64, write_str_object};
use crate::metrics::{write_labels, write_prom_f64, Kind, LabelSet, MetricsRegistry};
use crate::time::{SimDuration, SimTime};
use crate::trace::{Trace, TraceLevel};
use std::collections::VecDeque;
use std::fmt::{self, Write};
use std::sync::OnceLock;

/// One scraped series value.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesPoint {
    /// Series name. Histograms contribute `<name>_count` and
    /// `<name>_sum` points.
    pub name: String,
    /// Sorted label pairs.
    pub labels: LabelSet,
    /// The scraped value (counters as `f64`).
    pub value: f64,
}

/// One scrape: every series of the registry at one virtual instant.
#[derive(Debug, Clone, PartialEq)]
pub struct ScrapeSample {
    /// The scrape instant.
    pub at: SimTime,
    /// All series, in registry exposition order (counters, gauges,
    /// then histogram `_count`/`_sum` pairs; each group name-sorted).
    pub points: Vec<SeriesPoint>,
}

/// Default ring capacity: enough for a week of 30 s scrapes.
const DEFAULT_CAPACITY: usize = 100_000;

/// The values one registry series contributes to every scrape since it
/// first appeared.
#[derive(Debug)]
struct Column {
    /// Registry series id.
    series: usize,
    /// Reads a histogram's `_sum` (else its `_count`, or the value).
    sum: bool,
    kind: Kind,
    /// Point name: the metric name plus `_count`/`_sum` for histograms.
    name: String,
    /// Length of the metric name within `name`.
    base: usize,
    labels: LabelSet,
    /// Number (counting evicted scrapes) of the first scrape it is in.
    born: u64,
    /// One value per retained scrape from `born` on.
    values: VecDeque<f64>,
}

impl Column {
    /// Position in registry exposition order.
    fn order(&self) -> (Kind, &str, &LabelSet, bool) {
        (self.kind, &self.name[..self.base], &self.labels, self.sum)
    }

    /// Prometheus type of the point name.
    fn type_name(&self) -> &'static str {
        if self.kind == Kind::Gauge {
            "gauge"
        } else {
            "counter"
        }
    }
}

/// A virtual-time scraper over [`MetricsRegistry`] with a ring-buffered
/// columnar store and an optional alert engine.
#[derive(Debug)]
pub struct TimeSeriesRecorder {
    interval: SimDuration,
    /// `None` once the next scrape would fall past [`SimTime::MAX`].
    next_due: Option<SimTime>,
    capacity: usize,
    /// Instants of the retained scrapes, oldest first.
    times: VecDeque<SimTime>,
    /// Scrapes evicted by the ring cap; also the number of the oldest
    /// retained scrape.
    dropped: u64,
    columns: Vec<Column>,
    /// Registry series that already have columns (ids are dense).
    seen: usize,
    alerts: Option<AlertEngine>,
    /// Per alert rule: the columns its series matches, in exposition
    /// order (the order the values are summed in).
    matches: Vec<Vec<usize>>,
    finished: bool,
    /// The row-wise view, built on first use after a scrape.
    view: OnceLock<VecDeque<ScrapeSample>>,
}

impl TimeSeriesRecorder {
    /// A recorder scraping every `interval` (clamped to ≥ 1 ns) with
    /// the default ring capacity.
    pub fn new(interval: SimDuration) -> Self {
        TimeSeriesRecorder {
            interval: interval.max(SimDuration::from_nanos(1)),
            next_due: Some(SimTime::ZERO),
            capacity: DEFAULT_CAPACITY,
            times: VecDeque::new(),
            dropped: 0,
            columns: Vec::new(),
            seen: 0,
            alerts: None,
            matches: Vec::new(),
            finished: false,
            view: OnceLock::new(),
        }
    }

    /// Caps the ring at `cap` samples (≥ 1); the oldest samples are
    /// evicted and counted in [`TimeSeriesRecorder::dropped`].
    pub fn with_capacity(mut self, cap: usize) -> Self {
        self.capacity = cap.max(1);
        self
    }

    /// Attaches an alert engine, evaluated at every scrape.
    pub fn with_alerts(mut self, alerts: AlertEngine) -> Self {
        self.matches = vec![Vec::new(); alerts.rules().len()];
        self.alerts = Some(alerts);
        for c in 0..self.columns.len() {
            self.match_rules(c);
        }
        self
    }

    /// The scrape interval.
    pub fn interval(&self) -> SimDuration {
        self.interval
    }

    /// The next scrape deadline: strictly in the future of the last
    /// time passed to [`TimeSeriesRecorder::advance_to`].
    /// [`SimTime::MAX`] once no scrape is left before the end of the
    /// clock.
    pub fn next_due(&self) -> SimTime {
        self.next_due.unwrap_or(SimTime::MAX)
    }

    /// Performs the baseline scrape at `at` and schedules the next one
    /// an interval later. Called once when the recorder is installed.
    pub fn start_at(&mut self, at: SimTime, metrics: &mut MetricsRegistry, trace: &mut Trace) {
        self.next_due = Some(at);
        self.advance_to(at, metrics, trace);
    }

    /// Scrapes every due instant ≤ `t`, in order. Postcondition:
    /// `next_due() > t`, or no scrape is left before the end of the
    /// clock.
    ///
    /// The registry does not change between the scrapes of one call
    /// except through the alert series. Once a scrape repeats the one
    /// before it and no alert is part-way through its `for` count,
    /// every later scrape of the call repeats it too; when more of them
    /// are due than the ring keeps, they are filled in at once. So a
    /// jump across years of simulated time costs at most a ring's worth
    /// of scrapes.
    pub fn advance_to(&mut self, t: SimTime, metrics: &mut MetricsRegistry, trace: &mut Trace) {
        while let Some(at) = self.next_due.filter(|&at| at <= t) {
            let repeated = self.scrape(at, metrics, trace);
            self.next_due = at.checked_add(self.interval);
            let Some(next) = self.next_due.filter(|&next| next <= t) else {
                continue;
            };
            let due = t.since(next).as_nanos() / self.interval.as_nanos() + 1;
            if repeated && due > self.capacity as u64 {
                self.repeat_last(next, due);
            }
        }
    }

    /// Records `n` (≥ the ring capacity) more copies of the last
    /// scrape, the first at `first`, `interval` apart. Only the newest
    /// `capacity` survive the ring, so those are written directly.
    fn repeat_last(&mut self, first: SimTime, n: u64) {
        self.view.take();
        let kept = self.capacity as u64;
        self.dropped += self.times.len() as u64 + n - kept;
        let last = first + self.interval * (n - 1);
        self.times = (0..kept)
            .rev()
            .map(|back| last - self.interval * back)
            .collect();
        for col in &mut self.columns {
            let v = *col
                .values
                .back()
                .expect("a repeated scrape has every column");
            col.values = std::iter::repeat(v).take(self.capacity).collect();
        }
        self.next_due = last.checked_add(self.interval);
    }

    /// Final drain at end of run: one trailing scrape at the next
    /// deadline (capturing the terminal registry state), then up to
    /// three more while any alert is still firing — enough for rate
    /// and burn alerts to observe a flat interval and resolve.
    /// Idempotent: the second and later calls are no-ops.
    pub fn finish(&mut self, metrics: &mut MetricsRegistry, trace: &mut Trace) {
        if self.finished {
            return;
        }
        self.finished = true;
        for extra in 0..4 {
            let Some(due) = self.next_due else { break };
            if extra > 0 && self.active_alerts() == 0 {
                break;
            }
            self.advance_to(due, metrics, trace);
        }
    }

    /// Number of alert rules currently firing (0 without an engine).
    pub fn active_alerts(&self) -> usize {
        self.alerts.as_ref().map_or(0, AlertEngine::active)
    }

    /// The alert engine, if one is attached.
    pub fn alerts(&self) -> Option<&AlertEngine> {
        self.alerts.as_ref()
    }

    /// The recorded samples, oldest first, as a row-wise view of the
    /// columns (built on the first call after a scrape, then cached).
    pub fn samples(&self) -> &VecDeque<ScrapeSample> {
        self.view.get_or_init(|| {
            let order = self.exposition_order();
            (0..self.times.len())
                .map(|row| ScrapeSample {
                    at: self.times[row],
                    points: order
                        .iter()
                        .filter_map(|&c| {
                            let col = &self.columns[c];
                            self.value(c, row).map(|value| SeriesPoint {
                                name: col.name.clone(),
                                labels: col.labels.clone(),
                                value,
                            })
                        })
                        .collect(),
                })
                .collect()
        })
    }

    /// Samples evicted by the ring cap.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Column `c`'s value in retained scrape `row`, if it existed then.
    fn value(&self, c: usize, row: usize) -> Option<f64> {
        let col = &self.columns[c];
        let scrape = self.dropped + row as u64;
        let first = col.born.max(self.dropped);
        let i = scrape.checked_sub(first)?;
        col.values.get(i as usize).copied()
    }

    /// Column indices in registry exposition order.
    fn exposition_order(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.columns.len()).collect();
        order.sort_by(|&a, &b| self.columns[a].order().cmp(&self.columns[b].order()));
        order
    }

    /// Adds column `c` to the match list of every alert rule whose
    /// series reference it satisfies.
    fn match_rules(&mut self, c: usize) {
        let Some(engine) = &self.alerts else { return };
        let columns = &self.columns;
        let col = &columns[c];
        for (rule, cols) in engine.rules().iter().zip(&mut self.matches) {
            if rule.expr.series().matches(&col.name, &col.labels) {
                let at = cols.partition_point(|&m| columns[m].order() < col.order());
                cols.insert(at, c);
            }
        }
    }

    /// Gives every registry series created since the last call its
    /// column(s), born at the upcoming scrape.
    fn sync(&mut self, metrics: &MetricsRegistry) {
        let born = self.dropped + self.times.len() as u64;
        while self.seen < metrics.len() {
            let (kind, name, labels) = metrics.series(self.seen);
            let parts: &[(&str, bool)] = if kind == Kind::Histogram {
                &[("_count", false), ("_sum", true)]
            } else {
                &[("", false)]
            };
            for &(suffix, sum) in parts {
                self.columns.push(Column {
                    series: self.seen,
                    sum,
                    kind,
                    name: format!("{name}{suffix}"),
                    base: name.len(),
                    labels: labels.clone(),
                    born,
                    values: VecDeque::new(),
                });
                self.match_rules(self.columns.len() - 1);
            }
            self.seen += 1;
        }
    }

    /// Appends one sample at `at`. Returns whether it repeats the
    /// previous one: no new series, no alert transition, no alert
    /// part-way through its `for` count, and every value unchanged.
    fn scrape(&mut self, at: SimTime, metrics: &mut MetricsRegistry, trace: &mut Trace) -> bool {
        self.view.take();
        let known = self.columns.len();
        self.sync(metrics);
        let mut repeated = true;
        if let Some(engine) = self.alerts.as_mut() {
            // Current values come from the registry (before this
            // scrape's own alert series move); previous ones are each
            // column's last value.
            let (columns, matches, reg) = (&self.columns, &self.matches, &*metrics);
            let prev_at = self.times.back().copied();
            let events = engine.evaluate_with(at, prev_at, |rule, _, previous| {
                matches[rule]
                    .iter()
                    .filter_map(|&c| {
                        let col = &columns[c];
                        if previous {
                            col.values.back().copied()
                        } else {
                            Some(reg.scrape_value(col.series, col.sum))
                        }
                    })
                    .sum()
            });
            for ev in &events {
                if ev.fired {
                    metrics.describe(
                        "ninja_alerts_fired_total",
                        "Alert rule fire transitions, labeled by rule",
                    );
                    metrics.inc("ninja_alerts_fired_total", &[("rule", &ev.rule)], 1);
                    trace
                        .add_instant("alerts", "alert.fired", at, TraceLevel::Warn)
                        .label("detail", &ev.detail);
                } else {
                    trace
                        .add_instant("alerts", "alert.resolved", at, TraceLevel::Info)
                        .label("detail", &ev.detail);
                }
            }
            metrics.describe("ninja_alerts_active", "Alert rules currently firing");
            metrics.set_gauge("ninja_alerts_active", &[], engine.active() as f64);
            repeated = events.is_empty() && engine.settled();
            self.sync(metrics);
        }
        repeated &= self.columns.len() == known;
        for col in &mut self.columns {
            let v = metrics.scrape_value(col.series, col.sum);
            repeated &= col.values.back().map(|p| p.to_bits()) == Some(v.to_bits());
            col.values.push_back(v);
        }
        self.times.push_back(at);
        while self.times.len() > self.capacity {
            self.times.pop_front();
            for col in &mut self.columns {
                if col.born <= self.dropped {
                    col.values.pop_front();
                }
            }
            self.dropped += 1;
        }
        repeated
    }

    /// Timestamped Prometheus text exposition.
    pub fn to_prometheus(&self) -> String {
        render(self.columns.len() * self.times.len() * 48, |out| {
            self.write_prometheus(out)
        })
    }

    /// Streams the timestamped Prometheus text: per series name a
    /// `# TYPE` header, then one `name{labels} value timestamp_ms` line
    /// per sample, label-set-major and time-ordered within each series.
    pub fn write_prometheus<W: Write + ?Sized>(&self, out: &mut W) -> fmt::Result {
        // Group by (point name, labels); a group holds more than one
        // column only when two metric kinds share a name.
        let mut order = self.exposition_order();
        let key = |c: usize| (&self.columns[c].name, &self.columns[c].labels);
        order.sort_by(|&a, &b| key(a).cmp(&key(b)));
        let mut i = 0;
        while i < order.len() {
            let col = &self.columns[order[i]];
            if i == 0 || self.columns[order[i - 1]].name != col.name {
                // The header takes the type the name was first scraped as.
                let first = order[i..]
                    .iter()
                    .map(|&c| &self.columns[c])
                    .take_while(|c| c.name == col.name)
                    .min_by(|a, b| (a.born, a.order()).cmp(&(b.born, b.order())))
                    .expect("a group is never empty");
                writeln!(out, "# TYPE {} {}", col.name, first.type_name())?;
            }
            let len = order[i..]
                .iter()
                .take_while(|&&c| key(c) == key(order[i]))
                .count();
            let group = &order[i..i + len];
            let mut prefix = col.name.clone();
            write_labels(&col.labels, None, &mut prefix)?;
            prefix.push(' ');
            for row in 0..self.times.len() {
                let ms = self.times[row].as_nanos() / 1_000_000;
                for v in group.iter().filter_map(|&c| self.value(c, row)) {
                    out.write_str(&prefix)?;
                    write_prom_f64(v, out)?;
                    writeln!(out, " {ms}")?;
                }
            }
            i += len;
        }
        Ok(())
    }

    /// JSONL: one JSON object per scrape.
    pub fn to_jsonl(&self) -> String {
        render(self.columns.len() * self.times.len() * 64, |out| {
            self.write_jsonl(out)
        })
    }

    /// Streams the JSONL form: one line per scrape,
    /// `{"t_ns": ..., "points": [{"name", "labels"?, "value"}, ...]}`.
    pub fn write_jsonl<W: Write + ?Sized>(&self, out: &mut W) -> fmt::Result {
        let order = self.exposition_order();
        let mut heads = Vec::with_capacity(order.len());
        for &c in &order {
            let col = &self.columns[c];
            let mut head = String::from("{\"name\":");
            write_escaped(&col.name, &mut head)?;
            if !col.labels.is_empty() {
                head.push_str(",\"labels\":");
                write_str_object(col.labels.iter().map(|(k, v)| (k, v)), &mut head)?;
            }
            head.push_str(",\"value\":");
            heads.push(head);
        }
        for row in 0..self.times.len() {
            write!(
                out,
                "{{\"t_ns\":{},\"points\":[",
                self.times[row].as_nanos()
            )?;
            let mut sep = "";
            for (&c, head) in order.iter().zip(&heads) {
                if let Some(v) = self.value(c, row) {
                    out.write_str(sep)?;
                    out.write_str(head)?;
                    write_f64(v, out)?;
                    out.write_char('}')?;
                    sep = ",";
                }
            }
            out.write_str("]}\n")?;
        }
        Ok(())
    }

    /// CSV with a fixed header.
    pub fn to_csv(&self) -> String {
        render(self.columns.len() * self.times.len() * 48, |out| {
            self.write_csv(out)
        })
    }

    /// Streams the CSV form: header `t_ns,name,labels,value`; labels
    /// render as `k=v;k=v` and are quoted (JSON string rules) when they
    /// contain a comma, quote, or newline.
    pub fn write_csv<W: Write + ?Sized>(&self, out: &mut W) -> fmt::Result {
        let order = self.exposition_order();
        let mut mids = Vec::with_capacity(order.len());
        for &c in &order {
            let col = &self.columns[c];
            let labels = col
                .labels
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect::<Vec<_>>()
                .join(";");
            let mut mid = format!("{},", col.name);
            if labels.contains([',', '"', '\n']) {
                write_escaped(&labels, &mut mid)?;
            } else {
                mid.push_str(&labels);
            }
            mid.push(',');
            mids.push(mid);
        }
        out.write_str("t_ns,name,labels,value\n")?;
        for row in 0..self.times.len() {
            let t = self.times[row].as_nanos();
            for (&c, mid) in order.iter().zip(&mids) {
                if let Some(v) = self.value(c, row) {
                    write!(out, "{t},{mid}")?;
                    write_prom_f64(v, out)?;
                    out.write_char('\n')?;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alerts::parse_rules;

    fn t(s: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(s)
    }

    fn rec30() -> TimeSeriesRecorder {
        TimeSeriesRecorder::new(SimDuration::from_secs(30))
    }

    #[test]
    fn scrapes_every_interval_exactly_once() {
        let mut m = MetricsRegistry::new();
        let mut tr = Trace::new();
        let mut rec = rec30();
        rec.start_at(t(0), &mut m, &mut tr);
        assert_eq!(rec.samples().len(), 1, "baseline scrape");
        assert_eq!(rec.next_due(), t(30));
        m.inc("x_total", &[], 5);
        // One big jump drains every due instant.
        rec.advance_to(t(100), &mut m, &mut tr);
        let at: Vec<SimTime> = rec.samples().iter().map(|s| s.at).collect();
        assert_eq!(at, vec![t(0), t(30), t(60), t(90)]);
        assert_eq!(rec.next_due(), t(120));
        // Monotone, strictly increasing.
        assert!(at.windows(2).all(|w| w[0] < w[1]));
        // The counter shows up from the second sample on.
        assert!(rec.samples()[0].points.is_empty());
        assert_eq!(rec.samples()[1].points[0].value, 5.0);
    }

    #[test]
    fn scrapes_stop_at_the_end_of_the_clock() {
        let mut m = MetricsRegistry::new();
        let mut tr = Trace::new();
        let mut rec = TimeSeriesRecorder::new(SimDuration::MAX);
        rec.start_at(t(1), &mut m, &mut tr);
        assert_eq!(
            rec.next_due(),
            SimTime::MAX,
            "the next scrape is past the clock"
        );
        rec.advance_to(SimTime::MAX, &mut m, &mut tr);
        rec.finish(&mut m, &mut tr);
        assert_eq!(rec.samples().len(), 1);
    }

    /// One jump over many scrapes equals stepping through them one at a
    /// time, alert transitions and ring evictions included.
    #[test]
    fn a_long_jump_equals_scraping_each_instant() {
        let rules = "backlog: depth > 2 for 3\nchurn: rate moves_total > 0";
        let run = |stepwise: bool| {
            let mut m = MetricsRegistry::new();
            let mut tr = Trace::new();
            let mut rec = rec30()
                .with_capacity(7)
                .with_alerts(AlertEngine::new(parse_rules(rules).unwrap()));
            rec.start_at(t(0), &mut m, &mut tr);
            for (end, depth, moves) in [(600, 5.0, 1), (3000, 1.0, 2), (30_000, 4.0, 0)] {
                m.set_gauge("depth", &[], depth);
                m.inc("moves_total", &[], moves);
                if stepwise {
                    while rec.next_due() <= t(end) {
                        let due = rec.next_due();
                        rec.advance_to(due, &mut m, &mut tr);
                    }
                } else {
                    rec.advance_to(t(end), &mut m, &mut tr);
                }
            }
            rec.finish(&mut m, &mut tr);
            (
                rec.to_csv(),
                rec.dropped(),
                rec.next_due(),
                tr.to_chrome_json(),
            )
        };
        let jumped = run(false);
        assert_eq!(jumped, run(true));
        // 1001 scrapes up to 30 000 s, then `finish`'s trailing one and
        // three more while `backlog` still fires; the ring keeps 7.
        assert_eq!(jumped.1, 1001 + 4 - 7, "every scrape counted");
    }

    #[test]
    fn interval_is_clamped_to_a_tick() {
        let rec = TimeSeriesRecorder::new(SimDuration::ZERO);
        assert_eq!(rec.interval(), SimDuration::from_nanos(1));
    }

    #[test]
    fn ring_cap_keeps_newest_samples() {
        let mut m = MetricsRegistry::new();
        let mut tr = Trace::new();
        let mut rec = rec30().with_capacity(3);
        rec.start_at(t(0), &mut m, &mut tr);
        m.inc("early_total", &[], 1);
        rec.advance_to(t(150), &mut m, &mut tr);
        m.set_gauge("late", &[], 2.0);
        rec.advance_to(t(300), &mut m, &mut tr);
        assert_eq!(rec.samples().len(), 3);
        assert_eq!(rec.dropped(), 8);
        assert_eq!(rec.samples().back().unwrap().at, t(300));
        // Every retained scrape still reads both columns.
        for s in rec.samples() {
            let names: Vec<&str> = s.points.iter().map(|p| p.name.as_str()).collect();
            assert_eq!(names, vec!["early_total", "late"]);
        }
    }

    #[test]
    fn snapshot_covers_counters_gauges_and_histograms() {
        let mut m = MetricsRegistry::new();
        let mut tr = Trace::new();
        m.observe("h_seconds", &[], 0.5);
        m.set_gauge("g", &[], 1.5);
        m.inc("c_total", &[("k", "a")], 2);
        let mut rec = rec30();
        rec.start_at(t(0), &mut m, &mut tr);
        let points = &rec.samples()[0].points;
        let names: Vec<&str> = points.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(
            names,
            vec!["c_total", "g", "h_seconds_count", "h_seconds_sum"]
        );
        assert_eq!(points[3].value, 0.5);
    }

    #[test]
    fn prometheus_export_is_timestamped_and_typed() {
        let mut m = MetricsRegistry::new();
        let mut tr = Trace::new();
        let mut rec = rec30();
        rec.start_at(t(0), &mut m, &mut tr);
        m.inc("c_total", &[("k", "a")], 2);
        m.set_gauge("g", &[], 0.25);
        rec.advance_to(t(30), &mut m, &mut tr);
        let text = rec.to_prometheus();
        assert!(text.contains("# TYPE c_total counter"), "{text}");
        assert!(text.contains("# TYPE g gauge"), "{text}");
        assert!(text.contains("c_total{k=\"a\"} 2 30000\n"), "{text}");
        assert!(text.contains("g 0.25 30000\n"), "{text}");
    }

    #[test]
    fn jsonl_round_trips_through_parse() {
        let mut m = MetricsRegistry::new();
        let mut tr = Trace::new();
        let mut rec = rec30();
        rec.start_at(t(0), &mut m, &mut tr);
        m.inc("c_total", &[("k", "a")], 2);
        rec.advance_to(t(30), &mut m, &mut tr);
        for line in rec.to_jsonl().lines() {
            let doc = crate::export::parse(line).expect("line parses");
            assert!(doc["t_ns"].as_u64().is_some());
        }
    }

    #[test]
    fn csv_quotes_awkward_label_values() {
        let mut m = MetricsRegistry::new();
        let mut tr = Trace::new();
        let mut rec = rec30();
        m.set_gauge("g", &[("k", "a,b")], 1.0);
        rec.start_at(t(0), &mut m, &mut tr);
        let csv = rec.to_csv();
        assert!(csv.starts_with("t_ns,name,labels,value\n"));
        assert!(csv.contains("0,g,\"k=a,b\",1\n"), "{csv}");
    }

    #[test]
    fn alert_transitions_land_in_metrics_and_trace() {
        let mut m = MetricsRegistry::new();
        let mut tr = Trace::new();
        let mut rec =
            rec30().with_alerts(AlertEngine::new(parse_rules("backlog: depth > 2").unwrap()));
        rec.start_at(t(0), &mut m, &mut tr);
        m.set_gauge("depth", &[], 5.0);
        rec.advance_to(t(30), &mut m, &mut tr);
        assert_eq!(
            m.counter("ninja_alerts_fired_total", &[("rule", "backlog")]),
            1
        );
        assert_eq!(m.gauge("ninja_alerts_active", &[]), Some(1.0));
        assert_eq!(
            tr.instants().filter(|i| i.name() == "alert.fired").count(),
            1
        );
        // The firing scrape's own snapshot carries the alert series.
        let last = rec.samples().back().unwrap();
        assert!(last
            .points
            .iter()
            .any(|p| p.name == "ninja_alerts_fired_total"));
        m.set_gauge("depth", &[], 0.0);
        rec.advance_to(t(60), &mut m, &mut tr);
        assert_eq!(
            tr.instants()
                .filter(|i| i.name() == "alert.resolved")
                .count(),
            1
        );
        assert_eq!(m.gauge("ninja_alerts_active", &[]), Some(0.0));
        let inc = rec.alerts().unwrap().incidents();
        assert_eq!(inc.len(), 1);
        assert_eq!(inc[0].resolved_at, Some(t(60)));
    }

    #[test]
    fn finish_drains_until_alerts_resolve_and_is_idempotent() {
        let mut m = MetricsRegistry::new();
        let mut tr = Trace::new();
        let mut rec = rec30().with_alerts(AlertEngine::new(
            parse_rules("hot: rate c_total > 0.5").unwrap(),
        ));
        rec.start_at(t(0), &mut m, &mut tr);
        m.inc("c_total", &[], 100);
        rec.advance_to(t(30), &mut m, &mut tr);
        assert_eq!(rec.active_alerts(), 1);
        rec.finish(&mut m, &mut tr);
        assert_eq!(rec.active_alerts(), 0, "flat trailing scrape resolves");
        let n = rec.samples().len();
        rec.finish(&mut m, &mut tr);
        assert_eq!(rec.samples().len(), n, "finish is idempotent");
    }
}
