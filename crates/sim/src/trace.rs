//! Structured event tracing.
//!
//! Components record typed spans (named intervals, see [`crate::span`])
//! and instants (zero-length spans with a `level` and a `detail` label)
//! in a shared [`Trace`] as the simulation runs. The benchmark
//! regenerators read the phase spans to compute the paper's overhead
//! breakdowns, the test suite asserts on causal ordering, and the
//! exporter renders Chrome trace-event JSON (Perfetto-loadable).
//!
//! Memory is bounded by an optional ring-buffer cap
//! ([`Trace::set_capacity`]); week-long drill scenarios set a cap and
//! keep the newest entries, with evictions counted in
//! [`Trace::dropped`].

use crate::export::{hand_off, render, Json, CHUNK};
use crate::span::{LabelValue, SpanLabels, SpanRef, SpanStore};
use crate::time::{SimDuration, SimTime};
use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt::{self, Write};

/// Severity of an instant, stored as its `level` label.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceLevel {
    /// Normal operational records.
    Info,
    /// Unexpected but tolerated conditions.
    Warn,
}

impl TraceLevel {
    /// The level's upper-case name, as exported.
    fn as_str(self) -> &'static str {
        match self {
            TraceLevel::Info => "INFO",
            TraceLevel::Warn => "WARN",
        }
    }
}

/// An append-only trace of simulation activity: completed spans plus
/// instants, each in its own store.
#[derive(Debug, Default)]
pub struct Trace {
    spans: SpanStore,
    instants: SpanStore,
    enabled: bool,
    /// Per-store ring cap (`None` = unbounded).
    capacity: Option<usize>,
    dropped: u64,
}

/// Evicts the oldest entries of `store` beyond `keep`, counting them in
/// `dropped`.
fn evict_beyond(store: &mut SpanStore, keep: usize, dropped: &mut u64) {
    let excess = store.len().saturating_sub(keep);
    store.evict_oldest(excess);
    *dropped += excess as u64;
}

impl Trace {
    /// A trace that records everything, unbounded.
    pub fn new() -> Self {
        Trace {
            enabled: true,
            ..Trace::default()
        }
    }

    /// A trace that drops everything (for long property-test runs).
    pub fn disabled() -> Self {
        Trace::default()
    }

    /// Whether this is enabled.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Caps the span and instant stores at `cap` entries each; the
    /// oldest entries are evicted (and counted in [`Trace::dropped`])
    /// once a store exceeds its cap. `None` restores unbounded growth.
    /// Eviction is amortized: a store briefly holds up to `2 * cap - 1`
    /// entries before the oldest are drained down to `cap`.
    pub fn set_capacity(&mut self, cap: Option<usize>) {
        self.capacity = cap.map(|c| c.max(1));
        if let Some(c) = self.capacity {
            evict_beyond(&mut self.spans, c, &mut self.dropped);
            evict_beyond(&mut self.instants, c, &mut self.dropped);
        }
    }

    /// Makes room for `spans` more spans carrying `labels` labels in
    /// all, so that recording them grows no array: no copying of what
    /// is recorded, and no touching of pages a doubling would leave
    /// half empty. A size hint only; past it the arrays grow as usual.
    /// A capped trace makes room for no more than its ring holds.
    pub fn reserve(&mut self, spans: usize, labels: usize) {
        if !self.enabled || spans == 0 {
            return;
        }
        let room = self
            .capacity
            .map_or(spans, |c| spans.min(c.saturating_mul(2)));
        self.spans
            .reserve(room, labels.saturating_mul(room) / spans);
    }

    /// The configured ring cap, if any.
    pub fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    /// Number of entries evicted by the ring cap since construction.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Appends to the span or instant store, first making room: once
    /// the store would reach twice the cap, its oldest entries are
    /// evicted down to `cap - 1`, so the new entry brings it back to
    /// `cap`.
    fn record(
        &mut self,
        instant: bool,
        component: Cow<'static, str>,
        name: Cow<'static, str>,
        start: SimTime,
        end: SimTime,
    ) -> SpanLabels<'_> {
        if !self.enabled {
            return SpanLabels::new(None);
        }
        let store = if instant {
            &mut self.instants
        } else {
            &mut self.spans
        };
        if let Some(cap) = self.capacity {
            if store.len() + 1 >= cap.saturating_mul(2) {
                evict_beyond(store, cap - 1, &mut self.dropped);
            }
        }
        store.push(component, name, start, end);
        SpanLabels::new(Some(store))
    }

    /// Records a completed span from `start` to `end` (clamped to a
    /// zero-length span if `end < start`) and returns a handle that
    /// attaches its labels. This is the hot path: it allocates only when
    /// the trace's arrays grow.
    pub fn add_span(
        &mut self,
        component: impl Into<Cow<'static, str>>,
        name: impl Into<Cow<'static, str>>,
        start: SimTime,
        end: SimTime,
    ) -> SpanLabels<'_> {
        self.record(false, component.into(), name.into(), start, end)
    }

    /// Records an instant at `at` with its `level` label and returns the
    /// handle that attaches the rest; producers add a `detail` label.
    pub fn add_instant(
        &mut self,
        component: impl Into<Cow<'static, str>>,
        name: impl Into<Cow<'static, str>>,
        at: SimTime,
        level: TraceLevel,
    ) -> SpanLabels<'_> {
        self.record(true, component.into(), name.into(), at, at)
            .label("level", level.as_str())
    }

    /// The completed spans, in completion order.
    pub fn all_spans(&self) -> impl ExactSizeIterator<Item = SpanRef<'_>> + DoubleEndedIterator {
        self.spans.iter()
    }

    /// The instants, in recording order.
    pub fn instants(&self) -> impl ExactSizeIterator<Item = SpanRef<'_>> + DoubleEndedIterator {
        self.instants.iter()
    }

    /// The envelope duration of all spans named `name` (any
    /// component): earliest start to latest end. `None` when no such
    /// span was recorded. This is the primitive the overhead breakdown
    /// is computed from.
    pub fn span(&self, name: &str) -> Option<SimDuration> {
        let mut start: Option<SimTime> = None;
        let mut end: Option<SimTime> = None;
        for s in self.spans.iter().filter(|s| s.name() == name) {
            start = Some(start.map_or(s.start(), |cur: SimTime| cur.min(s.start())));
            end = Some(end.map_or(s.end(), |cur: SimTime| cur.max(s.end())));
        }
        Some(end?.since(start?))
    }

    /// All `(start, end)` intervals of spans named `name` (any
    /// component), in start order.
    pub fn spans(&self, name: &str) -> Vec<(SimTime, SimTime)> {
        let mut out: Vec<(SimTime, SimTime)> = self
            .spans
            .iter()
            .filter(|s| s.name() == name)
            .map(|s| (s.start(), s.end()))
            .collect();
        out.sort();
        out
    }

    /// Spans matching both component and name, in completion order.
    pub fn spans_of(&self, component: &str, name: &str) -> Vec<SpanRef<'_>> {
        self.spans
            .iter()
            .filter(|s| s.component() == component && s.name() == name)
            .collect()
    }

    /// Export as Chrome trace-event JSON (load in `chrome://tracing`
    /// or <https://ui.perfetto.dev>).
    pub fn to_chrome_json(&self) -> String {
        let events = self.spans.len() + self.instants.len();
        render(events * 192 + 32, |out| self.write_chrome_json(out))
    }

    /// Streams the Chrome trace-event document into `out`. Spans become
    /// complete ("X") events and instants become instant ("i") events,
    /// each with its labels as `args` (integer labels as decimal
    /// strings). All spans come first, in completion order, then all
    /// instants in recording order; nothing is sorted. Timestamps are
    /// microseconds of simulated time; each component renders as its own
    /// track (`tid`).
    ///
    /// Events are rendered as bytes into a local chunk without `fmt`,
    /// each store's names escaped once up front, and handed to `out`
    /// about `CHUNK` bytes at a time.
    pub fn write_chrome_json<W: Write + ?Sized>(&self, out: &mut W) -> fmt::Result {
        let mut buf = Vec::with_capacity(CHUNK + 1024);
        buf.extend_from_slice(b"{\"traceEvents\":[");
        let mut comma = false;
        self.spans
            .write_chrome_events(false, &mut comma, &mut buf, out)?;
        self.instants
            .write_chrome_events(true, &mut comma, &mut buf, out)?;
        buf.extend_from_slice(b"]}");
        hand_off(&buf, out)
    }

    /// Reconstruct per-migration critical paths from this trace's
    /// spans. See [`critical_paths`] for the reconstruction rules.
    pub fn critical_paths(&self, phase_names: &[&str]) -> Vec<MigrationPath> {
        critical_paths(self, phase_names)
    }

    /// Render the whole trace as text (debugging aid): the instants in
    /// recording order, then the spans by start time (ties in recording
    /// order).
    pub fn render(&self) -> String {
        let mut s = String::new();
        let text = |v: Option<LabelValue<'_>>| v.map(|v| v.to_string()).unwrap_or_default();
        for i in self.instants.iter() {
            s.push_str(&format!(
                "[{:>14}] {} {} {} {}\n",
                i.start().to_string(),
                text(i.label("level")),
                i.component(),
                i.name(),
                text(i.label("detail")),
            ));
        }
        let mut spans: Vec<SpanRef<'_>> = self.spans.iter().collect();
        spans.sort_by_key(|sp| sp.start());
        for sp in spans {
            s.push_str(&format!(
                "[{:>14}] SPAN  {} {} {} ({})\n",
                sp.start().to_string(),
                sp.component(),
                sp.name(),
                sp.duration(),
                sp.labels()
                    .map(|(k, v)| format!("{k}={v}"))
                    .collect::<Vec<_>>()
                    .join(" "),
            ));
        }
        s
    }
}

/// Blackout attributed to one migration phase, with the per-VM span
/// that dominated it (the phase's critical VM).
#[derive(Debug, Clone)]
pub struct PhaseAttribution {
    /// Phase name (one of the Fig. 4 phases the caller passed in).
    pub phase: String,
    /// The share of the migration's blackout this phase accounts for.
    pub duration: SimDuration,
    /// The VM whose per-VM span of this phase ran longest (ties break
    /// to the lexicographically smallest VM name); `None` when the
    /// trace carries no per-VM spans for the phase.
    pub critical_vm: Option<String>,
    /// Duration of the critical VM's span (zero without one).
    pub critical_vm_duration: SimDuration,
}

/// One migration's reconstructed span tree: the job envelope, its
/// per-phase blackout attribution, and the dominant phase.
#[derive(Debug, Clone)]
pub struct MigrationPath {
    /// Fleet job index, when the envelope span carries a `job` label.
    pub job: Option<u64>,
    /// Migration ordinal for the job (0 = triggered, 1 = recovery),
    /// when the envelope carries a `mig` label.
    pub mig: Option<u64>,
    /// Envelope start (migration triggered into its first phase).
    pub start: SimTime,
    /// Envelope end (application resumed, links trained).
    pub end: SimTime,
    /// Total application-observed blackout (envelope duration).
    pub blackout: SimDuration,
    /// The part of the blackout covered by matched phase spans; the
    /// attribution is healthy when this is ≥ 99% of `blackout`.
    pub attributed: SimDuration,
    /// Per-phase attribution, in the caller's phase order.
    pub phases: Vec<PhaseAttribution>,
    /// Name of the phase with the largest share (ties break to the
    /// earlier phase in the caller's order); empty if nothing matched.
    pub dominant: String,
}

impl MigrationPath {
    /// Fraction of the blackout attributed to named phases, in [0, 1].
    pub fn coverage(&self) -> f64 {
        if self.blackout.is_zero() {
            return 1.0;
        }
        self.attributed.as_nanos() as f64 / self.blackout.as_nanos() as f64
    }
}

fn span_key(s: &SpanRef<'_>) -> (Option<u64>, Option<u64>) {
    let get = |k: &str| s.label(k).and_then(LabelValue::as_u64);
    (get("job"), get("mig"))
}

/// Rebuild a [`Trace`]'s spans from a Chrome trace-event document (the
/// format [`Trace::to_chrome_json`] writes). Only complete (`"ph":
/// "X"`) events become spans; string `args` become labels. Timestamps
/// are microseconds of simulated time, so reconstructed spans are exact
/// up to the export's microsecond truncation; events whose times do not
/// fit in a `u64` of nanoseconds are skipped. The result is uncapped and
/// holds no instants.
pub fn spans_from_chrome(doc: &Json) -> Trace {
    let mut out = Trace::new();
    let Some(events) = doc["traceEvents"].as_array() else {
        return out;
    };
    for ev in events {
        if ev["ph"].as_str() != Some("X") {
            continue;
        }
        let (Some(name), Some(ts), Some(dur)) =
            (ev["name"].as_str(), ev["ts"].as_u64(), ev["dur"].as_u64())
        else {
            continue;
        };
        // Microseconds to nanoseconds; an event whose start or end does
        // not fit is skipped like one with a missing field.
        let ns = |us: u64| us.checked_mul(1_000);
        let (Some(start), Some(dur)) = (ns(ts), ns(dur)) else {
            continue;
        };
        let Some(end) = start.checked_add(dur) else {
            continue;
        };
        let cat = ev["cat"].as_str().unwrap_or("").to_string();
        let mut labels = out.add_span(
            cat,
            name.to_string(),
            SimTime::from_nanos(start),
            SimTime::from_nanos(end),
        );
        if let Json::Obj(args) = &ev["args"] {
            for (k, v) in args {
                if let Some(v) = v.as_str() {
                    labels = labels.label(k.clone(), v);
                }
            }
        }
    }
    out
}

/// Reconstruct every migration's critical path from a trace's spans (a
/// live [`Trace`], or one re-read via [`spans_from_chrome`]).
///
/// Each `("ninja", "ninja")` envelope span is one migration, processed
/// in record order. Its phase spans are the `"ninja"`-component spans
/// whose name is in `phase_names`, whose `job`/`mig` labels match the
/// envelope's, and whose start lies inside the envelope; each matched
/// span is consumed so two migrations of the same job never share one.
/// Within a phase, the critical VM is the longest matching `"symvirt"`
/// span starting inside the phase window.
///
/// The spans are indexed once by `(component, name, job, mig)`, so each
/// match scans only its own bucket, in record order.
pub fn critical_paths(trace: &Trace, phase_names: &[&str]) -> Vec<MigrationPath> {
    type Key = (Option<u64>, Option<u64>);
    let spans: Vec<SpanRef<'_>> = trace.all_spans().collect();
    let mut buckets: HashMap<(&str, &str, Key), Vec<usize>> = HashMap::new();
    for (i, s) in spans.iter().enumerate() {
        if s.component() == "ninja" || s.component() == "symvirt" {
            let key = (s.component(), s.name(), span_key(s));
            buckets.entry(key).or_default().push(i);
        }
    }
    let bucket = |component, name, key| buckets.get(&(component, name, key)).map_or(&[][..], |b| b);
    let mut used = vec![false; spans.len()];
    let mut out = Vec::new();
    for (ei, env) in spans.iter().enumerate() {
        if env.component() != "ninja" || env.name() != "ninja" {
            continue;
        }
        let key = span_key(env);
        let (job, mig) = key;
        used[ei] = true;
        let mut phases = Vec::new();
        let mut attributed = SimDuration::ZERO;
        for &pn in phase_names {
            let found = bucket("ninja", pn, key).iter().copied().find(|&pi| {
                !used[pi] && spans[pi].start() >= env.start() && spans[pi].start() <= env.end()
            });
            let Some(pi) = found else {
                continue;
            };
            let p = &spans[pi];
            used[pi] = true;
            attributed += p.duration();
            // The phase's critical VM: longest symvirt span of the same
            // phase starting inside the window (start-containment keeps
            // the match robust to the export's microsecond truncation).
            let mut critical: Option<(&str, SimDuration)> = None;
            for &vi in bucket("symvirt", pn, key) {
                let vs = &spans[vi];
                if used[vi] || vs.start() < p.start() || vs.start() > p.end() {
                    continue;
                }
                let Some(vm) = vs.label("vm").and_then(LabelValue::as_str) else {
                    continue;
                };
                used[vi] = true;
                let d = vs.duration();
                let better = match critical {
                    None => true,
                    Some((cur_vm, cur_d)) => d > cur_d || (d == cur_d && vm < cur_vm),
                };
                if better {
                    critical = Some((vm, d));
                }
            }
            phases.push(PhaseAttribution {
                phase: pn.to_string(),
                duration: p.duration(),
                critical_vm: critical.map(|(vm, _)| vm.to_string()),
                critical_vm_duration: critical.map_or(SimDuration::ZERO, |(_, d)| d),
            });
        }
        let mut dominant: Option<&PhaseAttribution> = None;
        for p in &phases {
            // Strict `>` so ties break to the earlier phase.
            if dominant.map_or(true, |d| p.duration > d.duration) {
                dominant = Some(p);
            }
        }
        let dominant = dominant.map_or_else(String::new, |p| p.phase.clone());
        out.push(MigrationPath {
            job,
            mig,
            start: env.start(),
            end: env.end(),
            blackout: env.duration(),
            attributed,
            phases,
            dominant,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use LabelValue::Str;

    fn t(s: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(s)
    }

    #[test]
    fn emit_and_query() {
        let mut tr = Trace::new();
        tr.add_instant("vmm", "precopy.round", t(2), TraceLevel::Info)
            .label("detail", "round 1");
        tr.add_span("vmm", "migration", t(1), t(5))
            .label("vm", "vm0");
        assert_eq!(tr.instants().len(), 1);
        let i = tr.instants().next().unwrap();
        assert_eq!(
            (i.name(), i.start(), i.end()),
            ("precopy.round", t(2), t(2))
        );
        let labels: Vec<_> = i.labels().collect();
        assert_eq!(labels, [("level", Str("INFO")), ("detail", Str("round 1"))]);
        assert_eq!(tr.span("migration"), Some(SimDuration::from_secs(4)));
        assert_eq!(tr.all_spans().next().unwrap().label("vm"), Some(Str("vm0")));
    }

    #[test]
    fn span_envelope_requires_recorded_span() {
        let tr = Trace::new();
        assert_eq!(tr.span("phase"), None);
    }

    #[test]
    fn multiple_spans_sum() {
        let mut tr = Trace::new();
        tr.add_span("h", "hotplug", t(1), t(3));
        tr.add_span("h", "hotplug", t(10), t(11));
        assert_eq!(tr.spans("hotplug").len(), 2);
        // Envelope spans the outer interval.
        assert_eq!(tr.span("hotplug"), Some(SimDuration::from_secs(10)));
    }

    #[test]
    fn spans_of_filters_by_component() {
        let mut tr = Trace::new();
        tr.add_span("ninja", "detach", t(1), t(5));
        tr.add_span("symvirt", "detach", t(1), t(2))
            .label("vm", "a");
        assert_eq!(tr.spans_of("ninja", "detach").len(), 1);
        assert_eq!(tr.spans_of("symvirt", "detach").len(), 1);
        assert_eq!(tr.spans("detach").len(), 2);
    }

    #[test]
    fn disabled_trace_drops() {
        let mut tr = Trace::disabled();
        tr.add_instant("x", "y", t(1), TraceLevel::Info)
            .label("detail", "z");
        tr.add_span("a", "c", t(1), t(2)).label("vm", "x");
        assert_eq!(tr.instants().len(), 0);
        assert_eq!(tr.all_spans().len(), 0);
    }

    #[test]
    fn ring_cap_bounds_memory_and_counts_drops() {
        let mut tr = Trace::new();
        tr.set_capacity(Some(10));
        for i in 0..100 {
            tr.add_instant("x", "tick", t(i), TraceLevel::Info);
        }
        assert!(
            tr.instants().len() <= 20,
            "amortized bound: {}",
            tr.instants().len()
        );
        assert!(tr.dropped() > 0);
        // The newest instant always survives.
        assert_eq!(tr.instants().last().unwrap().start(), t(99));
        let before = tr.dropped();
        for i in 0..50 {
            tr.add_span("x", "s", t(i), t(i + 1));
        }
        assert!(tr.all_spans().len() <= 20);
        assert!(tr.dropped() > before);
    }

    #[test]
    fn ring_cap_keeps_the_newest_spans_with_their_labels() {
        // Model: one plain list per store, drained to `cap` once it
        // reaches 2 * cap; both stores count into one `dropped`.
        type Model = Vec<(u64, String)>;
        fn push(model: &mut Model, cap: usize, dropped: &mut u64, entry: (u64, String)) {
            model.push(entry);
            if model.len() >= 2 * cap {
                let excess = model.len() - cap;
                model.drain(..excess);
                *dropped += excess as u64;
            }
        }
        for cap in [1usize, 2, 3, 7] {
            let mut tr = Trace::new();
            tr.set_capacity(Some(cap));
            let (mut spans, mut instants): (Model, Model) = (Vec::new(), Vec::new());
            let mut dropped = 0;
            for i in 0..50u64 {
                let vm = "v".repeat(i as usize % 4);
                let span = tr.add_span("x", "s", t(i), t(i + 1)).label_u64("job", i);
                if i % 3 != 0 {
                    span.label("vm", &vm);
                }
                push(&mut spans, cap, &mut dropped, (i, vm.clone()));
                if i % 2 == 0 {
                    tr.add_instant("x", "i", t(i), TraceLevel::Warn)
                        .label("detail", &vm);
                    push(&mut instants, cap, &mut dropped, (i, vm));
                }
                assert_eq!(tr.dropped(), dropped, "cap {cap}, step {i}");
                assert_eq!(tr.all_spans().len(), spans.len());
                for (s, (j, vm)) in tr.all_spans().zip(&spans) {
                    assert_eq!(s.start(), t(*j));
                    assert_eq!(s.label("job"), Some(LabelValue::U64(*j)));
                    let want_vm = (j % 3 != 0).then_some(Str(vm));
                    assert_eq!(s.label("vm"), want_vm, "cap {cap}, span {j}");
                }
                assert_eq!(tr.instants().len(), instants.len());
                for (s, (j, vm)) in tr.instants().zip(&instants) {
                    assert_eq!((s.start(), s.end()), (t(*j), t(*j)));
                    let labels: Vec<_> = s.labels().collect();
                    assert_eq!(labels, [("level", Str("WARN")), ("detail", Str(vm))]);
                }
            }
            tr.set_capacity(Some(1));
            assert_eq!(tr.all_spans().len(), 1);
            assert_eq!(tr.all_spans().next().unwrap().label("job"), Some(Str("49")));
            assert_eq!(tr.instants().len(), 1);
            assert_eq!(tr.instants().next().unwrap().start(), t(48));
        }
    }

    #[test]
    fn shrinking_capacity_trims_immediately() {
        let mut tr = Trace::new();
        for i in 0..30 {
            tr.add_instant("x", "tick", t(i), TraceLevel::Info);
            tr.add_span("x", "s", t(i), t(i));
        }
        tr.set_capacity(Some(5));
        assert_eq!(tr.instants().len(), 5);
        assert_eq!(tr.all_spans().len(), 5);
        assert_eq!(tr.dropped(), 50);
    }

    #[test]
    fn chrome_json_has_complete_and_instant_events() {
        let mut tr = Trace::new();
        tr.add_instant("vmm", "precopy.round", t(2), TraceLevel::Info)
            .label("detail", "1");
        tr.add_span("vmm", "migration", t(1), t(5));
        let json = tr.to_chrome_json();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"X\""), "complete span: {json}");
        assert!(json.contains("\"dur\":4000000"), "4 s in us: {json}");
        assert!(json.contains("\"ph\":\"i\""), "instant event");
        assert!(json.contains("\"name\":\"migration\""));
    }

    #[test]
    fn chrome_json_escapes_quotes() {
        let mut tr = Trace::new();
        tr.add_instant("x", "say \"hi\"", t(1), TraceLevel::Info)
            .label("detail", "");
        let json = tr.to_chrome_json();
        assert!(json.contains("say \\\"hi\\\""));
    }

    #[test]
    fn chrome_json_parses_and_labels_become_args() {
        let mut tr = Trace::new();
        tr.add_span("symvirt", "detach", t(1), t(2))
            .label("vm", "j0v0");
        let doc = crate::export::parse(&tr.to_chrome_json()).unwrap();
        let ev = &doc["traceEvents"][0];
        assert_eq!(ev["ph"].as_str(), Some("X"));
        assert_eq!(ev["args"]["vm"].as_str(), Some("j0v0"));
    }

    /// Builds the span tree of one migration: envelope, tiled phases,
    /// and a per-VM span per phase for `vms` VMs.
    fn record_migration(tr: &mut Trace, job: u64, mig: u64, start: u64, phase_secs: [u64; 3]) {
        let names = ["detach", "migration", "attach"];
        let mut cur = start;
        for (name, secs) in names.iter().zip(phase_secs) {
            tr.add_span("ninja", *name, t(cur), t(cur + secs))
                .label_u64("job", job)
                .label_u64("mig", mig);
            for vm in 0..2u64 {
                // VM 1 finishes early, so VM 0 is always critical.
                let end = cur + secs - vm.min(secs.saturating_sub(1));
                tr.add_span("symvirt", *name, t(cur), t(end))
                    .label("vm", &format!("j{job}v{vm}"))
                    .label_u64("job", job)
                    .label_u64("mig", mig);
            }
            cur += secs;
        }
        tr.add_span("ninja", "ninja", t(start), t(cur))
            .label_u64("job", job)
            .label_u64("mig", mig);
    }

    #[test]
    fn critical_paths_attribute_blackout_to_phases() {
        let mut tr = Trace::new();
        record_migration(&mut tr, 0, 0, 10, [2, 30, 4]);
        record_migration(&mut tr, 1, 0, 20, [2, 5, 40]);
        let paths = tr.critical_paths(&["detach", "migration", "attach"]);
        assert_eq!(paths.len(), 2);
        let p0 = &paths[0];
        assert_eq!((p0.job, p0.mig), (Some(0), Some(0)));
        assert_eq!(p0.blackout, SimDuration::from_secs(36));
        assert_eq!(p0.attributed, SimDuration::from_secs(36));
        assert!(p0.coverage() >= 0.99);
        assert_eq!(p0.dominant, "migration");
        assert_eq!(p0.phases.len(), 3);
        assert_eq!(p0.phases[1].duration, SimDuration::from_secs(30));
        assert_eq!(p0.phases[1].critical_vm.as_deref(), Some("j0v0"));
        assert_eq!(paths[1].dominant, "attach");
        assert_eq!(paths[1].phases[2].critical_vm.as_deref(), Some("j1v0"));
    }

    #[test]
    fn critical_paths_survive_a_chrome_round_trip() {
        let mut tr = Trace::new();
        record_migration(&mut tr, 0, 0, 5, [1, 20, 3]);
        record_migration(&mut tr, 0, 1, 40, [1, 8, 2]);
        let doc = crate::export::parse(&tr.to_chrome_json()).unwrap();
        let spans = spans_from_chrome(&doc);
        assert_eq!(spans.all_spans().len(), tr.all_spans().len());
        let paths = critical_paths(&spans, &["detach", "migration", "attach"]);
        assert_eq!(paths.len(), 2);
        // Same job, two migrations: record order + span consumption
        // keeps each envelope matched to its own phases.
        assert_eq!((paths[0].job, paths[0].mig), (Some(0), Some(0)));
        assert_eq!((paths[1].job, paths[1].mig), (Some(0), Some(1)));
        assert_eq!(paths[0].blackout, SimDuration::from_secs(24));
        assert_eq!(paths[1].blackout, SimDuration::from_secs(11));
        for p in &paths {
            assert!(p.coverage() >= 0.99, "coverage {}", p.coverage());
        }
    }

    #[test]
    fn critical_paths_on_span_free_trace_is_empty() {
        let mut tr = Trace::new();
        tr.add_instant("x", "tick", t(1), TraceLevel::Info);
        assert!(tr.critical_paths(&["detach"]).is_empty());
        assert_eq!(
            spans_from_chrome(&crate::export::parse("{}").unwrap())
                .all_spans()
                .len(),
            0
        );
    }

    #[test]
    fn render_contains_fields() {
        let mut tr = Trace::new();
        tr.add_instant("net.ib", "link.polling", t(1), TraceLevel::Warn)
            .label("detail", "port 1");
        tr.add_span("net.ib", "linkup", t(2), t(30));
        let s = tr.render();
        assert!(s.contains("WARN"));
        assert!(s.contains("net.ib"));
        assert!(s.contains("link.polling"));
        assert!(s.contains("SPAN"));
        assert!(s.contains("linkup"));
    }
}
