//! Structured event tracing.
//!
//! Components append [`TraceRecord`]s (point events) and typed spans
//! (named intervals, see [`crate::span`]) to a shared
//! [`Trace`] as the simulation runs. The benchmark regenerators read
//! the phase spans to compute the paper's overhead breakdowns, the
//! test suite asserts on causal ordering, and the exporters render
//! Chrome trace-event JSON (Perfetto-loadable) and a JSONL event
//! stream.
//!
//! Memory is bounded by an optional ring-buffer cap
//! ([`Trace::set_capacity`]); week-long drill scenarios set a cap and
//! keep the newest entries, with evictions counted in
//! [`Trace::dropped`].

use crate::export::{push_escaped, push_u64, render, write_escaped, Json, CHUNK};
use crate::span::{Span, SpanLabels, SpanRef, SpanStore};
use crate::time::{SimDuration, SimTime};
use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt::{self, Write};

/// Severity/kind of a trace record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceLevel {
    /// Phase boundary markers used for overhead accounting.
    Phase,
    /// Normal operational records.
    Info,
    /// Unexpected but tolerated conditions.
    Warn,
    /// Hard failures (also surfaced as `Err` to callers).
    Error,
}

impl TraceLevel {
    /// The level's upper-case name, as exported.
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            TraceLevel::Phase => "PHASE",
            TraceLevel::Info => "INFO",
            TraceLevel::Warn => "WARN",
            TraceLevel::Error => "ERROR",
        }
    }
}

impl fmt::Display for TraceLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One point-in-time trace record. Component and kind follow the same
/// string policy as [`Span`]: static names cost no allocation.
#[derive(Debug, Clone)]
pub struct TraceRecord {
    /// The at.
    pub at: SimTime,
    /// The level.
    pub level: TraceLevel,
    /// Dotted component path, e.g. `vmm.migration` or `mpi.btl`.
    pub component: Cow<'static, str>,
    /// Event kind, e.g. `precopy.round`, `boot.ib`.
    pub kind: Cow<'static, str>,
    /// Free-form details.
    pub detail: String,
}

impl fmt::Display for TraceRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{:>14}] {:5} {} {} {}",
            self.at.to_string(),
            self.level,
            self.component,
            self.kind,
            self.detail
        )
    }
}

/// An append-only trace of simulation activity: point records plus
/// completed spans.
#[derive(Debug, Default)]
pub struct Trace {
    records: Vec<TraceRecord>,
    spans: SpanStore,
    enabled: bool,
    /// Per-store ring cap (`None` = unbounded).
    capacity: Option<usize>,
    dropped: u64,
}

impl Trace {
    /// A trace that records everything, unbounded.
    pub fn new() -> Self {
        Trace {
            records: Vec::new(),
            spans: SpanStore::default(),
            enabled: true,
            capacity: None,
            dropped: 0,
        }
    }

    /// A trace that drops everything (for long property-test runs).
    pub fn disabled() -> Self {
        Trace {
            enabled: false,
            ..Trace::new()
        }
    }

    /// Whether this is enabled.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Caps the record and span stores at `cap` entries each; the
    /// oldest entries are evicted (and counted in [`Trace::dropped`])
    /// once a store exceeds its cap. `None` restores unbounded growth.
    /// Eviction is amortized: a store briefly holds up to `2 * cap`
    /// entries before the oldest half-window is drained.
    pub fn set_capacity(&mut self, cap: Option<usize>) {
        self.capacity = cap.map(|c| c.max(1));
        let cap = self.capacity;
        if let Some(c) = cap {
            if self.records.len() > c {
                let excess = self.records.len() - c;
                self.records.drain(..excess);
                self.dropped += excess as u64;
            }
            if self.spans.len() > c {
                let excess = self.spans.len() - c;
                self.spans.evict_oldest(excess);
                self.dropped += excess as u64;
            }
        }
    }

    /// The configured ring cap, if any.
    pub fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    /// Number of entries evicted by the ring cap since construction.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    fn enforce_record_cap(&mut self) {
        if let Some(cap) = self.capacity {
            // Amortized O(1): drain half a window at a time.
            if self.records.len() >= cap.saturating_mul(2) {
                let excess = self.records.len() - cap;
                self.records.drain(..excess);
                self.dropped += excess as u64;
            }
        }
    }

    /// Makes room for one more span: once the store would reach twice
    /// the cap, the oldest spans are evicted down to `cap - 1`, so the
    /// new span brings it back to `cap`.
    fn enforce_span_cap(&mut self) {
        if let Some(cap) = self.capacity {
            let len = self.spans.len() + 1;
            if len >= cap.saturating_mul(2) {
                let excess = len - cap;
                self.spans.evict_oldest(excess);
                self.dropped += excess as u64;
            }
        }
    }

    /// Append a record.
    pub fn emit(
        &mut self,
        at: SimTime,
        level: TraceLevel,
        component: impl Into<Cow<'static, str>>,
        kind: impl Into<Cow<'static, str>>,
        detail: impl Into<String>,
    ) {
        if !self.enabled {
            return;
        }
        self.records.push(TraceRecord {
            at,
            level,
            component: component.into(),
            kind: kind.into(),
            detail: detail.into(),
        });
        self.enforce_record_cap();
    }

    /// Convenience: phase marker.
    pub fn phase(
        &mut self,
        at: SimTime,
        component: &'static str,
        kind: &'static str,
        detail: impl Into<String>,
    ) {
        self.emit(at, TraceLevel::Phase, component, kind, detail);
    }

    /// Convenience: informational record.
    pub fn info(
        &mut self,
        at: SimTime,
        component: &'static str,
        kind: &'static str,
        detail: impl Into<String>,
    ) {
        self.emit(at, TraceLevel::Info, component, kind, detail);
    }

    /// Convenience: warning record.
    pub fn warn(
        &mut self,
        at: SimTime,
        component: &'static str,
        kind: &'static str,
        detail: impl Into<String>,
    ) {
        self.emit(at, TraceLevel::Warn, component, kind, detail);
    }

    /// Convenience: error record.
    pub fn error(
        &mut self,
        at: SimTime,
        component: &'static str,
        kind: &'static str,
        detail: impl Into<String>,
    ) {
        self.emit(at, TraceLevel::Error, component, kind, detail);
    }

    /// Records a completed span from `start` to `end` (clamped to a
    /// zero-length span if `end < start`) and returns a handle that
    /// attaches its labels. This is the hot path: it allocates only when
    /// the trace's arrays grow.
    pub fn add_span(
        &mut self,
        component: &'static str,
        name: &'static str,
        start: SimTime,
        end: SimTime,
    ) -> SpanLabels<'_> {
        if !self.enabled {
            return SpanLabels::new(None);
        }
        self.enforce_span_cap();
        self.spans
            .push(Cow::Borrowed(component), Cow::Borrowed(name), start, end);
        SpanLabels::new(Some(&mut self.spans))
    }

    /// Records an owned span (copying it into the trace's arrays).
    pub fn record_span(&mut self, span: Span) {
        if !self.enabled {
            return;
        }
        self.enforce_span_cap();
        self.spans.push_span(span);
    }

    /// Returns the point records.
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// The completed spans, in completion order.
    pub fn all_spans(&self) -> impl ExactSizeIterator<Item = SpanRef<'_>> + DoubleEndedIterator {
        self.spans.iter()
    }

    /// Number of point records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether there are no point records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// All records of a given kind (exact match).
    pub fn of_kind<'a>(&'a self, kind: &'a str) -> impl Iterator<Item = &'a TraceRecord> + 'a {
        self.records.iter().filter(move |r| r.kind == kind)
    }

    /// All records whose kind starts with the given prefix.
    pub fn with_prefix<'a>(
        &'a self,
        prefix: &'a str,
    ) -> impl Iterator<Item = &'a TraceRecord> + 'a {
        self.records
            .iter()
            .filter(move |r| r.kind.starts_with(prefix))
    }

    /// First record of the kind, if any.
    pub fn first_of(&self, kind: &str) -> Option<&TraceRecord> {
        self.records.iter().find(|r| r.kind == kind)
    }

    /// Last record of the kind, if any.
    pub fn last_of(&self, kind: &str) -> Option<&TraceRecord> {
        self.records.iter().rev().find(|r| r.kind == kind)
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

    /// Total duration covered by all spans named `name`.
    pub fn total_span(&self, name: &str) -> SimDuration {
        self.spans
            .iter()
            .filter(|s| s.name() == name)
            .map(|s| s.duration())
            .sum()
    }

    /// True if any error-level records were emitted.
    pub fn has_errors(&self) -> bool {
        self.records.iter().any(|r| r.level == TraceLevel::Error)
    }

    /// Export as Chrome trace-event JSON (load in `chrome://tracing`
    /// or <https://ui.perfetto.dev>).
    pub fn to_chrome_json(&self) -> String {
        let events = self.spans.len() + self.records.len();
        render(events * 192 + 32, |out| self.write_chrome_json(out))
    }

    /// Streams the Chrome trace-event document into `out`. Spans become
    /// complete ("X") events with their labels as `args`; point records
    /// become instant ("i") events. All spans come first, in completion
    /// order, then all records in emission order; nothing is sorted.
    /// Timestamps are microseconds of simulated time; each component
    /// renders as its own track (`tid`).
    ///
    /// Events are rendered into a local chunk without `fmt` (integers
    /// through [`push_u64`], strings through [`push_escaped`]) and handed
    /// to `out` about [`CHUNK`] bytes at a time.
    pub fn write_chrome_json<W: Write + ?Sized>(&self, out: &mut W) -> fmt::Result {
        let mut buf = String::with_capacity(CHUNK + 1024);
        buf.push_str("{\"traceEvents\":[");
        let mut sep = "";
        for s in self.spans.iter() {
            buf.push_str(sep);
            sep = ",";
            buf.push_str("{\"name\":");
            push_escaped(&mut buf, s.name());
            buf.push_str(",\"cat\":");
            push_escaped(&mut buf, s.component());
            buf.push_str(",\"ph\":\"X\",\"ts\":");
            push_u64(&mut buf, s.start().as_nanos() / 1_000);
            buf.push_str(",\"dur\":");
            push_u64(&mut buf, s.duration().as_nanos() / 1_000);
            buf.push_str(",\"pid\":1,\"tid\":");
            push_escaped(&mut buf, s.component());
            let mut open = ",\"args\":{";
            for (k, v) in s.labels() {
                buf.push_str(open);
                open = ",";
                push_escaped(&mut buf, k);
                buf.push(':');
                push_escaped(&mut buf, v);
            }
            if s.labels().len() > 0 {
                buf.push('}');
            }
            buf.push('}');
            if buf.len() >= CHUNK {
                out.write_str(&buf)?;
                buf.clear();
            }
        }
        for r in &self.records {
            buf.push_str(sep);
            sep = ",";
            buf.push_str("{\"name\":");
            push_escaped(&mut buf, &r.kind);
            buf.push_str(",\"cat\":");
            push_escaped(&mut buf, &r.component);
            buf.push_str(",\"ph\":\"i\",\"ts\":");
            push_u64(&mut buf, r.at.as_nanos() / 1_000);
            buf.push_str(",\"pid\":1,\"tid\":");
            push_escaped(&mut buf, &r.component);
            buf.push_str(",\"s\":\"t\",\"args\":{\"level\":\"");
            buf.push_str(r.level.as_str());
            buf.push_str("\",\"detail\":");
            push_escaped(&mut buf, &r.detail);
            buf.push_str("}}");
            if buf.len() >= CHUNK {
                out.write_str(&buf)?;
                buf.clear();
            }
        }
        buf.push_str("]}");
        out.write_str(&buf)
    }

    /// Export as a JSONL event stream.
    pub fn to_jsonl(&self) -> String {
        let events = self.spans.len() + self.records.len();
        render(events * 192, |out| self.write_jsonl(out))
    }

    /// Streams the JSONL event stream into `out`: one JSON object per
    /// line, spans and records interleaved in time order (a stable
    /// sort: at one instant, spans before records).
    pub fn write_jsonl<W: Write + ?Sized>(&self, out: &mut W) -> fmt::Result {
        let mut items: Vec<(SimTime, Result<SpanRef<'_>, &TraceRecord>)> = self
            .spans
            .iter()
            .map(|s| (s.start(), Ok(s)))
            .chain(self.records.iter().map(|r| (r.at, Err(r))))
            .collect();
        items.sort_by_key(|&(at, _)| at);
        for (_, item) in items {
            match item {
                Ok(s) => s.write_json(out)?,
                Err(r) => {
                    write!(
                        out,
                        "{{\"type\":\"event\",\"at_ns\":{},\"level\":\"{}\",\"component\":",
                        r.at.as_nanos(),
                        r.level
                    )?;
                    write_escaped(&r.component, out)?;
                    out.write_str(",\"kind\":")?;
                    write_escaped(&r.kind, out)?;
                    out.write_str(",\"detail\":")?;
                    write_escaped(&r.detail, out)?;
                    out.write_char('}')?;
                }
            }
            out.write_char('\n')?;
        }
        Ok(())
    }

    /// Reconstruct per-migration critical paths from this trace's
    /// spans. See [`critical_paths`] for the reconstruction rules.
    pub fn critical_paths(&self, phase_names: &[&str]) -> Vec<MigrationPath> {
        critical_paths(self, phase_names)
    }

    /// Render the whole trace as text (debugging aid).
    pub fn render(&self) -> String {
        let mut s = String::new();
        for r in &self.records {
            s.push_str(&r.to_string());
            s.push('\n');
        }
        for sp in self.spans.iter() {
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
    /// Seconds of the migration's blackout this phase accounts for.
    pub seconds: f64,
    /// The VM whose per-VM span of this phase ran longest (ties break
    /// to the lexicographically smallest VM name); `None` when the
    /// trace carries no per-VM spans for the phase.
    pub critical_vm: Option<String>,
    /// Duration of the critical VM's span, in seconds.
    pub critical_vm_seconds: f64,
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
    pub blackout_s: f64,
    /// Seconds of the blackout covered by matched phase spans; the
    /// attribution is healthy when this is ≥ 99% of `blackout_s`.
    pub attributed_s: f64,
    /// Per-phase attribution, in the caller's phase order.
    pub phases: Vec<PhaseAttribution>,
    /// Name of the phase with the largest share (ties break to the
    /// earlier phase in the caller's order); empty if nothing matched.
    pub dominant: String,
}

impl MigrationPath {
    /// Fraction of the blackout attributed to named phases, in [0, 1].
    pub fn coverage(&self) -> f64 {
        if self.blackout_s <= 0.0 {
            return 1.0;
        }
        self.attributed_s / self.blackout_s
    }
}

fn span_key(s: &SpanRef<'_>) -> (Option<u64>, Option<u64>) {
    let get = |k: &str| s.label(k).and_then(|v| v.parse().ok());
    (get("job"), get("mig"))
}

/// Rebuild a [`Trace`]'s spans from a Chrome trace-event document (the
/// format [`Trace::to_chrome_json`] writes). Only complete (`"ph":
/// "X"`) events become spans; string `args` become labels. Timestamps
/// are microseconds of simulated time, so reconstructed spans are exact
/// up to the export's microsecond truncation. The result is uncapped and
/// holds no point records.
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
        let start = SimTime::ZERO + SimDuration::from_micros(ts);
        let mut labels = Vec::new();
        if let Json::Obj(args) = &ev["args"] {
            for (k, v) in args {
                if let Some(s) = v.as_str() {
                    labels.push((Cow::Owned(k.clone()), s.to_string()));
                }
            }
        }
        out.record_span(Span {
            component: Cow::Owned(ev["cat"].as_str().unwrap_or("").to_string()),
            name: Cow::Owned(name.to_string()),
            start,
            end: start + SimDuration::from_micros(dur),
            labels,
        });
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
        let mut attributed = 0.0;
        for &pn in phase_names {
            let found = bucket("ninja", pn, key).iter().copied().find(|&pi| {
                !used[pi] && spans[pi].start() >= env.start() && spans[pi].start() <= env.end()
            });
            let Some(pi) = found else {
                continue;
            };
            let p = &spans[pi];
            used[pi] = true;
            let seconds = p.duration().as_secs_f64();
            attributed += seconds;
            // The phase's critical VM: longest symvirt span of the same
            // phase starting inside the window (start-containment keeps
            // the match robust to the export's microsecond truncation).
            let mut critical: Option<(&str, f64)> = None;
            for &vi in bucket("symvirt", pn, key) {
                let vs = &spans[vi];
                if used[vi] || vs.start() < p.start() || vs.start() > p.end() {
                    continue;
                }
                let Some(vm) = vs.label("vm") else { continue };
                used[vi] = true;
                let d = vs.duration().as_secs_f64();
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
                seconds,
                critical_vm: critical.map(|(vm, _)| vm.to_string()),
                critical_vm_seconds: critical.map_or(0.0, |(_, d)| d),
            });
        }
        let mut dominant = String::new();
        let mut best = f64::NEG_INFINITY;
        for p in &phases {
            // Strict `>` so ties break to the earlier phase.
            if p.seconds > best {
                best = p.seconds;
                dominant = p.phase.clone();
            }
        }
        out.push(MigrationPath {
            job,
            mig,
            start: env.start(),
            end: env.end(),
            blackout_s: env.duration().as_secs_f64(),
            attributed_s: attributed,
            phases,
            dominant,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::SpanBuilder;

    fn t(s: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(s)
    }

    #[test]
    fn emit_and_query() {
        let mut tr = Trace::new();
        let sp = SpanBuilder::new("vmm", "migration", t(1)).label("vm", "vm0");
        tr.info(t(2), "vmm", "precopy.round", "round 1");
        tr.record_span(sp.end(t(5)));
        assert_eq!(tr.len(), 1);
        assert_eq!(tr.of_kind("precopy.round").count(), 1);
        assert_eq!(tr.span("migration"), Some(SimDuration::from_secs(4)));
        assert_eq!(tr.all_spans().next().unwrap().label("vm"), Some("vm0"));
    }

    #[test]
    fn span_envelope_requires_recorded_span() {
        let tr = Trace::new();
        assert_eq!(tr.span("phase"), None);
    }

    #[test]
    fn multiple_spans_sum() {
        let mut tr = Trace::new();
        tr.record_span(SpanBuilder::new("h", "hotplug", t(1)).end(t(3)));
        tr.record_span(SpanBuilder::new("h", "hotplug", t(10)).end(t(11)));
        assert_eq!(tr.spans("hotplug").len(), 2);
        assert_eq!(tr.total_span("hotplug"), SimDuration::from_secs(3));
        // Envelope spans the outer interval.
        assert_eq!(tr.span("hotplug"), Some(SimDuration::from_secs(10)));
    }

    #[test]
    fn spans_of_filters_by_component() {
        let mut tr = Trace::new();
        tr.record_span(SpanBuilder::new("ninja", "detach", t(1)).end(t(5)));
        tr.record_span(
            SpanBuilder::new("symvirt", "detach", t(1))
                .label("vm", "a")
                .end(t(2)),
        );
        assert_eq!(tr.spans_of("ninja", "detach").len(), 1);
        assert_eq!(tr.spans_of("symvirt", "detach").len(), 1);
        assert_eq!(tr.spans("detach").len(), 2);
    }

    #[test]
    fn disabled_trace_drops() {
        let mut tr = Trace::disabled();
        tr.info(t(1), "x", "y", "z");
        tr.record_span(SpanBuilder::new("a", "b", t(1)).end(t(2)));
        tr.add_span("a", "c", t(1), t(2)).label("vm", "x");
        assert!(tr.is_empty());
        assert_eq!(tr.all_spans().len(), 0);
    }

    #[test]
    fn error_detection() {
        let mut tr = Trace::new();
        tr.info(t(1), "a", "b", "");
        assert!(!tr.has_errors());
        tr.error(t(2), "a", "fail", "boom");
        assert!(tr.has_errors());
    }

    #[test]
    fn prefix_filter() {
        let mut tr = Trace::new();
        tr.info(t(1), "m", "btl.select", "");
        tr.info(t(2), "m", "btl.teardown", "");
        tr.info(t(3), "m", "crcp.quiesce", "");
        assert_eq!(tr.with_prefix("btl.").count(), 2);
    }

    #[test]
    fn ring_cap_bounds_memory_and_counts_drops() {
        let mut tr = Trace::new();
        tr.set_capacity(Some(10));
        for i in 0..100 {
            tr.info(t(i), "x", "tick", "");
        }
        assert!(tr.len() <= 20, "amortized bound: {}", tr.len());
        assert!(tr.dropped() > 0);
        // The newest record always survives.
        assert_eq!(tr.records().last().unwrap().at, t(99));
        let before = tr.dropped();
        for i in 0..50 {
            tr.record_span(SpanBuilder::new("x", "s", t(i)).end(t(i + 1)));
        }
        assert!(tr.all_spans().len() <= 20);
        assert!(tr.dropped() > before);
    }

    #[test]
    fn ring_cap_keeps_the_newest_spans_with_their_labels() {
        // Model: a plain list, drained to `cap` once it reaches 2 * cap.
        for cap in [1usize, 2, 3, 7] {
            let mut tr = Trace::new();
            tr.set_capacity(Some(cap));
            let mut model: Vec<(u64, String)> = Vec::new();
            let mut dropped = 0;
            for i in 0..50u64 {
                let vm = "v".repeat(i as usize % 4);
                let span = tr.add_span("x", "s", t(i), t(i + 1)).label_u64("job", i);
                if i % 3 != 0 {
                    span.label("vm", &vm);
                }
                model.push((i, vm));
                if model.len() >= 2 * cap {
                    let excess = model.len() - cap;
                    model.drain(..excess);
                    dropped += excess as u64;
                }
                assert_eq!(tr.dropped(), dropped, "cap {cap}, span {i}");
                assert_eq!(tr.all_spans().len(), model.len());
                for (s, (j, vm)) in tr.all_spans().zip(&model) {
                    assert_eq!(s.start(), t(*j));
                    assert_eq!(s.label("job"), Some(j.to_string().as_str()));
                    let want_vm = (j % 3 != 0).then_some(vm.as_str());
                    assert_eq!(s.label("vm"), want_vm, "cap {cap}, span {j}");
                }
            }
            tr.set_capacity(Some(1));
            assert_eq!(tr.all_spans().len(), 1);
            assert_eq!(tr.all_spans().next().unwrap().label("job"), Some("49"));
        }
    }

    #[test]
    fn shrinking_capacity_trims_immediately() {
        let mut tr = Trace::new();
        for i in 0..30 {
            tr.info(t(i), "x", "tick", "");
        }
        tr.set_capacity(Some(5));
        assert_eq!(tr.len(), 5);
        assert_eq!(tr.dropped(), 25);
    }

    #[test]
    fn chrome_json_has_complete_and_instant_events() {
        let mut tr = Trace::new();
        let sp = SpanBuilder::new("vmm", "migration", t(1));
        tr.info(t(2), "vmm", "precopy.round", "1");
        tr.record_span(sp.end(t(5)));
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
        tr.info(t(1), "x", "say \"hi\"", "");
        let json = tr.to_chrome_json();
        assert!(json.contains("say \\\"hi\\\""));
    }

    #[test]
    fn chrome_json_parses_and_labels_become_args() {
        let mut tr = Trace::new();
        tr.record_span(
            SpanBuilder::new("symvirt", "detach", t(1))
                .label("vm", "j0v0")
                .end(t(2)),
        );
        let doc = crate::export::parse(&tr.to_chrome_json()).unwrap();
        let ev = &doc["traceEvents"][0];
        assert_eq!(ev["ph"].as_str(), Some("X"));
        assert_eq!(ev["args"]["vm"].as_str(), Some("j0v0"));
    }

    #[test]
    fn jsonl_interleaves_in_time_order() {
        let mut tr = Trace::new();
        tr.info(t(5), "x", "late", "");
        tr.record_span(SpanBuilder::new("x", "early", t(1)).end(t(2)));
        let jsonl = tr.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"early\""));
        assert!(lines[1].contains("\"late\""));
        for line in lines {
            crate::export::parse(line).expect("each line is a JSON document");
        }
    }

    /// Builds the span tree of one migration: envelope, tiled phases,
    /// and a per-VM span per phase for `vms` VMs.
    fn record_migration(tr: &mut Trace, job: u64, mig: u64, start: u64, phase_secs: [u64; 3]) {
        let names = ["detach", "migration", "attach"];
        let mut cur = start;
        for (name, secs) in names.iter().zip(phase_secs) {
            let sb = SpanBuilder::new("ninja", *name, t(cur))
                .label("job", job.to_string())
                .label("mig", mig.to_string());
            tr.record_span(sb.end(t(cur + secs)));
            for vm in 0..2u64 {
                // VM 1 finishes early, so VM 0 is always critical.
                let end = cur + secs - vm.min(secs.saturating_sub(1));
                tr.record_span(
                    SpanBuilder::new("symvirt", *name, t(cur))
                        .label("vm", format!("j{job}v{vm}"))
                        .label("job", job.to_string())
                        .label("mig", mig.to_string())
                        .end(t(end)),
                );
            }
            cur += secs;
        }
        tr.record_span(
            SpanBuilder::new("ninja", "ninja", t(start))
                .label("job", job.to_string())
                .label("mig", mig.to_string())
                .end(t(cur)),
        );
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
        assert_eq!(p0.blackout_s, 36.0);
        assert_eq!(p0.attributed_s, 36.0);
        assert!(p0.coverage() >= 0.99);
        assert_eq!(p0.dominant, "migration");
        assert_eq!(p0.phases.len(), 3);
        assert_eq!(p0.phases[1].seconds, 30.0);
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
        assert_eq!(paths[0].blackout_s, 24.0);
        assert_eq!(paths[1].blackout_s, 11.0);
        for p in &paths {
            assert!(p.coverage() >= 0.99, "coverage {}", p.coverage());
        }
    }

    #[test]
    fn critical_paths_on_span_free_trace_is_empty() {
        let mut tr = Trace::new();
        tr.info(t(1), "x", "tick", "");
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
        tr.warn(t(1), "net.ib", "link.polling", "port 1");
        tr.record_span(SpanBuilder::new("net.ib", "linkup", t(2)).end(t(30)));
        let s = tr.render();
        assert!(s.contains("WARN"));
        assert!(s.contains("net.ib"));
        assert!(s.contains("link.polling"));
        assert!(s.contains("SPAN"));
        assert!(s.contains("linkup"));
    }
}
