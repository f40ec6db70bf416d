//! Typed spans: named intervals of simulated time.
//!
//! A [`Span`] replaces the old `"<name>.start"` / `"<name>.end"`
//! string-marker protocol: producers open a [`SpanBuilder`], attach
//! labels, and close it into the [`Trace`](crate::Trace) when the
//! interval ends. Pairing happens at construction time, so a recorded
//! span is complete by definition (`end >= start`) and exporters never
//! re-derive intervals from marker strings.
//!
//! Naming conventions (see `docs/observability.md`):
//!
//! * `component` is the subsystem that owns the interval, e.g.
//!   `"ninja"` (orchestrator phases), `"symvirt"`, `"vmm"`, `"mpi"`,
//!   `"net"`.
//! * `name` is the interval kind, e.g. `"detach"`, `"migration"`.
//! * per-object instances carry labels (`vm`, `transport`, ...)
//!   rather than mangled names.
//!
//! Component, name and label keys are `Cow<'static, str>`: the static
//! names producers use cost no allocation, while spans rebuilt from an
//! exported file ([`spans_from_chrome`](crate::spans_from_chrome)) own
//! their strings.

use crate::export::{write_escaped, write_f64, write_str_object};
use crate::time::{SimDuration, SimTime};
use std::borrow::Cow;
use std::fmt::{self, Write};

/// A completed, labeled interval of simulated time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Subsystem that produced the span (`ninja`, `symvirt`, ...).
    pub component: Cow<'static, str>,
    /// Interval kind (`coordination`, `detach`, `migration`, ...).
    pub name: Cow<'static, str>,
    /// Interval start.
    pub start: SimTime,
    /// Interval end; always `>= start`.
    pub end: SimTime,
    /// Key/value annotations (e.g. `("vm", "j0v1")`).
    pub labels: Vec<(Cow<'static, str>, String)>,
}

impl Span {
    /// The covered duration.
    pub fn duration(&self) -> SimDuration {
        self.end.since(self.start)
    }

    /// Looks up a label value.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Writes the span as one compact JSON object (the JSONL exporter's
    /// span line): `type`, `component`, `name`, `start_ns`, `end_ns`,
    /// `duration_s`, and `labels` when there are any.
    pub fn write_json<W: Write + ?Sized>(&self, out: &mut W) -> fmt::Result {
        out.write_str("{\"type\":\"span\",\"component\":")?;
        write_escaped(&self.component, out)?;
        out.write_str(",\"name\":")?;
        write_escaped(&self.name, out)?;
        let (start, end) = (self.start.as_nanos(), self.end.as_nanos());
        write!(
            out,
            ",\"start_ns\":{start},\"end_ns\":{end},\"duration_s\":"
        )?;
        write_f64(self.duration().as_secs_f64(), out)?;
        if !self.labels.is_empty() {
            out.write_str(",\"labels\":")?;
            write_str_object(&self.labels, out)?;
        }
        out.write_char('}')
    }
}

/// An open span under construction.
///
/// Spans are value-based rather than borrow-guards: simulation state
/// (including the trace) is threaded mutably through phase code, so
/// the builder holds no reference and is closed explicitly with
/// [`SpanBuilder::end`] and recorded with
/// [`Trace::record_span`](crate::Trace::record_span). The `#[must_use]`
/// marker gives RAII-like protection against forgetting to close one.
#[derive(Debug, Clone)]
#[must_use = "open spans must be closed with .end(at)"]
pub struct SpanBuilder {
    component: Cow<'static, str>,
    name: Cow<'static, str>,
    start: SimTime,
    labels: Vec<(Cow<'static, str>, String)>,
}

impl SpanBuilder {
    /// Opens a span at `start`.
    pub fn new(
        component: impl Into<Cow<'static, str>>,
        name: impl Into<Cow<'static, str>>,
        start: SimTime,
    ) -> Self {
        SpanBuilder {
            component: component.into(),
            name: name.into(),
            start,
            labels: Vec::new(),
        }
    }

    /// Attaches a label.
    pub fn label(mut self, key: impl Into<Cow<'static, str>>, value: impl Into<String>) -> Self {
        self.labels.push((key.into(), value.into()));
        self
    }

    /// The span name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The start time.
    pub fn start(&self) -> SimTime {
        self.start
    }

    /// Closes the span. An `at` earlier than `start` is clamped to a
    /// zero-length span (simulated clocks never run backwards, but
    /// saturating keeps the invariant unconditional).
    pub fn end(self, at: SimTime) -> Span {
        Span {
            end: at.max(self.start),
            component: self.component,
            name: self.name,
            start: self.start,
            labels: self.labels,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(s)
    }

    #[test]
    fn builder_produces_well_formed_span() {
        let span = SpanBuilder::new("vmm", "migration", t(3))
            .label("vm", "vm0")
            .end(t(7));
        assert_eq!(span.component, "vmm");
        assert_eq!(span.name, "migration");
        assert_eq!(span.duration(), SimDuration::from_secs(4));
        assert_eq!(span.label("vm"), Some("vm0"));
        assert_eq!(span.label("missing"), None);
    }

    #[test]
    fn end_before_start_clamps() {
        let span = SpanBuilder::new("x", "y", t(5)).end(t(2));
        assert_eq!(span.start, span.end);
        assert_eq!(span.duration(), SimDuration::ZERO);
    }

    #[test]
    fn json_shape() {
        let span = SpanBuilder::new("net", "linkup", t(1))
            .label("vm", "a")
            .end(t(31));
        let j =
            crate::export::parse(&crate::export::render(0, |out| span.write_json(out))).unwrap();
        assert_eq!(j["type"].as_str(), Some("span"));
        assert_eq!(j["labels"]["vm"].as_str(), Some("a"));
        assert_eq!(j["duration_s"].as_f64(), Some(30.0));
    }
}
