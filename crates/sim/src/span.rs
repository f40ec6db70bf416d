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
//! A [`Trace`](crate::Trace) does not keep `Span` values. It stores
//! spans in three flat arrays (a `SpanStore`): fixed-size span heads,
//! label keys with the end offset of their value, and one shared
//! label-text `String` that integer values and names are written
//! straight into. Recording a span through
//! [`Trace::add_span`](crate::Trace::add_span) therefore allocates only
//! when one of the arrays grows. Readers get borrowed [`SpanRef`]s. The
//! owned [`Span`] and [`SpanBuilder`] remain for cold paths: helpers
//! that hand a span to a caller, and tests.
//!
//! Component, name and label keys are `Cow<'static, str>`: the static
//! names producers use cost no allocation, while spans rebuilt from an
//! exported file ([`spans_from_chrome`](crate::spans_from_chrome)) own
//! their strings.

use crate::export::{push_u64, write_escaped, write_f64, write_str_object};
use crate::time::{SimDuration, SimTime};
use std::borrow::Cow;
use std::fmt::{self, Write};
use std::ops::Range;

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

/// The fixed-size part of a stored span.
#[derive(Debug, Clone)]
struct SpanHead {
    component: Cow<'static, str>,
    name: Cow<'static, str>,
    start: SimTime,
    end: SimTime,
    /// This span's labels, as indices into [`SpanStore::keys`].
    labels: Range<usize>,
}

/// A label key and where its value ends in [`SpanStore::text`]. The
/// value starts where the previous key's value ends (at 0 for the
/// first key).
#[derive(Debug, Clone)]
struct LabelKey {
    key: Cow<'static, str>,
    end: usize,
}

/// Recorded spans in three flat arrays: heads, label keys, and one
/// label-text buffer. Labels are appended only to the newest span, so
/// each span's keys and each key's text are contiguous and in order.
#[derive(Debug, Clone, Default)]
pub(crate) struct SpanStore {
    heads: Vec<SpanHead>,
    keys: Vec<LabelKey>,
    text: String,
}

impl SpanStore {
    /// Number of stored spans.
    pub(crate) fn len(&self) -> usize {
        self.heads.len()
    }

    /// Appends a span with no labels yet. An `end` earlier than `start`
    /// is clamped to a zero-length span, as in [`SpanBuilder::end`].
    pub(crate) fn push(
        &mut self,
        component: Cow<'static, str>,
        name: Cow<'static, str>,
        start: SimTime,
        end: SimTime,
    ) {
        let at = self.keys.len();
        self.heads.push(SpanHead {
            component,
            name,
            start,
            end: end.max(start),
            labels: at..at,
        });
    }

    /// Appends a label to the newest span; `value` writes its text.
    fn push_label(
        &mut self,
        key: Cow<'static, str>,
        value: impl FnOnce(&mut String) -> fmt::Result,
    ) {
        value(&mut self.text).expect("writing to a String cannot fail");
        self.keys.push(LabelKey {
            key,
            end: self.text.len(),
        });
        let head = self.heads.last_mut().expect("a label follows its span");
        head.labels.end = self.keys.len();
    }

    /// Appends a whole owned span.
    pub(crate) fn push_span(&mut self, span: Span) {
        self.push(span.component, span.name, span.start, span.end);
        for (k, v) in span.labels {
            self.push_label(k, |text| text.write_str(&v));
        }
    }

    /// Drops the `n` oldest spans with their labels and text, moving
    /// the rest to the front. Compacting half a window at a time keeps
    /// this amortized O(1) per span.
    pub(crate) fn evict_oldest(&mut self, n: usize) {
        if n == 0 {
            return;
        }
        let keys_cut = self.heads[n - 1].labels.end;
        let text_cut = keys_cut.checked_sub(1).map_or(0, |k| self.keys[k].end);
        self.heads.drain(..n);
        self.keys.drain(..keys_cut);
        self.text.drain(..text_cut);
        for h in &mut self.heads {
            h.labels = h.labels.start - keys_cut..h.labels.end - keys_cut;
        }
        for k in &mut self.keys {
            k.end -= text_cut;
        }
    }

    /// Every stored span, oldest first.
    pub(crate) fn iter(&self) -> impl ExactSizeIterator<Item = SpanRef<'_>> + DoubleEndedIterator {
        self.heads
            .iter()
            .map(move |head| SpanRef { store: self, head })
    }

    fn value(&self, key: usize) -> &str {
        let start = key.checked_sub(1).map_or(0, |k| self.keys[k].end);
        &self.text[start..self.keys[key].end]
    }
}

/// A recorded span, borrowed from its [`Trace`](crate::Trace).
#[derive(Clone, Copy)]
pub struct SpanRef<'a> {
    store: &'a SpanStore,
    head: &'a SpanHead,
}

impl<'a> SpanRef<'a> {
    /// Subsystem that produced the span (`ninja`, `symvirt`, ...).
    pub fn component(&self) -> &'a str {
        &self.head.component
    }

    /// Interval kind (`coordination`, `detach`, `migration`, ...).
    pub fn name(&self) -> &'a str {
        &self.head.name
    }

    /// Interval start.
    pub fn start(&self) -> SimTime {
        self.head.start
    }

    /// Interval end; always `>= start`.
    pub fn end(&self) -> SimTime {
        self.head.end
    }

    /// The covered duration.
    pub fn duration(&self) -> SimDuration {
        self.head.end.since(self.head.start)
    }

    /// Looks up a label value.
    pub fn label(&self, key: &str) -> Option<&'a str> {
        self.labels().find(|(k, _)| *k == key).map(|(_, v)| v)
    }

    /// The `(key, value)` labels, in the order they were attached.
    pub fn labels(&self) -> impl ExactSizeIterator<Item = (&'a str, &'a str)> + Clone + 'a {
        let store = self.store;
        self.head
            .labels
            .clone()
            .map(move |i| (&*store.keys[i].key, store.value(i)))
    }

    /// Writes the span as one compact JSON object (the JSONL exporter's
    /// span line): `type`, `component`, `name`, `start_ns`, `end_ns`,
    /// `duration_s`, and `labels` when there are any.
    pub fn write_json<W: Write + ?Sized>(&self, out: &mut W) -> fmt::Result {
        out.write_str("{\"type\":\"span\",\"component\":")?;
        write_escaped(self.component(), out)?;
        out.write_str(",\"name\":")?;
        write_escaped(self.name(), out)?;
        let (start, end) = (self.start().as_nanos(), self.end().as_nanos());
        write!(
            out,
            ",\"start_ns\":{start},\"end_ns\":{end},\"duration_s\":"
        )?;
        write_f64(self.duration().as_secs_f64(), out)?;
        if !self.head.labels.is_empty() {
            out.write_str(",\"labels\":")?;
            write_str_object(self.labels(), out)?;
        }
        out.write_char('}')
    }
}

impl fmt::Debug for SpanRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SpanRef")
            .field("component", &self.component())
            .field("name", &self.name())
            .field("start", &self.start())
            .field("end", &self.end())
            .field("labels", &self.labels().collect::<Vec<_>>())
            .finish()
    }
}

/// Attaches labels to the span [`Trace::add_span`](crate::Trace::add_span)
/// just recorded. Values are written straight into the trace's shared
/// label text. On a disabled trace every call is a no-op.
pub struct SpanLabels<'a> {
    store: Option<&'a mut SpanStore>,
}

impl<'a> SpanLabels<'a> {
    pub(crate) fn new(store: Option<&'a mut SpanStore>) -> Self {
        SpanLabels { store }
    }

    /// Attaches a string label.
    pub fn label(mut self, key: &'static str, value: &str) -> Self {
        if let Some(store) = self.store.as_deref_mut() {
            store.push_label(Cow::Borrowed(key), |text| text.write_str(value));
        }
        self
    }

    /// Attaches an integer label, written in decimal.
    pub fn label_u64(mut self, key: &'static str, value: u64) -> Self {
        if let Some(store) = self.store.as_deref_mut() {
            store.push_label(Cow::Borrowed(key), |text| {
                push_u64(text, value);
                Ok(())
            });
        }
        self
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
        let mut store = SpanStore::default();
        store.push_span(
            SpanBuilder::new("net", "linkup", t(1))
                .label("vm", "a")
                .end(t(31)),
        );
        let span = store.iter().next().unwrap();
        let j =
            crate::export::parse(&crate::export::render(0, |out| span.write_json(out))).unwrap();
        assert_eq!(j["type"].as_str(), Some("span"));
        assert_eq!(j["labels"]["vm"].as_str(), Some("a"));
        assert_eq!(j["duration_s"].as_f64(), Some(30.0));
    }
}
