//! Typed spans: named intervals of simulated time.
//!
//! Producers record a span once its interval is complete, through
//! [`Trace::add_span`](crate::Trace::add_span), and attach labels to it
//! with [`SpanLabels`]. Point records are spans too: zero-length
//! "instants" recorded through
//! [`Trace::add_instant`](crate::Trace::add_instant), which carry a
//! `level` and a `detail` label. Pairing happens at construction time,
//! so a recorded span is complete by definition (`end >= start`) and
//! exporters never re-derive intervals from marker strings.
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
//! A [`Trace`](crate::Trace) stores spans in three flat arrays (a
//! `SpanStore`): fixed-size span heads, label keys with the end offset
//! of their value, and one shared label-text `String` that integer
//! values and names are written straight into. Recording a span
//! therefore allocates only when one of the arrays grows. Readers get
//! borrowed [`SpanRef`]s.
//!
//! Component, name and label keys are `Cow<'static, str>`: the static
//! names producers use cost no allocation, while spans rebuilt from an
//! exported file ([`spans_from_chrome`](crate::spans_from_chrome)) own
//! their strings.

use crate::export::push_u64;
use crate::time::{SimDuration, SimTime};
use std::borrow::Cow;
use std::fmt::{self, Write};
use std::ops::Range;

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
    /// is clamped to a zero-length span (simulated clocks never run
    /// backwards, but clamping keeps the invariant unconditional).
    pub(crate) fn push(
        &mut self,
        component: Cow<'static, str>,
        name: Cow<'static, str>,
        start: SimTime,
        end: SimTime,
    ) {
        if self.heads.capacity() == 0 {
            // Skip the first doublings of all three arrays at once.
            self.heads.reserve(64);
            self.keys.reserve(128);
            self.text.reserve(1024);
        }
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

/// Attaches labels to the span or instant a [`Trace`](crate::Trace)
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
    pub fn label(mut self, key: impl Into<Cow<'static, str>>, value: &str) -> Self {
        if let Some(store) = self.store.as_deref_mut() {
            store.push_label(key.into(), |text| text.write_str(value));
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
        let mut store = SpanStore::default();
        store.push("vmm".into(), "migration".into(), t(3), t(7));
        SpanLabels::new(Some(&mut store))
            .label("vm", "vm0")
            .label_u64("job", 4);
        let span = store.iter().next().unwrap();
        assert_eq!(span.component(), "vmm");
        assert_eq!(span.name(), "migration");
        assert_eq!(span.duration(), SimDuration::from_secs(4));
        assert_eq!(span.label("vm"), Some("vm0"));
        assert_eq!(span.label("job"), Some("4"));
        assert_eq!(span.label("missing"), None);
    }

    #[test]
    fn end_before_start_clamps() {
        let mut store = SpanStore::default();
        store.push("x".into(), "y".into(), t(5), t(2));
        let span = store.iter().next().unwrap();
        assert_eq!(span.start(), span.end());
        assert_eq!(span.duration(), SimDuration::ZERO);
    }
}
