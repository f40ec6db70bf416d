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
//! `SpanStore`): 32-byte span heads, 8-byte label keys with the end
//! offset of their value, and one shared label-text `String` that
//! integer values and names are written straight into. Recording a span
//! therefore allocates only when one of the arrays grows. Readers get
//! borrowed [`SpanRef`]s.
//!
//! Components, names and label keys are interned in a per-store name
//! table; heads and keys hold 32-bit ids into it. The `&'static str`
//! names producers pass are looked up by address, so recording one
//! costs no string comparison. The owned strings of spans rebuilt from
//! an exported file ([`spans_from_chrome`](crate::spans_from_chrome))
//! are looked up by content. Either way one text gets one id.

use crate::export::u64_decimal;
use crate::time::{SimDuration, SimTime};
use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt::{self, Write};
use std::hash::{BuildHasherDefault, Hasher};

/// Index of a string in a store's [`Names`] table.
type NameId = u32;

/// The fixed-size part of a stored span.
#[derive(Debug, Clone, Copy)]
struct SpanHead {
    start: SimTime,
    end: SimTime,
    /// This span's labels are [`SpanStore::keys`]`[labels_start..labels_end]`.
    labels_start: u32,
    labels_end: u32,
    component: NameId,
    name: NameId,
}

/// A label key and where its value ends in [`SpanStore::text`]. The
/// value starts where the previous key's value ends (at 0 for the
/// first key).
#[derive(Debug, Clone, Copy)]
struct LabelKey {
    key: NameId,
    end: u32,
}

/// An arena offset as stored in a head or key. The arrays are bounded
/// by memory long before 4 GiB of label text or 2³² labels; past that
/// the offsets could not be represented, so recording stops loudly.
fn offset(n: usize) -> u32 {
    u32::try_from(n).expect("a span store holds under 4 GiB of labels")
}

/// A multiplicative hash for the `(address, length)` keys of static
/// names: they are already unique machine words, so SipHash's
/// flooding protection buys nothing.
#[derive(Default)]
struct AddrHasher(u64);

impl Hasher for AddrHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A store's interned component, name and key strings.
#[derive(Debug, Clone, Default)]
struct Names {
    strings: Vec<Cow<'static, str>>,
    /// Every string's id, by content.
    by_text: HashMap<Cow<'static, str>, NameId>,
    /// The ids of static strings seen before, by address and length.
    by_addr: HashMap<(usize, usize), NameId, BuildHasherDefault<AddrHasher>>,
}

impl Names {
    fn reserve(&mut self, n: usize) {
        self.strings.reserve(n);
        self.by_text.reserve(n);
        self.by_addr.reserve(n);
    }

    fn intern(&mut self, s: Cow<'static, str>) -> NameId {
        match s {
            Cow::Borrowed(s) => {
                let addr = (s.as_ptr() as usize, s.len());
                if let Some(&id) = self.by_addr.get(&addr) {
                    return id;
                }
                let id = self.by_content(Cow::Borrowed(s));
                self.by_addr.insert(addr, id);
                id
            }
            owned => self.by_content(owned),
        }
    }

    fn by_content(&mut self, s: Cow<'static, str>) -> NameId {
        if let Some(&id) = self.by_text.get(&s) {
            return id;
        }
        let id = offset(self.strings.len());
        self.strings.push(s.clone());
        self.by_text.insert(s, id);
        id
    }

    fn get(&self, id: NameId) -> &str {
        &self.strings[id as usize]
    }
}

/// Recorded spans in three flat arrays: heads, label keys, and one
/// label-text buffer. Labels are appended only to the newest span, so
/// each span's keys and each key's text are contiguous and in order.
#[derive(Debug, Clone, Default)]
pub(crate) struct SpanStore {
    heads: Vec<SpanHead>,
    keys: Vec<LabelKey>,
    text: String,
    names: Names,
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
            // Skip the first doublings of every array at once.
            self.heads.reserve(64);
            self.keys.reserve(128);
            self.text.reserve(1024);
            self.names.reserve(32);
        }
        let at = offset(self.keys.len());
        let head = SpanHead {
            start,
            end: end.max(start),
            labels_start: at,
            labels_end: at,
            component: self.names.intern(component),
            name: self.names.intern(name),
        };
        self.heads.push(head);
    }

    /// Appends a label to the newest span; `value` writes its text.
    fn push_label(
        &mut self,
        key: Cow<'static, str>,
        value: impl FnOnce(&mut String) -> fmt::Result,
    ) {
        value(&mut self.text).expect("writing to a String cannot fail");
        let key = LabelKey {
            key: self.names.intern(key),
            end: offset(self.text.len()),
        };
        self.keys.push(key);
        let head = self.heads.last_mut().expect("a label follows its span");
        head.labels_end = offset(self.keys.len());
    }

    /// Drops the `n` oldest spans with their labels and text, moving
    /// the rest to the front. Compacting half a window at a time keeps
    /// this amortized O(1) per span. The name table is kept: it holds
    /// each distinct string once.
    pub(crate) fn evict_oldest(&mut self, n: usize) {
        if n == 0 {
            return;
        }
        let keys_cut = self.heads[n - 1].labels_end;
        let text_cut = keys_cut
            .checked_sub(1)
            .map_or(0, |k| self.keys[k as usize].end);
        self.heads.drain(..n);
        self.keys.drain(..keys_cut as usize);
        self.text.drain(..text_cut as usize);
        for h in &mut self.heads {
            h.labels_start -= keys_cut;
            h.labels_end -= keys_cut;
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

    fn label(&self, i: usize) -> (&str, &str) {
        let start = i.checked_sub(1).map_or(0, |k| self.keys[k].end);
        let key = self.keys[i];
        (
            self.names.get(key.key),
            &self.text[start as usize..key.end as usize],
        )
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
        self.store.names.get(self.head.component)
    }

    /// Interval kind (`coordination`, `detach`, `migration`, ...).
    pub fn name(&self) -> &'a str {
        self.store.names.get(self.head.name)
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
        (self.head.labels_start as usize..self.head.labels_end as usize)
            .map(move |i| store.label(i))
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
                text.write_str(u64_decimal(value, &mut [0; 20]))
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

    #[test]
    fn heads_and_keys_stay_compact() {
        assert!(std::mem::size_of::<SpanHead>() <= 32);
        assert!(std::mem::size_of::<LabelKey>() <= 8);
    }

    #[test]
    fn one_text_gets_one_id_whatever_its_origin() {
        let mut names = Names::default();
        let a = names.intern(Cow::Borrowed("symvirt"));
        // The same text at another address, and owned.
        let copy: &'static str = String::from("symvirt").leak();
        assert_eq!(names.intern(Cow::Borrowed(copy)), a);
        assert_eq!(names.intern(Cow::Owned("symvirt".into())), a);
        assert_eq!(names.intern(Cow::Borrowed("symvirt")), a);
        let b = names.intern(Cow::Owned("sym".into()));
        assert_ne!(a, b);
        assert_eq!(names.get(a), "symvirt");
        assert_eq!(names.get(b), "sym");
        assert_eq!(names.strings.len(), 2);
    }
}
