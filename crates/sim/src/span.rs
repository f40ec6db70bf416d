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
//! `SpanStore`): 24-byte span heads, 8-byte label keys with the end
//! offset of their value, and one shared label-value buffer. Text
//! values are kept as their UTF-8 bytes. Integer values
//! ([`SpanLabels::label_u64`]) stay integers, in their significant
//! little-endian bytes, until they are read ([`LabelValue::U64`]) or
//! exported in decimal. Recording a span therefore allocates only when
//! one of the arrays grows ([`Trace::reserve`](crate::Trace::reserve)
//! makes room up front) and converts no number. Readers get borrowed
//! [`SpanRef`]s.
//!
//! Components, names and label keys are interned in a per-store name
//! table, and each `(component, name)` pair is interned once more as a
//! span kind; heads hold a kind id and keys a name id. The `&'static
//! str` names producers pass are looked up by address, so recording one
//! costs no string comparison. The owned strings of spans rebuilt from
//! an exported file ([`spans_from_chrome`](crate::spans_from_chrome))
//! are looked up by content. Either way one text gets one id, and the
//! Chrome exporter escapes each kind's and key's text once per export,
//! not once per event.

use crate::export::{hand_off, push_escaped, push_u64, u64_decimal, CHUNK};
use crate::time::{SimDuration, SimTime};
use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt::{self, Write};
use std::hash::{BuildHasherDefault, Hasher};
use std::io;
use std::ops::Range;

/// Index of a string in a store's [`Names`] table.
type NameId = u32;

/// Index of a `(component, name)` pair in a store's [`Kinds`] table.
type KindId = u32;

/// The fixed-size part of a stored span.
#[derive(Debug, Clone, Copy)]
struct SpanHead {
    start: SimTime,
    end: SimTime,
    /// This span's labels are [`SpanStore::keys`] from here up to the
    /// next head's `labels_start` (the end of `keys` for the newest).
    labels_start: u32,
    kind: KindId,
}

/// Set in [`LabelKey::key`] when the value is an integer.
const INT: u32 = 1 << 31;

/// A label key, with [`INT`] set for an integer value, and where its
/// value ends in [`SpanStore::values`]. The value starts where the
/// previous key's value ends (at 0 for the first key).
#[derive(Debug, Clone, Copy)]
struct LabelKey {
    key: u32,
    end: u32,
}

impl LabelKey {
    fn name(self) -> NameId {
        self.key & !INT
    }

    fn is_int(self) -> bool {
        self.key & INT != 0
    }
}

/// An arena offset as stored in a head or key. The arrays are bounded
/// by memory long before 4 GiB of label values or 2³¹ labels or names;
/// past that the offsets could not be represented, so recording stops
/// loudly.
fn offset(n: usize) -> u32 {
    u32::try_from(n)
        .ok()
        .filter(|&n| n < INT)
        .expect("a span store holds under 2 GiB of labels")
}

/// An integer label's stored bytes: `v` little-endian, without its
/// high zero bytes (none at all for 0).
fn int_bytes(v: u64) -> ([u8; 8], usize) {
    (v.to_le_bytes(), (71 - v.leading_zeros() as usize) / 8)
}

/// The integer [`int_bytes`] stored, assembled in a register (going
/// through an 8-byte array would stall on reloading its byte stores).
fn read_int(bytes: &[u8]) -> u64 {
    bytes.iter().rev().fold(0, |v, &b| v << 8 | u64::from(b))
}

/// A static string's address and length.
fn addr(s: &'static str) -> (usize, usize) {
    (s.as_ptr() as usize, s.len())
}

/// A multiplicative hash for the addresses of static strings: they are
/// already unique machine words, so SipHash's flooding protection buys
/// nothing.
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

/// Ids by the addresses and lengths of static strings.
type ByAddr<K> = HashMap<K, u32, BuildHasherDefault<AddrHasher>>;

/// A store's interned component, name and key strings.
#[derive(Debug, Clone, Default)]
struct Names {
    strings: Vec<Cow<'static, str>>,
    /// Every string's id, by content.
    by_text: HashMap<Cow<'static, str>, NameId>,
    /// Static strings seen before, by address.
    by_addr: ByAddr<(usize, usize)>,
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
                if let Some(&id) = self.by_addr.get(&addr(s)) {
                    return id;
                }
                let id = self.by_content(Cow::Borrowed(s));
                self.by_addr.insert(addr(s), id);
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

/// A store's span kinds: the distinct `(component, name)` pairs its
/// spans carry, each interned once, so a head holds one id for both
/// and the exporter renders each pair's fixed text once per export.
#[derive(Debug, Clone, Default)]
struct Kinds {
    pairs: Vec<(NameId, NameId)>,
    by_ids: HashMap<(NameId, NameId), KindId>,
    /// Pairs of static strings seen before, by address.
    by_addr: ByAddr<((usize, usize), (usize, usize))>,
}

impl Kinds {
    fn reserve(&mut self, n: usize) {
        self.pairs.reserve(n);
        self.by_ids.reserve(n);
        self.by_addr.reserve(n);
    }

    fn intern(
        &mut self,
        names: &mut Names,
        component: Cow<'static, str>,
        name: Cow<'static, str>,
    ) -> KindId {
        let key = match (&component, &name) {
            (Cow::Borrowed(c), Cow::Borrowed(n)) => Some((addr(c), addr(n))),
            _ => None,
        };
        if let Some(&id) = key.and_then(|k| self.by_addr.get(&k)) {
            return id;
        }
        let pair = (names.intern(component), names.intern(name));
        let next = offset(self.pairs.len());
        let id = *self.by_ids.entry(pair).or_insert(next);
        if id == next {
            self.pairs.push(pair);
        }
        if let Some(k) = key {
            self.by_addr.insert(k, id);
        }
        id
    }
}

/// Recorded spans in three flat arrays: heads, label keys, and one
/// label-value buffer. Labels are appended only to the newest span, so
/// each span's keys and each key's value are contiguous and in order.
#[derive(Debug, Clone, Default)]
pub(crate) struct SpanStore {
    heads: Vec<SpanHead>,
    keys: Vec<LabelKey>,
    /// Text values as UTF-8, integer values as [`int_bytes`].
    values: Vec<u8>,
    names: Names,
    kinds: Kinds,
}

impl SpanStore {
    /// Number of stored spans.
    pub(crate) fn len(&self) -> usize {
        self.heads.len()
    }

    /// Makes room for `spans` more spans with `labels` labels among them,
    /// their values averaging up to 4 bytes.
    pub(crate) fn reserve(&mut self, spans: usize, labels: usize) {
        self.heads.reserve(spans);
        self.keys.reserve(labels);
        self.values.reserve(labels.saturating_mul(4));
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
            self.values.reserve(1024);
            self.names.reserve(32);
            self.kinds.reserve(16);
        }
        let head = SpanHead {
            start,
            end: end.max(start),
            labels_start: offset(self.keys.len()),
            kind: self.kinds.intern(&mut self.names, component, name),
        };
        self.heads.push(head);
    }

    /// Appends a label to the newest span; its value's bytes were just
    /// appended to `values`. `int` marks an integer value.
    fn push_key(&mut self, key: Cow<'static, str>, int: bool) {
        debug_assert!(!self.heads.is_empty(), "a label follows its span");
        let key = LabelKey {
            key: self.names.intern(key) | if int { INT } else { 0 },
            end: offset(self.values.len()),
        };
        self.keys.push(key);
    }

    /// The indices in `keys` of span `i`'s labels.
    fn labels_of(&self, i: usize) -> Range<usize> {
        let end = self
            .heads
            .get(i + 1)
            .map_or(self.keys.len(), |next| next.labels_start as usize);
        self.heads[i].labels_start as usize..end
    }

    /// Drops the `n` oldest spans with their labels and values, moving
    /// the rest to the front. Compacting half a window at a time keeps
    /// this amortized O(1) per span. The name and kind tables are kept:
    /// they hold each distinct string and pair once.
    pub(crate) fn evict_oldest(&mut self, n: usize) {
        if n == 0 {
            return;
        }
        let keys_cut = offset(self.labels_of(n - 1).end);
        let values_cut = keys_cut
            .checked_sub(1)
            .map_or(0, |k| self.keys[k as usize].end);
        self.heads.drain(..n);
        self.keys.drain(..keys_cut as usize);
        self.values.drain(..values_cut as usize);
        for h in &mut self.heads {
            h.labels_start -= keys_cut;
        }
        for k in &mut self.keys {
            k.end -= values_cut;
        }
    }

    /// Every stored span, oldest first.
    pub(crate) fn iter(&self) -> impl ExactSizeIterator<Item = SpanRef<'_>> + DoubleEndedIterator {
        (0..self.heads.len()).map(move |index| SpanRef { store: self, index })
    }

    /// Label `i`'s key and the bytes of its value.
    fn label_bytes(&self, i: usize) -> (LabelKey, &[u8]) {
        let start = i.checked_sub(1).map_or(0, |k| self.keys[k].end);
        let key = self.keys[i];
        (key, &self.values[start as usize..key.end as usize])
    }

    fn label(&self, i: usize) -> (&str, LabelValue<'_>) {
        let (key, bytes) = self.label_bytes(i);
        let value = if key.is_int() {
            LabelValue::U64(read_int(bytes))
        } else {
            LabelValue::Str(std::str::from_utf8(bytes).expect("text labels are written from a str"))
        };
        (self.names.get(key.name()), value)
    }

    /// Renders every stored span into `buf` as a Chrome trace event,
    /// complete (`"X"`) or, for `instant`, an instant (`"i"`), and hands
    /// `out` the buffer each time it reaches `CHUNK` bytes. `comma` says
    /// whether an event precedes the first one, which then goes after a
    /// comma; it is set once an event has been written.
    ///
    /// The text every event of a kind shares (its name, category, phase
    /// and track) and every label key is escaped and rendered once, into
    /// a [`Pieces`] table, and copied from there into each event.
    /// Integer label values are written in decimal, quoted like text.
    pub(crate) fn write_chrome_events<W: Write + ?Sized>(
        &self,
        instant: bool,
        comma: &mut bool,
        buf: &mut Vec<u8>,
        out: &mut W,
    ) -> fmt::Result {
        let mut pieces = Pieces::default();
        // Per kind: everything before the start time, and everything
        // after the duration up to the labels.
        let ph: &[u8] = if instant { b"i" } else { b"X" };
        let mut kinds = Vec::with_capacity(self.kinds.pairs.len());
        for &(component, name) in &self.kinds.pairs {
            let (component, name) = (self.names.get(component), self.names.get(name));
            let head = pieces.add(|p| {
                p.extend_from_slice(b"{\"name\":");
                push_escaped(p, name.as_bytes());
                p.extend_from_slice(b",\"cat\":");
                push_escaped(p, component.as_bytes());
                p.extend_from_slice(b",\"ph\":\"");
                p.extend_from_slice(ph);
                p.extend_from_slice(b"\",\"ts\":");
            });
            let track = pieces.add(|p| {
                p.extend_from_slice(b",\"pid\":1,\"tid\":");
                push_escaped(p, component.as_bytes());
                if instant {
                    p.extend_from_slice(b",\"s\":\"t\"");
                }
            });
            kinds.push((head, track));
        }
        // Per name, as a label key: `,"args":{"key":` for a span's
        // first label and `,"key":` for the others.
        let keys: Vec<(Piece, Piece)> = (self.names.strings.iter())
            .map(|key| {
                let mut quoted = Vec::new();
                push_escaped(&mut quoted, key.as_bytes());
                quoted.push(b':');
                let first = pieces.add(|p| {
                    p.extend_from_slice(b",\"args\":{");
                    p.extend_from_slice(&quoted);
                });
                let next = pieces.add(|p| {
                    p.push(b',');
                    p.extend_from_slice(&quoted);
                });
                (first, next)
            })
            .collect();
        pieces.pad();

        for (i, head) in self.heads.iter().enumerate() {
            let (kind_head, track) = kinds[head.kind as usize];
            if std::mem::replace(comma, true) {
                buf.push(b',');
            }
            pieces.put(buf, kind_head);
            push_u64(buf, head.start.as_nanos() / 1_000);
            if !instant {
                buf.extend_from_slice(b",\"dur\":");
                push_u64(buf, head.end.since(head.start).as_nanos() / 1_000);
            }
            pieces.put(buf, track);
            let labels = self.labels_of(i);
            if !labels.is_empty() {
                for l in labels.clone() {
                    let (key, value) = self.label_bytes(l);
                    let (first, next) = keys[key.name() as usize];
                    pieces.put(buf, if l == labels.start { first } else { next });
                    if key.is_int() {
                        buf.push(b'"');
                        push_u64(buf, read_int(value));
                        buf.push(b'"');
                    } else {
                        push_escaped(buf, value);
                    }
                }
                buf.push(b'}');
            }
            buf.push(b'}');
            if buf.len() >= CHUNK {
                hand_off(buf, out)?;
                buf.clear();
            }
        }
        Ok(())
    }
}

/// Where a piece of pre-rendered text starts in a [`Pieces`] table, and
/// its length.
#[derive(Clone, Copy)]
struct Piece {
    start: usize,
    len: usize,
}

/// Pre-rendered pieces of text, one after another, padded at the end so
/// that [`Pieces::put`] can copy any piece as one fixed-size block.
#[derive(Default)]
struct Pieces {
    text: Vec<u8>,
}

impl Pieces {
    /// Size of the blocks [`Pieces::put`] copies.
    const BLOCK: usize = 32;

    /// Renders a piece with `render` and returns where it is.
    fn add(&mut self, render: impl FnOnce(&mut Vec<u8>)) -> Piece {
        let start = self.text.len();
        render(&mut self.text);
        Piece {
            start,
            len: self.text.len() - start,
        }
    }

    /// Pads the table so that a block starting anywhere in a piece fits.
    fn pad(&mut self) {
        self.text.resize(self.text.len() + Self::BLOCK, 0);
    }

    /// Appends `piece` to `buf` in fixed-size blocks, which need no
    /// call to `memcpy`, and cuts off the bytes past its end again.
    fn put(&self, buf: &mut Vec<u8>, piece: Piece) {
        let end = buf.len() + piece.len;
        let mut at = piece.start;
        loop {
            let block: &[u8; Self::BLOCK] = self.text[at..at + Self::BLOCK]
                .try_into()
                .expect("the table is padded by a block");
            buf.extend_from_slice(block);
            at += Self::BLOCK;
            if at >= piece.start + piece.len {
                break;
            }
        }
        buf.truncate(end);
    }
}

/// A recorded span, borrowed from its [`Trace`](crate::Trace).
#[derive(Clone, Copy)]
pub struct SpanRef<'a> {
    store: &'a SpanStore,
    index: usize,
}

impl<'a> SpanRef<'a> {
    fn head(&self) -> &'a SpanHead {
        &self.store.heads[self.index]
    }

    /// Subsystem that produced the span (`ninja`, `symvirt`, ...).
    pub fn component(&self) -> &'a str {
        let (component, _) = self.store.kinds.pairs[self.head().kind as usize];
        self.store.names.get(component)
    }

    /// Interval kind (`coordination`, `detach`, `migration`, ...).
    pub fn name(&self) -> &'a str {
        let (_, name) = self.store.kinds.pairs[self.head().kind as usize];
        self.store.names.get(name)
    }

    /// Interval start.
    pub fn start(&self) -> SimTime {
        self.head().start
    }

    /// Interval end; always `>= start`.
    pub fn end(&self) -> SimTime {
        self.head().end
    }

    /// The covered duration.
    pub fn duration(&self) -> SimDuration {
        self.head().end.since(self.head().start)
    }

    /// Looks up a label value.
    pub fn label(&self, key: &str) -> Option<LabelValue<'a>> {
        self.labels().find(|(k, _)| *k == key).map(|(_, v)| v)
    }

    /// The `(key, value)` labels, in the order they were attached.
    pub fn labels(&self) -> impl ExactSizeIterator<Item = (&'a str, LabelValue<'a>)> + Clone + 'a {
        let store = self.store;
        store.labels_of(self.index).map(move |i| store.label(i))
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

/// A label's value: text, or an integer recorded with
/// [`SpanLabels::label_u64`]. Both export as a JSON string, an integer
/// in decimal, and a value compares equal to another (or to a `&str`)
/// when the two export the same text: `U64(7)` equals `Str("7")`, which
/// is how an integer label reads back from an exported file.
#[derive(Debug, Clone, Copy)]
pub enum LabelValue<'a> {
    /// A text value.
    Str(&'a str),
    /// An integer value.
    U64(u64),
}

impl<'a> LabelValue<'a> {
    /// The value, when it was recorded as text.
    pub fn as_str(self) -> Option<&'a str> {
        match self {
            LabelValue::Str(s) => Some(s),
            LabelValue::U64(_) => None,
        }
    }

    /// The value as an integer: an integer label, or text that is one
    /// written in decimal.
    pub fn as_u64(self) -> Option<u64> {
        match self {
            LabelValue::Str(s) => s.parse().ok(),
            LabelValue::U64(v) => Some(v),
        }
    }

    /// Calls `f` with the value's text.
    fn with_text<R>(self, f: impl FnOnce(&str) -> R) -> R {
        match self {
            LabelValue::Str(s) => f(s),
            LabelValue::U64(v) => f(u64_decimal(v, &mut [0; 20])),
        }
    }
}

impl fmt::Display for LabelValue<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.with_text(|s| f.write_str(s))
    }
}

impl PartialEq for LabelValue<'_> {
    fn eq(&self, other: &Self) -> bool {
        match (*self, *other) {
            (LabelValue::U64(a), LabelValue::U64(b)) => a == b,
            (a, b) => a.with_text(|a| b.with_text(|b| a == b)),
        }
    }
}

impl Eq for LabelValue<'_> {}

impl PartialEq<&str> for LabelValue<'_> {
    fn eq(&self, other: &&str) -> bool {
        self.with_text(|s| s == *other)
    }
}

/// Attaches labels to the span or instant a [`Trace`](crate::Trace)
/// just recorded. Values are written straight into the trace's shared
/// label buffer. On a disabled trace every call is a no-op.
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
            store.values.extend_from_slice(value.as_bytes());
            store.push_key(key.into(), false);
        }
        self
    }

    /// Attaches a string label formatted from `value` (`format_args!`),
    /// written straight into the label buffer with no `String` between.
    pub fn label_fmt(mut self, key: &'static str, value: fmt::Arguments<'_>) -> Self {
        if let Some(store) = self.store.as_deref_mut() {
            io::Write::write_fmt(&mut store.values, value).expect("writing to a Vec cannot fail");
            store.push_key(Cow::Borrowed(key), false);
        }
        self
    }

    /// Attaches an integer label. It is kept as an integer and written
    /// in decimal only when read as text or exported.
    pub fn label_u64(mut self, key: &'static str, value: u64) -> Self {
        if let Some(store) = self.store.as_deref_mut() {
            // All eight bytes, then cut: a fixed-size copy.
            let (le, n) = int_bytes(value);
            let end = store.values.len() + n;
            store.values.extend_from_slice(&le);
            store.values.truncate(end);
            store.push_key(Cow::Borrowed(key), true);
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
        assert_eq!(span.label("vm"), Some(LabelValue::Str("vm0")));
        assert_eq!(span.label("job"), Some(LabelValue::U64(4)));
        assert_eq!(span.label("job").unwrap(), "4");
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
        assert!(std::mem::size_of::<SpanHead>() <= 24);
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
