//! Dependency-free serialization: a minimal JSON value type with a
//! writer and parser, plus the helpers the exporters share.
//!
//! The workspace builds offline with zero crates.io dependencies, so
//! instead of `serde_json` every report and exporter goes through one
//! streaming [`JsonWriter`]: reports implementing [`WriteJson`] write
//! their fields into it directly, and a [`Json`] tree is walked through
//! it. The writer covers the full string-escaping rules of RFC 8259
//! (quotes, backslashes, control characters) and formats non-finite
//! floats as `null` (JSON has no NaN/Infinity). The parser
//! is a small recursive-descent reader used by the CLI's
//! `trace summarize` subcommand and by tests that round-trip output.
//!
//! The telemetry exporters stream: they write into any `fmt::Write`
//! ([`render`] for a `String`, [`stream_to`] for an `io::Write` sink,
//! [`overwrite_file`] for a file path) with the helpers below instead
//! of building a [`Json`] tree per record.

use crate::{SimDuration, SimTime};
use std::fmt::{self, Write};
use std::fs::{File, OpenOptions};
use std::io::{self, BufWriter, Seek};
use std::path::Path;

/// A JSON value.
///
/// Integers keep their own variants so `u64` quantities like wire
/// bytes never lose precision through an `f64` round-trip.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A signed integer.
    Int(i64),
    /// An unsigned integer.
    UInt(u64),
    /// A float. Non-finite values serialize as `null`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. Insertion order is preserved.
    Obj(Vec<(String, Json)>),
}

static NULL: Json = Json::Null;

impl Json {
    /// Builds an object from `(key, value)` pairs.
    pub fn obj<K: Into<String>>(fields: Vec<(K, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Whether this is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }

    /// As a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// As an `f64` (any numeric variant).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::UInt(u) => Some(*u as f64),
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// As a `u64`, if numeric and exactly representable.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(u) => Some(*u),
            Json::Int(i) if *i >= 0 => Some(*i as u64),
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// As an `i64`, if numeric and exactly representable.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(i) => Some(*i),
            Json::UInt(u) if *u <= i64::MAX as u64 => Some(*u as i64),
            Json::Num(n) if n.fract() == 0.0 && (i64::MIN as f64..=i64::MAX as f64).contains(n) => {
                Some(*n as i64)
            }
            _ => None,
        }
    }

    /// As a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// As an array slice, if it is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Pretty serialization (two-space indent).
    pub fn to_string_pretty(&self) -> String {
        self.to_json_pretty()
    }
}

/// Writes an `f64` as a JSON number; non-finite values become `null`,
/// and `-0` (which reads oddly in reports) becomes `0`. Every other value
/// is written exactly as `{}` prints it; a whole number of nanoseconds
/// (most report floats) is rendered without going through `fmt`.
pub fn write_f64<W: Write + ?Sized>(v: f64, out: &mut W) -> fmt::Result {
    if !v.is_finite() {
        out.write_str("null")
    } else if v == 0.0 {
        out.write_char('0')
    } else if let Some(n) = whole_nanos(v.abs()) {
        let mut buf = [0u8; 24];
        let i = nanos_decimal(v < 0.0, n, &mut buf);
        out.write_str(std::str::from_utf8(&buf[i..]).expect("ASCII digits"))
    } else {
        write!(out, "{v}")
    }
}

/// Appends `v` to `out` with [`write_f64`]'s rules.
fn push_f64(out: &mut Vec<u8>, v: f64) {
    if !v.is_finite() {
        out.extend_from_slice(b"null");
    } else if v == 0.0 {
        out.push(b'0');
    } else if let Some(n) = whole_nanos(v.abs()) {
        push_nanos(out, v < 0.0, n);
    } else {
        io::Write::write_fmt(out, format_args!("{v}")).expect("writing to a Vec cannot fail");
    }
}

/// `a > 0` as a whole number of nanoseconds `n`, when `0 < n < 10^15`
/// and `a` is the double nearest `n / 10^9`. That decimal has at most
/// 15 significant digits, and a double is the nearest double of only
/// one such decimal, so it is the shortest one that reads back as `a`:
/// exactly the digits `{}` prints.
fn whole_nanos(a: f64) -> Option<u64> {
    let x = a * 1e9;
    if x >= 1e15 {
        return None;
    }
    let n = x.round() as u64;
    (n > 0 && n < 1_000_000_000_000_000 && n as f64 / 1e9 == a).then_some(n)
}

/// Renders `n` nanoseconds as seconds into the tail of `buf`: the whole
/// part, then a point and the fraction with its trailing zeros trimmed
/// (no point when the fraction is 0), with a leading `-` if `negative`.
/// Returns the index of the first byte.
fn nanos_decimal(negative: bool, n: u64, buf: &mut [u8; 24]) -> usize {
    let mut i = buf.len();
    let mut frac = n % 1_000_000_000;
    if frac != 0 {
        let mut digits = 9;
        while frac % 10 == 0 {
            frac /= 10;
            digits -= 1;
        }
        for _ in 0..digits {
            i -= 1;
            buf[i] = b'0' + (frac % 10) as u8;
            frac /= 10;
        }
        i -= 1;
        buf[i] = b'.';
    }
    i = put_digits(buf, i, n / 1_000_000_000);
    if negative {
        i -= 1;
        buf[i] = b'-';
    }
    i
}

/// Renders `n` nanoseconds as exact decimal seconds at the front of
/// `to` (at least [`NUMBER_ROOM`] bytes), as [`nanos_decimal`] renders
/// them; returns the length. The whole seconds and the first fraction
/// digit go as one [`eight_digits`] word, the point then moved in
/// before that digit, and the last eight fraction digits as one more
/// word, cut after the last nonzero digit. A whole part of eight digits
/// or more (over 115 days) goes through [`nanos_decimal`].
#[inline(always)]
fn nanos_digits(negative: bool, n: u64, to: &mut [u8]) -> usize {
    const E8: u64 = 100_000_000;
    // Whole seconds, then the first fraction digit.
    let head = n / E8;
    if head >= E8 {
        let mut buf = [0u8; 24];
        let i = nanos_decimal(negative, n, &mut buf);
        to[..24 - i].copy_from_slice(&buf[i..]);
        return 24 - i;
    }
    let mut at = usize::from(negative);
    to[0] = b'-';
    let (whole, first) = (head / 10, (head % 10) as u8);
    let whole_n = digits(whole);
    let head = eight_digits(head as u32) >> (8 * (7 - whole_n as u32));
    to[at..at + 8].copy_from_slice(&head.to_le_bytes());
    at += whole_n;
    let tail = (n % E8) as u32;
    if first != 0 || tail != 0 {
        // The first fraction digit follows the point.
        to[at] = b'.';
        to[at + 1] = b'0' + first;
        let tail_digits = eight_digits(tail);
        to[at + 2..at + 10].copy_from_slice(&tail_digits.to_le_bytes());
        // Most fractions end in a nonzero digit: testing for that
        // first keeps the next piece's start off the digit arithmetic.
        // Otherwise the digits print lowest byte first, so the trailing
        // zeros are the high bytes that hold `'0'` (all eight when the
        // last eight digits are 0, and then the first is not).
        at += if tail % 10 != 0 {
            10
        } else {
            10 - ((tail_digits ^ 0x3030_3030_3030_3030).leading_zeros() / 8) as usize
        };
    }
    at
}

/// The room a number is rendered into: a sign and 20 digits, or a
/// sign, 11 whole digits, a point and 9 fraction digits.
const NUMBER_ROOM: usize = 24;

/// Appends `n` nanoseconds to `out` as [`nanos_digits`] renders them.
fn push_nanos(out: &mut Vec<u8>, negative: bool, n: u64) {
    let start = out.len();
    let len = nanos_digits(negative, n, window::<NUMBER_ROOM>(out));
    out.truncate(start + len);
}

/// Writes `v` in decimal into `buf`, ending just before `end`; returns
/// the index of its first digit.
fn put_digits(buf: &mut [u8], mut end: usize, mut v: u64) -> usize {
    loop {
        end -= 1;
        buf[end] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            return end;
        }
    }
}

/// The bytes a JSON string escapes: control characters, `"` and `\\`.
static ESCAPED: [bool; 256] = {
    let mut table = [false; 256];
    let mut b = 0;
    while b < 0x20 {
        table[b] = true;
        b += 1;
    }
    table[b'"' as usize] = true;
    table[b'\\' as usize] = true;
    table
};

/// `\u00XX` for each control character.
static CONTROL: [[u8; 6]; 0x20] = {
    let hex = b"0123456789abcdef";
    let mut table = [*b"\\u0000"; 0x20];
    let mut b = 0;
    while b < 0x20 {
        table[b][4] = hex[b >> 4];
        table[b][5] = hex[b & 0xf];
        b += 1;
    }
    table
};

/// What a JSON string holds in place of byte `b`, one of [`ESCAPED`].
fn escape(b: u8) -> &'static [u8] {
    match b {
        b'"' => b"\\\"",
        b'\\' => b"\\\\",
        b'\n' => b"\\n",
        b'\r' => b"\\r",
        b'\t' => b"\\t",
        0x08 => b"\\b",
        0x0c => b"\\f",
        _ => &CONTROL[usize::from(b)],
    }
}

/// Writes `s` as a quoted JSON string with full RFC 8259 escaping. Runs
/// of characters that need no escape are written in one piece.
pub fn write_escaped<W: Write + ?Sized>(s: &str, out: &mut W) -> fmt::Result {
    out.write_char('"')?;
    let mut start = 0;
    for (i, b) in s.bytes().enumerate() {
        if ESCAPED[usize::from(b)] {
            out.write_str(&s[start..i])?;
            out.write_str(std::str::from_utf8(escape(b)).expect("ASCII escape"))?;
            start = i + 1;
        }
    }
    out.write_str(&s[start..])?;
    out.write_char('"')
}

/// Appends the UTF-8 text `s` to `out` as a quoted JSON string, escaped
/// exactly as [`write_escaped`] does. Text with nothing to escape (the
/// common case) is pushed whole, and short text in one fixed-width
/// block (see [`BLOCK`]).
pub(crate) fn push_escaped(out: &mut Vec<u8>, s: &[u8]) {
    if s.len() + 2 <= BLOCK {
        let start = out.len();
        if quote_unescaped(s, window::<BLOCK>(out)) {
            out.truncate(start + s.len() + 2);
            return;
        }
        out.truncate(start);
    }
    out.reserve(s.len() + 2);
    out.push(b'"');
    if s.iter().any(|&b| ESCAPED[usize::from(b)]) {
        let mut start = 0;
        for (i, &b) in s.iter().enumerate() {
            if ESCAPED[usize::from(b)] {
                out.extend_from_slice(&s[start..i]);
                out.extend_from_slice(escape(b));
                start = i + 1;
            }
        }
        out.extend_from_slice(&s[start..]);
    } else {
        out.extend_from_slice(s);
    }
    out.push(b'"');
}

/// The width of the fixed blocks short pieces of JSON are rendered in.
/// A piece is written over a block of spaces appended to the chunk,
/// which is then cut to the piece's end: one fixed-size copy and no
/// copy of a length known only at run time, however long the piece.
const BLOCK: usize = 64;

/// Spaces to render pieces over.
static SPACES: [u8; BLOCK] = [b' '; BLOCK];

/// Appends `N` (at most [`BLOCK`]) spaces to `out` and returns them to
/// write a piece over; the caller cuts `out` to the piece's end.
#[inline(always)]
fn window<const N: usize>(out: &mut Vec<u8>) -> &mut [u8; N] {
    let start = out.len();
    out.extend_from_slice(&SPACES[..N]);
    (&mut out[start..start + N]).try_into().expect("N bytes")
}

/// Whether any byte of the word `w` is one JSON escapes: below 0x20,
/// `"` or `\\`. Each test is the exact "has a byte below n" bit trick;
/// bytes of 0x80 and up (UTF-8 beyond ASCII) never count.
fn word_needs_escape(w: u64) -> bool {
    const ONES: u64 = 0x0101_0101_0101_0101;
    const HIGH: u64 = 0x8080_8080_8080_8080;
    let below = |x: u64, n: u64| x.wrapping_sub(ONES * n) & !x & HIGH;
    (below(w, 0x20) | below(w ^ (ONES * 0x22), 1) | below(w ^ (ONES * 0x5c), 1)) != 0
}

/// Copies `s` to the front of `to` (at least as long) unless a byte of
/// it needs a JSON escape; returns whether it copied. The text moves in
/// whole words, the last overlapping the one before, so no copy has a
/// length known only at run time.
#[inline(always)]
fn copy_unescaped(s: &[u8], to: &mut [u8]) -> bool {
    let n = s.len();
    if n < 4 {
        if s.iter().any(|&b| ESCAPED[usize::from(b)]) {
            return false;
        }
        for (t, &b) in to.iter_mut().zip(s) {
            *t = b;
        }
        return true;
    }
    if n < 8 {
        // Two 4-byte words, widened so one test covers both.
        let half = |i: usize| u32::from_le_bytes(s[i..i + 4].try_into().expect("four bytes"));
        let (a, b) = (half(0), half(n - 4));
        to[..4].copy_from_slice(&a.to_le_bytes());
        to[n - 4..n].copy_from_slice(&b.to_le_bytes());
        return !word_needs_escape(u64::from(a) | u64::from(b) << 32);
    }
    let word = |i: usize| u64::from_le_bytes(s[i..i + 8].try_into().expect("eight bytes"));
    let mut escape = false;
    let mut i = 0;
    while i + 8 < n {
        let w = word(i);
        escape |= word_needs_escape(w);
        to[i..i + 8].copy_from_slice(&w.to_le_bytes());
        i += 8;
    }
    let w = word(n - 8);
    to[n - 8..n].copy_from_slice(&w.to_le_bytes());
    !(escape | word_needs_escape(w))
}

/// Writes `s` quoted at the front of `to` (at least two bytes longer)
/// unless a byte of it needs a JSON escape; returns whether it wrote.
#[inline(always)]
fn quote_unescaped(s: &[u8], to: &mut [u8]) -> bool {
    if !copy_unescaped(s, &mut to[1..]) {
        return false;
    }
    to[0] = b'"';
    to[1 + s.len()] = b'"';
    true
}

/// The number of decimal digits of `v`: ⌊log10⌋ estimated from the bit
/// length (1233 / 4096 ≈ log10 2), plus one unless `v` is below the
/// power of ten that estimate names. `v | 1` counts 0 as one digit and
/// moves no other count, as every power of ten past 1 is even.
fn digits(v: u64) -> usize {
    static POW10: [u64; 20] = {
        let mut table = [1; 20];
        let mut i = 1;
        while i < 20 {
            table[i] = table[i - 1] * 10;
            i += 1;
        }
        table
    };
    let v = v | 1;
    let t = (((64 - v.leading_zeros()) * 1233) >> 12) as usize;
    t + usize::from(v >= POW10[t])
}

/// The eight decimal digits of `v < 10^8`, zero-padded, as ASCII in
/// printing order (the first digit in the lowest byte), computed in one
/// register: `v` splits into two 4-digit lanes of 32 bits, each of
/// those into two 2-digit lanes of 16 bits, each of those into two
/// digits of 8 bits. The multiply-shifts divide exactly in the ranges
/// they see: `n * 5243 >> 19 = n / 100` for `n < 10^4`, and
/// `n * 103 >> 10 = n / 10` for `n < 100`, and no product carries into
/// the next lane.
fn eight_digits(v: u32) -> u64 {
    let x = u64::from(v / 10_000) | u64::from(v % 10_000) << 32;
    let hundreds = ((x * 5243) >> 19) & 0x0000_007f_0000_007f;
    let x = hundreds | (x - hundreds * 100) << 16;
    let tens = ((x * 103) >> 10) & 0x000f_000f_000f_000f;
    let x = tens | (x - tens * 10) << 8;
    x | 0x3030_3030_3030_3030
}

/// Renders `v` in decimal at the front of `to` (at least 20 bytes)
/// without going through `fmt`; returns the length. Each group of up to eight digits is one 8-byte store, the
/// leading group cut to its digits' count.
#[inline(always)]
fn u64_digits(v: u64, to: &mut [u8]) -> usize {
    const E8: u64 = 100_000_000;
    // The leading group, and how many full groups of eight follow it.
    let (lead, full) = if v < E8 {
        (v, 0)
    } else if v < E8 * E8 {
        (v / E8, 1)
    } else {
        (v / (E8 * E8), 2)
    };
    let mut at = digits(lead);
    let lead = eight_digits(lead as u32) >> (8 * (8 - at as u32));
    to[..8].copy_from_slice(&lead.to_le_bytes());
    for g in (0..full).rev() {
        let group = v / E8.pow(g) % E8;
        to[at..at + 8].copy_from_slice(&eight_digits(group as u32).to_le_bytes());
        at += 8;
    }
    at
}

/// Appends `v` to `out` in decimal, as [`u64_digits`] renders it.
/// Inlined: the exporters call it for every number they write.
#[inline(always)]
pub(crate) fn push_u64(out: &mut Vec<u8>, v: u64) {
    let start = out.len();
    let len = u64_digits(v, window::<NUMBER_ROOM>(out));
    out.truncate(start + len);
}

/// `v` in decimal, rendered into `buf`.
pub(crate) fn u64_decimal(v: u64, buf: &mut [u8; 20]) -> &str {
    let i = put_digits(buf, 20, v);
    std::str::from_utf8(&buf[i..]).expect("ASCII digits")
}

/// Hands a rendered chunk to `out`. The chunk holds whole UTF-8 strings
/// and ASCII only, so it is checked once here rather than per piece.
pub(crate) fn hand_off<W: Write + ?Sized>(chunk: &[u8], out: &mut W) -> fmt::Result {
    out.write_str(std::str::from_utf8(chunk).expect("chunks hold whole UTF-8 strings"))
}

/// Writes string pairs as a compact JSON object, `{"k":"v",...}`.
pub fn write_str_object<K, V, W>(
    pairs: impl IntoIterator<Item = (K, V)>,
    out: &mut W,
) -> fmt::Result
where
    K: AsRef<str>,
    V: AsRef<str>,
    W: Write + ?Sized,
{
    out.write_char('{')?;
    for (i, (k, v)) in pairs.into_iter().enumerate() {
        if i > 0 {
            out.write_char(',')?;
        }
        write_escaped(k.as_ref(), out)?;
        out.write_char(':')?;
        write_escaped(v.as_ref(), out)?;
    }
    out.write_char('}')
}

/// The size of the pieces the chunked writers ([`JsonWriter`] and the
/// Chrome trace exporter) hand their sink.
pub(crate) const CHUNK: usize = 64 * 1024;

/// Two spaces per level for [`JsonWriter`]'s pretty form, pushed as one
/// slice up to 32 levels deep.
const INDENT: &[u8] = b"                                                                ";

/// Writes the comma (unless `first`) and, when `pretty`, the newline
/// that go before an item over the front of a block of spaces, which
/// supplies the indentation.
fn write_lead(block: &mut [u8; BLOCK], first: bool, pretty: bool) {
    block[0] = b',';
    if pretty {
        block[usize::from(!first)] = b'\n';
    }
}

/// A streaming JSON writer, compact or pretty (two-space indent): the
/// workspace's one JSON formatter. [`Json`]'s `Display` and
/// [`Json::to_string_pretty`] walk their tree through it, and reports
/// that implement [`WriteJson`] write their fields straight into it
/// without building a tree.
///
/// Containers open with `begin_*` and close with `end_*`; inside an
/// object every value follows a [`JsonWriter::key`]. Empty containers
/// print as `[]` and `{}` in both forms. The writer keeps no stack:
/// closing a container always leaves its parent with at least one item.
///
/// The writer renders bytes into a local chunk without going through
/// `fmt` (apart from floats that are not a whole number of
/// nanoseconds, see [`write_f64`]). What goes before an item (comma,
/// line break, indentation, and the quoted key in an object) is
/// rendered as one piece in a fixed block of spaces, and a short scalar
/// is written into the rest of that block. The writer hands the sink
/// the chunk when a container closes with 64 KiB or more in it, and
/// the rest when a top-level value is complete; each piece is checked
/// as UTF-8 once, on the way out. Sink errors surface from the call
/// that hands over a piece.
pub struct JsonWriter<'a, W: Write + ?Sized> {
    out: &'a mut W,
    /// Rendered text not yet handed to `out`. Right after a key it may
    /// run on past `value_at` with spare bytes of the key's block.
    buf: Vec<u8>,
    pretty: bool,
    depth: usize,
    /// Nothing written yet in the innermost open container.
    empty: bool,
    /// A key was just written, so the next value follows it directly,
    /// at `value_at`.
    after_key: bool,
    value_at: usize,
}

impl<'a, W: Write + ?Sized> JsonWriter<'a, W> {
    /// A writer that emits no whitespace.
    pub fn compact(out: &'a mut W) -> Self {
        JsonWriter {
            out,
            buf: Vec::with_capacity(CHUNK + CHUNK / 8),
            pretty: false,
            depth: 0,
            empty: true,
            after_key: false,
            value_at: 0,
        }
    }

    /// A writer that puts every array element and object field on its
    /// own line, indented two spaces per level, with `": "` after keys.
    pub fn pretty(out: &'a mut W) -> Self {
        JsonWriter {
            pretty: true,
            ..JsonWriter::compact(out)
        }
    }

    /// The length of what goes before an item in the innermost
    /// container: a comma unless `first`, then, when pretty, a newline
    /// and the indentation.
    fn lead_len(&self, first: bool) -> usize {
        usize::from(!first) + usize::from(self.pretty) * (1 + 2 * self.depth)
    }

    /// A new line at the current depth, when pretty.
    fn newline(&mut self) {
        if self.pretty {
            self.buf.push(b'\n');
            let mut n = 2 * self.depth;
            while n > 0 {
                let k = n.min(INDENT.len());
                self.buf.extend_from_slice(&INDENT[..k]);
                n -= k;
            }
        }
    }

    /// Writes the separator before an item (nothing after a key or at
    /// the top level, otherwise a comma unless first and, when pretty,
    /// a new indented line) and returns where the item goes. `buf` may
    /// run on past that point with spare bytes of the separator's block:
    /// the caller writes the item over them or cuts `buf` back to it.
    #[inline(always)]
    fn start_item(&mut self) -> usize {
        if std::mem::take(&mut self.after_key) {
            return self.value_at;
        }
        if self.depth == 0 {
            return self.buf.len();
        }
        let first = std::mem::take(&mut self.empty);
        let len = self.lead_len(first);
        if len > BLOCK {
            if !first {
                self.buf.push(b',');
            }
            self.newline();
            return self.buf.len();
        }
        let start = self.buf.len();
        write_lead(window(&mut self.buf), first, self.pretty);
        start + len
    }

    /// The separator before a value pushed onto `buf` whole.
    fn item(&mut self) {
        let at = self.start_item();
        self.buf.truncate(at);
    }

    /// `N` bytes of `buf` at `at` (from [`start_item`](Self::start_item))
    /// for a scalar to be written over; the caller cuts `buf` to its end.
    #[inline(always)]
    fn room<const N: usize>(&mut self, at: usize) -> &mut [u8; N] {
        if self.buf.len() < at + N {
            self.buf.truncate(at);
            self.buf.extend_from_slice(&SPACES[..N]);
        }
        (&mut self.buf[at..at + N]).try_into().expect("N bytes")
    }

    /// Ends a scalar value written at `at` with `len` bytes: hands the
    /// chunk to the sink if the value is the whole document. Containers
    /// check for a full chunk as they close, not every value.
    #[inline(always)]
    fn done(&mut self, at: usize, len: usize) -> fmt::Result {
        self.buf.truncate(at + len);
        if self.depth == 0 {
            hand_off(&self.buf, self.out)?;
            self.buf.clear();
        }
        Ok(())
    }

    fn open(&mut self, c: u8) -> fmt::Result {
        let at = self.start_item();
        self.room::<1>(at)[0] = c;
        self.buf.truncate(at + 1);
        self.depth += 1;
        self.empty = true;
        Ok(())
    }

    /// Closes a container: hands the chunk to the sink once it is full,
    /// or once the top-level value is complete.
    fn close(&mut self, c: u8) -> fmt::Result {
        if std::mem::take(&mut self.after_key) {
            self.buf.truncate(self.value_at);
        }
        self.depth -= 1;
        let line = !std::mem::replace(&mut self.empty, false) && self.pretty;
        let len = 2 + 2 * self.depth;
        if line && len <= BLOCK {
            // The line break, the indentation and the bracket as one
            // block.
            let start = self.buf.len();
            let block = window::<BLOCK>(&mut self.buf);
            block[0] = b'\n';
            block[len - 1] = c;
            self.buf.truncate(start + len);
        } else {
            if line {
                self.newline();
            }
            self.buf.push(c);
        }
        if self.depth == 0 || self.buf.len() >= CHUNK {
            hand_off(&self.buf, self.out)?;
            self.buf.clear();
        }
        Ok(())
    }

    /// Opens an object.
    pub fn begin_object(&mut self) -> fmt::Result {
        self.open(b'{')
    }

    /// Closes the innermost object.
    pub fn end_object(&mut self) -> fmt::Result {
        self.close(b'}')
    }

    /// Opens an array.
    pub fn begin_array(&mut self) -> fmt::Result {
        self.open(b'[')
    }

    /// Closes the innermost array.
    pub fn end_array(&mut self) -> fmt::Result {
        self.close(b']')
    }

    /// Writes an object key; the next value written is its value.
    #[inline(always)]
    pub fn key(&mut self, key: &str) -> fmt::Result {
        // The separator, the line break and the quoted key as one block,
        // when the key is inside an object, short and needs no escape.
        // The block stays open for the value.
        let k = key.as_bytes();
        if !self.after_key && self.depth > 0 {
            let at = self.lead_len(self.empty);
            let len = at + k.len() + 3 + usize::from(self.pretty);
            if len <= BLOCK {
                let start = self.buf.len();
                let block = window::<BLOCK>(&mut self.buf);
                if copy_unescaped(k, &mut block[at + 1..]) {
                    write_lead(block, self.empty, self.pretty);
                    block[at] = b'"';
                    block[at + 1 + k.len()] = b'"';
                    block[at + 2 + k.len()] = b':';
                    // The pretty form's space is the block's own.
                    self.empty = false;
                    self.after_key = true;
                    self.value_at = start + len;
                    return Ok(());
                }
                self.buf.truncate(start);
            }
        }
        self.item();
        push_escaped(&mut self.buf, k);
        self.buf
            .extend_from_slice(if self.pretty { b": " } else { b":" });
        self.after_key = true;
        self.value_at = self.buf.len();
        Ok(())
    }

    /// Writes `key` and then `value`.
    pub fn field<T: WriteJson + ?Sized>(&mut self, key: &str, value: &T) -> fmt::Result {
        self.key(key)?;
        value.write_json(self)
    }

    /// Writes the first `len` bytes of `text` as a literal token.
    #[inline(always)]
    fn token(&mut self, text: &[u8; 8], len: usize) -> fmt::Result {
        let at = self.start_item();
        *self.room::<8>(at) = *text;
        self.done(at, len)
    }

    /// Writes `null`.
    pub fn null(&mut self) -> fmt::Result {
        self.token(b"null    ", 4)
    }

    /// Writes `true` or `false`.
    pub fn bool(&mut self, v: bool) -> fmt::Result {
        match v {
            true => self.token(b"true    ", 4),
            false => self.token(b"false   ", 5),
        }
    }

    /// Writes an unsigned integer.
    #[inline(always)]
    pub fn u64(&mut self, v: u64) -> fmt::Result {
        let at = self.start_item();
        let len = u64_digits(v, self.room::<NUMBER_ROOM>(at));
        self.done(at, len)
    }

    /// Writes a signed integer.
    pub fn i64(&mut self, v: i64) -> fmt::Result {
        let at = self.start_item();
        let to = self.room::<NUMBER_ROOM>(at);
        to[0] = b'-';
        let sign = usize::from(v < 0);
        let len = sign + u64_digits(v.unsigned_abs(), &mut to[sign..]);
        self.done(at, len)
    }

    /// Writes a float with [`write_f64`]'s rules.
    pub fn f64(&mut self, v: f64) -> fmt::Result {
        let at = self.start_item();
        self.buf.truncate(at);
        push_f64(&mut self.buf, v);
        let len = self.buf.len() - at;
        self.done(at, len)
    }

    /// Writes `n` nanoseconds as exact decimal seconds.
    #[inline(always)]
    fn nanos(&mut self, n: u64) -> fmt::Result {
        let at = self.start_item();
        let len = nanos_digits(false, n, self.room::<NUMBER_ROOM>(at));
        self.done(at, len)
    }

    /// Writes an escaped string.
    #[inline(always)]
    pub fn str(&mut self, v: &str) -> fmt::Result {
        const ROOM: usize = 32;
        let at = self.start_item();
        let s = v.as_bytes();
        if s.len() + 2 <= ROOM && quote_unescaped(s, self.room::<ROOM>(at)) {
            return self.done(at, s.len() + 2);
        }
        self.buf.truncate(at);
        push_escaped(&mut self.buf, s);
        let len = self.buf.len() - at;
        self.done(at, len)
    }
}

/// Types that serialize by streaming into a [`JsonWriter`], with no
/// intermediate [`Json`] tree.
pub trait WriteJson {
    /// Writes `self` as one JSON value.
    fn write_json<W: Write + ?Sized>(&self, w: &mut JsonWriter<'_, W>) -> fmt::Result;

    /// The compact rendering.
    fn to_json_compact(&self) -> String {
        render(0, |out| self.write_json(&mut JsonWriter::compact(out)))
    }

    /// The pretty rendering (two-space indent).
    fn to_json_pretty(&self) -> String {
        render(0, |out| self.write_json(&mut JsonWriter::pretty(out)))
    }
}

impl WriteJson for Json {
    fn write_json<W: Write + ?Sized>(&self, w: &mut JsonWriter<'_, W>) -> fmt::Result {
        match self {
            Json::Null => w.null(),
            Json::Bool(b) => w.bool(*b),
            Json::Int(i) => w.i64(*i),
            Json::UInt(u) => w.u64(*u),
            Json::Num(n) => w.f64(*n),
            Json::Str(s) => w.str(s),
            Json::Arr(items) => items.write_json(w),
            Json::Obj(fields) => {
                w.begin_object()?;
                for (k, v) in fields {
                    w.field(k, v)?;
                }
                w.end_object()
            }
        }
    }
}

impl WriteJson for bool {
    fn write_json<W: Write + ?Sized>(&self, w: &mut JsonWriter<'_, W>) -> fmt::Result {
        w.bool(*self)
    }
}

impl WriteJson for u64 {
    fn write_json<W: Write + ?Sized>(&self, w: &mut JsonWriter<'_, W>) -> fmt::Result {
        w.u64(*self)
    }
}

impl WriteJson for u32 {
    fn write_json<W: Write + ?Sized>(&self, w: &mut JsonWriter<'_, W>) -> fmt::Result {
        w.u64(u64::from(*self))
    }
}

impl WriteJson for usize {
    fn write_json<W: Write + ?Sized>(&self, w: &mut JsonWriter<'_, W>) -> fmt::Result {
        w.u64(*self as u64)
    }
}

impl WriteJson for f64 {
    fn write_json<W: Write + ?Sized>(&self, w: &mut JsonWriter<'_, W>) -> fmt::Result {
        w.f64(*self)
    }
}

/// Exact decimal seconds: the whole nanoseconds with the fraction's
/// trailing zeros trimmed, never through a float.
impl WriteJson for SimDuration {
    fn write_json<W: Write + ?Sized>(&self, w: &mut JsonWriter<'_, W>) -> fmt::Result {
        w.nanos(self.as_nanos())
    }
}

/// Seconds since the simulation epoch, written like [`SimDuration`].
impl WriteJson for SimTime {
    fn write_json<W: Write + ?Sized>(&self, w: &mut JsonWriter<'_, W>) -> fmt::Result {
        self.since(SimTime::ZERO).write_json(w)
    }
}

impl WriteJson for str {
    fn write_json<W: Write + ?Sized>(&self, w: &mut JsonWriter<'_, W>) -> fmt::Result {
        w.str(self)
    }
}

impl WriteJson for String {
    fn write_json<W: Write + ?Sized>(&self, w: &mut JsonWriter<'_, W>) -> fmt::Result {
        w.str(self)
    }
}

impl<T: WriteJson + ?Sized> WriteJson for &T {
    fn write_json<W: Write + ?Sized>(&self, w: &mut JsonWriter<'_, W>) -> fmt::Result {
        (**self).write_json(w)
    }
}

impl<T: WriteJson> WriteJson for Option<T> {
    /// `None` is `null`.
    fn write_json<W: Write + ?Sized>(&self, w: &mut JsonWriter<'_, W>) -> fmt::Result {
        match self {
            Some(v) => v.write_json(w),
            None => w.null(),
        }
    }
}

impl<T: WriteJson> WriteJson for [T] {
    fn write_json<W: Write + ?Sized>(&self, w: &mut JsonWriter<'_, W>) -> fmt::Result {
        w.begin_array()?;
        for v in self {
            v.write_json(w)?;
        }
        w.end_array()
    }
}

impl<T: WriteJson, const N: usize> WriteJson for [T; N] {
    fn write_json<W: Write + ?Sized>(&self, w: &mut JsonWriter<'_, W>) -> fmt::Result {
        self.as_slice().write_json(w)
    }
}

impl<T: WriteJson> WriteJson for Vec<T> {
    fn write_json<W: Write + ?Sized>(&self, w: &mut JsonWriter<'_, W>) -> fmt::Result {
        self.as_slice().write_json(w)
    }
}

/// Runs a streaming exporter into a `String` pre-sized to `capacity`.
pub fn render(capacity: usize, export: impl FnOnce(&mut String) -> fmt::Result) -> String {
    let mut out = String::with_capacity(capacity);
    export(&mut out).expect("writing to a String cannot fail");
    out
}

/// An `io::Write` sink (a `BufWriter<File>`, say) seen as a
/// `fmt::Write`, so the streaming exporters can write a file directly.
pub struct IoSink<W: io::Write> {
    inner: W,
    error: Option<io::Error>,
}

impl<W: io::Write> Write for IoSink<W> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.inner.write_all(s.as_bytes()).map_err(|e| {
            self.error = Some(e);
            fmt::Error
        })
    }
}

/// Streams `export` into `sink` and flushes it, returning the first
/// I/O error.
pub fn stream_to<W: io::Write>(
    sink: W,
    export: impl FnOnce(&mut IoSink<W>) -> fmt::Result,
) -> io::Result<()> {
    let mut sink = IoSink {
        inner: sink,
        error: None,
    };
    match export(&mut sink) {
        Ok(()) => sink.inner.flush(),
        Err(_) => Err(sink
            .error
            .unwrap_or_else(|| io::Error::other("exporter failed"))),
    }
}

/// Streams `export` into the file at `path` through a buffered writer,
/// overwriting the file in place: it is opened without truncation,
/// written from the start, and then cut to the length just written.
/// The result has exactly the exported bytes and keeps its inode, and
/// rewriting a file costs no truncation of its old blocks first.
///
/// Only a regular file is cut to length. A FIFO or a device
/// (`/dev/null`, `/dev/stdout` on a pipe) is written as
/// [`File::create`] would write it.
///
/// If the export or a write fails, the file is cut to the bytes that
/// reached it (best effort) and the first error is returned, so no
/// tail of the old contents survives. A process killed mid-write
/// leaves the new prefix over the old tail instead.
pub fn overwrite_file(
    path: impl AsRef<Path>,
    export: impl FnOnce(&mut IoSink<BufWriter<&File>>) -> fmt::Result,
) -> io::Result<()> {
    let file = OpenOptions::new()
        .write(true)
        .create(true)
        .truncate(false)
        .open(path)?;
    // On an error the dropped `BufWriter` makes a last attempt to
    // write what it still buffers; the cut happens after it.
    let written = stream_to(BufWriter::new(&file), export);
    if file.metadata().is_ok_and(|m| m.is_file()) {
        let cut = (&file).stream_position().and_then(|end| file.set_len(end));
        if written.is_ok() {
            cut?;
        }
    }
    written
}

impl fmt::Display for Json {
    /// Compact serialization (`.to_string()` is the compact form),
    /// written straight into the formatter.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write_json(&mut JsonWriter::compact(f))
    }
}

impl std::ops::Index<&str> for Json {
    type Output = Json;

    /// Object field access; missing keys and non-objects yield `Null`.
    fn index(&self, key: &str) -> &Json {
        self.get(key).unwrap_or(&NULL)
    }
}

impl std::ops::Index<usize> for Json {
    type Output = Json;

    /// Array element access; out of range and non-arrays yield `Null`.
    fn index(&self, i: usize) -> &Json {
        match self {
            Json::Arr(items) => items.get(i).unwrap_or(&NULL),
            _ => &NULL,
        }
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}

impl From<i32> for Json {
    fn from(v: i32) -> Json {
        Json::Int(i64::from(v))
    }
}

impl From<i64> for Json {
    fn from(v: i64) -> Json {
        Json::Int(v)
    }
}

impl From<u32> for Json {
    fn from(v: u32) -> Json {
        Json::UInt(u64::from(v))
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::UInt(v)
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::UInt(v as u64)
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Num(v)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}

impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}

impl From<Vec<Json>> for Json {
    fn from(v: Vec<Json>) -> Json {
        Json::Arr(v)
    }
}

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        match v {
            Some(x) => x.into(),
            None => Json::Null,
        }
    }
}

/// Error from [`parse`]: a message and the byte offset it refers to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub message: String,
    /// Byte offset in the input.
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

/// Parses a JSON document (trailing whitespace allowed, nothing else).
pub fn parse(input: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            message: message.to_string(),
            offset: self.pos,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000C}'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi)
                                && self.bytes[self.pos..].starts_with(b"\\u")
                            {
                                // Surrogate pair.
                                self.pos += 2;
                                let lo = self.hex4()?;
                                let combined =
                                    0x10000 + ((hi - 0xD800) << 10) + (lo.wrapping_sub(0xDC00));
                                char::from_u32(combined).unwrap_or('\u{FFFD}')
                            } else {
                                char::from_u32(hi).unwrap_or('\u{FFFD}')
                            };
                            out.push(c);
                            continue;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume the run up to the next quote or escape in
                    // one piece (both are ASCII, so the cut is on a
                    // character boundary).
                    let start = self.pos;
                    while matches!(self.peek(), Some(c) if c != b'"' && c != b'\\') {
                        self.pos += 1;
                    }
                    let s = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("invalid UTF-8 in string"))?;
                    out.push_str(s);
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.err("bad \\u escape"))?;
        let v = u32::from_str_radix(hex, 16).map_err(|_| self.err("bad \\u escape"))?;
        self.pos += 4;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if !is_float {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Json::UInt(u));
            }
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Json::Int(i));
            }
        }
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("bad number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integers_render_as_display_does() {
        let mut edges = vec![0, u64::MAX, u64::MAX - 1];
        for p in 0..20 {
            let pow = 10u64.pow(p);
            let nines = pow.saturating_mul(9).saturating_add(pow - 1);
            edges.extend([pow - 1, pow, pow + 1, pow.saturating_mul(2), nines]);
        }
        // A xorshift sweep over every magnitude.
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let sweep = (0..20_000).map(|i| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x >> (i % 64)
        });
        let mut out = Vec::new();
        for v in (0..100_000).chain(edges).chain(sweep) {
            // After a byte already in the buffer, and twice in a row.
            out.clear();
            out.push(b'[');
            push_u64(&mut out, v);
            push_u64(&mut out, v);
            assert_eq!(String::from_utf8(out.clone()).unwrap(), format!("[{v}{v}"));
            assert_eq!(digits(v), v.to_string().len(), "{v}");
            assert_eq!(u64_decimal(v, &mut [0; 20]), v.to_string());
        }
    }

    fn scratch_file(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("ninja-export-{}-{name}", std::process::id()))
    }

    #[test]
    fn overwrite_in_place_leaves_no_stale_tail() {
        let path = scratch_file("shrink.txt");
        std::fs::write(&path, "x".repeat(100_000)).unwrap();
        #[cfg(unix)]
        let inode = |p: &Path| std::os::unix::fs::MetadataExt::ino(&std::fs::metadata(p).unwrap());
        #[cfg(unix)]
        let before = inode(&path);
        overwrite_file(&path, |out| out.write_str("short")).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "short");
        #[cfg(unix)]
        assert_eq!(inode(&path), before, "rewritten in place");
        // Growing works too.
        let long = "y".repeat(50_000);
        overwrite_file(&path, |out| out.write_str(&long)).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), long);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_failed_export_keeps_only_the_bytes_it_wrote() {
        let path = scratch_file("failed.txt");
        std::fs::write(&path, "old ".repeat(100_000)).unwrap();
        // More than the writer's buffer reaches the file before the
        // error, and a buffered remainder follows it.
        let new = "n".repeat(20_000);
        let err = overwrite_file(&path, |out| {
            out.write_str(&new)?;
            Err(fmt::Error)
        })
        .unwrap_err();
        assert_eq!(err.to_string(), "exporter failed");
        let left = std::fs::read_to_string(&path).unwrap();
        assert!(!left.contains("old"), "no tail of the old file remains");
        assert!(new.starts_with(&left));
        std::fs::remove_file(&path).unwrap();
    }

    #[cfg(unix)]
    #[test]
    fn overwrite_writes_devices_as_before() {
        overwrite_file("/dev/null", |out| out.write_str("discarded")).unwrap();
    }

    #[test]
    fn escapes_quotes_backslashes_and_controls() {
        let v = Json::from("a\"b\\c\nd\te\u{0001}");
        assert_eq!(v.to_string(), r#""a\"b\\c\nd\te\u0001""#);
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(Json::from(f64::NAN).to_string(), "null");
        assert_eq!(Json::from(f64::INFINITY).to_string(), "null");
        assert_eq!(Json::from(f64::NEG_INFINITY).to_string(), "null");
        assert_eq!(Json::from(1.5).to_string(), "1.5");
    }

    /// The block renderers agree with the digit-at-a-time ones: every
    /// digit count of whole seconds (both sides of the fast paths'
    /// bounds), fractions with every count of trailing zeros, and
    /// integers of every length.
    #[test]
    fn block_digits_match_the_digit_loops() {
        let mut rng = crate::SimRng::new(0xd1);
        let mut out = Vec::new();
        for i in 0..200_000u64 {
            let digits = rng.below(21) as u32;
            let mut n = rng.below(10u64.saturating_pow(digits).max(2));
            if i % 3 == 0 {
                n -= n % 10u64.pow(rng.below(10) as u32);
            }
            for n in [n, u64::MAX - n] {
                let negative = i % 2 == 0;
                out.clear();
                push_nanos(&mut out, negative, n);
                let mut buf = [0u8; 24];
                let at = nanos_decimal(negative, n, &mut buf);
                assert_eq!(out, &buf[at..], "{n} ns");
                out.clear();
                push_u64(&mut out, n);
                assert_eq!(out, n.to_string().as_bytes());
            }
        }
    }

    #[test]
    fn u64_precision_is_preserved() {
        let big = u64::MAX - 1;
        let v = Json::obj(vec![("wire_bytes", Json::from(big))]);
        let text = v.to_string();
        let back = parse(&text).unwrap();
        assert_eq!(back["wire_bytes"].as_u64(), Some(big));
    }

    #[test]
    fn round_trips_nested_documents() {
        let v = Json::obj(vec![
            ("name", Json::from("detach \"fast\"")),
            ("phases", Json::Arr(vec![Json::from(1u64), Json::from(2.5)])),
            ("none", Json::Null),
            ("ok", Json::from(true)),
        ]);
        let back = parse(&v.to_string()).unwrap();
        assert_eq!(back, v);
        let back_pretty = parse(&v.to_string_pretty()).unwrap();
        assert_eq!(back_pretty, v);
    }

    #[test]
    fn parser_handles_escapes_and_unicode() {
        let v = parse(r#"{"s":"a\"\\\nAé"}"#).unwrap();
        assert_eq!(v["s"].as_str(), Some("a\"\\\nA\u{e9}"));
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("nul").is_err());
        assert!(parse("1 2").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    #[test]
    fn index_is_total() {
        let v = parse(r#"{"a":[10,20]}"#).unwrap();
        assert_eq!(v["a"][1].as_u64(), Some(20));
        assert!(v["missing"].is_null());
        assert!(v["a"][9].is_null());
        assert!(v["a"]["not-an-object"].is_null());
    }

    #[test]
    fn negative_and_float_numbers_parse() {
        let v = parse(r#"[-3, -2.5, 1e3, 18446744073709551615]"#).unwrap();
        assert_eq!(v[0].as_i64(), Some(-3));
        assert_eq!(v[1].as_f64(), Some(-2.5));
        assert_eq!(v[2].as_f64(), Some(1000.0));
        assert_eq!(v[3].as_u64(), Some(u64::MAX));
    }
}
