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
        out.write_str(nanos_decimal(v < 0.0, n, &mut buf))
    } else {
        write!(out, "{v}")
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
fn nanos_decimal(negative: bool, n: u64, buf: &mut [u8; 24]) -> &str {
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
    std::str::from_utf8(&buf[i..]).expect("ASCII digits")
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

/// Writes `s` as a quoted JSON string with full RFC 8259 escaping. Runs
/// of characters that need no escape are written in one piece.
pub fn write_escaped<W: Write + ?Sized>(s: &str, out: &mut W) -> fmt::Result {
    out.write_char('"')?;
    let mut start = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0x08 => "\\b",
            0x0c => "\\f",
            0..=0x1f => "",
            _ => continue,
        };
        out.write_str(&s[start..i])?;
        if escape.is_empty() {
            write!(out, "\\u{b:04x}")?;
        } else {
            out.write_str(escape)?;
        }
        start = i + 1;
    }
    out.write_str(&s[start..])?;
    out.write_char('"')
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

/// Appends `s` to `out` as a quoted JSON string, escaped exactly as
/// [`write_escaped`] does. A string with nothing to escape (the common
/// case) is pushed whole, without going through `fmt`.
pub(crate) fn push_escaped(out: &mut String, s: &str) {
    if s.bytes().any(|b| ESCAPED[usize::from(b)]) {
        write_escaped(s, out).expect("writing to a String cannot fail");
    } else {
        out.push('"');
        out.push_str(s);
        out.push('"');
    }
}

/// Appends `v` to `out` in decimal, without going through `fmt`.
pub(crate) fn push_u64(out: &mut String, v: u64) {
    let mut digits = [0u8; 20];
    let i = put_digits(&mut digits, 20, v);
    out.push_str(std::str::from_utf8(&digits[i..]).expect("ASCII digits"));
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
const INDENT: &str = "                                                                ";

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
/// The writer renders into a local chunk without going through `fmt`
/// (apart from floats that are not a whole number of nanoseconds, see
/// [`write_f64`]) and hands the sink a piece each time the chunk
/// reaches 64 KiB, and the rest when a top-level value is complete.
/// Sink errors surface from the call that hands over a piece.
pub struct JsonWriter<'a, W: Write + ?Sized> {
    out: &'a mut W,
    /// Rendered text not yet handed to `out`.
    buf: String,
    pretty: bool,
    depth: usize,
    /// Nothing written yet in the innermost open container.
    empty: bool,
    /// A key was just written, so the next value follows it directly.
    after_key: bool,
}

impl<'a, W: Write + ?Sized> JsonWriter<'a, W> {
    /// A writer that emits no whitespace.
    pub fn compact(out: &'a mut W) -> Self {
        JsonWriter {
            out,
            buf: String::new(),
            pretty: false,
            depth: 0,
            empty: true,
            after_key: false,
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

    fn newline(&mut self) {
        if self.pretty {
            self.buf.push('\n');
            let mut n = 2 * self.depth;
            while n > 0 {
                let k = n.min(INDENT.len());
                self.buf.push_str(&INDENT[..k]);
                n -= k;
            }
        }
    }

    /// The separator before a value: nothing after a key or at the top
    /// level, otherwise a comma (unless first) and, when pretty, a new
    /// indented line.
    fn item(&mut self) {
        if std::mem::take(&mut self.after_key) || self.depth == 0 {
            return;
        }
        if !std::mem::take(&mut self.empty) {
            self.buf.push(',');
        }
        self.newline();
    }

    /// Ends a value: hands the chunk to the sink once it is full, or
    /// once the top-level value is complete.
    fn done(&mut self) -> fmt::Result {
        if self.depth == 0 || self.buf.len() >= CHUNK {
            self.out.write_str(&self.buf)?;
            self.buf.clear();
        }
        Ok(())
    }

    fn open(&mut self, c: char) -> fmt::Result {
        self.item();
        self.buf.push(c);
        self.depth += 1;
        self.empty = true;
        Ok(())
    }

    fn close(&mut self, c: char) -> fmt::Result {
        self.depth -= 1;
        if !std::mem::replace(&mut self.empty, false) {
            self.newline();
        }
        self.buf.push(c);
        self.done()
    }

    /// Opens an object.
    pub fn begin_object(&mut self) -> fmt::Result {
        self.open('{')
    }

    /// Closes the innermost object.
    pub fn end_object(&mut self) -> fmt::Result {
        self.close('}')
    }

    /// Opens an array.
    pub fn begin_array(&mut self) -> fmt::Result {
        self.open('[')
    }

    /// Closes the innermost array.
    pub fn end_array(&mut self) -> fmt::Result {
        self.close(']')
    }

    /// Writes an object key; the next value written is its value.
    pub fn key(&mut self, key: &str) -> fmt::Result {
        self.item();
        push_escaped(&mut self.buf, key);
        self.buf.push_str(if self.pretty { ": " } else { ":" });
        self.after_key = true;
        Ok(())
    }

    /// Writes `key` and then `value`.
    pub fn field<T: WriteJson + ?Sized>(&mut self, key: &str, value: &T) -> fmt::Result {
        self.key(key)?;
        value.write_json(self)
    }

    /// Writes a literal token.
    fn token(&mut self, text: &str) -> fmt::Result {
        self.item();
        self.buf.push_str(text);
        self.done()
    }

    /// Writes `null`.
    pub fn null(&mut self) -> fmt::Result {
        self.token("null")
    }

    /// Writes `true` or `false`.
    pub fn bool(&mut self, v: bool) -> fmt::Result {
        self.token(if v { "true" } else { "false" })
    }

    /// Writes an unsigned integer.
    pub fn u64(&mut self, v: u64) -> fmt::Result {
        self.item();
        push_u64(&mut self.buf, v);
        self.done()
    }

    /// Writes a signed integer.
    pub fn i64(&mut self, v: i64) -> fmt::Result {
        self.item();
        if v < 0 {
            self.buf.push('-');
        }
        push_u64(&mut self.buf, v.unsigned_abs());
        self.done()
    }

    /// Writes a float with [`write_f64`]'s rules.
    pub fn f64(&mut self, v: f64) -> fmt::Result {
        self.item();
        write_f64(v, &mut self.buf)?;
        self.done()
    }

    /// Writes an escaped string.
    pub fn str(&mut self, v: &str) -> fmt::Result {
        self.item();
        push_escaped(&mut self.buf, v);
        self.done()
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
