//! # ninja-json-tree — a JSON value tree for tests
//!
//! Production code writes JSON through [`ninja_sim::JsonWriter`] and
//! reads it through the pull reader [`ninja_sim::JsonReader`], never as
//! a tree. Tests want one: [`parse`] folds the reader's values into a
//! [`Json`] (same documents, same errors), and a [`Json`] writes itself
//! through the one writer. Only ever a dev-dependency.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use ninja_sim::{JsonError, JsonReader, JsonToken, JsonWriter, WriteJson};
use std::fmt::{self, Write};

/// A JSON value. Integers keep their own variants, exact past 2^53.
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

    /// Object field lookup: the first field with the key.
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

/// Parses one JSON document into a tree.
pub fn parse(text: &str) -> Result<Json, JsonError> {
    let mut reader = JsonReader::new(text);
    let tree = read(&mut reader)?;
    reader.finish()?;
    Ok(tree)
}

/// Reads the reader's next value, containers and all.
fn read(r: &mut JsonReader<'_>) -> Result<Json, JsonError> {
    Ok(match r.value()? {
        JsonToken::Null => Json::Null,
        JsonToken::Bool(b) => Json::Bool(b),
        JsonToken::Int(i) => Json::Int(i),
        JsonToken::UInt(u) => Json::UInt(u),
        JsonToken::Num(n) => Json::Num(n),
        JsonToken::Str(s) => Json::Str(s.into_owned()),
        JsonToken::Array => {
            let mut items = Vec::new();
            while r.next_item()? {
                items.push(read(r)?);
            }
            Json::Arr(items)
        }
        JsonToken::Object => {
            let mut fields = Vec::new();
            while let Some(key) = r.next_key()? {
                fields.push((key.into_owned(), read(r)?));
            }
            Json::Obj(fields)
        }
    })
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

impl From<i64> for Json {
    fn from(v: i64) -> Json {
        Json::Int(v)
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::UInt(v)
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
