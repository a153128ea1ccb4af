//! A small, strict JSON implementation: value model, parser, printers, and
//! the [`ToJson`]/[`FromJson`] trait pair with struct/enum derive macros.
//!
//! Replaces `serde`/`serde_json` for the workspace's one serialization
//! surface — world-spec files (`worldgen::io`). Design points:
//!
//! - **Integers are exact.** Numbers parse into [`Num::UInt`]/[`Num::Int`]
//!   when they are integral and fit, so a `u64` master seed round-trips
//!   bit-exactly (an `f64` mantissa would silently corrupt seeds above
//!   2^53 — fatal for a determinism-pledged system).
//! - **Objects preserve insertion order**, so rendering is deterministic.
//! - **The parser is total**: arbitrary input returns `Ok` or a positioned
//!   [`JsonError`], never a panic, with a recursion-depth cap against
//!   stack exhaustion (property-tested in `tests/json_prop.rs`).

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// Maximum nesting depth the parser accepts.
const MAX_DEPTH: usize = 128;

/// A JSON number: exact unsigned/signed integers, or a float.
#[derive(Debug, Clone, Copy)]
pub enum Num {
    /// A non-negative integer that fits `u64`.
    UInt(u64),
    /// A negative integer that fits `i64`.
    Int(i64),
    /// Everything else (fractions, exponents, out-of-range magnitudes).
    Float(f64),
}

impl Num {
    /// The value as `f64` (lossy above 2^53).
    pub fn as_f64(&self) -> f64 {
        match *self {
            Num::UInt(v) => v as f64,
            Num::Int(v) => v as f64,
            Num::Float(v) => v,
        }
    }

    /// The value as `u64`, if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Num::UInt(v) => Some(v),
            Num::Int(v) => u64::try_from(v).ok(),
            Num::Float(v) if v >= 0.0 && v <= u64::MAX as f64 && v.fract() == 0.0 => Some(v as u64),
            _ => None,
        }
    }

    /// The value as `i64`, if it is an integer in range.
    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Num::UInt(v) => i64::try_from(v).ok(),
            Num::Int(v) => Some(v),
            Num::Float(v) if v.fract() == 0.0 && v >= i64::MIN as f64 && v <= i64::MAX as f64 => {
                Some(v as i64)
            }
            _ => None,
        }
    }
}

impl PartialEq for Num {
    /// Numeric equality across representations: `UInt(1) == Float(1.0)`.
    fn eq(&self, other: &Self) -> bool {
        match (self.as_u64(), other.as_u64()) {
            (Some(a), Some(b)) => return a == b,
            (None, None) => {}
            _ => {}
        }
        match (self.as_i64(), other.as_i64()) {
            (Some(a), Some(b)) => return a == b,
            (None, None) => {}
            _ => {}
        }
        self.as_f64() == other.as_f64()
    }
}

/// A parsed JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number (see [`Num`]).
    Num(Num),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved for deterministic output.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Shorthand for an unsigned-integer number value.
    pub fn uint(v: u64) -> Json {
        Json::Num(Num::UInt(v))
    }

    /// Shorthand for a float number value.
    pub fn float(v: f64) -> Json {
        Json::Num(Num::Float(v))
    }

    /// Shorthand for a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// The boolean, if this is a `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The string, if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number as `f64`, if this is a `Num`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(n.as_f64()),
            _ => None,
        }
    }

    /// The number as `u64`, if this is an integral non-negative `Num`.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) => n.as_u64(),
            _ => None,
        }
    }

    /// The number as `i64`, if this is an integral in-range `Num`.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Num(n) => n.as_i64(),
            _ => None,
        }
    }

    /// The elements, if this is an `Arr`.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The members, if this is an `Obj`.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// Object-member lookup by key (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_obj()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// Render compactly (no whitespace).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Render with 2-space indentation.
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    /// The canonical form of this document: object members sorted by key
    /// (first occurrence wins on duplicates, matching [`Json::get`]),
    /// numbers normalized to their minimal representation (integral
    /// in-range floats collapse to [`Num::UInt`]/[`Num::Int`], `-0.0`
    /// folds to `0`, non-finite floats become `null` exactly as
    /// [`Json::render`] would emit them), arrays canonicalized
    /// element-wise with order preserved.
    ///
    /// Canonicalization is idempotent, and `parse(render)` of a canonical
    /// document is the identity — so [`Json::render_canonical`] is a
    /// byte-stable fingerprint of the document's *content*, independent of
    /// key order or number spelling in the source text (property-tested in
    /// `tests/json_prop.rs`).
    pub fn canonicalize(&self) -> Json {
        match self {
            Json::Null | Json::Bool(_) | Json::Str(_) => self.clone(),
            Json::Num(n) => canonical_num(*n),
            Json::Arr(items) => Json::Arr(items.iter().map(Json::canonicalize).collect()),
            Json::Obj(members) => {
                let mut out: Vec<(String, Json)> = Vec::with_capacity(members.len());
                for (k, v) in members {
                    // First occurrence wins, matching `get`'s lookup rule.
                    if out.iter().all(|(seen, _)| seen != k) {
                        out.push((k.clone(), v.canonicalize()));
                    }
                }
                out.sort_by(|a, b| a.0.cmp(&b.0));
                Json::Obj(out)
            }
        }
    }

    /// Compact rendering of [`Json::canonicalize`]: the byte-stable form
    /// content-addressed keys (`spec_hash`) are computed over.
    pub fn render_canonical(&self) -> String {
        self.canonicalize().render()
    }

    fn write(&self, out: &mut String, indent: Option<usize>, level: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(Num::UInt(v)) => out.push_str(&v.to_string()),
            Json::Num(Num::Int(v)) => out.push_str(&v.to_string()),
            Json::Num(Num::Float(v)) => {
                if v.is_finite() {
                    // `{:?}` is the shortest representation that re-parses
                    // to the same f64.
                    out.push_str(&format!("{v:?}"));
                } else {
                    // JSON has no NaN/Inf; match serde_json's `null`.
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, level + 1);
                    item.write(out, indent, level + 1);
                }
                newline_indent(out, indent, level);
                out.push(']');
            }
            Json::Obj(members) => {
                if members.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, level + 1);
                    write_escaped(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, level + 1);
                }
                newline_indent(out, indent, level);
                out.push('}');
            }
        }
    }
}

/// Normalize a number to its minimal canonical representation.
fn canonical_num(n: Num) -> Json {
    match n {
        Num::UInt(v) => Json::Num(Num::UInt(v)),
        Num::Int(v) => match u64::try_from(v) {
            Ok(u) => Json::Num(Num::UInt(u)),
            Err(_) => Json::Num(Num::Int(v)),
        },
        Num::Float(v) if !v.is_finite() => Json::Null,
        Num::Float(v) if v.fract() == 0.0 && v >= 0.0 && v < u64_exclusive_bound() => {
            // Every integral f64 in [0, 2^64) is exactly representable as
            // u64, so the cast is value-preserving (this also folds -0.0,
            // which compares >= 0.0, into 0).
            Json::Num(Num::UInt(v as u64))
        }
        Num::Float(v) if v.fract() == 0.0 && v < 0.0 && v >= i64::MIN as f64 => {
            Json::Num(Num::Int(v as i64))
        }
        Num::Float(v) => Json::Num(Num::Float(v)),
    }
}

/// `2^64` as f64 (exact): the smallest float *not* convertible to u64.
/// `u64::MAX as f64` rounds up to exactly this value, so a plain
/// `v <= u64::MAX as f64` bound would wrongly admit 2^64 itself.
fn u64_exclusive_bound() -> f64 {
    18446744073709551616.0
}

fn newline_indent(out: &mut String, indent: Option<usize>, level: usize) {
    if let Some(n) = indent {
        out.push('\n');
        for _ in 0..n * level {
            out.push(' ');
        }
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A JSON failure: parse errors carry a byte position (reported as
/// line/column), shape errors describe the mismatch.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError {
    msg: String,
}

impl JsonError {
    /// A structural ("shape") error from [`FromJson`] decoding.
    pub fn shape(msg: impl Into<String>) -> JsonError {
        JsonError { msg: msg.into() }
    }

    fn at(input: &str, pos: usize, msg: impl Into<String>) -> JsonError {
        let (mut line, mut col) = (1usize, 1usize);
        for b in input.as_bytes()[..pos.min(input.len())].iter() {
            if *b == b'\n' {
                line += 1;
                col = 1;
            } else {
                col += 1;
            }
        }
        JsonError {
            msg: format!("{} at line {line} column {col}", msg.into()),
        }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.msg)
    }
}

impl std::error::Error for JsonError {}

/// Parse a complete JSON document. Trailing non-whitespace is an error.
pub fn parse(input: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        input,
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(v)
}

struct Parser<'a> {
    input: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: impl Into<String>) -> JsonError {
        JsonError::at(self.input, self.pos, msg)
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
            Err(self.err(format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(format!("invalid literal (expected `{word}`)")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            None => Err(self.err("unexpected end of input")),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(format!("unexpected character {:?}", c as char))),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
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

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            let start = self.pos;
            // Fast path: copy the longest escape-free ASCII/UTF-8 run.
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            s.push_str(&self.input[start..self.pos]);
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    s.push(self.escape()?);
                }
                Some(_) => return Err(self.err("control character in string")),
            }
        }
    }

    fn escape(&mut self) -> Result<char, JsonError> {
        let c = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
        self.pos += 1;
        Ok(match c {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{08}',
            b'f' => '\u{0c}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => return self.unicode_escape(),
            _ => return Err(self.err("invalid escape character")),
        })
    }

    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let first = self.hex4()?;
        if (0xD800..0xDC00).contains(&first) {
            // High surrogate: require a following \uXXXX low surrogate.
            if self.peek() == Some(b'\\') {
                self.pos += 1;
                if self.peek() == Some(b'u') {
                    self.pos += 1;
                    let second = self.hex4()?;
                    if (0xDC00..0xE000).contains(&second) {
                        let cp = 0x10000 + ((first - 0xD800) << 10) + (second - 0xDC00);
                        return char::from_u32(cp)
                            .ok_or_else(|| self.err("invalid surrogate pair"));
                    }
                }
            }
            return Err(self.err("unpaired surrogate"));
        }
        if (0xDC00..0xE000).contains(&first) {
            return Err(self.err("unpaired surrogate"));
        }
        char::from_u32(first).ok_or_else(|| self.err("invalid \\u escape"))
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let c = self
                .peek()
                .ok_or_else(|| self.err("truncated \\u escape"))?;
            let d = (c as char)
                .to_digit(16)
                .ok_or_else(|| self.err("invalid hex digit in \\u escape"))?;
            v = v * 16 + d;
            self.pos += 1;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        let neg = self.peek() == Some(b'-');
        if neg {
            self.pos += 1;
        }
        // Integer part: `0` or nonzero-led digits.
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            _ => return Err(self.err("invalid number")),
        }
        let mut integral = true;
        if self.peek() == Some(b'.') {
            integral = false;
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("digits required after decimal point"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integral = false;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("digits required in exponent"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = &self.input[start..self.pos];
        if integral {
            if !neg {
                if let Ok(v) = text.parse::<u64>() {
                    return Ok(Json::Num(Num::UInt(v)));
                }
            } else if let Ok(v) = text.parse::<i64>() {
                return Ok(Json::Num(Num::Int(v)));
            }
        }
        text.parse::<f64>()
            .map(|v| Json::Num(Num::Float(v)))
            .map_err(|_| JsonError::at(self.input, start, "number out of range"))
    }
}

/// Conversion into a [`Json`] value.
pub trait ToJson {
    /// Build the JSON representation.
    fn to_json(&self) -> Json;
}

/// Conversion from a [`Json`] value.
pub trait FromJson: Sized {
    /// Decode from JSON, or explain the shape mismatch.
    fn from_json(v: &Json) -> Result<Self, JsonError>;
}

/// Encode any [`ToJson`] value as a pretty-printed document.
pub fn to_string_pretty<T: ToJson>(value: &T) -> String {
    value.to_json().render_pretty()
}

/// Parse a document and decode it as `T`.
pub fn from_str<T: FromJson>(input: &str) -> Result<T, JsonError> {
    T::from_json(&parse(input)?)
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}
impl FromJson for bool {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_bool()
            .ok_or_else(|| JsonError::shape(format!("expected bool, got {v:?}")))
    }
}

macro_rules! impl_json_uint {
    ($($t:ty),+) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                Json::Num(Num::UInt(*self as u64))
            }
        }
        impl FromJson for $t {
            fn from_json(v: &Json) -> Result<Self, JsonError> {
                let n = v.as_u64()
                    .ok_or_else(|| JsonError::shape(format!(
                        concat!("expected ", stringify!($t), ", got {:?}"), v)))?;
                <$t>::try_from(n).map_err(|_| JsonError::shape(format!(
                    concat!("value {} out of range for ", stringify!($t)), n)))
            }
        }
    )+};
}
impl_json_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_json_int {
    ($($t:ty),+) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                let v = *self as i64;
                if v < 0 { Json::Num(Num::Int(v)) } else { Json::Num(Num::UInt(v as u64)) }
            }
        }
        impl FromJson for $t {
            fn from_json(v: &Json) -> Result<Self, JsonError> {
                let n = v.as_i64()
                    .ok_or_else(|| JsonError::shape(format!(
                        concat!("expected ", stringify!($t), ", got {:?}"), v)))?;
                <$t>::try_from(n).map_err(|_| JsonError::shape(format!(
                    concat!("value {} out of range for ", stringify!($t)), n)))
            }
        }
    )+};
}
impl_json_int!(i8, i16, i32, i64, isize);

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::Num(Num::Float(*self))
    }
}
impl FromJson for f64 {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_f64()
            .ok_or_else(|| JsonError::shape(format!("expected number, got {v:?}")))
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}
impl FromJson for String {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_str()
            .map(str::to_string)
            .ok_or_else(|| JsonError::shape(format!("expected string, got {v:?}")))
    }
}

impl ToJson for str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_string())
    }
}

/// A shared string is encoded exactly like a `String`.
impl ToJson for Arc<str> {
    fn to_json(&self) -> Json {
        (**self).to_json()
    }
}
impl FromJson for Arc<str> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        String::from_json(v).map(Arc::from)
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(v) => v.to_json(),
            None => Json::Null,
        }
    }
}
impl<T: FromJson> FromJson for Option<T> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Null => Ok(None),
            other => T::from_json(other).map(Some),
        }
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        self.as_slice().to_json()
    }
}
impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_arr()
            .ok_or_else(|| JsonError::shape(format!("expected array, got {v:?}")))?
            .iter()
            .map(T::from_json)
            .collect()
    }
}

/// A shared slice is encoded exactly like a `Vec` of the same items.
impl<T: ToJson> ToJson for Arc<[T]> {
    fn to_json(&self) -> Json {
        (**self).to_json()
    }
}
impl<T: FromJson> FromJson for Arc<[T]> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Vec::<T>::from_json(v).map(Arc::from)
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn to_json(&self) -> Json {
        Json::Arr(vec![self.0.to_json(), self.1.to_json()])
    }
}
impl<A: FromJson, B: FromJson> FromJson for (A, B) {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v.as_arr() {
            Some([a, b]) => Ok((A::from_json(a)?, B::from_json(b)?)),
            _ => Err(JsonError::shape(format!(
                "expected 2-element array, got {v:?}"
            ))),
        }
    }
}

impl<K: ToString, V: ToJson> ToJson for BTreeMap<K, V> {
    fn to_json(&self) -> Json {
        Json::Obj(
            self.iter()
                .map(|(k, v)| (k.to_string(), v.to_json()))
                .collect(),
        )
    }
}

impl<K: std::str::FromStr + Ord, V: FromJson> FromJson for BTreeMap<K, V> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_obj()
            .ok_or_else(|| JsonError::shape(format!("expected object, got {v:?}")))?
            .iter()
            .map(|(k, val)| {
                let key = k
                    .parse::<K>()
                    .map_err(|_| JsonError::shape(format!("unparseable map key {k:?}")))?;
                Ok((key, V::from_json(val)?))
            })
            .collect()
    }
}

impl ToJson for std::net::Ipv4Addr {
    fn to_json(&self) -> Json {
        Json::Str(self.to_string())
    }
}
impl FromJson for std::net::Ipv4Addr {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let s = v
            .as_str()
            .ok_or_else(|| JsonError::shape(format!("expected IPv4 string, got {v:?}")))?;
        s.parse()
            .map_err(|_| JsonError::shape(format!("invalid IPv4 address {s:?}")))
    }
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}
impl FromJson for Json {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(v.clone())
    }
}

#[doc(hidden)]
pub fn missing_field(ty: &str, field: &str) -> JsonError {
    JsonError::shape(format!("{ty}: missing field `{field}`"))
}

#[doc(hidden)]
pub fn in_field(ty: &str, field: &str, e: JsonError) -> JsonError {
    JsonError::shape(format!("{ty}.{field}: {e}"))
}

/// Implements [`ToJson`] and [`FromJson`] for a named-field struct.
///
/// Fields decode by name; a field spelled `name: default_expr` falls back
/// to `default_expr` when the key is absent (the `#[serde(default)]`
/// replacement).
///
/// ```
/// use substrate::json_struct;
/// #[derive(Debug, PartialEq)]
/// struct Point { x: u32, y: u32, label: String }
/// json_struct!(Point { x, y, label: String::from("origin") });
/// let p: Point = substrate::json::from_str(r#"{"x":1,"y":2}"#).unwrap();
/// assert_eq!(p, Point { x: 1, y: 2, label: "origin".into() });
/// ```
#[macro_export]
macro_rules! json_struct {
    ($ty:ident { $($field:ident $(: $default:expr)?),+ $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::Json {
                $crate::json::Json::Obj(vec![
                    $((stringify!($field).to_string(),
                       $crate::json::ToJson::to_json(&self.$field)),)+
                ])
            }
        }
        impl $crate::json::FromJson for $ty {
            fn from_json(v: &$crate::json::Json) -> Result<Self, $crate::json::JsonError> {
                if v.as_obj().is_none() {
                    return Err($crate::json::JsonError::shape(format!(
                        concat!(stringify!($ty), ": expected object, got {:?}"), v)));
                }
                Ok($ty {
                    $($field: $crate::__json_field!(
                        v, stringify!($ty), stringify!($field) $(, $default)?),)+
                })
            }
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __json_field {
    ($v:expr, $ty:expr, $name:expr) => {
        match $v.get($name) {
            Some(f) => $crate::json::FromJson::from_json(f)
                .map_err(|e| $crate::json::in_field($ty, $name, e))?,
            None => return Err($crate::json::missing_field($ty, $name)),
        }
    };
    ($v:expr, $ty:expr, $name:expr, $default:expr) => {
        match $v.get($name) {
            Some(f) => $crate::json::FromJson::from_json(f)
                .map_err(|e| $crate::json::in_field($ty, $name, e))?,
            None => $default,
        }
    };
}

/// Implements [`ToJson`]/[`FromJson`] for a unit-variant enum as its
/// variant-name string (the serde derive's external representation).
///
/// ```
/// use substrate::json_enum;
/// #[derive(Debug, PartialEq)]
/// enum Mode { Fast, Slow }
/// json_enum!(Mode { Fast, Slow });
/// assert_eq!(substrate::json::from_str::<Mode>("\"Fast\"").unwrap(), Mode::Fast);
/// ```
#[macro_export]
macro_rules! json_enum {
    ($ty:ident { $($variant:ident),+ $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::Json {
                match self {
                    $($ty::$variant =>
                        $crate::json::Json::Str(stringify!($variant).to_string()),)+
                }
            }
        }
        impl $crate::json::FromJson for $ty {
            fn from_json(v: &$crate::json::Json) -> Result<Self, $crate::json::JsonError> {
                match v.as_str() {
                    $(Some(stringify!($variant)) => Ok($ty::$variant),)+
                    _ => Err($crate::json::JsonError::shape(format!(
                        concat!("unknown ", stringify!($ty), " variant: {:?}"), v))),
                }
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse("true").unwrap(), Json::Bool(true));
        assert_eq!(parse("false").unwrap(), Json::Bool(false));
        assert_eq!(parse(" 42 ").unwrap(), Json::uint(42));
        assert_eq!(parse("-7").unwrap(), Json::Num(Num::Int(-7)));
        assert_eq!(parse("1.5").unwrap(), Json::float(1.5));
        assert_eq!(parse("1e3").unwrap(), Json::float(1000.0));
        assert_eq!(parse("\"hi\"").unwrap(), Json::str("hi"));
    }

    #[test]
    fn u64_seeds_roundtrip_exactly() {
        for v in [0u64, 1, u64::MAX, (1 << 53) + 1, 0xDEAD_BEEF_CAFE_F00D] {
            let doc = Json::uint(v).render();
            assert_eq!(parse(&doc).unwrap().as_u64(), Some(v), "seed {v}");
        }
    }

    #[test]
    fn string_escapes_roundtrip() {
        for s in [
            "plain",
            "with \"quotes\" and \\ backslash",
            "newline\nand\ttab",
            "unicode: ∂é→ 🦀",
            "\u{01}\u{1f}",
        ] {
            let doc = Json::str(s).render();
            assert_eq!(parse(&doc).unwrap(), Json::str(s), "{s:?} via {doc}");
        }
    }

    #[test]
    fn surrogate_pair_escape() {
        assert_eq!(parse(r#""\ud83e\udd80""#).unwrap(), Json::str("🦀"));
        assert!(parse(r#""\ud83e""#).is_err(), "unpaired surrogate");
        assert!(parse(r#""\udd80""#).is_err(), "lone low surrogate");
    }

    #[test]
    fn rejects_malformed_documents() {
        for doc in [
            "", "{", "}", "[1,", "[1 2]", "{\"a\"}", "{\"a\":}", "{a:1}", "tru", "nul", "01", "1.",
            "1e", "+1", "--1", "\"", "\"\\x\"", "[1]]", "1 2", "\u{0}",
        ] {
            assert!(parse(doc).is_err(), "should reject {doc:?}");
        }
    }

    #[test]
    fn depth_limit_is_an_error_not_a_crash() {
        let deep = "[".repeat(100_000);
        assert!(parse(&deep).is_err());
    }

    #[test]
    fn pretty_rendering_reparses() {
        let doc = Json::Obj(vec![
            ("seed".into(), Json::uint(42)),
            ("scale".into(), Json::float(0.01)),
            (
                "tags".into(),
                Json::Arr(vec![Json::str("a"), Json::Null, Json::Bool(true)]),
            ),
            ("empty".into(), Json::Obj(vec![])),
        ]);
        let pretty = doc.render_pretty();
        assert_eq!(parse(&pretty).unwrap(), doc);
        assert_eq!(parse(&doc.render()).unwrap(), doc);
        assert!(pretty.contains("\n  \"seed\": 42"));
    }

    #[test]
    fn object_order_is_preserved() {
        let doc = parse(r#"{"z":1,"a":2}"#).unwrap();
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["z", "a"]);
    }

    #[derive(Debug, PartialEq)]
    struct Demo {
        id: u64,
        ratio: f64,
        name: String,
        alias: Option<String>,
        flags: Vec<bool>,
        weight: Option<(String, f64)>,
        extra: u32,
    }
    json_struct!(Demo {
        id,
        ratio,
        name,
        alias,
        flags,
        weight,
        extra: 7
    });

    #[derive(Debug, PartialEq)]
    enum Color {
        Red,
        Green,
    }
    json_enum!(Color { Red, Green });

    #[test]
    fn struct_macro_roundtrips_with_defaults() {
        let d = Demo {
            id: u64::MAX,
            ratio: 0.25,
            name: "x".into(),
            alias: None,
            flags: vec![true, false],
            weight: Some(("w".into(), 1.5)),
            extra: 9,
        };
        let text = to_string_pretty(&d);
        assert_eq!(from_str::<Demo>(&text).unwrap(), d);
        // Dropping the defaulted field falls back; dropping a required one
        // errors with the field name.
        let missing_extra =
            r#"{"id":1,"ratio":1.0,"name":"n","alias":null,"flags":[],"weight":null}"#;
        assert_eq!(from_str::<Demo>(missing_extra).unwrap().extra, 7);
        let missing_name = r#"{"id":1,"ratio":1.0,"alias":null,"flags":[],"weight":null}"#;
        let err = from_str::<Demo>(missing_name).unwrap_err().to_string();
        assert!(err.contains("name"), "error was: {err}");
    }

    #[test]
    fn shared_slices_encode_like_vecs() {
        let items: Vec<(String, u64)> = vec![("a".into(), 1), ("b".into(), u64::MAX)];
        let shared: Arc<[(String, u64)]> = Arc::from(items.clone());
        let text = to_string_pretty(&shared);
        assert_eq!(text, to_string_pretty(&items), "same bytes as the Vec");
        let back = from_str::<Arc<[(String, u64)]>>(&text).unwrap();
        assert_eq!(&*back, items.as_slice());
        let empty: Arc<[bool]> = Arc::from(Vec::new());
        assert_eq!(empty.to_json().render(), "[]");
        assert!(from_str::<Arc<[bool]>>("{}").is_err());
    }

    #[test]
    fn shared_strings_encode_like_strings() {
        let owned = String::from("ua \"quoted\" \u{e9}");
        let shared: Arc<str> = Arc::from(owned.as_str());
        let text = to_string_pretty(&shared);
        assert_eq!(text, to_string_pretty(&owned), "same bytes as the String");
        assert_eq!(&*from_str::<Arc<str>>(&text).unwrap(), owned.as_str());
        assert!(from_str::<Arc<str>>("7").is_err());
    }

    #[test]
    fn enum_macro_roundtrips_and_rejects_unknown() {
        assert_eq!(Color::Red.to_json(), Json::str("Red"));
        assert_eq!(from_str::<Color>("\"Green\"").unwrap(), Color::Green);
        assert!(from_str::<Color>("\"Blue\"").is_err());
        assert!(from_str::<Color>("3").is_err());
    }

    #[test]
    fn non_finite_floats_render_as_null() {
        assert_eq!(Json::float(f64::NAN).render(), "null");
        assert_eq!(Json::float(f64::INFINITY).render(), "null");
    }

    #[test]
    fn canonicalize_sorts_keys_recursively() {
        let doc = parse(r#"{"z":{"b":1,"a":2},"a":[{"y":1,"x":2}]}"#).unwrap();
        assert_eq!(
            doc.render_canonical(),
            r#"{"a":[{"x":2,"y":1}],"z":{"a":2,"b":1}}"#
        );
    }

    #[test]
    fn canonicalize_normalizes_numbers() {
        // Integral floats collapse to exact integers; spelling disappears.
        assert_eq!(parse("1.0").unwrap().render_canonical(), "1");
        assert_eq!(parse("1e3").unwrap().render_canonical(), "1000");
        assert_eq!(parse("-2.0").unwrap().render_canonical(), "-2");
        assert_eq!(parse("-0.0").unwrap().render_canonical(), "0");
        assert_eq!(Json::Num(Num::Int(5)).render_canonical(), "5");
        // Non-integral and out-of-range floats stay floats.
        assert_eq!(parse("1.5").unwrap().render_canonical(), "1.5");
        assert_eq!(parse("1e300").unwrap().render_canonical(), "1e300");
        // The 2^64 boundary: u64::MAX survives, 2^64 itself stays a float.
        assert_eq!(
            Json::uint(u64::MAX).render_canonical(),
            u64::MAX.to_string()
        );
        let two_pow_64 = Json::float(18446744073709551616.0).canonicalize();
        assert!(matches!(two_pow_64, Json::Num(Num::Float(_))));
        // Non-finite floats canonicalize to the null they would render as.
        assert_eq!(Json::float(f64::NAN).canonicalize(), Json::Null);
    }

    #[test]
    fn canonicalize_is_idempotent_and_value_preserving() {
        let doc = parse(r#"{"b":2.0,"a":[1e2,true,"s",{"k":-0.0}],"c":null}"#).unwrap();
        let canon = doc.canonicalize();
        assert_eq!(canon.canonicalize(), canon, "idempotent");
        // Value-preserving: every leaf still reads back the same number.
        assert_eq!(canon.get("b").and_then(Json::as_u64), Some(2));
        let first = match canon.get("a") {
            Some(Json::Arr(items)) => items.first(),
            _ => None,
        };
        assert_eq!(first.and_then(Json::as_u64), Some(100));
        assert_eq!(
            parse(&canon.render()).unwrap(),
            canon,
            "canonical forms survive a render/parse cycle exactly"
        );
    }

    #[test]
    fn canonicalize_keeps_first_duplicate_key() {
        let doc = parse(r#"{"k":1,"k":2}"#).unwrap();
        assert_eq!(doc.render_canonical(), r#"{"k":1}"#, "matches get()");
    }

    #[test]
    fn canonical_rendering_is_key_order_independent() {
        let a = parse(r#"{"seed":1,"scale":0.5}"#).unwrap();
        let b = parse(r#"{"scale":0.5,"seed":1.0}"#).unwrap();
        assert_eq!(a.render_canonical(), b.render_canonical());
        assert_ne!(a.render(), b.render());
    }
}
