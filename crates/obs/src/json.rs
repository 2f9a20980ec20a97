//! A small JSON value type with a parser and compact and pretty writers.
//!
//! Every JSON artifact of the workspace goes through here: run reports,
//! event streams, Chrome traces, JSON layouts, shape files and the bench
//! harness's result tables. Typed structs convert to and from [`Value`]
//! at their I/O boundary, so a reader validates what it builds.
//!
//! * Objects keep their insertion order, so a writer controls its field
//!   order.
//! * Integers are kept as `u64`/`i64` and round-trip exactly, including
//!   fingerprints above 2^53.
//! * [`Value::pretty`] lays documents out as `serde_json::to_string_pretty`
//!   does (two-space indent, `"key": value`, `[]`/`{}` when empty), and
//!   floats print in the same shortest form (`1.0`, `0.25`, `1e-7`).
//!   Non-finite floats are written as `null`.
//!
//! # Example
//!
//! ```
//! use maskfrac_obs::json::{self, Value};
//!
//! let doc = Value::object([("id", "Clip-1".into()), ("shots", 12u64.into())]);
//! assert_eq!(doc.pretty(), "{\n  \"id\": \"Clip-1\",\n  \"shots\": 12\n}");
//! let back = json::parse(&doc.pretty()).expect("valid JSON");
//! assert_eq!(back, doc);
//! assert_eq!(back["shots"].as_u64(), Some(12));
//! ```

use std::fmt;

/// A parsed or to-be-written JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer.
    U64(u64),
    /// A negative integer (the parser never produces a non-negative one).
    I64(i64),
    /// A number with a fraction or exponent, or too large for an integer.
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, in insertion order.
    Object(Vec<(String, Value)>),
}

/// A parse error (with its byte offset) or a failed typed conversion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error(String);

impl Error {
    /// An error carrying `message`.
    pub fn new(message: impl Into<String>) -> Self {
        Error(message.into())
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

impl From<Error> for std::io::Error {
    fn from(e: Error) -> Self {
        std::io::Error::new(std::io::ErrorKind::InvalidData, e)
    }
}

static NULL: Value = Value::Null;

impl Value {
    /// An object from `(key, value)` pairs, in order.
    pub fn object<K: Into<String>>(entries: impl IntoIterator<Item = (K, Value)>) -> Value {
        Value::Object(entries.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// The value under `key` of an object (the first, if repeated).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value under `key`, or an error naming the missing field.
    ///
    /// # Errors
    ///
    /// When `self` is not an object or has no such key.
    pub fn field(&self, key: &str) -> Result<&Value, Error> {
        match self {
            Value::Object(_) => self
                .get(key)
                .ok_or_else(|| Error(format!("missing field `{key}`"))),
            other => Err(Error(format!(
                "expected an object with field `{key}`, found {}",
                other.kind()
            ))),
        }
    }

    /// `Some(n)` for a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Value::U64(n) => Some(n),
            _ => None,
        }
    }

    /// `Some(s)` for a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// `Some(items)` for an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The boolean, or an error.
    pub(crate) fn to_bool(&self) -> Result<bool, Error> {
        match *self {
            Value::Bool(b) => Ok(b),
            _ => Err(self.expected("a boolean")),
        }
    }

    /// The non-negative integer, or an error.
    pub(crate) fn to_u64(&self) -> Result<u64, Error> {
        self.as_u64()
            .ok_or_else(|| self.expected("a non-negative integer"))
    }

    /// The integer as `usize`, or an error.
    pub(crate) fn to_usize(&self) -> Result<usize, Error> {
        usize::try_from(self.to_u64()?).map_err(|_| self.expected("an integer fitting usize"))
    }

    /// The integer as `u32`, or an error.
    pub fn to_u32(&self) -> Result<u32, Error> {
        u32::try_from(self.to_u64()?).map_err(|_| self.expected("an integer fitting u32"))
    }

    /// The integer, or an error.
    pub fn to_i64(&self) -> Result<i64, Error> {
        match *self {
            Value::U64(n) => i64::try_from(n).map_err(|_| self.expected("an integer fitting i64")),
            Value::I64(n) => Ok(n),
            _ => Err(self.expected("an integer")),
        }
    }

    /// The number, or an error.
    pub(crate) fn to_f64(&self) -> Result<f64, Error> {
        match *self {
            Value::U64(n) => Ok(n as f64),
            Value::I64(n) => Ok(n as f64),
            Value::F64(x) => Ok(x),
            _ => Err(self.expected("a number")),
        }
    }

    /// The string, or an error.
    pub fn to_str(&self) -> Result<&str, Error> {
        self.as_str().ok_or_else(|| self.expected("a string"))
    }

    /// The array items, or an error.
    pub fn to_array(&self) -> Result<&[Value], Error> {
        self.as_array().ok_or_else(|| self.expected("an array"))
    }

    /// The object entries, or an error.
    pub fn to_object(&self) -> Result<&[(String, Value)], Error> {
        match self {
            Value::Object(entries) => Ok(entries),
            _ => Err(self.expected("an object")),
        }
    }

    fn expected(&self, what: &str) -> Error {
        Error(format!("expected {what}, found {}", self.kind()))
    }

    fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "a boolean",
            Value::U64(_) | Value::I64(_) | Value::F64(_) => "a number",
            Value::Str(_) => "a string",
            Value::Array(_) => "an array",
            Value::Object(_) => "an object",
        }
    }

    /// The document on one line, with no whitespace.
    pub(crate) fn compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None);
        out
    }

    /// Appends the compact form to `out`.
    pub(crate) fn write_compact(&self, out: &mut String) {
        self.write(out, None);
    }

    /// The document indented by two spaces per level, laid out as
    /// `serde_json::to_string_pretty` lays it out (no trailing newline).
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out
    }

    /// Appends `self`; `depth` is the nesting level when pretty-printing
    /// and `None` for the compact form.
    fn write(&self, out: &mut String, depth: Option<usize>) {
        let newline = |out: &mut String, depth: Option<usize>| {
            if let Some(d) = depth {
                out.push('\n');
                out.push_str(&"  ".repeat(d));
            }
        };
        let (open, close, items): (char, char, Vec<(Option<&str>, &Value)>) = match self {
            Value::Null => return out.push_str("null"),
            Value::Bool(b) => return out.push_str(if *b { "true" } else { "false" }),
            Value::U64(n) => return out.push_str(&n.to_string()),
            Value::I64(n) => return out.push_str(&n.to_string()),
            Value::F64(x) => return write_f64(out, *x),
            Value::Str(s) => return write_str(out, s),
            Value::Array(items) if items.is_empty() => return out.push_str("[]"),
            Value::Object(entries) if entries.is_empty() => return out.push_str("{}"),
            Value::Array(items) => ('[', ']', items.iter().map(|v| (None, v)).collect()),
            Value::Object(entries) => (
                '{',
                '}',
                entries.iter().map(|(k, v)| (Some(k.as_str()), v)).collect(),
            ),
        };
        let inner = depth.map(|d| d + 1);
        out.push(open);
        for (i, (key, v)) in items.into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            newline(out, inner);
            if let Some(k) = key {
                write_str(out, k);
                out.push_str(if depth.is_some() { ": " } else { ":" });
            }
            v.write(out, inner);
        }
        newline(out, depth);
        out.push(close);
    }
}

impl std::ops::Index<&str> for Value {
    type Output = Value;

    /// The value under `key`, or `null` when absent (or `self` is not an
    /// object).
    fn index(&self, key: &str) -> &Value {
        self.get(key).unwrap_or(&NULL)
    }
}

impl std::ops::Index<usize> for Value {
    type Output = Value;

    /// Item `i` of an array, or `null` when out of range (or `self` is
    /// not an array).
    fn index(&self, i: usize) -> &Value {
        self.as_array().and_then(|a| a.get(i)).unwrap_or(&NULL)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<u64> for Value {
    fn from(n: u64) -> Self {
        Value::U64(n)
    }
}

impl From<u32> for Value {
    fn from(n: u32) -> Self {
        Value::U64(n.into())
    }
}

impl From<usize> for Value {
    fn from(n: usize) -> Self {
        Value::U64(n as u64)
    }
}

impl From<i64> for Value {
    fn from(n: i64) -> Self {
        u64::try_from(n).map_or(Value::I64(n), Value::U64)
    }
}

impl From<f64> for Value {
    fn from(x: f64) -> Self {
        Value::F64(x)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_owned())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}

impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(items: Vec<T>) -> Self {
        Value::Array(items.into_iter().map(Into::into).collect())
    }
}

impl FromIterator<Value> for Value {
    /// Collects into an array.
    fn from_iter<I: IntoIterator<Item = Value>>(items: I) -> Self {
        Value::Array(items.into_iter().collect())
    }
}

/// Appends `s` as a quoted JSON string, escaping as `serde_json` does.
fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{8}' => out.push_str("\\b"),
            '\u{c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Appends `x` in the shortest form that parses back to the same `f64`,
/// laid out as `serde_json` (ryu) lays it out: `1.0`, `0.001`, `1e-7`,
/// `1.5e20`. Non-finite values become `null`.
fn write_f64(out: &mut String, x: f64) {
    if !x.is_finite() {
        out.push_str("null");
        return;
    }
    // `{:e}` yields the shortest round-trip digits as `d[.ddd]e<exp>`,
    // so the fallbacks below never apply.
    let sci = format!("{:e}", x.abs());
    let (mantissa, exp) = sci.split_once('e').unwrap_or((&sci, "0"));
    let digits: String = mantissa.chars().filter(|&c| c != '.').collect();
    let exp: i32 = exp.parse().unwrap_or(0);
    let n = digits.len() as i32;
    // The value is 0.DIGITS × 10^kk.
    let kk = exp + 1;
    if x.is_sign_negative() {
        out.push('-');
    }
    if 0 <= kk - n && kk <= 16 {
        out.push_str(&digits);
        out.push_str(&"0".repeat((kk - n) as usize));
        out.push_str(".0");
    } else if 0 < kk && kk <= 16 {
        let (int, frac) = digits.split_at(kk as usize);
        out.push_str(int);
        out.push('.');
        out.push_str(frac);
    } else if -5 < kk && kk <= 0 {
        out.push_str("0.");
        out.push_str(&"0".repeat((-kk) as usize));
        out.push_str(&digits);
    } else {
        out.push_str(&digits[..1]);
        if n > 1 {
            out.push('.');
            out.push_str(&digits[1..]);
        }
        out.push_str(&format!("e{}", kk - 1));
    }
}

/// Deepest nesting [`parse`] accepts, so hostile input cannot overflow
/// the stack.
pub(crate) const MAX_DEPTH: usize = 128;

/// Parses one JSON document (surrounding whitespace allowed).
///
/// # Errors
///
/// The first syntax error, with its byte offset.
pub fn parse(text: &str) -> Result<Value, Error> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        at: 0,
    };
    let value = p.value(0)?;
    p.skip_ws();
    if p.at < p.bytes.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn err(&self, what: &str) -> Error {
        Error(format!("{what} at byte {}", self.at))
    }

    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.bytes.get(self.at) {
            self.at += 1;
        }
    }

    fn eat(&mut self, literal: &str, value: Value) -> Result<Value, Error> {
        if self.bytes[self.at..].starts_with(literal.as_bytes()) {
            self.at += literal.len();
            Ok(value)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, Error> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.skip_ws();
        match self.bytes.get(self.at) {
            None => Err(self.err("unexpected end of input")),
            Some(b'n') => self.eat("null", Value::Null),
            Some(b't') => self.eat("true", Value::Bool(true)),
            Some(b'f') => self.eat("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => {
                self.at += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.bytes.get(self.at) == Some(&b']') {
                    self.at += 1;
                    return Ok(Value::Array(items));
                }
                loop {
                    items.push(self.value(depth + 1)?);
                    self.skip_ws();
                    match self.bytes.get(self.at) {
                        Some(b',') => self.at += 1,
                        Some(b']') => {
                            self.at += 1;
                            return Ok(Value::Array(items));
                        }
                        _ => return Err(self.err("expected `,` or `]`")),
                    }
                }
            }
            Some(b'{') => {
                self.at += 1;
                let mut entries = Vec::new();
                self.skip_ws();
                if self.bytes.get(self.at) == Some(&b'}') {
                    self.at += 1;
                    return Ok(Value::Object(entries));
                }
                loop {
                    self.skip_ws();
                    if self.bytes.get(self.at) != Some(&b'"') {
                        return Err(self.err("expected a string key"));
                    }
                    let key = self.string()?;
                    self.skip_ws();
                    if self.bytes.get(self.at) != Some(&b':') {
                        return Err(self.err("expected `:`"));
                    }
                    self.at += 1;
                    entries.push((key, self.value(depth + 1)?));
                    self.skip_ws();
                    match self.bytes.get(self.at) {
                        Some(b',') => self.at += 1,
                        Some(b'}') => {
                            self.at += 1;
                            return Ok(Value::Object(entries));
                        }
                        _ => return Err(self.err("expected `,` or `}`")),
                    }
                }
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
        }
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.at;
        let digits = |p: &mut Self| {
            let from = p.at;
            while p.bytes.get(p.at).is_some_and(u8::is_ascii_digit) {
                p.at += 1;
            }
            p.at > from
        };
        if self.bytes.get(self.at) == Some(&b'-') {
            self.at += 1;
        }
        let int_start = self.at;
        if !digits(self) {
            return Err(self.err("expected digits"));
        }
        if self.bytes[int_start] == b'0' && self.at - int_start > 1 {
            return Err(Error(format!("leading zero at byte {int_start}")));
        }
        let mut integral = true;
        if self.bytes.get(self.at) == Some(&b'.') {
            integral = false;
            self.at += 1;
            if !digits(self) {
                return Err(self.err("expected fraction digits"));
            }
        }
        if let Some(b'e' | b'E') = self.bytes.get(self.at) {
            integral = false;
            self.at += 1;
            if let Some(b'+' | b'-') = self.bytes.get(self.at) {
                self.at += 1;
            }
            if !digits(self) {
                return Err(self.err("expected exponent digits"));
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.at])
            .map_err(|_| Error(format!("invalid number at byte {start}")))?;
        if integral {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Value::U64(n));
            }
            if let Ok(n) = text.parse::<i64>() {
                return Ok(Value::I64(n));
            }
        }
        text.parse::<f64>()
            .ok()
            .filter(|x| x.is_finite())
            .map(Value::F64)
            .ok_or_else(|| Error(format!("number out of range at byte {start}")))
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        let hex = self
            .bytes
            .get(self.at..self.at + 4)
            .and_then(|h| std::str::from_utf8(h).ok())
            .and_then(|h| u32::from_str_radix(h, 16).ok())
            .ok_or_else(|| self.err("invalid \\u escape"))?;
        self.at += 4;
        Ok(hex)
    }

    fn string(&mut self) -> Result<String, Error> {
        self.at += 1; // opening quote
        let mut out = String::new();
        loop {
            let run_start = self.at;
            while let Some(&b) = self.bytes.get(self.at) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.at += 1;
            }
            // The input is a `str` and the run stops only at ASCII bytes,
            // so it is valid UTF-8.
            out.push_str(
                std::str::from_utf8(&self.bytes[run_start..self.at])
                    .map_err(|_| self.err("invalid UTF-8"))?,
            );
            match self.bytes.get(self.at) {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.at += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.at += 1;
                    let esc = *self
                        .bytes
                        .get(self.at)
                        .ok_or_else(|| self.err("unterminated string"))?;
                    self.at += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let code = if (0xD800..0xDC00).contains(&hi) {
                                if !self.bytes[self.at..].starts_with(b"\\u") {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                self.at += 2;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                            } else {
                                hi
                            };
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("invalid \\u escape"))?,
                            );
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                }
                Some(_) => return Err(self.err("control character in string")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(x: f64) -> String {
        let mut out = String::new();
        write_f64(&mut out, x);
        out
    }

    #[test]
    fn floats_print_like_serde_json() {
        let cases = [
            (0.0, "0.0"),
            (-0.0, "-0.0"),
            (1.0, "1.0"),
            (-2.5, "-2.5"),
            (0.1, "0.1"),
            (123.456, "123.456"),
            (1e15, "1000000000000000.0"),
            (1e16, "1e16"),
            (1.5e20, "1.5e20"),
            (0.0001, "0.0001"),
            (0.00001, "0.00001"),
            (0.000001, "1e-6"),
            (1.25e-7, "1.25e-7"),
            (f64::MAX, "1.7976931348623157e308"),
            (f64::NAN, "null"),
            (f64::INFINITY, "null"),
        ];
        for (x, want) in cases {
            assert_eq!(f(x), want, "{x:e}");
        }
    }

    #[test]
    fn floats_round_trip() {
        for x in [
            0.1,
            1.0 / 3.0,
            2.5e-9,
            6.02e23,
            -7.0,
            1e-300,
            0.30000000000000004,
        ] {
            let back = parse(&f(x)).unwrap().to_f64().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x}");
        }
    }

    #[test]
    fn integers_round_trip_exactly() {
        for n in [0, 1, (1u64 << 53) + 1, u64::MAX] {
            assert_eq!(parse(&n.to_string()).unwrap(), Value::U64(n));
        }
        assert_eq!(parse("-9223372036854775808").unwrap(), Value::I64(i64::MIN));
        assert_eq!(parse("-1").unwrap().to_i64(), Ok(-1));
        assert_eq!(
            parse("18446744073709551616").unwrap(),
            Value::F64(1.8446744073709552e19)
        );
        assert_eq!(Value::from(-3i64), Value::I64(-3));
        assert_eq!(Value::from(3i64), Value::U64(3));
    }

    #[test]
    fn pretty_layout_matches_serde_json() {
        let doc = Value::object([
            ("id", Value::from("a")),
            ("empty", Value::Array(vec![])),
            ("none", Value::object::<String>([])),
            ("xs", Value::from(vec![1u64, 2])),
            ("p", Value::object([("x", Value::from(0u64))])),
        ]);
        let want = "{\n  \"id\": \"a\",\n  \"empty\": [],\n  \"none\": {},\n  \"xs\": [\n    1,\n    2\n  ],\n  \"p\": {\n    \"x\": 0\n  }\n}";
        assert_eq!(doc.pretty(), want);
        assert_eq!(parse(want).unwrap(), doc);
    }

    #[test]
    fn strings_escape_and_unescape() {
        let s = "quote\" slash\\ tab\t nl\n bell\u{7} \u{8}\u{c} é \u{1F600}";
        let mut out = String::new();
        write_str(&mut out, s);
        assert_eq!(
            out,
            "\"quote\\\" slash\\\\ tab\\t nl\\n bell\\u0007 \\b\\f é \u{1F600}\""
        );
        assert_eq!(parse(&out).unwrap(), Value::from(s));
        assert_eq!(
            parse(r#""\ud83d\ude00 \/""#).unwrap(),
            Value::from("\u{1F600} /")
        );
    }

    #[test]
    fn malformed_input_is_an_error_not_a_panic() {
        for bad in [
            "",
            "{",
            "[1,",
            "[1 2]",
            "{\"a\" 1}",
            "{1:2}",
            "tru",
            "01",
            "1.",
            "1e",
            "-",
            "\"abc",
            "\"\\q\"",
            "\"\\u12\"",
            "\"\\ud800\"",
            "\"a\u{1}\"",
            "1 2",
            "nul",
            "1e999",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} parsed");
        }
        let deep = "[".repeat(MAX_DEPTH + 2) + &"]".repeat(MAX_DEPTH + 2);
        assert!(parse(&deep).unwrap_err().to_string().contains("too deep"));
        let err = parse("[1,]").unwrap_err();
        assert!(err.to_string().contains("byte 3"), "{err}");
    }

    #[test]
    fn typed_accessors_report_what_was_wrong() {
        let doc = parse(r#"{"n": -4, "s": "x"}"#).unwrap();
        assert_eq!(doc.field("n").unwrap().to_i64(), Ok(-4));
        assert!(doc
            .field("n")
            .unwrap()
            .to_u64()
            .unwrap_err()
            .to_string()
            .contains("non-negative"));
        assert!(doc
            .field("zz")
            .unwrap_err()
            .to_string()
            .contains("missing field `zz`"));
        assert!(doc["s"]
            .to_f64()
            .unwrap_err()
            .to_string()
            .contains("found a string"));
        assert_eq!(doc["missing"], Value::Null);
        assert_eq!(doc["s"][0], Value::Null);
    }
}
