//! The workspace's one JSON module: the writer every document the
//! workspace emits is spelled by — braces, brackets, commas, quoted keys,
//! string escapes and number spellings live here and nowhere else — and a
//! minimal strict reader for the documents it writes (ledger records,
//! journal payloads, worker lines, benchmark summaries).
//!
//! ```
//! use pcv_trace::json;
//! let doc = json::object(|o| {
//!     o.str("kind", "hello").raw("shard", 2).f64("ms", 1.5);
//!     o.arr("names", |a| {
//!         a.str("a\"b");
//!     });
//! });
//! assert_eq!(doc, r#"{"kind":"hello","shard":2,"ms":1.5,"names":["a\"b"]}"#);
//! ```

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

/// Append `s`'s characters to `out`, escaped for a JSON string. Runs that
/// need no escape are copied whole.
fn escape(out: &mut String, s: &str) {
    let mut run = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        // `i` is an ASCII byte, so a char boundary.
        out.push_str(&s[run..i]);
        if escape.is_empty() {
            let _ = write!(out, "\\u{:04x}", b);
        } else {
            out.push_str(escape);
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
}

/// Append `s` to `out` as a JSON string literal (with quotes).
fn write_str(out: &mut String, s: &str) {
    out.push('"');
    escape(out, s);
    out.push('"');
}

/// A JSON string literal for `s`.
pub fn str_lit(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    write_str(&mut out, s);
    out
}

/// Append a JSON number for a finite `f64`: Rust's shortest round-trip
/// decimal, with `.0` added to an integral value so it reads back as a
/// float. Non-finite values are written as strings (plain JSON has no
/// NaN/Infinity).
fn write_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let start = out.len();
        let _ = write!(out, "{v}");
        if !out[start..].contains(['.', 'e', 'E']) {
            out.push_str(".0");
        }
    } else {
        let _ = write!(out, "\"{v}\"");
    }
}

/// A new `String` holding one JSON object, its members written by `f`.
pub fn object(f: impl FnOnce(&mut Obj<'_>)) -> String {
    let mut out = String::new();
    write_object(&mut out, f);
    out
}

/// Append one JSON object to `out`, its members written by `f`.
pub fn write_object(out: &mut String, f: impl FnOnce(&mut Obj<'_>)) {
    out.push('{');
    f(&mut Obj(Open { out: &mut *out, empty: true }));
    out.push('}');
}

/// What an open object and an open array share: the buffer, and whether
/// the next entry is the first.
#[derive(Debug)]
struct Open<'a> {
    out: &'a mut String,
    empty: bool,
}

impl Open<'_> {
    /// The buffer, after the comma that separates the next entry.
    fn next(&mut self) -> &mut String {
        if !std::mem::replace(&mut self.empty, false) {
            self.out.push(',');
        }
        self.out
    }
}

/// An open JSON object. Each member call writes the separating comma, the
/// quoted key and the value; whoever opened the object closes it. Code
/// that contributes members to an object another caller opened takes
/// `&mut Obj`.
#[derive(Debug)]
pub struct Obj<'a>(Open<'a>);

impl Obj<'_> {
    /// The separator and `"key":`; the value goes after.
    fn key(&mut self, key: &str) -> &mut String {
        let out = self.0.next();
        write_str(out, key);
        out.push(':');
        out
    }

    /// `"key":"v"`, escaped.
    pub fn str(&mut self, key: &str, v: &str) -> &mut Self {
        write_str(self.key(key), v);
        self
    }

    /// `"key":v` — the shortest decimal that reads back to the same `f64`,
    /// `.0` on integral values, a string for NaN and infinities.
    pub fn f64(&mut self, key: &str, v: f64) -> &mut Self {
        write_f64(self.key(key), v);
        self
    }

    /// `"key":v,"key_bits":"<16 hex digits>"` — the report documents'
    /// float: readable, and exact in its IEEE-754 bit pattern.
    pub fn float(&mut self, key: &str, v: f64) -> &mut Self {
        let out = self.key(key);
        write_f64(out, v);
        out.push_str(",\"");
        escape(out, key);
        let _ = write!(out, "_bits\":\"{:016x}\"", v.to_bits());
        self
    }

    /// `"key":"<16 hex digits>"` — a 64-bit word (a fingerprint, a float's
    /// bits) as a string, exact where a JSON number is not.
    pub fn hex(&mut self, key: &str, v: u64) -> &mut Self {
        let _ = write!(self.key(key), "\"{v:016x}\"");
        self
    }

    /// `"key":v` with `v`'s `Display` text written as it is: an integer, a
    /// bool, a fixed-format number (`format_args!("{:.3}", ms)`), `null`,
    /// or a document already rendered as JSON.
    pub fn raw(&mut self, key: &str, v: impl fmt::Display) -> &mut Self {
        let _ = write!(self.key(key), "{v}");
        self
    }

    /// `"key":{…}`, its members written by `f`.
    pub fn obj(&mut self, key: &str, f: impl FnOnce(&mut Obj<'_>)) -> &mut Self {
        write_object(self.key(key), f);
        self
    }

    /// `"key":[…]`, its elements written by `f`.
    pub fn arr(&mut self, key: &str, f: impl FnOnce(&mut Arr<'_>)) -> &mut Self {
        let out = self.key(key);
        out.push('[');
        f(&mut Arr(Open { out: &mut *out, empty: true }));
        out.push(']');
        self
    }
}

/// An open JSON array; see [`Obj`].
#[derive(Debug)]
pub struct Arr<'a>(Open<'a>);

impl Arr<'_> {
    /// A string element, escaped.
    pub fn str(&mut self, v: &str) -> &mut Self {
        write_str(self.0.next(), v);
        self
    }

    /// A float element, spelled as [`Obj::f64`] spells it.
    pub fn f64(&mut self, v: f64) -> &mut Self {
        write_f64(self.0.next(), v);
        self
    }

    /// An object element, its members written by `f`.
    pub fn obj(&mut self, f: impl FnOnce(&mut Obj<'_>)) -> &mut Self {
        write_object(self.0.next(), f);
        self
    }
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, key-ordered.
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// The string content, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric content, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric content as `u64`, if this is a non-negative integral
    /// number small enough to round-trip exactly.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// Member lookup, if this is an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The object map, if this is an object.
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }
}

/// A parse failure: what went wrong and the byte offset it happened at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Human-readable description.
    pub what: &'static str,
    /// Byte offset into the input.
    pub at: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json parse error at byte {}: {}", self.at, self.what)
    }
}

impl std::error::Error for ParseError {}

/// Parse one complete JSON document; trailing non-whitespace is an error.
///
/// # Errors
///
/// [`ParseError`] with the offending byte offset.
pub fn parse(text: &str) -> Result<Value, ParseError> {
    let bytes = text.as_bytes();
    let mut p = Parser { bytes, pos: 0, depth: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != bytes.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(v)
}

/// How deeply arrays and objects may nest: the parser recurses once a
/// level, and a hostile document must not overflow the stack.
const MAX_DEPTH: usize = 512;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, what: &'static str) -> ParseError {
        ParseError { what, at: self.pos }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8, what: &'static str) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(what))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'{' | b'[') if self.depth == MAX_DEPTH => Err(self.err("nesting too deep")),
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn nested(
        &mut self,
        f: fn(&mut Self) -> Result<Value, ParseError>,
    ) -> Result<Value, ParseError> {
        self.depth += 1;
        let v = f(self);
        self.depth -= 1;
        v
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.expect(b'{', "expected '{'")?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':', "expected ':' after key")?;
            self.skip_ws();
            let val = self.value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(map));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.expect(b'[', "expected '['")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"', "expected '\"'")?;
        let mut out = String::new();
        loop {
            // The run up to the next quote or backslash, copied whole: it
            // starts on a char boundary and ends on an ASCII byte, so it is
            // UTF-8 whenever the input is.
            let rest = &self.bytes[self.pos..];
            let run = rest.iter().position(|&b| b == b'"' || b == b'\\').unwrap_or(rest.len());
            let text = std::str::from_utf8(&rest[..run])
                .map_err(|_| self.err("invalid utf-8 in string"))?;
            out.push_str(text);
            self.pos += run;
            let Some(b) = self.peek() else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            if b == b'"' {
                return Ok(out);
            }
            let Some(esc) = self.peek() else {
                return Err(self.err("unterminated escape"));
            };
            self.pos += 1;
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
                    let hex = self
                        .bytes
                        .get(self.pos..self.pos + 4)
                        .and_then(|h| std::str::from_utf8(h).ok())
                        .and_then(crate::parse_hex::<u32>)
                        .ok_or_else(|| self.err("invalid \\u escape"))?;
                    self.pos += 4;
                    // Surrogate pairs are not produced by our writers;
                    // reject rather than mis-decode.
                    let c = char::from_u32(hex)
                        .ok_or_else(|| self.err("unsupported \\u code point"))?;
                    out.push(c);
                }
                _ => return Err(self.err("unknown escape")),
            }
        }
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        text.parse::<f64>().map(Value::Num).map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_unicode_escape_is_four_hex_digits() {
        assert_eq!(parse(r#""\u0041""#).unwrap().as_str(), Some("A"));
        for hostile in [r#""\u+041""#, r#""\u 041""#, r#""\u-041""#, r#""\u004""#] {
            assert!(parse(hostile).is_err(), "{hostile} was read");
        }
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(str_lit("plain"), "\"plain\"");
        assert_eq!(str_lit("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(str_lit("line\nbreak\ttab"), "\"line\\nbreak\\ttab\"");
        assert_eq!(str_lit("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn numbers_stay_numbers() {
        let doc = object(|o| {
            for (key, v) in [("a", 0.25), ("b", 3.0), ("c", 1e-15), ("d", f64::INFINITY)] {
                o.f64(key, v);
            }
        });
        assert_eq!(doc, r#"{"a":0.25,"b":3.0,"c":0.000000000000001,"d":"inf"}"#);
    }

    #[test]
    fn the_writer_owns_the_punctuation() {
        let mut out = String::from("x=");
        write_object(&mut out, |o| {
            o.str("k\"", "v")
                .float("p", -0.5)
                .hex("fp", 0xabc)
                .raw("n", 7)
                .raw("ms", format_args!("{:.3}", 1.0 / 3.0));
            o.obj("empty", |_| {}).arr("none", |_| {});
            o.arr("items", |a| {
                a.str("s").f64(2.0).obj(|o| {
                    o.raw("null", "null");
                });
            });
        });
        assert_eq!(
            out,
            concat!(
                r#"x={"k\"":"v","p":-0.5,"p_bits":"bfe0000000000000","fp":"0000000000000abc","#,
                r#""n":7,"ms":0.333,"empty":{},"none":[],"items":["s",2.0,{"null":null}]}"#
            )
        );
        assert!(parse(&out[2..]).is_ok());
        assert_eq!(object(|_| {}), "{}");
    }

    #[test]
    fn parses_scalars_and_nesting() {
        let v = parse(r#"{"a":1,"b":[true,null,"x\n"],"c":{"d":-2.5e-1}}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_u64(), Some(1));
        let b = v.get("b").unwrap().as_arr().unwrap();
        assert_eq!(b[0], Value::Bool(true));
        assert_eq!(b[1], Value::Null);
        assert_eq!(b[2].as_str(), Some("x\n"));
        assert_eq!(v.get("c").unwrap().get("d").unwrap().as_f64(), Some(-0.25));
    }

    #[test]
    fn round_trips_trace_writer_output() {
        // The documents our writers emit must come back intact.
        let lit = str_lit("weird \"name\"\twith\\slashes");
        let v = parse(&lit).unwrap();
        assert_eq!(v.as_str(), Some("weird \"name\"\twith\\slashes"));
        let v = parse(&object(|o| {
            o.f64("x", 0.15);
        }))
        .unwrap();
        assert_eq!(v.get("x").and_then(Value::as_f64), Some(0.15));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "{\"a\":}", "[1,]", "tru", "\"open", "1 2", "{\"a\":1}x"] {
            assert!(parse(bad).is_err(), "accepted malformed {bad:?}");
        }
    }

    #[test]
    fn string_errors_keep_their_offsets() {
        let cases = [
            ("\"open", ParseError { what: "unterminated string", at: 5 }),
            ("\"a\\", ParseError { what: "unterminated escape", at: 3 }),
            ("\"\\u12", ParseError { what: "invalid \\u escape", at: 3 }),
            ("\"\\ud800\"", ParseError { what: "unsupported \\u code point", at: 7 }),
            ("\"ab\\q\"", ParseError { what: "unknown escape", at: 5 }),
            ("{\"caf\u{e9}\":1,\"k\"}", ParseError { what: "expected ':' after key", at: 14 }),
        ];
        for (text, want) in cases {
            assert_eq!(parse(text), Err(want), "{text:?}");
        }
    }

    #[test]
    fn nesting_is_bounded() {
        let deep = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&deep(MAX_DEPTH)).is_ok());
        let err = parse(&deep(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!((err.what, err.at), ("nesting too deep", MAX_DEPTH));
        let err = parse(&"{\"a\":[".repeat(200_000)).unwrap_err();
        assert_eq!(err.what, "nesting too deep");
    }

    #[test]
    fn unicode_and_escapes_survive() {
        let v = parse("\"caf\u{e9} \\u0041\"").unwrap();
        assert_eq!(v.as_str(), Some("café A"));
    }
}
