//! Offline stand-in for [`serde_json`](https://crates.io/crates/serde_json).
//!
//! Renders the serde shim's [`serde::Value`] model to JSON text and parses
//! JSON text back, exposing the entry points this workspace uses:
//! [`to_writer`], [`to_writer_pretty`], [`to_string`], [`to_string_pretty`],
//! [`from_reader`], [`from_str`], [`json!`] and [`Error`].
//!
//! Number handling matches what the workspace needs for lossless round-trips:
//! `u64`/`i64` are printed as integers, floats via Rust's shortest-round-trip
//! `Display`, and non-finite floats are rejected. Callers that want `null`
//! for them convert with `Value::from(f64)` first.
//!
//! This is the workspace's one JSON writer: all of its JSON is rendered
//! here, and `escape_into` is the only string escaper.

#![forbid(unsafe_code)]

pub use serde::Value;
use serde::{Deserialize, Serialize};
use std::io::{Read, Write};

#[doc(hidden)]
pub use serde::Serialize as __Serialize;

/// Builds a JSON object [`Value`] from `{ "key": expr, ... }`, keeping the
/// keys in the order written. Each `expr` is any `Serialize` value; nested
/// objects are nested `json!` calls. This is the object form of real
/// `serde_json::json!`.
#[macro_export]
macro_rules! json {
    ({ $($key:literal : $value:expr),* $(,)? }) => {
        $crate::Value::Object(::std::vec![
            $((::std::string::String::from($key), $crate::__Serialize::to_value(&$value))),*
        ])
    };
}

/// JSON (de)serialization error.
#[derive(Debug)]
pub struct Error {
    message: String,
}

impl Error {
    fn new(message: impl Into<String>) -> Self {
        Error {
            message: message.into(),
        }
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for Error {}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::new(format!("i/o error: {e}"))
    }
}

impl From<serde::de::Error> for Error {
    fn from(e: serde::de::Error) -> Self {
        Error::new(e.to_string())
    }
}

// ---------------------------------------------------------------- rendering

/// Appends `s` to `out` as a quoted, escaped JSON string literal.
fn escape_into(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn render_into(out: &mut String, value: &Value, indent: Option<usize>) -> Result<(), Error> {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(v) => out.push_str(&v.to_string()),
        Value::UInt(v) => out.push_str(&v.to_string()),
        Value::Float(v) => {
            if !v.is_finite() {
                return Err(Error::new("cannot serialize non-finite float"));
            }
            let s = v.to_string();
            out.push_str(&s);
            // Keep floats recognizably floats on re-parse.
            if !s.contains('.') && !s.contains('e') && !s.contains('E') {
                out.push_str(".0");
            }
        }
        Value::Str(s) => escape_into(out, s),
        Value::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return Ok(());
            }
            out.push('[');
            let inner = indent.map(|i| i + 2);
            for (idx, item) in items.iter().enumerate() {
                if idx > 0 {
                    out.push(',');
                }
                if let Some(i) = inner {
                    out.push('\n');
                    out.push_str(&" ".repeat(i));
                }
                render_into(out, item, inner)?;
            }
            if let Some(i) = indent {
                out.push('\n');
                out.push_str(&" ".repeat(i));
            }
            out.push(']');
        }
        Value::Object(fields) => {
            if fields.is_empty() {
                out.push_str("{}");
                return Ok(());
            }
            out.push('{');
            let inner = indent.map(|i| i + 2);
            for (idx, (key, item)) in fields.iter().enumerate() {
                if idx > 0 {
                    out.push(',');
                }
                if let Some(i) = inner {
                    out.push('\n');
                    out.push_str(&" ".repeat(i));
                }
                escape_into(out, key);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                render_into(out, item, inner)?;
            }
            if let Some(i) = indent {
                out.push('\n');
                out.push_str(&" ".repeat(i));
            }
            out.push('}');
        }
    }
    Ok(())
}

/// Serializes `value` to a compact JSON string.
pub fn to_string<T: Serialize>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    render_into(&mut out, &value.to_value(), None)?;
    Ok(out)
}

/// Serializes `value` to a pretty-printed JSON string.
pub fn to_string_pretty<T: Serialize>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    render_into(&mut out, &value.to_value(), Some(0))?;
    Ok(out)
}

/// Serializes `value` as compact JSON into `writer`.
pub fn to_writer<W: Write, T: Serialize>(mut writer: W, value: &T) -> Result<(), Error> {
    let text = to_string(value)?;
    writer.write_all(text.as_bytes())?;
    Ok(())
}

/// Serializes `value` as pretty-printed JSON into `writer`.
pub fn to_writer_pretty<W: Write, T: Serialize>(mut writer: W, value: &T) -> Result<(), Error> {
    let text = to_string_pretty(value)?;
    writer.write_all(text.as_bytes())?;
    writer.write_all(b"\n")?;
    Ok(())
}

// ------------------------------------------------------------------ parsing

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Parser {
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    fn error(&self, msg: &str) -> Error {
        Error::new(format!("{msg} at byte {}", self.pos))
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected `{}`", b as char)))
        }
    }

    fn parse_value(&mut self) -> Result<Value, Error> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.parse_literal("null", Value::Null),
            Some(b't') => self.parse_literal("true", Value::Bool(true)),
            Some(b'f') => self.parse_literal("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.parse_string()?)),
            Some(b'[') => self.parse_array(),
            Some(b'{') => self.parse_object(),
            Some(b'-') | Some(b'0'..=b'9') => self.parse_number(),
            _ => Err(self.error("unexpected character")),
        }
    }

    fn parse_literal(&mut self, lit: &str, value: Value) -> Result<Value, Error> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected `{lit}`")))
        }
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err(self.error("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err(self.error("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.error("truncated \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.error("invalid \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs are not produced by this shim's
                            // writer; map lone surrogates to the replacement
                            // character rather than failing.
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        }
                        _ => return Err(self.error("unknown escape")),
                    }
                }
                _ => {
                    // Re-decode the UTF-8 sequence starting at pos - 1.
                    let start = self.pos - 1;
                    let len = utf8_len(b);
                    let slice = self
                        .bytes
                        .get(start..start + len)
                        .ok_or_else(|| self.error("truncated utf-8"))?;
                    let s = std::str::from_utf8(slice).map_err(|_| self.error("invalid utf-8"))?;
                    out.push_str(s);
                    self.pos = start + len;
                }
            }
        }
    }

    fn parse_number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.error("invalid number"))?;
        if !is_float {
            if let Ok(v) = text.parse::<i64>() {
                return Ok(Value::Int(v));
            }
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Value::UInt(v));
            }
        }
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| self.error("invalid number"))
    }

    fn parse_array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.error("expected `,` or `]`")),
            }
        }
    }

    fn parse_object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.parse_value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                _ => return Err(self.error("expected `,` or `}`")),
            }
        }
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

/// Parses a JSON string into a [`Value`].
pub fn parse_value(text: &str) -> Result<Value, Error> {
    let mut parser = Parser::new(text);
    let value = parser.parse_value()?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(parser.error("trailing characters"));
    }
    Ok(value)
}

/// Deserializes a value of type `T` from a JSON string.
pub fn from_str<T: Deserialize>(text: &str) -> Result<T, Error> {
    Ok(T::from_value(&parse_value(text)?)?)
}

/// Deserializes a value of type `T` from a reader of JSON text.
pub fn from_reader<R: Read, T: Deserialize>(mut reader: R) -> Result<T, Error> {
    let mut text = String::new();
    reader.read_to_string(&mut text)?;
    from_str(&text)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_round_trip() {
        let v = Value::Object(vec![
            (
                "a".into(),
                Value::Array(vec![Value::Int(1), Value::Float(2.5)]),
            ),
            ("s".into(), Value::Str("he said \"hi\"\n".into())),
            ("n".into(), Value::Null),
            ("b".into(), Value::Bool(true)),
            ("big".into(), Value::UInt(u64::MAX)),
        ]);
        let compact = to_string(&v).unwrap();
        let back = parse_value(&compact).unwrap();
        // Int/UInt unify on parse; compare through a second render.
        assert_eq!(to_string(&back).unwrap(), compact);
        let pretty = to_string_pretty(&v).unwrap();
        assert_eq!(to_string(&parse_value(&pretty).unwrap()).unwrap(), compact);
    }

    #[test]
    fn f32_round_trip_lossless() {
        for &x in &[0.1f32, 1.0 / 3.0, f32::MIN_POSITIVE, 1e30, -2.5e-7] {
            let text = to_string(&x).unwrap();
            let back: f32 = from_str(&text).unwrap();
            assert_eq!(back, x, "{text}");
        }
    }

    #[test]
    fn json_macro_keeps_key_order() {
        let inner = json!({"x": 1.5});
        let v = json!({"b": 1u32, "a": "s", "n": Option::<u32>::None, "o": inner,});
        assert_eq!(
            to_string(&v).unwrap(),
            "{\"b\":1,\"a\":\"s\",\"n\":null,\"o\":{\"x\":1.5}}"
        );
    }

    #[test]
    fn non_finite_rejected() {
        assert!(to_string(&f64::NAN).is_err());
        assert!(to_string(&f64::INFINITY).is_err());
    }

    #[test]
    fn typed_round_trip() {
        let data: Vec<(u32, String, f64)> = vec![(1, "x".into(), 0.5), (2, "y\t".into(), -3.25)];
        let text = to_string_pretty(&data).unwrap();
        let back: Vec<(u32, String, f64)> = from_str(&text).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn parse_errors_have_positions() {
        assert!(from_str::<u32>("[1,").is_err());
        assert!(parse_value("{\"a\":}").is_err());
        assert!(parse_value("12 34").is_err());
    }
}
