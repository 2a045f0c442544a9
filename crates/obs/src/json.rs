//! A minimal self-contained JSON value, writer, and parser.
//!
//! The trace-viewer example and the CI `obs` job parse the Chrome
//! trace back to validate its shape, and the kernel bench writes its
//! `BENCH_kernels.json` record through [`to_string_pretty`]. This
//! module carries the recursive-descent JSON those exporters and
//! validators need. It is not a general-purpose JSON library: parsed
//! numbers are `f64`, no `\u` surrogate pairing beyond the BMP, and
//! input depth is bounded by recursion.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (stored as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object (sorted keys).
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Member lookup on objects.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The number, if this is one.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string, if this is one.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The array, if this is one.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Parse `text` as a single JSON document.
    ///
    /// # Errors
    ///
    /// Returns a position-annotated message on malformed input or
    /// trailing garbage.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let v = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(v)
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, ch: u8) -> Result<(), String> {
    if *pos < b.len() && b[*pos] == ch {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {}", ch as char, *pos))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".to_owned()),
        Some(b'n') => parse_lit(b, pos, "null", Json::Null),
        Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some(b'"') => parse_string(b, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut map = BTreeMap::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(map));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                skip_ws(b, pos);
                expect(b, pos, b':')?;
                let val = parse_value(b, pos)?;
                map.insert(key, val);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(map));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
                }
            }
        }
        Some(_) => parse_number(b, pos),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("invalid literal at byte {}", *pos))
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *pos += 1;
    }
    let text = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("invalid number '{text}' at byte {start}"))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".to_owned()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{0008}'),
                    Some(b'f') => out.push('\u{000c}'),
                    Some(b'u') => {
                        let hex = b.get(*pos + 1..*pos + 5).ok_or("truncated \\u escape")?;
                        let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                        let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (input is a &str, so this
                // boundary walk cannot split a codepoint).
                let rest = &b[*pos..];
                let s = std::str::from_utf8(rest).map_err(|e| e.to_string())?;
                let ch = s.chars().next().ok_or("unterminated string")?;
                out.push(ch);
                *pos += ch.len_utf8();
            }
        }
    }
}

/// Append `s` to `out` as a quoted, escaped JSON string.
pub fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Append `v` to `out` with fixed 3-decimal formatting — enough for
/// microsecond resolution on ms fields, and byte-stable across runs.
pub fn write_ms(out: &mut String, v: f64) {
    let _ = write!(out, "{v:.3}");
}

/// A value for [`to_string_pretty`]: unlike a parsed [`Json`], objects
/// keep their fields in insertion order and integers stay integers.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `true` / `false`
    Bool(bool),
    /// An unsigned integer, written without a fraction.
    Int(u64),
    /// A float: integral values are written as `x.0`, non-finite ones
    /// as `null`.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, fields in insertion order.
    Obj(Vec<(&'static str, Value)>),
}

/// Conversion into a [`Value`].
pub trait ToJson {
    /// The value `self` is written as.
    fn to_json(&self) -> Value;
}

impl ToJson for bool {
    fn to_json(&self) -> Value {
        Value::Bool(*self)
    }
}

impl ToJson for usize {
    fn to_json(&self) -> Value {
        Value::Int(*self as u64)
    }
}

impl ToJson for f64 {
    fn to_json(&self) -> Value {
        Value::Float(*self)
    }
}

impl ToJson for str {
    fn to_json(&self) -> Value {
        Value::Str(self.to_owned())
    }
}

impl ToJson for String {
    fn to_json(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_json(&self) -> Value {
        (**self).to_json()
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Value {
        Value::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

/// Renders `v` as pretty-printed JSON: two-space indent, one field or
/// element per line, `[]` for an empty array, no trailing newline.
#[must_use]
pub fn to_string_pretty(v: &Value) -> String {
    let mut out = String::new();
    write_pretty(&mut out, v, 0);
    out
}

fn write_pretty(out: &mut String, v: &Value, indent: usize) {
    let (open, close, items): (char, char, Vec<(Option<&str>, &Value)>) = match v {
        Value::Arr(a) => ('[', ']', a.iter().map(|e| (None, e)).collect()),
        Value::Obj(o) => ('{', '}', o.iter().map(|(k, e)| (Some(*k), e)).collect()),
        Value::Str(s) => return write_str(out, s),
        Value::Bool(b) => return out.push_str(if *b { "true" } else { "false" }),
        Value::Int(i) => return out.push_str(&i.to_string()),
        Value::Float(x) if !x.is_finite() => return out.push_str("null"),
        // Integral floats keep a fraction so they read back as floats.
        Value::Float(x) if x.fract() == 0.0 && x.abs() < 1e15 => {
            return out.push_str(&format!("{x:.1}"));
        }
        Value::Float(x) => return out.push_str(&x.to_string()),
    };
    out.push(open);
    for (i, (key, item)) in items.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str(&"  ".repeat(indent + 1));
        if let Some(key) = key {
            write_str(out, key);
            out.push_str(": ");
        }
        write_pretty(out, item, indent + 1);
    }
    if !items.is_empty() {
        out.push('\n');
        out.push_str(&"  ".repeat(indent));
    }
    out.push(close);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_basic_document() {
        let text = r#"{"a": [1, 2.5, -3e2], "b": "x\"y\n", "c": null, "d": true}"#;
        let v = Json::parse(text).unwrap();
        assert_eq!(v.get("b").unwrap().as_str().unwrap(), "x\"y\n");
        let arr = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(arr[2].as_f64().unwrap(), -300.0);
        assert_eq!(v.get("c"), Some(&Json::Null));
        assert_eq!(v.get("d"), Some(&Json::Bool(true)));
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("12 34").is_err());
        assert!(Json::parse("\"open").is_err());
    }

    #[test]
    fn writer_escapes_and_parses_back() {
        let mut out = String::new();
        write_str(&mut out, "a\"b\\c\nd\u{1}");
        let back = Json::parse(&out).unwrap();
        assert_eq!(back.as_str().unwrap(), "a\"b\\c\nd\u{1}");
    }

    #[test]
    fn pretty_layout_matches_serde_json() {
        let point =
            |label: &str, x: f64| Value::Obj(vec![("label", label.to_json()), ("x", x.to_json())]);
        let record = Value::Obj(vec![
            ("id", "layout".to_json()),
            ("count", 3usize.to_json()),
            ("whole", 2.0.to_json()),
            ("ratio", 0.125.to_json()),
            ("ok", true.to_json()),
            ("text", "a\"b\\c\u{1}".to_json()),
            ("missing", f64::NAN.to_json()),
            (
                "points",
                Value::Arr(vec![point("p0", 1.5), point("p1", -4.0)]),
            ),
            ("empty", Vec::<usize>::new().to_json()),
        ]);
        // What `serde_json::to_string_pretty` prints for this record: the
        // layout `BENCH_kernels.json` has always been written in.
        let expected = r#"{
  "id": "layout",
  "count": 3,
  "whole": 2.0,
  "ratio": 0.125,
  "ok": true,
  "text": "a\"b\\c\u0001",
  "missing": null,
  "points": [
    {
      "label": "p0",
      "x": 1.5
    },
    {
      "label": "p1",
      "x": -4.0
    }
  ],
  "empty": []
}"#;
        assert_eq!(to_string_pretty(&record), expected);
        assert!(Json::parse(expected).is_ok());
    }

    #[test]
    fn unicode_escape_parses() {
        let v = Json::parse(r#""Aé""#).unwrap();
        assert_eq!(v.as_str().unwrap(), "Aé");
    }
}
