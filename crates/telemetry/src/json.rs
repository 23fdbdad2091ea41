//! One JSON value with one writer and one reader, for every document
//! the repo writes or reads: the telemetry, timeseries, trace and
//! advice exports and the experiment reports.
//!
//! Objects keep insertion order, so a document lists its members in
//! the order its writer pushed them. Non-negative integers are held
//! exactly over the whole `u64` range ([`Json::U64`]); every other
//! number is an `f64`. [`Json::to_pretty`] is the one file layout, and
//! [`Json::parse`] reads any valid layout of a document back.
//!
//! ```
//! use telemetry::json::Json;
//!
//! let doc = Json::obj().with("schema", "demo/v1").with("max", u64::MAX);
//! let text = doc.to_pretty();
//! assert_eq!(text, "{\n  \"schema\": \"demo/v1\",\n  \"max\": 18446744073709551615\n}\n");
//! assert_eq!(Json::parse(&text).unwrap(), doc);
//! ```

use std::fmt::Write as _;

/// A parsed or to-be-written JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer, exact over the whole `u64` range. The
    /// parser reads every plain run of digits that fits a `u64` as one.
    U64(u64),
    /// Any other number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An empty object.
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// The number `value` rounded to `decimals` places, exactly as
    /// `format!("{value:.decimals$}")` prints it.
    pub fn fixed(value: f64, decimals: usize) -> Json {
        Json::Num(format!("{value:.decimals$}").parse().unwrap_or(value))
    }

    /// Appends `key: value` to an object (chaining).
    #[must_use]
    pub fn with(mut self, key: &str, value: impl Into<Json>) -> Json {
        self.push(key, value);
        self
    }

    /// Appends `key: value` to an object.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not an object.
    pub fn push(&mut self, key: &str, value: impl Into<Json>) {
        match self {
            Json::Obj(fields) => fields.push((key.to_owned(), value.into())),
            other => panic!("push on a non-object JSON value {other:?}"),
        }
    }

    /// The member `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_obj()?.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// The value at `path`, one object member per step.
    pub fn at(&self, path: &[&str]) -> Option<&Json> {
        path.iter().try_fold(self, |value, key| value.get(key))
    }

    /// The unsigned integer this value holds.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::U64(n) => Some(n),
            _ => None,
        }
    }

    /// The number this value holds.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::U64(n) => Some(n as f64),
            Json::Num(n) => Some(n),
            _ => None,
        }
    }

    /// The string this value holds.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements of an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The members of an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// Serialises on one line, with `", "` between elements and `": "`
    /// after member names. Non-finite numbers (which JSON cannot hold)
    /// are written as `null`.
    pub fn to_line(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, SPREAD_LEVELS);
        out
    }

    /// Serialises as a file: the top two levels put one member (or
    /// element) per line, indented two spaces per level, and anything
    /// deeper goes on its line as [`Json::to_line`] writes it. Ends
    /// with a newline.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    /// Writes `self` as a value nested `depth` levels deep.
    fn write(&self, out: &mut String, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::U64(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Num(n) if !n.is_finite() => out.push_str("null"),
            Json::Num(n) if n.fract() == 0.0 && n.abs() < 9.0e15 => {
                let _ = write!(out, "{}", *n as i64);
            }
            // `{}` on f64 prints the shortest string that parses back to
            // the same value: all the digits, never a rounded reading.
            Json::Num(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) if items.is_empty() => out.push_str("[]"),
            Json::Obj(fields) if fields.is_empty() => out.push_str("{}"),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    separate(out, depth, i);
                    item.write(out, depth + 1);
                }
                close(out, depth, ']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    separate(out, depth, i);
                    write_str(out, key);
                    out.push_str(": ");
                    value.write(out, depth + 1);
                }
                close(out, depth, '}');
            }
        }
    }

    /// Parses one JSON document, in any layout.
    ///
    /// # Errors
    ///
    /// Returns a message naming the byte offset of the first syntax
    /// error, of nesting deeper than 64 levels, or of trailing content
    /// after the document.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser { bytes: text.as_bytes(), pos: 0 };
        let value = p.value(0)?;
        p.ws();
        if p.pos != p.bytes.len() {
            return p.err("trailing content");
        }
        Ok(value)
    }
}

impl From<f64> for Json {
    fn from(n: f64) -> Self {
        Json::Num(n)
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Self {
        Json::U64(n)
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Self {
        Json::U64(n as u64)
    }
}

impl From<i64> for Json {
    fn from(n: i64) -> Self {
        u64::try_from(n).map_or(Json::Num(n as f64), Json::U64)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Self {
        Json::Bool(b)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Self {
        Json::Str(s.to_owned())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Self {
        Json::Str(s)
    }
}

impl From<Vec<Json>> for Json {
    fn from(items: Vec<Json>) -> Self {
        Json::Arr(items)
    }
}

/// Containers nested less deeply than this put each element on its
/// own line in [`Json::to_pretty`].
const SPREAD_LEVELS: usize = 2;

/// Starts element `i` of a container nested `depth` deep.
fn separate(out: &mut String, depth: usize, i: usize) {
    if i > 0 {
        out.push(',');
    }
    if depth < SPREAD_LEVELS {
        newline(out, depth + 1);
    } else if i > 0 {
        out.push(' ');
    }
}

/// Ends a container nested `depth` deep with `bracket`.
fn close(out: &mut String, depth: usize, bracket: char) {
    if depth < SPREAD_LEVELS {
        newline(out, depth);
    }
    out.push(bracket);
}

/// A line break indented `levels` levels.
fn newline(out: &mut String, levels: usize) {
    out.push('\n');
    for _ in 0..levels {
        out.push_str("  ");
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Nesting bound for parsed documents, so hostile input cannot exhaust
/// the stack.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.bytes.get(self.pos).is_some_and(|b| b.is_ascii_whitespace()) {
            self.pos += 1;
        }
    }

    fn err<T>(&self, what: &str) -> Result<T, String> {
        Err(format!("{what} at byte {}", self.pos))
    }

    fn eat(&mut self, lit: &str) -> Result<(), String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            self.err(&format!("expected `{lit}`"))
        }
    }

    /// After an element: `true` at the closing bracket, `false` after a
    /// comma.
    fn next_or_close(&mut self, close: u8) -> Result<bool, String> {
        self.ws();
        match self.bytes.get(self.pos) {
            Some(b',') => {
                self.pos += 1;
                Ok(false)
            }
            Some(&b) if b == close => {
                self.pos += 1;
                Ok(true)
            }
            _ => self.err(&format!("expected `,` or `{}`", close as char)),
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        self.ws();
        let open = self.bytes.get(self.pos).copied();
        if matches!(open, Some(b'[' | b'{')) {
            if depth >= MAX_DEPTH {
                return self.err(&format!("nesting deeper than {MAX_DEPTH}"));
            }
            self.pos += 1;
            self.ws();
        }
        match open {
            None => self.err("unexpected end"),
            Some(b'n') => self.eat("null").map(|()| Json::Null),
            Some(b't') => self.eat("true").map(|()| Json::Bool(true)),
            Some(b'f') => self.eat("false").map(|()| Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => {
                let mut items = Vec::new();
                if self.bytes.get(self.pos) == Some(&b']') {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value(depth + 1)?);
                    if self.next_or_close(b']')? {
                        return Ok(Json::Arr(items));
                    }
                }
            }
            Some(b'{') => {
                let mut fields = Vec::new();
                if self.bytes.get(self.pos) == Some(&b'}') {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                loop {
                    self.ws();
                    if self.bytes.get(self.pos) != Some(&b'"') {
                        return self.err("expected a member name");
                    }
                    let key = self.string()?;
                    self.ws();
                    self.eat(":")?;
                    fields.push((key, self.value(depth + 1)?));
                    if self.next_or_close(b'}')? {
                        return Ok(Json::Obj(fields));
                    }
                }
            }
            Some(_) => self.number(),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.pos += 1; // opening quote
        let mut out = String::new();
        loop {
            let start = self.pos;
            while self.bytes.get(self.pos).is_some_and(|&b| b != b'"' && b != b'\\') {
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| format!("invalid UTF-8 at byte {start}"))?,
            );
            match self.bytes.get(self.pos) {
                None => return self.err("unterminated string"),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(_) => {
                    let esc = self.bytes.get(self.pos + 1).copied();
                    self.pos += 2;
                    match esc {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok());
                            let Some(code) = hex else { return self.err("bad \\u escape") };
                            self.pos += 4;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return self.err("bad escape"),
                    }
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap_or("");
        if let Ok(n) = text.parse::<u64>() {
            if text.bytes().all(|b| b.is_ascii_digit()) {
                return Ok(Json::U64(n));
            }
        }
        text.parse::<f64>().map(Json::Num).map_err(|_| format!("bad number at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Counter, Gauge, Hist, Recorder, BUCKETS};

    #[test]
    fn round_trips_a_line_with_escapes() {
        let doc = Json::obj()
            .with("correct", true)
            .with("attempted", 1000u64)
            .with("metrics", Json::obj().with("latency_ms", 1.2034).with("name", "a\"b\n"));
        let line = doc.to_line();
        assert_eq!(
            line,
            r#"{"correct": true, "attempted": 1000, "metrics": {"latency_ms": 1.2034, "name": "a\"b\n"}}"#
        );
        assert_eq!(Json::parse(&line).expect("parses"), doc);
    }

    #[test]
    fn integers_round_trip_exactly_over_the_u64_range() {
        for n in [u64::MAX, 1 << 60, (1 << 53) + 1, 0] {
            let text = Json::from(n).to_line();
            assert_eq!(text, n.to_string());
            assert_eq!(Json::parse(&text).unwrap().as_u64(), Some(n));
        }
        assert_eq!(Json::parse("-3").unwrap(), Json::Num(-3.0));
        assert_eq!(Json::fixed(2.0 / 3.0, 4), Json::Num(0.6667));
    }

    #[test]
    fn the_telemetry_export_is_the_pretty_layout_of_its_own_tree() {
        let recorder = Recorder::new();
        for (i, &c) in Counter::ALL.iter().enumerate() {
            recorder.add(c, i as u64 + 1);
        }
        for (i, &g) in Gauge::ALL.iter().enumerate() {
            recorder.gauge_set(g, i as u64 + 1);
        }
        for &h in Hist::ALL {
            // 0, then 2^(i-1) for every bucket up to u64::MAX's.
            recorder.record(h, 0);
            for i in 1..BUCKETS {
                recorder.record(h, 1 << (i - 1));
            }
        }
        let export = recorder.snapshot().to_json();
        assert!(export.contains(r#"{"lt": 18446744073709551615, "count": 1}"#), "{export}");
        assert_eq!(Json::parse(&export).unwrap().to_pretty(), export);
    }

    #[test]
    fn every_escape_decodes() {
        let parsed = Json::parse(r#""a\/b\r\b\f\u00e9\u0001\"\\\n\t""#).unwrap();
        assert_eq!(parsed.as_str(), Some("a/b\r\u{8}\u{c}é\u{1}\"\\\n\t"));
    }

    #[test]
    fn errors_name_a_byte_offset() {
        for (text, at) in [
            ("{\"a\": }", "byte 6"),
            ("[1, 2", "byte 5"),
            ("{} x", "trailing content at byte 3"),
            ("\"open", "unterminated string at byte 5"),
            ("[1 2]", "byte 3"),
        ] {
            let err = Json::parse(text).unwrap_err();
            assert!(err.contains(at), "{text}: {err}");
        }
        let nested = |levels| format!("{}{}", "[".repeat(levels), "]".repeat(levels));
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        let err = Json::parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err, format!("nesting deeper than 64 at byte {MAX_DEPTH}"));
    }
}
