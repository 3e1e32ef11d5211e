//! A minimal JSON value, renderer and recursive-descent parser.
//!
//! The build environment has no `serde_json`, so the observability
//! export format is produced and consumed by this self-contained
//! module. Numbers are rendered through Rust's shortest-round-trip
//! `f64` formatting, so `parse(render(v)) == v` holds bit-exactly for
//! every finite value the recorder produces.

use std::fmt;

/// Deepest array / object nesting [`Json::parse`] accepts. Reports and
/// `BENCHMARK.json` nest a handful of levels; the cap keeps a hostile
/// document from recursing the parser off the end of its stack.
const MAX_DEPTH: usize = 128;

/// A JSON document node. Object member order is preserved (members are
/// a `Vec` of pairs, not a map), which keeps rendered reports stable
/// and diffable.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number. Non-finite values must be encoded by the caller
    /// (the recorder never produces them).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object member lookup by key; `None` for non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric value, if this node is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Numeric value as `u64` (truncating), if this node is a number.
    pub fn as_u64(&self) -> Option<u64> {
        self.as_f64().map(|n| n as u64)
    }

    /// String value, if this node is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Array elements, if this node is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// Object members, if this node is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// Render to a compact JSON string.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => render_num(*n, out),
            Json::Str(s) => render_str(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    render_str(k, out);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Parse a JSON document. The whole input must be consumed (apart
    /// from trailing whitespace), and arrays and objects may nest at most
    /// 128 deep.
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(JsonError::at(p.pos, "trailing characters after document"));
        }
        Ok(v)
    }
}

fn render_num(n: f64, out: &mut String) {
    use fmt::Write;
    if n.is_finite() {
        if n == n.trunc() && n.abs() < 1e15 {
            // Integral values render without an exponent or fraction so
            // counters look like counters.
            let _ = write!(out, "{}", n as i64);
        } else {
            // Rust's f64 Display is shortest-round-trip.
            let _ = write!(out, "{n}");
        }
    } else {
        // JSON has no NaN/Inf; the recorder never emits them, but do
        // not produce invalid documents if a caller does.
        out.push_str("null");
    }
}

fn render_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                use fmt::Write;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parse failure: byte offset plus a short description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure in the input.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl JsonError {
    fn at(offset: usize, message: &str) -> Self {
        JsonError {
            offset,
            message: message.to_string(),
        }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around the current position.
    depth: usize,
}

impl<'a> Parser<'a> {
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
            Err(JsonError::at(
                self.pos,
                &format!("expected '{}'", b as char),
            ))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(JsonError::at(self.pos, &format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(open @ (b'[' | b'{')) => {
                if self.depth == MAX_DEPTH {
                    return Err(JsonError::at(self.pos, "nested too deeply"));
                }
                self.depth += 1;
                let v = if open == b'[' {
                    self.array()
                } else {
                    self.object()
                };
                self.depth -= 1;
                v
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(JsonError::at(self.pos, "expected a JSON value")),
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
                _ => return Err(JsonError::at(self.pos, "expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
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
            let v = self.value()?;
            members.push((key, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(JsonError::at(self.pos, "expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(JsonError::at(self.pos, "unterminated string")),
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| JsonError::at(self.pos, "bad \\u escape"))?;
                            out.push(
                                char::from_u32(hex)
                                    .ok_or_else(|| JsonError::at(self.pos, "bad code point"))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(JsonError::at(self.pos, "bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so the
                    // byte stream is valid UTF-8).
                    let start = self.pos;
                    self.pos += 1;
                    while self.pos < self.bytes.len() && (self.bytes[self.pos] & 0xC0) == 0x80 {
                        self.pos += 1;
                    }
                    out.push_str(std::str::from_utf8(&self.bytes[start..self.pos]).unwrap());
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| JsonError::at(start, "bad number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trips() {
        for src in ["null", "true", "false", "0", "-3", "2.5", "\"hi\""] {
            let v = Json::parse(src).unwrap();
            assert_eq!(Json::parse(&v.render()).unwrap(), v, "{src}");
        }
    }

    #[test]
    fn floats_round_trip_exactly() {
        for x in [0.1, 1.0 / 3.0, 1e-9, 123456.789, f64::MAX, 5e-324] {
            let v = Json::Num(x);
            let back = Json::parse(&v.render()).unwrap();
            assert_eq!(back.as_f64().unwrap().to_bits(), x.to_bits(), "{x}");
        }
    }

    #[test]
    fn nested_document_round_trips() {
        let src = r#"{"a":[1,2,{"b":"x\ny"}],"c":{"d":null,"e":[true,false]}}"#;
        let v = Json::parse(src).unwrap();
        assert_eq!(v.render(), src);
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(
            v.get("c").unwrap().get("d"),
            Some(&Json::Null),
            "nested get"
        );
    }

    #[test]
    fn garbage_is_rejected() {
        for src in ["", "{", "[1,", "{\"a\"}", "tru", "1 2", "\"unterminated"] {
            assert!(Json::parse(src).is_err(), "{src:?} should fail");
        }
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        for src in ["[".repeat(100_000), "{\"a\":".repeat(100_000)] {
            let err = Json::parse(&src).unwrap_err();
            assert_eq!(err.offset, MAX_DEPTH * (src.len() / 100_000), "{err}");
        }
        // The cap itself still parses.
        let at_cap = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&at_cap).is_ok());
        let over = format!("[{at_cap}]");
        assert!(Json::parse(&over).is_err());
    }

    #[test]
    fn string_escapes_round_trip() {
        let v = Json::Str("a\"b\\c\nd\te\u{1}f λ".to_string());
        assert_eq!(Json::parse(&v.render()).unwrap(), v);
    }
}
