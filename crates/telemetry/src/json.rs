//! A minimal JSON reader/writer, just large enough for the trace format.
//!
//! The workspace is hermetic (DESIGN.md §6), so the JSONL trace format is
//! hand-rolled: [`escape_into`] writes strings, and [`parse`] reads one
//! JSON document back into a [`JsonValue`] tree. Object fields preserve
//! their on-the-wire order, which is what lets the determinism tests
//! assert byte-identical round trips.
//!
//! The numeric grammar is deliberately narrow: the trace schema only ever
//! emits unsigned integers, so that is all [`parse`] accepts — a float or
//! negative number in a trace file is a corruption, not a dialect.
//!
//! [`parse`] also reads what a network peer sends, so it is linear in its
//! input and refuses nesting deeper than `MAX_DEPTH` (128) with a
//! [`ParseError`] rather than recursing until the stack overflows.

use std::fmt;

/// A parsed JSON value. Objects keep field order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer (the only number form the trace schema emits).
    Num(u64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, fields in source order.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Looks up a field of an object.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an unsigned integer, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a string, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array, if it is one.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Appends `s` to `out` as a quoted JSON string.
pub fn escape_into(out: &mut String, s: &str) {
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

/// A parse failure: what went wrong and the byte offset where.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Human-readable description.
    pub message: String,
    /// Byte offset into the input.
    pub at: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.at)
    }
}

/// The deepest nesting of arrays and objects [`parse`] accepts. Every
/// document the workspace writes is a few levels deep.
const MAX_DEPTH: usize = 128;

/// Parses one complete JSON document; trailing non-whitespace is an error.
pub fn parse(input: &str) -> Result<JsonValue, ParseError> {
    let mut p = Parser {
        text: input,
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
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
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> ParseError {
        ParseError {
            message: message.to_string(),
            at: self.pos,
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

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, word: &str, v: JsonValue) -> Result<JsonValue, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<JsonValue, ParseError> {
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                if self.depth == MAX_DEPTH {
                    return Err(self.err(&format!("nested deeper than {MAX_DEPTH} levels")));
                }
                self.depth += 1;
                let v = if open == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                v
            }
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn number(&mut self) -> Result<JsonValue, ParseError> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if matches!(self.peek(), Some(b'.' | b'e' | b'E' | b'-' | b'+')) {
            return Err(self.err("only unsigned integers are valid here"));
        }
        let s = std::str::from_utf8(&self.bytes[start..self.pos]).expect("digits are ascii");
        s.parse()
            .map(JsonValue::Num)
            .map_err(|_| self.err("integer out of range"))
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote, backslash or control
            // byte whole, once. Those are ASCII, so the run ends on a
            // character boundary and slicing the input is all the UTF-8
            // check it needs.
            let start = self.pos;
            while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\' && b >= 0x20) {
                self.pos += 1;
            }
            let run = self.text.get(start..self.pos);
            out.push_str(run.ok_or_else(|| self.err("invalid utf-8"))?);
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("bad escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            if self.pos + 4 > self.bytes.len() {
                                return Err(self.err("truncated \\u escape"));
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
                                .map_err(|_| self.err("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("bad \\u code point"))?,
                            );
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(_) => return Err(self.err("unescaped control character")),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, ParseError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(fields));
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
                    return Ok(JsonValue::Obj(fields));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), JsonValue::Null);
        assert_eq!(parse("true").unwrap(), JsonValue::Bool(true));
        assert_eq!(parse("false").unwrap(), JsonValue::Bool(false));
        assert_eq!(parse("42").unwrap(), JsonValue::Num(42));
        assert_eq!(parse("\"hi\"").unwrap(), JsonValue::Str("hi".into()));
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse(r#"{"type":"send","from":0,"ok":true,"ms":[1,2,3]}"#).unwrap();
        assert_eq!(v.get("type").unwrap().as_str(), Some("send"));
        assert_eq!(v.get("from").unwrap().as_u64(), Some(0));
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("ms").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(v.get("absent"), None);
    }

    #[test]
    fn object_field_order_is_preserved() {
        let v = parse(r#"{"b":1,"a":2}"#).unwrap();
        match v {
            JsonValue::Obj(fields) => {
                assert_eq!(fields[0].0, "b");
                assert_eq!(fields[1].0, "a");
            }
            _ => panic!("expected object"),
        }
    }

    #[test]
    fn string_escapes_round_trip() {
        let original = "a\"b\\c\nd\te\u{1}f";
        let mut encoded = String::new();
        escape_into(&mut encoded, original);
        assert_eq!(parse(&encoded).unwrap(), JsonValue::Str(original.into()));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "tru",
            "1.5",
            "-3",
            "1e9",
            "\"\\x\"",
            "{} extra",
            "\"unterminated",
        ] {
            assert!(parse(bad).is_err(), "should reject: {bad}");
        }
    }

    /// Multibyte runs between escapes, every escape `escape_into` writes
    /// and every one `parse` reads; a raw control byte is still refused.
    #[test]
    fn multibyte_runs_and_every_escape_round_trip() {
        let mut original: String = (0u32..0x20).filter_map(char::from_u32).collect();
        original.push_str("\"\\/ é → 𝄞 mixed\u{7f}\u{fffd}é");
        let mut encoded = String::new();
        escape_into(&mut encoded, &original);
        assert_eq!(parse(&encoded).unwrap(), JsonValue::Str(original));
        let read = parse(r#""\"\\\/\n\r\té\u0001x""#).unwrap();
        assert_eq!(read, JsonValue::Str("\"\\/\n\r\t\u{e9}\u{1}x".into()));
        for bad in ["\"a\u{1}b\"", "\"é\nx\"", "\"\t\""] {
            let e = parse(bad).unwrap_err();
            assert_eq!(e.message, "unescaped control character", "{bad:?}");
        }
        assert_eq!(parse("\"é\u{1}\"").unwrap_err().at, 3);
    }

    /// A string is read in time linear in its length: a 1 MiB one used to
    /// take tens of seconds, rescanning the rest of the input per
    /// character.
    #[test]
    fn a_one_mebibyte_string_parses_quickly() {
        let original: String = "ab\"é→\\c".chars().cycle().take(1 << 20).collect();
        let mut encoded = String::new();
        escape_into(&mut encoded, &original);
        let started = std::time::Instant::now();
        assert_eq!(parse(&encoded).unwrap(), JsonValue::Str(original));
        let took = started.elapsed();
        assert!(took.as_secs() < 5, "took {took:?}");
    }

    /// Nesting is capped: the cap itself parses, one more level is an
    /// error, and 200 000 levels (which used to overflow the stack and
    /// abort the process) are the same error.
    #[test]
    fn nesting_deeper_than_the_cap_is_an_error() {
        let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        let e = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(
            (e.message.as_str(), e.at),
            ("nested deeper than 128 levels", 128)
        );
        assert_eq!(parse(&"[".repeat(200_000)).unwrap_err(), e);
        let objects = "{\"a\":".repeat(MAX_DEPTH + 1);
        assert!(parse(&objects).unwrap_err().message.starts_with("nested"));
    }

    #[test]
    fn errors_carry_position() {
        let e = parse("[1, oops]").unwrap_err();
        assert_eq!(e.at, 4);
        assert!(e.to_string().contains("byte 4"));
    }
}
