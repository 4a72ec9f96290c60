//! A minimal, panic-free JSON parser — and a canonical writer — for
//! manifest and sealed-artifact tooling.
//!
//! Only what that tooling needs: objects (key order preserved), arrays,
//! strings with the escapes the writer emits, numbers, booleans, and
//! null. Errors are descriptive strings with byte offsets; nothing in
//! here can panic on malformed input. [`parse`] is built on [`Scanner`],
//! which exposes the same rules one token at a time to callers that
//! decode a document without building a [`Value`] tree.
//!
//! The writer ([`Value::to_json`]) is *canonical*: member order is the
//! insertion order, no whitespace, floats in shortest-roundtrip form
//! (non-finite numbers render as `null`). Byte-exact serialization of
//! `f64` values — including NaN payloads — goes through the bit-pattern
//! helpers ([`Value::bits`] / [`Value::as_f64_bits`]), the same `%016x`
//! convention the sweep journal uses for its authoritative float fields.
//! [`write_f64`], [`write_bits`] and [`write_escaped`] append the same
//! text for writers that render straight into a buffer.

use std::borrow::Cow;
use std::fmt::Write as _;

/// A parsed JSON value. Object member order is preserved.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (integers up to 2^53 are exact).
    Num(f64),
    /// A string literal.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, as ordered `(key, value)` pairs.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Looks up a key in an object; `None` for other variants.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a float, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as an unsigned integer, if it is a whole number in range.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) if (0.0..=9_007_199_254_740_992.0).contains(n) => {
                let truncated = *n as u64;
                // Round-trip check instead of a float equality against a
                // literal (the audit's float-eq lint applies here too).
                if (truncated as f64 - *n).abs() < f64::EPSILON {
                    Some(truncated)
                } else {
                    None
                }
            }
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool, if it is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The value as ordered object members, if it is an object.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(members) => Some(members),
            _ => None,
        }
    }

    /// A float serialized as its authoritative IEEE-754 bit pattern
    /// (`%016x` hex string) — exact for every value including NaN
    /// payloads and signed zeros.
    #[must_use]
    pub fn bits(v: f64) -> Value {
        let mut hex = String::with_capacity(16);
        write_bits(v, &mut hex);
        Value::Str(hex)
    }

    /// A slice of floats as an array of bit-pattern strings.
    #[must_use]
    pub fn bits_vec(vs: &[f64]) -> Value {
        Value::Arr(vs.iter().map(|&v| Value::bits(v)).collect())
    }

    /// Reads a float back from a [`Value::bits`] bit-pattern string.
    pub fn as_f64_bits(&self) -> Option<f64> {
        match self {
            Value::Str(s) if s.len() == 16 => u64::from_str_radix(s, 16).ok().map(f64::from_bits),
            _ => None,
        }
    }

    /// Reads an array of [`Value::bits`] strings back into floats.
    pub fn as_f64_bits_vec(&self) -> Option<Vec<f64>> {
        self.as_array()?.iter().map(Value::as_f64_bits).collect()
    }

    /// A `u64` serialized exactly: values above 2^53 lose precision as
    /// JSON numbers, so the full range travels as a decimal string.
    #[must_use]
    pub fn from_u64(v: u64) -> Value {
        Value::Str(format!("{v}"))
    }

    /// Reads a `u64` back from either a [`Value::from_u64`] decimal
    /// string or an in-range JSON number.
    pub fn as_u64_any(&self) -> Option<u64> {
        match self {
            Value::Str(s) => s.parse::<u64>().ok(),
            _ => self.as_u64(),
        }
    }

    /// Serializes canonically: insertion-order members, no whitespace,
    /// shortest-roundtrip floats (`null` for non-finite). The output
    /// parses back via [`parse`] to an equal `Value` (modulo non-finite
    /// numbers, which callers route through [`Value::bits`]).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(n) => write_f64(*n, out),
            Value::Str(s) => write_escaped(s, out),
            Value::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Value::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Appends `n` as a JSON number in shortest round-trip form —
/// deterministic and byte-stable across platforms — or `null` when it
/// is not finite.
pub fn write_f64(n: f64, out: &mut String) {
    if n.is_finite() {
        let _ = write!(out, "{n:?}");
    } else {
        out.push_str("null");
    }
}

/// Appends the `%016x` IEEE-754 bit pattern of `v`, unquoted: the text
/// of [`Value::bits`].
pub fn write_bits(v: f64, out: &mut String) {
    let _ = write!(out, "{:016x}", v.to_bits());
}

/// Appends `s` to `out` as a JSON string literal, quotes included, with
/// the escape set the parser understands (quotes, backslash, control
/// characters). Every JSON writer in the workspace escapes through this.
pub fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Convenience constructor for an ordered object.
#[must_use]
pub fn obj(members: Vec<(&str, Value)>) -> Value {
    Value::Obj(
        members
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Parses a complete JSON document. Trailing whitespace is allowed;
/// trailing garbage is an error.
pub fn parse(input: &str) -> Result<Value, String> {
    let mut scanner = Scanner::new(input);
    let value = parse_value(&mut scanner, 0)?;
    scanner.finish()?;
    Ok(value)
}

fn parse_value(scanner: &mut Scanner<'_>, depth: usize) -> Result<Value, String> {
    Ok(match scanner.value(depth)? {
        Token::Object => {
            let mut members = Vec::new();
            let mut key = scanner.first_key()?;
            while let Some(name) = key {
                members.push((name.into_owned(), parse_value(scanner, depth + 1)?));
                key = scanner.next_key()?;
            }
            Value::Obj(members)
        }
        Token::Array => {
            let mut items = Vec::new();
            let mut more = scanner.first_item();
            while more {
                items.push(parse_value(scanner, depth + 1)?);
                more = scanner.next_item()?;
            }
            Value::Arr(items)
        }
        Token::Str(text) => Value::Str(text.into_owned()),
        Token::Num(n) => Value::Num(n),
        Token::Bool(b) => Value::Bool(b),
        Token::Null => Value::Null,
    })
}

/// The deepest nesting [`parse`] and every [`Scanner`] walk accept: the
/// document itself is at depth 0, and a value nested deeper than this
/// is refused.
pub const MAX_DEPTH: usize = 128;

/// The start of one value, as [`Scanner::value`] reads it: a scalar
/// whole, or the opening bracket of an object or an array.
#[derive(Debug, PartialEq)]
pub enum Token<'a> {
    /// `{` was consumed; read the members with [`Scanner::first_key`]
    /// and [`Scanner::next_key`].
    Object,
    /// `[` was consumed; read the items with [`Scanner::first_item`]
    /// and [`Scanner::next_item`].
    Array,
    /// A string, unescaped; borrowed from the input when it holds no
    /// escape.
    Str(Cow<'a, str>),
    /// A number.
    Num(f64),
    /// `true` or `false`.
    Bool(bool),
    /// `null`.
    Null,
}

/// A cursor over one JSON document that applies this module's rules —
/// whitespace, literals, numbers, strings, nesting depth and error
/// messages — one token at a time. [`parse`] builds its [`Value`] tree
/// on it; a caller that wants something else (the scoring service
/// decodes request rows straight into columns) walks the same tokens
/// without building the tree, and accepts and refuses exactly the
/// documents [`parse`] does.
pub struct Scanner<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Scanner<'a> {
    /// A scanner at the start of `text`.
    #[must_use]
    pub fn new(text: &'a str) -> Self {
        Scanner { text, pos: 0 }
    }

    fn bytes(&self) -> &'a [u8] {
        self.text.as_bytes()
    }

    fn peek(&self) -> Option<u8> {
        self.bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Reads the start of the value at nesting `depth` (0 for the
    /// document itself, one more inside each object or array).
    pub fn value(&mut self, depth: usize) -> Result<Token<'a>, String> {
        if depth > MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            ));
        }
        self.skip_ws();
        match self.peek() {
            Some(b'{') => {
                self.pos += 1;
                Ok(Token::Object)
            }
            Some(b'[') => {
                self.pos += 1;
                Ok(Token::Array)
            }
            Some(b'"') => self.string().map(Token::Str),
            Some(b't') => self.literal("true", Token::Bool(true)),
            Some(b'f') => self.literal("false", Token::Bool(false)),
            Some(b'n') => self.literal("null", Token::Null),
            Some(b'-' | b'0'..=b'9') => self.number().map(Token::Num),
            Some(b) => Err(format!("unexpected byte {:?} at {}", b as char, self.pos)),
            None => Err("unexpected end of input".to_string()),
        }
    }

    /// The first key of an object [`Scanner::value`] just opened, with
    /// its `:` consumed; `None` for `{}`.
    pub fn first_key(&mut self) -> Result<Option<Cow<'a, str>>, String> {
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(None);
        }
        self.key().map(Some)
    }

    /// After a member's value: the next key, with its `:` consumed, or
    /// `None` once the closing `}` is consumed.
    pub fn next_key(&mut self) -> Result<Option<Cow<'a, str>>, String> {
        self.skip_ws();
        match self.peek() {
            Some(b',') => {
                self.pos += 1;
                self.key().map(Some)
            }
            Some(b'}') => {
                self.pos += 1;
                Ok(None)
            }
            _ => Err(format!("expected ',' or '}}' at byte {}", self.pos)),
        }
    }

    fn key(&mut self) -> Result<Cow<'a, str>, String> {
        self.skip_ws();
        if self.peek() != Some(b'"') {
            return Err(format!("expected object key at byte {}", self.pos));
        }
        let key = self.string()?;
        self.skip_ws();
        if self.peek() != Some(b':') {
            return Err(format!("expected ':' at byte {}", self.pos));
        }
        self.pos += 1;
        Ok(key)
    }

    /// `true` when an array [`Scanner::value`] just opened has a first
    /// item; consumes the `]` of `[]`.
    pub fn first_item(&mut self) -> bool {
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return false;
        }
        true
    }

    /// After an item: `true` when another follows, `false` once the
    /// closing `]` is consumed.
    pub fn next_item(&mut self) -> Result<bool, String> {
        self.skip_ws();
        match self.peek() {
            Some(b',') => {
                self.pos += 1;
                Ok(true)
            }
            Some(b']') => {
                self.pos += 1;
                Ok(false)
            }
            _ => Err(format!("expected ',' or ']' at byte {}", self.pos)),
        }
    }

    /// Consumes the rest of the value whose start `token` is — every
    /// member of an object, every item of an array — with the checks
    /// [`parse`] makes, building nothing.
    pub fn finish_value(&mut self, token: &Token<'a>, depth: usize) -> Result<(), String> {
        match token {
            Token::Object => {
                let mut key = self.first_key()?;
                while key.is_some() {
                    self.skip(depth + 1)?;
                    key = self.next_key()?;
                }
            }
            Token::Array => {
                let mut more = self.first_item();
                while more {
                    self.skip(depth + 1)?;
                    more = self.next_item()?;
                }
            }
            _ => {}
        }
        Ok(())
    }

    /// Consumes one whole value at nesting `depth`, building nothing.
    pub fn skip(&mut self, depth: usize) -> Result<(), String> {
        let token = self.value(depth)?;
        self.finish_value(&token, depth)
    }

    /// Refuses anything but whitespace after the document.
    pub fn finish(&mut self) -> Result<(), String> {
        self.skip_ws();
        if self.pos != self.text.len() {
            return Err(format!("trailing garbage at byte {}", self.pos));
        }
        Ok(())
    }

    fn literal(&mut self, lit: &str, token: Token<'a>) -> Result<Token<'a>, String> {
        if self.bytes().get(self.pos..self.pos + lit.len()) == Some(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(token)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<f64, String> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        ) {
            self.pos += 1;
        }
        let text = self.text.get(start..self.pos).unwrap_or("");
        text.parse::<f64>()
            .map_err(|_| format!("invalid number {text:?} at byte {start}"))
    }

    fn string(&mut self) -> Result<Cow<'a, str>, String> {
        // The caller saw the opening quote.
        let start = self.pos + 1;
        let bytes = self.bytes();
        let run = bytes
            .get(start..)
            .and_then(|rest| rest.iter().position(|&b| b == b'"' || b == b'\\'))
            .ok_or_else(|| "unterminated string".to_string())?;
        let end = start + run;
        // Quotes and backslashes are ASCII, so both ends are char
        // boundaries.
        let plain = self.text.get(start..end).unwrap_or("");
        self.pos = end;
        if bytes.get(end) == Some(&b'"') {
            self.pos += 1;
            return Ok(Cow::Borrowed(plain));
        }
        let mut out = plain.to_string();
        loop {
            match bytes.get(self.pos) {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(Cow::Owned(out));
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match bytes.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000c}'),
                        Some(b'u') => {
                            let hex = bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape at byte {}", self.pos))?;
                            // Surrogate pairs are not emitted by our writer;
                            // map lone surrogates to the replacement char.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the run up to the next quote or backslash; the
                    // input is a &str, so the run is whole UTF-8 scalars.
                    let run_end = bytes
                        .get(self.pos..)
                        .and_then(|rest| rest.iter().position(|&b| b == b'"' || b == b'\\'))
                        .map_or(bytes.len(), |n| self.pos + n);
                    out.push_str(self.text.get(self.pos..run_end).unwrap_or(""));
                    self.pos = run_end;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null"), Ok(Value::Null));
        assert_eq!(parse(" true "), Ok(Value::Bool(true)));
        assert_eq!(parse("false"), Ok(Value::Bool(false)));
        assert_eq!(parse("42"), Ok(Value::Num(42.0)));
        assert_eq!(parse("-1.5e2"), Ok(Value::Num(-150.0)));
        assert_eq!(
            parse("\"hi\\n\\\"x\\\"\""),
            Ok(Value::Str("hi\n\"x\"".to_string()))
        );
    }

    #[test]
    fn parses_nested_structures_preserving_order() {
        let v = parse("{\"b\": [1, {\"c\": \"d\"}], \"a\": 2}").unwrap();
        let members = v.as_object().unwrap();
        assert_eq!(members.first().unwrap().0, "b");
        assert_eq!(v.get("a").and_then(Value::as_u64), Some(2));
        let arr = v.get("b").and_then(Value::as_array).unwrap();
        assert_eq!(arr.len(), 2);
        assert_eq!(
            arr.get(1).and_then(|x| x.get("c")).and_then(Value::as_str),
            Some("d")
        );
    }

    #[test]
    fn rejects_malformed_input_without_panicking() {
        for bad in ["", "{", "[1,", "{\"a\" 1}", "tru", "\"open", "01x", "{}}"] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn scanner_skip_accepts_and_refuses_what_parse_does() {
        let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        let texts = [
            "{\"a\": [1, {\"b\": null}], \"c\": \"\\u00e9\"}".to_string(),
            "[1, 2,]".to_string(),
            "{\"a\" 1}".to_string(),
            "\"\\q\"".to_string(),
            "1e".to_string(),
            "[] x".to_string(),
            nested(MAX_DEPTH + 1),
            nested(MAX_DEPTH + 2),
        ];
        for text in &texts {
            let mut scanner = Scanner::new(text);
            let skipped = scanner.skip(0).and_then(|()| scanner.finish());
            assert_eq!(skipped.err(), parse(text).err(), "{text}");
        }
        assert!(parse(&nested(MAX_DEPTH + 1)).is_ok());
    }

    #[test]
    fn scanner_borrows_strings_without_escapes() {
        let mut scanner = Scanner::new("[\"plain\", \"esc\\taped\"]");
        assert_eq!(scanner.value(0), Ok(Token::Array));
        assert!(scanner.first_item());
        assert!(matches!(
            scanner.value(1),
            Ok(Token::Str(Cow::Borrowed("plain")))
        ));
        assert_eq!(scanner.next_item(), Ok(true));
        match scanner.value(1) {
            Ok(Token::Str(Cow::Owned(text))) => assert_eq!(text, "esc\taped"),
            other => panic!("expected an owned string, got {other:?}"),
        }
        assert_eq!(scanner.next_item(), Ok(false));
        assert_eq!(scanner.finish(), Ok(()));
    }

    #[test]
    fn handles_unicode_and_escapes() {
        let v = parse("\"caf\u{e9} \\u00e9\"").unwrap();
        assert_eq!(v.as_str(), Some("café é"));
    }

    #[test]
    fn writer_roundtrips_through_parser() {
        let v = obj(vec![
            ("b", Value::Arr(vec![Value::Num(1.5), Value::Null])),
            ("a", Value::Str("x\"\n\tßé".to_string())),
            ("c", Value::Bool(true)),
        ]);
        let text = v.to_json();
        assert_eq!(parse(&text).unwrap(), v);
        // Canonical form: insertion order, no whitespace.
        assert!(text.starts_with("{\"b\":[1.5,null],"));
    }

    #[test]
    fn writer_floats_are_shortest_roundtrip() {
        assert_eq!(Value::Num(0.1).to_json(), "0.1");
        assert_eq!(Value::Num(2.0).to_json(), "2.0");
        assert_eq!(Value::Num(f64::NAN).to_json(), "null");
        assert_eq!(Value::Num(f64::INFINITY).to_json(), "null");
    }

    #[test]
    fn bits_roundtrip_is_exact_including_nan() {
        for v in [
            0.1,
            -0.0,
            f64::NAN,
            f64::INFINITY,
            f64::MIN_POSITIVE,
            f64::from_bits(0x7ff8_0000_dead_beef), // NaN with payload
        ] {
            let sealed = Value::bits(v);
            let back = sealed.as_f64_bits().unwrap();
            assert_eq!(back.to_bits(), v.to_bits());
            // Survives a serialize/parse cycle too.
            let reparsed = parse(&sealed.to_json()).unwrap();
            assert_eq!(reparsed.as_f64_bits().unwrap().to_bits(), v.to_bits());
        }
        assert_eq!(Value::Str("xyz".into()).as_f64_bits(), None);
        assert_eq!(Value::Num(1.0).as_f64_bits(), None);
    }

    #[test]
    fn bits_vec_roundtrips() {
        let vs = [1.0, f64::NAN, -2.5];
        let back = Value::bits_vec(&vs).as_f64_bits_vec().unwrap();
        assert_eq!(back.len(), 3);
        for (a, b) in vs.iter().zip(&back) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn u64_string_roundtrips_full_range() {
        for v in [0u64, 1, u64::MAX, 1 << 60] {
            assert_eq!(Value::from_u64(v).as_u64_any(), Some(v));
        }
        assert_eq!(parse("7").unwrap().as_u64_any(), Some(7));
        assert_eq!(Value::Str("not a number".into()).as_u64_any(), None);
    }

    #[test]
    fn u64_accessor_rejects_fractions_and_negatives() {
        assert_eq!(parse("3.5").unwrap().as_u64(), None);
        assert_eq!(parse("-2").unwrap().as_u64(), None);
        assert_eq!(parse("7").unwrap().as_u64(), Some(7));
    }
}
