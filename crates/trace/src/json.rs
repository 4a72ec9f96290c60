//! A minimal, panic-free JSON parser — and a canonical writer — for
//! manifest and sealed-artifact tooling.
//!
//! Only what that tooling needs: objects (key order preserved), arrays,
//! strings with the escapes the writer emits, numbers, booleans, and
//! null. Errors are descriptive strings with byte offsets; nothing in
//! here can panic on malformed input.
//!
//! The writer ([`Value::to_json`]) is *canonical*: member order is the
//! insertion order, no whitespace, floats in shortest-roundtrip form
//! (non-finite numbers render as `null`). Byte-exact serialization of
//! `f64` values — including NaN payloads — goes through the bit-pattern
//! helpers ([`Value::bits`] / [`Value::as_f64_bits`]), the same `%016x`
//! convention the sweep journal uses for its authoritative float fields.

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
        Value::Str(format!("{:016x}", v.to_bits()))
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
            Value::Num(n) => {
                if n.is_finite() {
                    // Shortest round-trip formatting: deterministic and
                    // byte-stable across platforms.
                    out.push_str(&format!("{n:?}"));
                } else {
                    out.push_str("null");
                }
            }
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
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(value)
}

const MAX_DEPTH: usize = 128;

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while let Some(&b) = bytes.get(*pos) {
        if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
            *pos += 1;
        } else {
            break;
        }
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Value, String> {
    if depth > MAX_DEPTH {
        return Err(format!("nesting deeper than {MAX_DEPTH} at byte {pos}"));
    }
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{') => parse_obj(bytes, pos, depth),
        Some(b'[') => parse_arr(bytes, pos, depth),
        Some(b'"') => parse_str(bytes, pos).map(Value::Str),
        Some(b't') => parse_lit(bytes, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Value::Bool(false)),
        Some(b'n') => parse_lit(bytes, pos, "null", Value::Null),
        Some(b'-' | b'0'..=b'9') => parse_num(bytes, pos),
        Some(&b) => Err(format!("unexpected byte {:?} at {}", b as char, *pos)),
        None => Err("unexpected end of input".to_string()),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Value) -> Result<Value, String> {
    if bytes.get(*pos..*pos + lit.len()) == Some(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {}", *pos))
    }
}

fn parse_num(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    let start = *pos;
    while let Some(&b) = bytes.get(*pos) {
        if matches!(b, b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9') {
            *pos += 1;
        } else {
            break;
        }
    }
    let text = std::str::from_utf8(bytes.get(start..*pos).unwrap_or(b""))
        .map_err(|_| format!("invalid number at byte {start}"))?;
    text.parse::<f64>()
        .map(Value::Num)
        .map_err(|_| format!("invalid number {text:?} at byte {start}"))
}

fn parse_str(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    // Caller guarantees bytes[*pos] == b'"'.
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
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
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or_else(|| format!("bad \\u escape at byte {}", *pos))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| format!("bad \\u escape at byte {}", *pos))?;
                        // Surrogate pairs are not emitted by our writer;
                        // map lone surrogates to the replacement char.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (input is a &str, so this is safe
                // to do bytewise: copy continuation bytes with the lead).
                let start = *pos;
                *pos += 1;
                while bytes.get(*pos).is_some_and(|&b| b & 0xc0 == 0x80) {
                    *pos += 1;
                }
                if let Some(chunk) = bytes.get(start..*pos) {
                    if let Ok(s) = std::str::from_utf8(chunk) {
                        out.push_str(s);
                    }
                }
            }
        }
    }
}

fn parse_arr(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Value, String> {
    *pos += 1; // consume '['
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Value::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth + 1)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => {
                *pos += 1;
            }
            Some(b']') => {
                *pos += 1;
                return Ok(Value::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

fn parse_obj(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Value, String> {
    *pos += 1; // consume '{'
    let mut members = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Value::Obj(members));
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err(format!("expected object key at byte {}", *pos));
        }
        let key = parse_str(bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at byte {}", *pos));
        }
        *pos += 1;
        let value = parse_value(bytes, pos, depth + 1)?;
        members.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => {
                *pos += 1;
            }
            Some(b'}') => {
                *pos += 1;
                return Ok(Value::Obj(members));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
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
