//! Property tests: `json::parse` answers hostile text with `Ok` or `Err`,
//! never a panic. Three kinds of input: random strings over the tokens the
//! parser treats specially, mutations of a committed run manifest, and
//! nesting at and past `MAX_DEPTH`. The proptest shim seeds each test from
//! its name, so every run draws the same cases.

use std::panic::{catch_unwind, AssertUnwindSafe};

use fairprep_trace::json::{parse, Value, MAX_DEPTH};
use proptest::prelude::*;

/// A golden manifest: nested objects and arrays, strings, integers,
/// fractions and exponents.
const GOLDEN: &str = include_str!("../../../tests/golden/german_tuned.json");

/// Brackets, separators, quotes, escapes, the starts of literals and
/// numbers, whitespace, a two- and a four-byte character, and a few whole
/// tokens.
const ALPHABET: [&str; 28] = [
    "{", "}", "[", "]", ",", ":", "\"", "\\", "u", "n", "t", "f", "e", "E", "-", "+", ".", "0",
    "9", " ", "\n", "é", "𝄞", "null", "true", "\\u00e9", "\\ud83d", "1e999",
];

/// Parses `text` and fails the case if the parser panics.
fn check(text: &str) -> Result<(), TestCaseError> {
    let outcome = catch_unwind(AssertUnwindSafe(|| parse(text)));
    prop_assert!(
        outcome.is_ok(),
        "parse panicked on {} bytes starting {:?}",
        text.len(),
        text.get(..text.len().min(80))
    );
    Ok(())
}

/// The byte offset of the first byte at or after `at` that `pick` accepts.
fn find(text: &[u8], at: usize, pick: impl Fn(u8) -> bool) -> Option<usize> {
    text.get(at..)?
        .iter()
        .position(|&b| pick(b))
        .map(|n| at + n)
}

#[test]
fn the_mutated_manifest_parses() {
    let doc = parse(GOLDEN).unwrap();
    assert_eq!(
        doc.get("experiment").and_then(Value::as_str),
        Some("german")
    );
    assert!(GOLDEN.is_ascii(), "byte edits below assume ASCII");
}

/// A document nested to `MAX_DEPTH` parses; one level deeper is refused
/// with the nesting error, in arrays and in objects alike.
#[test]
fn nesting_past_max_depth_is_refused() {
    for (open, close) in [("[", "]"), ("{\"k\":", "}")] {
        let nested = |depth: usize| format!("{}0{}", open.repeat(depth), close.repeat(depth));
        assert!(parse(&nested(MAX_DEPTH)).is_ok(), "{open} at MAX_DEPTH");
        let err = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(
            err.starts_with(&format!("nesting deeper than {MAX_DEPTH} ")),
            "{err}"
        );
        // Far deeper, and unterminated: refused at the same depth.
        let err = parse(&open.repeat(100_000)).unwrap_err();
        assert!(
            err.starts_with(&format!("nesting deeper than {MAX_DEPTH} ")),
            "{err}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    /// Random strings of up to 64 tokens from [`ALPHABET`].
    #[test]
    fn random_strings_give_a_value_or_an_error(
        picks in prop::collection::vec(0..ALPHABET.len(), 0..64),
    ) {
        let text: String = picks.iter().map(|&i| ALPHABET[i]).collect();
        check(&text)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(150))]

    /// One to three edits of the golden manifest: truncation, a deleted or
    /// duplicated character, a bracket swapped for another, a digit flipped
    /// to another digit or a non-digit, a number replaced by a literal of
    /// thousands of digits or a huge exponent, and a string lengthened by
    /// 256 KiB of plain text or of escapes.
    #[test]
    fn mutated_manifest_gives_a_value_or_an_error(
        edits in prop::collection::vec((0_usize..7, 0_usize..=GOLDEN.len(), 0_usize..4), 1..=3),
    ) {
        let mut text = GOLDEN.as_bytes().to_vec();
        for (kind, at, variant) in edits {
            let at = at.min(text.len());
            match kind {
                0 => text.truncate(at),
                1 => {
                    if at < text.len() {
                        text.remove(at);
                    }
                }
                2 => {
                    if let Some(&b) = text.get(at) {
                        text.insert(at, b);
                    }
                }
                3 => {
                    if let Some(i) = find(&text, at, |b| b"{}[]".contains(&b)) {
                        text[i] = b"{}[]"[variant];
                    }
                }
                4 => {
                    if let Some(i) = find(&text, at, |b| b.is_ascii_digit()) {
                        text[i] = [b'0' + (text[i] - b'0' + 1) % 10, b'-', b'.', b'e'][variant];
                    }
                }
                5 => {
                    if let Some(start) = find(&text, at, |b| b.is_ascii_digit()) {
                        let end = find(&text, start, |b| !b.is_ascii_digit()).unwrap_or(text.len());
                        let huge = match variant {
                            0 => "9".repeat(5_000),
                            1 => format!("0.{}1", "0".repeat(5_000)),
                            2 => "1e99999999999999999999".to_string(),
                            _ => "-1e-99999999999999999999".to_string(),
                        };
                        text.splice(start..end, huge.bytes());
                    }
                }
                _ => {
                    if let Some(quote) = find(&text, at, |b| b == b'"') {
                        let long = if variant % 2 == 0 { "a" } else { "\\u00e9" };
                        let long = long.repeat((256 << 10) / long.len());
                        text.splice(quote + 1..quote + 1, long.bytes());
                    }
                }
            }
        }
        let text = String::from_utf8(text).expect("ASCII edits of an ASCII document");
        check(&text)?;
    }
}
