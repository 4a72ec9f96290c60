//! Property tests: `read_csv` answers hostile bytes with `Ok` or a typed
//! `Error`, never a panic, and never returns a non-finite number. Two
//! kinds of input: random bytes over the characters the reader treats
//! specially, and mutations of a valid file with quoted fields and CRLF
//! line endings. The proptest shim seeds each test from its name, so every
//! run draws the same cases.

use std::io::Cursor;
use std::panic::{catch_unwind, AssertUnwindSafe};

use fairprep_data::column::{Column, ColumnKind, Value};
use fairprep_data::csv::{read_csv, write_csv, DEFAULT_MISSING_TOKENS};
use fairprep_data::error::Error;
use fairprep_data::frame::DataFrame;
use proptest::prelude::*;

/// Separators, quotes, line ends, a missing token, digits, NUL and a byte
/// that never occurs in UTF-8.
const ALPHABET: &[u8] = b",\"\r\n ?0123456789\x00\xff";

const HEADER: &[u8] = b"age,job,income\n";

/// Quoted fields holding a comma, doubled quotes and a two-byte UTF-8
/// character; a missing token, an empty cell and CRLF line endings.
const VALID: &[u8] = "age,job,income\r\n25,\"cook, senior\",low\r\n?,\"say \"\"hi\"\"\",high\r\n\
                      40,,low\r\n31,\"café\",\"high\"\r\n"
    .as_bytes();

const KINDS: [(&str, ColumnKind); 3] = [
    ("age", ColumnKind::Numeric),
    ("job", ColumnKind::Categorical),
    ("income", ColumnKind::Categorical),
];

/// Spellings Rust's `f64` parser accepts for values that are not finite
/// numbers, and literals that overflow to infinity.
const NON_FINITE: [&str; 10] = [
    "NaN",
    "nan",
    "-nan",
    "inf",
    "-inf",
    "+inf",
    "infinity",
    "-Infinity",
    "1e999",
    "-1e400",
];

/// Reads `bytes` and checks the outcome: no panic, a frame has fewer rows
/// than the input has lines and only finite numbers, a CSV error names a
/// line of the input, and no error is an I/O error.
fn check(bytes: &[u8]) -> Result<(), TestCaseError> {
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        read_csv(Cursor::new(bytes), &KINDS, DEFAULT_MISSING_TOKENS)
    }));
    let lines = bytes.split(|&b| b == b'\n').count();
    match outcome {
        Err(_) => prop_assert!(
            false,
            "read_csv panicked on {:?}",
            String::from_utf8_lossy(bytes)
        ),
        Ok(Ok(frame)) => {
            prop_assert!(
                frame.n_rows() < lines,
                "{} rows from {} lines",
                frame.n_rows(),
                lines
            );
            for i in 0..frame.n_rows() {
                if let Ok(Value::Numeric(v)) = frame.value(i, "age") {
                    prop_assert!(v.is_finite(), "age {} read from row {}", v, i);
                }
            }
        }
        Ok(Err(Error::Csv { line, .. })) => {
            prop_assert!((1..=lines).contains(&line), "line {} of {}", line, lines);
        }
        // Reading from memory cannot fail for want of input, and invalid
        // UTF-8 is a CSV error at its line.
        Ok(Err(Error::Io(message))) => prop_assert!(
            false,
            "io error {} on {:?}",
            message,
            String::from_utf8_lossy(bytes)
        ),
        Ok(Err(_)) => {}
    }
    Ok(())
}

#[test]
fn the_mutated_file_is_valid() {
    let frame = read_csv(Cursor::new(VALID), &KINDS, DEFAULT_MISSING_TOKENS).unwrap();
    assert_eq!(frame.n_rows(), 4);
}

/// A numeric cell that is not a finite number is refused as any other
/// non-number is, naming its column and line, with or without
/// surrounding whitespace.
#[test]
fn non_finite_numeric_cells_are_refused_at_their_line() {
    for cell in NON_FINITE {
        for padded in [cell.to_string(), format!(" {cell} ")] {
            let text = format!("age,job,income\n25,clerk,low\n{padded},cook,high\n");
            match read_csv(Cursor::new(text), &KINDS, DEFAULT_MISSING_TOKENS) {
                Err(Error::Csv { line: 3, message }) => assert!(
                    message.starts_with(&format!("column age: `{cell}` ")),
                    "{message}"
                ),
                other => panic!("{cell:?}: {other:?}"),
            }
        }
    }
}

/// `write_csv` refuses a non-finite number at the line it would occupy,
/// so everything it writes reads back.
#[test]
fn non_finite_numbers_are_not_written() {
    for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -f64::NAN] {
        let frame = DataFrame::new()
            .with_column("age", Column::from_optional_f64([Some(1.5), None, Some(v)]))
            .unwrap();
        let mut out = Vec::new();
        match write_csv(&frame, &mut out) {
            Err(Error::Csv { line: 4, message }) => {
                assert!(message.starts_with("column age: "), "{message}");
            }
            other => panic!("{v}: {other:?}"),
        }
        assert_eq!(String::from_utf8(out).unwrap(), "age\n1.5\n\n");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// Random bytes, half of them after a header `read_csv` accepts, so
    /// the record parser and the cell typer see them too.
    #[test]
    fn random_bytes_give_a_frame_or_a_typed_error(
        with_header in any::<bool>(),
        picks in prop::collection::vec(0..ALPHABET.len(), 0..64),
    ) {
        let mut bytes = if with_header { HEADER.to_vec() } else { Vec::new() };
        bytes.extend(picks.iter().map(|&i| ALPHABET[i]));
        check(&bytes)?;
    }

    /// One to three edits of the valid file: truncation at any byte, or an
    /// inserted quote, CR, LF, comma, invalid UTF-8 sequence, or spelling
    /// of a non-finite number.
    #[test]
    fn mutated_valid_file_gives_a_frame_or_a_typed_error(
        edits in prop::collection::vec((0_usize..7, 0_usize..=VALID.len()), 1..=3),
        non_finite in 0_usize..NON_FINITE.len(),
    ) {
        let mut bytes = VALID.to_vec();
        for (kind, at) in edits {
            let at = at.min(bytes.len());
            let insert: &[u8] = match kind {
                0 => {
                    bytes.truncate(at);
                    continue;
                }
                1 => b"\"",
                2 => b"\r",
                3 => b"\n",
                4 => b",",
                5 => b"\xc3",
                _ => NON_FINITE[non_finite].as_bytes(),
            };
            bytes.splice(at..at, insert.iter().copied());
        }
        check(&bytes)?;
    }
}
