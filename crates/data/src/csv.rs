//! Minimal CSV reading/writing for frames.
//!
//! Experiments "write an output file with these metrics by default" (§4) and
//! datasets are commonly distributed as CSV. The parser supports RFC-4180
//! style quoting, configurable missing-value tokens, and typed ingestion
//! driven by a column-kind specification.

use std::io::{BufRead, Write};

use crate::column::{Column, ColumnKind, OwnedValue};
use crate::error::{Error, Result};
use crate::frame::{DataFrame, FrameBuilder};

/// Tokens interpreted as missing values when reading (compared after
/// trimming surrounding whitespace).
pub const DEFAULT_MISSING_TOKENS: &[&str] = &["", "?", "NA", "N/A", "null", "NULL"];

/// Strips a single trailing carriage return from a record.
///
/// Windows-saved dataset files end records with `\r\n`. `BufRead::lines`
/// strips the pair itself, but lines that reach the parser through other
/// routes (pre-split strings, readers with unusual buffering) can still
/// carry the `\r` — which would otherwise survive inside a quoted last
/// field and leak into its categorical value, splitting one category into
/// two (`"high"` vs `"high\r"`).
fn strip_cr(line: &str) -> &str {
    line.strip_suffix('\r').unwrap_or(line)
}

/// Splits one CSV record into fields, honoring double-quote escaping.
fn parse_record(line: &str, line_no: usize) -> Result<Vec<String>> {
    let line = strip_cr(line);
    let mut fields = Vec::new();
    let mut field = String::new();
    let mut chars = line.chars().peekable();
    let mut in_quotes = false;
    while let Some(c) = chars.next() {
        if in_quotes {
            match c {
                '"' => {
                    if chars.peek() == Some(&'"') {
                        chars.next();
                        field.push('"');
                    } else {
                        in_quotes = false;
                    }
                }
                _ => field.push(c),
            }
        } else {
            match c {
                '"' => {
                    if field.is_empty() {
                        in_quotes = true;
                    } else {
                        return Err(Error::Csv {
                            line: line_no,
                            message: "quote inside unquoted field".to_string(),
                        });
                    }
                }
                ',' => fields.push(std::mem::take(&mut field)),
                _ => field.push(c),
            }
        }
    }
    if in_quotes {
        return Err(Error::Csv {
            line: line_no,
            message: "unterminated quote".to_string(),
        });
    }
    fields.push(field);
    Ok(fields)
}

/// Reads a typed frame from CSV text.
///
/// The first record must be a header; `kinds` maps each header name to the
/// column type to ingest. Header columns absent from `kinds` are skipped.
/// Cells matching one of `missing_tokens` (compared after trimming
/// surrounding whitespace) become missing values. Blank lines are skipped.
/// A numeric cell that is not a finite number, such as `NaN`, `inf` or
/// `1e999`, is an [`Error::Csv`] naming its column and line, as any other
/// non-number is.
pub fn read_csv<R: BufRead>(
    reader: R,
    kinds: &[(&str, ColumnKind)],
    missing_tokens: &[&str],
) -> Result<DataFrame> {
    let mut lines = records(reader);
    let header = match lines.next() {
        Some(line) => parse_record(&line?, 1)?,
        None => {
            return Err(Error::Csv {
                line: 1,
                message: "empty input".to_string(),
            })
        }
    };
    let mut positions = Vec::with_capacity(kinds.len());
    for (name, kind) in kinds {
        let pos = header
            .iter()
            .position(|h| h.trim() == *name)
            .ok_or_else(|| Error::ColumnNotFound((*name).to_string()))?;
        positions.push((pos, *name, *kind));
    }
    let mut builder = FrameBuilder::new(kinds);
    for (idx, line) in lines.enumerate() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let row = typed_row(&line, idx + 2, header.len(), &positions, missing_tokens)?;
        builder.push_row(row)?;
    }
    builder.finish()
}

/// The input's lines, cut at `\n` with one `\r` before it dropped, as
/// [`BufRead::lines`] cuts them; a line that is not UTF-8 is a CSV error
/// at its line number.
fn records<R: BufRead>(reader: R) -> impl Iterator<Item = Result<String>> {
    reader.split(b'\n').enumerate().map(|(idx, bytes)| {
        let mut bytes = bytes?;
        if bytes.last() == Some(&b'\r') {
            bytes.pop();
        }
        String::from_utf8(bytes).map_err(|_| Error::Csv {
            line: idx + 1,
            message: "invalid UTF-8".to_string(),
        })
    })
}

/// Parses one data record into typed cells in request-column order.
fn typed_row(
    line: &str,
    line_no: usize,
    header_len: usize,
    positions: &[(usize, &str, ColumnKind)],
    missing_tokens: &[&str],
) -> Result<Vec<OwnedValue>> {
    let record = parse_record(line, line_no)?;
    if record.len() != header_len {
        return Err(Error::Csv {
            line: line_no,
            message: format!("expected {header_len} fields, got {}", record.len()),
        });
    }
    let mut row = Vec::with_capacity(positions.len());
    for (pos, name, kind) in positions {
        let raw = record[*pos].trim();
        if missing_tokens.contains(&raw) {
            row.push(OwnedValue::Missing);
            continue;
        }
        match kind {
            ColumnKind::Numeric => {
                let v: f64 = raw.parse().map_err(|_| Error::Csv {
                    line: line_no,
                    message: format!("column {name}: `{raw}` is not numeric"),
                })?;
                if !v.is_finite() {
                    return Err(Error::Csv {
                        line: line_no,
                        message: format!("column {name}: `{raw}` is not a finite number"),
                    });
                }
                row.push(OwnedValue::Numeric(v));
            }
            ColumnKind::Categorical => row.push(OwnedValue::Categorical(raw.to_string())),
        }
    }
    Ok(row)
}

fn escape(field: &str) -> String {
    if field.contains(',') || field.contains('"') || field.contains('\n') {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_string()
    }
}

/// Why [`read_csv`] would not return `category` as written, or `None` when
/// it would: the reader splits records at line breaks before it parses
/// quotes, trims every cell, and reads [`DEFAULT_MISSING_TOKENS`] as
/// missing.
fn unreadable(category: &str) -> Option<&'static str> {
    unreadable_name(category).or_else(|| {
        DEFAULT_MISSING_TOKENS
            .contains(&category)
            .then_some("is a missing-value token")
    })
}

/// Why [`read_csv`] would not find a column written under `name`, or
/// `None` when it would: it splits records at line breaks and trims each
/// header field before comparing it with the requested name.
fn unreadable_name(name: &str) -> Option<&'static str> {
    if name.contains(['\n', '\r']) {
        Some("contains a line break")
    } else if name.trim() != name {
        Some("has surrounding whitespace")
    } else {
        None
    }
}

/// Writes a frame as CSV (header + records). Missing cells become empty
/// fields.
///
/// A column name that [`read_csv`] could not find again, because it holds a
/// line break or surrounding whitespace, is refused with an [`Error::Csv`]
/// at line 1 before anything is written. A categorical cell that
/// [`read_csv`] would not read back unchanged (see
/// [`DEFAULT_MISSING_TOKENS`]), and a numeric cell that is not finite, are
/// refused with an [`Error::Csv`] naming the column and the line the cell
/// would occupy; the records before that line have already been written.
pub fn write_csv<W: Write>(frame: &DataFrame, writer: &mut W) -> Result<()> {
    for name in frame.column_names() {
        if let Some(why) = unreadable_name(name) {
            return Err(Error::Csv {
                line: 1,
                message: format!("column name {name:?} {why}, so it would not read back"),
            });
        }
    }
    let header: Vec<String> = frame.column_names().iter().map(|n| escape(n)).collect();
    writeln!(writer, "{}", header.join(","))?;
    // Each dictionary entry is escaped or refused once; a cell only indexes
    // that decision, so an entry no row references never fails the write.
    let mut columns = Vec::with_capacity(frame.n_cols());
    for name in frame.column_names() {
        let column = frame.column(name)?;
        let entries: Vec<std::result::Result<String, &str>> = match column {
            Column::Numeric(_) => Vec::new(),
            Column::Categorical(cat) => cat
                .categories()
                .iter()
                .map(|c| unreadable(c).map_or_else(|| Ok(escape(c)), Err))
                .collect(),
        };
        columns.push((name, column, entries));
    }
    let mut record = String::new();
    for i in 0..frame.n_rows() {
        record.clear();
        for (j, (name, column, entries)) in columns.iter().enumerate() {
            if j > 0 {
                record.push(',');
            }
            match column {
                Column::Numeric(values) => match values[i] {
                    Some(v) if !v.is_finite() => {
                        return Err(Error::Csv {
                            line: i + 2,
                            message: format!(
                                "column {name}: {v} is not finite, so it would not read back"
                            ),
                        })
                    }
                    Some(v) => record.push_str(&format_float(v)),
                    None => {}
                },
                Column::Categorical(cat) => {
                    if let Some(code) = cat.codes()[i] {
                        match &entries[code as usize] {
                            Ok(text) => record.push_str(text),
                            Err(why) => {
                                return Err(Error::Csv {
                                    line: i + 2,
                                    message: format!(
                                    "column {name}: category {:?} {why}, so it would not read back",
                                    cat.categories()[code as usize]
                                ),
                                })
                            }
                        }
                    }
                }
            }
        }
        writeln!(writer, "{record}")?;
    }
    Ok(())
}

/// Formats a float with full roundtrip precision but without unnecessary
/// trailing digits.
fn format_float(v: f64) -> String {
    let s = format!("{v}");
    // `{}` on f64 already uses the shortest representation that roundtrips.
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Value;
    use std::io::Cursor;

    const SAMPLE: &str = "age,job,income\n25,clerk,low\n?,\"cook, senior\",high\n40,,low\n";

    fn kinds() -> Vec<(&'static str, ColumnKind)> {
        vec![
            ("age", ColumnKind::Numeric),
            ("job", ColumnKind::Categorical),
            ("income", ColumnKind::Categorical),
        ]
    }

    #[test]
    fn reads_typed_columns_with_missing() {
        let df = read_csv(Cursor::new(SAMPLE), &kinds(), DEFAULT_MISSING_TOKENS).unwrap();
        assert_eq!(df.n_rows(), 3);
        assert_eq!(df.value(0, "age").unwrap(), Value::Numeric(25.0));
        assert_eq!(df.value(1, "age").unwrap(), Value::Missing);
        assert_eq!(
            df.value(1, "job").unwrap(),
            Value::Categorical("cook, senior")
        );
        assert_eq!(df.value(2, "job").unwrap(), Value::Missing);
    }

    #[test]
    fn column_subset_can_be_requested() {
        let df = read_csv(
            Cursor::new(SAMPLE),
            &[("income", ColumnKind::Categorical)],
            DEFAULT_MISSING_TOKENS,
        )
        .unwrap();
        assert_eq!(df.n_cols(), 1);
        assert_eq!(df.value(1, "income").unwrap(), Value::Categorical("high"));
    }

    #[test]
    fn missing_header_column_is_error() {
        let err = read_csv(
            Cursor::new(SAMPLE),
            &[("salary", ColumnKind::Numeric)],
            DEFAULT_MISSING_TOKENS,
        )
        .unwrap_err();
        assert_eq!(err, Error::ColumnNotFound("salary".to_string()));
    }

    #[test]
    fn malformed_number_is_error_with_line() {
        let bad = "x\nhello\n";
        let err = read_csv(Cursor::new(bad), &[("x", ColumnKind::Numeric)], &[]).unwrap_err();
        match err {
            Error::Csv { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn ragged_record_is_error() {
        let bad = "a,b\n1\n";
        let err = read_csv(Cursor::new(bad), &[("a", ColumnKind::Numeric)], &[]).unwrap_err();
        assert!(matches!(err, Error::Csv { line: 2, .. }));
    }

    #[test]
    fn unterminated_quote_is_error() {
        let bad = "a\n\"oops\n";
        let err = read_csv(Cursor::new(bad), &[("a", ColumnKind::Categorical)], &[]).unwrap_err();
        assert!(matches!(err, Error::Csv { .. }));
    }

    #[test]
    fn quoted_quote_roundtrips() {
        let csv = "a\n\"he said \"\"hi\"\"\"\n";
        let df = read_csv(Cursor::new(csv), &[("a", ColumnKind::Categorical)], &[]).unwrap();
        assert_eq!(
            df.value(0, "a").unwrap(),
            Value::Categorical("he said \"hi\"")
        );
    }

    #[test]
    fn write_then_read_roundtrips() {
        let df = read_csv(Cursor::new(SAMPLE), &kinds(), DEFAULT_MISSING_TOKENS).unwrap();
        let mut out = Vec::new();
        write_csv(&df, &mut out).unwrap();
        let back = read_csv(Cursor::new(out), &kinds(), DEFAULT_MISSING_TOKENS).unwrap();
        assert_eq!(back.n_rows(), df.n_rows());
        for name in df.column_names() {
            for i in 0..df.n_rows() {
                assert_eq!(
                    back.value(i, name).unwrap(),
                    df.value(i, name).unwrap(),
                    "mismatch in {name} row {i}"
                );
            }
        }
    }

    /// CRLF fixture: a Windows-saved file must parse identically to its
    /// LF twin — in particular no `\r` may leak into the last field's
    /// categorical value (that would silently split one category into
    /// two, e.g. `high` vs `high\r`).
    #[test]
    fn crlf_line_endings_parse_identically_to_lf() {
        let lf = SAMPLE.to_string();
        let crlf = SAMPLE.replace('\n', "\r\n");
        let a = read_csv(Cursor::new(lf), &kinds(), DEFAULT_MISSING_TOKENS).unwrap();
        let b = read_csv(Cursor::new(crlf), &kinds(), DEFAULT_MISSING_TOKENS).unwrap();
        assert_eq!(a.n_rows(), b.n_rows());
        for name in a.column_names() {
            for i in 0..a.n_rows() {
                assert_eq!(a.value(i, name).unwrap(), b.value(i, name).unwrap());
            }
        }
        if let Value::Categorical(s) = b.value(0, "income").unwrap() {
            assert!(!s.contains('\r'), "carriage return leaked: {s:?}");
            assert_eq!(s, "low");
        } else {
            panic!("income must be categorical");
        }
    }

    /// A quoted last field on a CRLF record keeps the `\r` *outside* the
    /// quoted content, so the value must come back clean even when the
    /// raw record string still carries the terminator.
    #[test]
    fn crlf_after_quoted_last_field_is_stripped() {
        let fields = parse_record("25,\"cook, senior\",\"high\"\r", 1).unwrap();
        assert_eq!(fields, vec!["25", "cook, senior", "high"]);
        // Header lookups are unaffected too.
        let csv = "age,income\r\n25,high\r\n";
        let df = read_csv(
            Cursor::new(csv),
            &[("income", ColumnKind::Categorical)],
            DEFAULT_MISSING_TOKENS,
        )
        .unwrap();
        assert_eq!(df.value(0, "income").unwrap(), Value::Categorical("high"));
    }

    /// Each category `read_csv` would split, trim or read as missing is
    /// refused, naming its column and the line it would occupy.
    #[test]
    fn write_refuses_categories_that_would_not_read_back() {
        for bad in ["a\nb", "a\r", " a ", "NA", "?", ""] {
            let df = DataFrame::new()
                .with_column("n", Column::from_f64([1.0, 2.0]))
                .unwrap()
                .with_column("job", Column::from_strs(["clerk", bad]))
                .unwrap();
            let mut out = Vec::new();
            match write_csv(&df, &mut out).unwrap_err() {
                Error::Csv { line, message } => {
                    assert_eq!(line, 3, "{bad:?}");
                    assert!(message.starts_with("column job: "), "{message}");
                }
                other => panic!("unexpected error {other:?}"),
            }
        }
    }

    /// A name `read_csv` could not find again is refused before anything
    /// is written; a name equal to a missing token reads back.
    #[test]
    fn write_refuses_names_that_would_not_read_back() {
        for bad in ["a\nb", "a\r", " a ", "a\t"] {
            let df = DataFrame::new()
                .with_column("n", Column::from_f64([1.0]))
                .unwrap()
                .with_column(bad, Column::from_strs(["clerk"]))
                .unwrap();
            let mut out = Vec::new();
            match write_csv(&df, &mut out).unwrap_err() {
                Error::Csv { line, message } => {
                    assert_eq!(line, 1, "{bad:?}");
                    assert!(message.starts_with("column name "), "{message}");
                }
                other => panic!("unexpected error {other:?}"),
            }
            assert!(out.is_empty(), "{bad:?}");
        }
        for token in DEFAULT_MISSING_TOKENS {
            let df = DataFrame::new()
                .with_column(token, Column::from_f64([1.5]))
                .unwrap();
            let mut out = Vec::new();
            write_csv(&df, &mut out).unwrap();
            let back = read_csv(Cursor::new(out), &[(token, ColumnKind::Numeric)], &[]).unwrap();
            assert_eq!(back.value(0, token).unwrap(), Value::Numeric(1.5));
        }
    }

    /// Invalid UTF-8 is a CSV error at its line, the header's included,
    /// with CRLF and LF line ends alike.
    #[test]
    fn invalid_utf8_is_reported_at_its_line() {
        let cases: [(&[u8], usize); 4] = [
            (b"a\xff,b\n1,2\n", 1),
            (b"a,b\n1,2\n3,\xff\n", 3),
            (b"a,b\r\n1,2\r\n\r\n3,\xc3\r\n", 4),
            (b"a,b\n1,2\n\xff", 3),
        ];
        for (input, want) in cases {
            let err = read_csv(Cursor::new(input), &[("a", ColumnKind::Numeric)], &[]).unwrap_err();
            match err {
                Error::Csv { line, message } => {
                    assert_eq!(
                        (line, message.as_str()),
                        (want, "invalid UTF-8"),
                        "{input:?}"
                    );
                }
                other => panic!("unexpected error {other:?} for {input:?}"),
            }
        }
    }

    /// A dictionary entry no row references is never written, so it
    /// cannot fail the write.
    #[test]
    fn unreferenced_dictionary_entry_does_not_fail_the_write() {
        let df = DataFrame::new()
            .with_column("job", Column::from_strs(["clerk", "NA", "a\nb"]))
            .unwrap()
            .take(&[0]);
        let mut out = Vec::new();
        write_csv(&df, &mut out).unwrap();
        assert_eq!(out, b"job\nclerk\n");
    }

    #[test]
    fn blank_lines_skipped() {
        let csv = "a\n1\n\n2\n";
        let df = read_csv(Cursor::new(csv), &[("a", ColumnKind::Numeric)], &[]).unwrap();
        assert_eq!(df.n_rows(), 2);
    }

    #[test]
    fn empty_input_is_error() {
        let err = read_csv(Cursor::new(""), &[("a", ColumnKind::Numeric)], &[]).unwrap_err();
        assert!(matches!(err, Error::Csv { line: 1, .. }));
    }
}
