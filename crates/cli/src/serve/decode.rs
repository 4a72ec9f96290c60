//! The predict-request decoder: one pass over `{"row": {...}}` or
//! `{"rows": [{...}, ...]}` with `fairprep_trace::json`'s [`Scanner`],
//! pushing every cell straight into its schema column. Numbers land in
//! the column's `Vec<Option<f64>>`; categoricals are interned as they
//! are read, borrowed from the body unless they carry an escape.
//!
//! It accepts and refuses exactly what `json::parse` followed by the
//! row extraction and frame build it replaces did, with the same
//! messages and the same precedence:
//!
//! 1. a syntax error anywhere in the body (`bad JSON: …`);
//! 2. a shape error: neither `row` nor an array `rows`, or an empty
//!    `rows`;
//! 3. a wrongly typed cell, reported for the first such column in
//!    schema order.
//!
//! `row` wins over `rows` wherever it appears, the first occurrence of
//! a repeated key wins, keys outside the schema (the label included)
//! are skipped, and an absent key or `null` is a missing cell. A row
//! that is not an object contributes a row of missing cells, which the
//! sealed chain then refuses.

use fairprep_data::column::{Column, ColumnKind};
use fairprep_data::frame::DataFrame;
use fairprep_data::schema::{Role, Schema};
use fairprep_trace::json::{Scanner, Token};

/// Which of the request's two spellings the body carries.
#[derive(Clone, Copy, PartialEq)]
enum Shape {
    /// Neither key seen yet.
    Neither,
    /// `rows` held something other than an array.
    RowsNotArray,
    /// `rows` was decoded (its first occurrence).
    Rows,
    /// `row` was decoded (its first occurrence); nothing overrides it.
    Row,
}

/// The columns being filled, one per non-label schema field.
struct Columns<'s> {
    names: Vec<&'s str>,
    columns: Vec<Column>,
    rows: usize,
    /// Lowest field index that received a wrongly typed cell.
    type_error: Option<usize>,
    /// Where the next key lookup starts: rows usually list their keys
    /// in schema order.
    hint: usize,
}

impl<'s> Columns<'s> {
    fn new(schema: &'s Schema) -> Self {
        let fields: Vec<_> = schema
            .fields()
            .iter()
            .filter(|f| f.role != Role::Label)
            .collect();
        Columns {
            names: fields.iter().map(|f| f.name.as_str()).collect(),
            columns: fields.iter().map(|f| Column::new(f.kind)).collect(),
            rows: 0,
            type_error: None,
            hint: 0,
        }
    }

    /// Drops everything decoded so far (a `row` overriding `rows`).
    fn clear(&mut self) {
        for column in &mut self.columns {
            *column = Column::new(column.kind());
        }
        self.rows = 0;
        self.type_error = None;
    }

    fn field(&mut self, name: &str) -> Option<usize> {
        let n = self.names.len();
        let found = (0..n)
            .map(|k| (self.hint + k) % n)
            .find(|&i| self.names.get(i) == Some(&name))?;
        self.hint = found + 1;
        Some(found)
    }

    /// Decodes one row, the value at nesting `depth`.
    fn row(&mut self, scanner: &mut Scanner<'_>, depth: usize) -> Result<(), String> {
        let token = scanner.value(depth)?;
        if token == Token::Object {
            let mut key = scanner.first_key()?;
            while let Some(name) = key {
                match self.field(&name) {
                    // The first occurrence of a key wins.
                    Some(i) if self.columns.get(i).is_some_and(|c| c.len() == self.rows) => {
                        self.cell(scanner, i, depth + 1)?;
                    }
                    _ => scanner.skip(depth + 1)?,
                }
                key = scanner.next_key()?;
            }
        } else {
            scanner.finish_value(&token, depth)?;
        }
        self.rows += 1;
        for column in &mut self.columns {
            if column.len() < self.rows {
                push_missing(column);
            }
        }
        Ok(())
    }

    /// Decodes the cell of field `i`, the value at nesting `depth`.
    fn cell(&mut self, scanner: &mut Scanner<'_>, i: usize, depth: usize) -> Result<(), String> {
        let token = scanner.value(depth)?;
        let Some(column) = self.columns.get_mut(i) else {
            return scanner.finish_value(&token, depth);
        };
        match (column, &token) {
            (Column::Numeric(values), Token::Null) => values.push(None),
            (Column::Numeric(values), Token::Num(n)) => values.push(Some(*n)),
            (Column::Categorical(data), Token::Null) => data.push(None),
            (Column::Categorical(data), Token::Str(text)) => data.push(Some(text)),
            (column, _) => {
                scanner.finish_value(&token, depth)?;
                push_missing(column);
                self.type_error = Some(self.type_error.map_or(i, |e| e.min(i)));
            }
        }
        Ok(())
    }

    fn into_frame(self) -> Result<DataFrame, String> {
        if let Some(i) = self.type_error {
            let name = self.names.get(i).copied().unwrap_or_default();
            let expects = match self.columns.get(i).map(Column::kind) {
                Some(ColumnKind::Numeric) => "number",
                _ => "string",
            };
            return Err(format!("column `{name}` expects a {expects}"));
        }
        let mut frame = DataFrame::new();
        for (name, column) in self.names.into_iter().zip(self.columns) {
            frame.add_column(name, column).map_err(|e| e.to_string())?;
        }
        Ok(frame)
    }
}

fn push_missing(column: &mut Column) {
    match column {
        Column::Numeric(values) => values.push(None),
        Column::Categorical(data) => data.push(None),
    }
}

/// Decodes a predict request body into the raw request frame for
/// `schema`: every non-label field in schema order, one row per request
/// row.
pub(super) fn decode_frame(schema: &Schema, body: &str) -> Result<DataFrame, String> {
    let mut columns = Columns::new(schema);
    let shape = walk(&mut columns, body).map_err(|e| format!("bad JSON: {e}"))?;
    match shape {
        Shape::Row | Shape::Rows if columns.rows > 0 => columns.into_frame(),
        Shape::Rows => Err("`rows` must not be empty".to_string()),
        _ => Err("request must carry `row` (object) or `rows` (array)".to_string()),
    }
}

/// The syntax pass: walks the whole body, decoding `row` or `rows` on
/// the way. Only syntax errors return early.
fn walk(columns: &mut Columns<'_>, body: &str) -> Result<Shape, String> {
    let mut scanner = Scanner::new(body);
    let mut shape = Shape::Neither;
    let token = scanner.value(0)?;
    if token == Token::Object {
        let mut key = scanner.first_key()?;
        while let Some(name) = key {
            match (name.as_ref(), shape) {
                ("row", Shape::Neither | Shape::RowsNotArray | Shape::Rows) => {
                    columns.clear();
                    columns.row(&mut scanner, 1)?;
                    shape = Shape::Row;
                }
                ("rows", Shape::Neither) => {
                    let rows = scanner.value(1)?;
                    if rows == Token::Array {
                        let mut more = scanner.first_item();
                        while more {
                            columns.row(&mut scanner, 2)?;
                            more = scanner.next_item()?;
                        }
                        shape = Shape::Rows;
                    } else {
                        scanner.finish_value(&rows, 1)?;
                        shape = Shape::RowsNotArray;
                    }
                }
                _ => scanner.skip(1)?,
            }
            key = scanner.next_key()?;
        }
    } else {
        scanner.finish_value(&token, 0)?;
    }
    scanner.finish()?;
    Ok(shape)
}
