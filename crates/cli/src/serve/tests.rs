//! The request decoder and the response writer against the code they
//! replaced, kept here as oracles: `json::parse` followed by
//! `rows_of_request` and `frame_from_rows`, and `response_value`
//! serialized through `Value::to_json`. On every generated body both
//! sides build the same frame, bit for bit, or refuse with the same
//! message; on every scored batch both render the same bytes.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use fairprep_core::seal::ScoredRow;
use fairprep_data::column::{Column, ColumnKind};
use fairprep_data::dataset::BinaryLabelDataset;
use fairprep_data::frame::DataFrame;
use fairprep_data::schema::{Role, Schema};
use fairprep_trace::json::{obj, parse, write_escaped, Value, MAX_DEPTH};

use super::decode::decode_frame;
use super::write_predictions;
use crate::golden::{golden_dataset, row_value};

/// Oracle: the raw request frame from parsed JSON rows.
fn frame_from_rows(schema: &Schema, rows: &[&Value]) -> Result<DataFrame, String> {
    let mut frame = DataFrame::new();
    for field in schema.fields() {
        if field.role == Role::Label {
            continue;
        }
        let column = match field.kind {
            ColumnKind::Numeric => {
                let mut values: Vec<Option<f64>> = Vec::with_capacity(rows.len());
                for row in rows {
                    values.push(match row.get(&field.name) {
                        None | Some(Value::Null) => None,
                        Some(Value::Num(n)) => Some(*n),
                        Some(_) => return Err(format!("column `{}` expects a number", field.name)),
                    });
                }
                Column::from_optional_f64(values)
            }
            ColumnKind::Categorical => {
                let mut values: Vec<Option<&str>> = Vec::with_capacity(rows.len());
                for row in rows {
                    values.push(match row.get(&field.name) {
                        None | Some(Value::Null) => None,
                        Some(Value::Str(s)) => Some(s.as_str()),
                        Some(_) => return Err(format!("column `{}` expects a string", field.name)),
                    });
                }
                Column::from_optional_strs(values)
            }
        };
        frame
            .add_column(&field.name, column)
            .map_err(|e| e.to_string())?;
    }
    Ok(frame)
}

/// Oracle: the row objects of a predict request body.
fn rows_of_request(body: &Value) -> Result<Vec<&Value>, String> {
    if let Some(row) = body.get("row") {
        return Ok(vec![row]);
    }
    let rows = body
        .get("rows")
        .and_then(Value::as_array)
        .ok_or_else(|| "request must carry `row` (object) or `rows` (array)".to_string())?;
    if rows.is_empty() {
        return Err("`rows` must not be empty".to_string());
    }
    Ok(rows.iter().collect())
}

/// Oracle: one scored batch as a response document.
fn response_value(fingerprint: &str, scored: &[ScoredRow]) -> Value {
    let predictions = scored
        .iter()
        .map(|row| {
            obj(vec![
                ("privileged", Value::Bool(row.privileged)),
                ("dropped", Value::Bool(row.dropped())),
                ("score", row.score.map_or(Value::Null, Value::Num)),
                ("score_bits", row.score.map_or(Value::Null, Value::bits)),
                ("decision", row.decision.map_or(Value::Null, Value::Num)),
            ])
        })
        .collect();
    obj(vec![
        ("model", Value::Str(fingerprint.to_string())),
        ("n", Value::from_u64(scored.len() as u64)),
        ("predictions", Value::Arr(predictions)),
    ])
}

fn oracle_frame(schema: &Schema, body: &str) -> Result<DataFrame, String> {
    let parsed = parse(body).map_err(|e| format!("bad JSON: {e}"))?;
    let rows = rows_of_request(&parsed)?;
    frame_from_rows(schema, &rows)
}

/// One column, comparable bit for bit.
#[derive(Debug, PartialEq)]
enum Cells {
    Numeric(Vec<Option<u64>>),
    Categorical(Vec<Option<u32>>, Vec<String>),
}

/// A frame as names and cells, numbers as their bit patterns.
fn cells(frame: &DataFrame) -> Vec<(String, Cells)> {
    frame
        .column_names()
        .iter()
        .map(|name| {
            let cells = match frame.column(name).unwrap() {
                Column::Numeric(values) => {
                    Cells::Numeric(values.iter().map(|v| v.map(f64::to_bits)).collect())
                }
                Column::Categorical(data) => {
                    Cells::Categorical(data.codes().to_vec(), data.categories().to_vec())
                }
            };
            (name.clone(), cells)
        })
        .collect()
}

/// Decodes `body` both ways and demands the same frame or the same
/// refusal.
fn assert_agrees(schema: &Schema, body: &str) {
    let decoded = decode_frame(schema, body).map(|f| cells(&f));
    let expected = oracle_frame(schema, body).map(|f| cells(&f));
    assert_eq!(decoded, expected, "body: {body}");
}

/// The german golden sample the bodies are generated from.
fn german() -> &'static BinaryLabelDataset {
    static DATA: std::sync::OnceLock<BinaryLabelDataset> = std::sync::OnceLock::new();
    DATA.get_or_init(|| golden_dataset("german").unwrap())
}

/// A score or decision: missing, non-finite, negative zero, any bit
/// pattern, or an ordinary probability.
fn number(rng: &mut StdRng) -> Option<f64> {
    match rng.random_range(0..8) {
        0 => None,
        1 => Some(f64::NAN),
        2 => Some(f64::INFINITY),
        3 => Some(f64::NEG_INFINITY),
        4 => Some(-0.0),
        5 => Some(f64::from_bits(rng.random::<u64>())),
        _ => Some(rng.random::<f64>()),
    }
}

/// Number forms on both sides of what `json::parse` accepts.
const NUMBERS: &[&str] = &[
    "-0", "0", "1.", "01", "1e", "1e999", "-1e999", "-1.5e-3", "1E+2", "-", "2.5", "1e-400",
];

/// Cells of every kind, for wrongly typed and unknown values.
const ODD_VALUES: &[&str] = &[
    "null",
    "true",
    "false",
    "[]",
    "[1, \"x\", null]",
    "{}",
    "{\"a\": {\"b\": [true]}}",
    "\"text\"",
    "\"\\\"quoted\\\"\"",
    "\"\\u00e9\"",
    "\"\\ud800\"",
    "\"caf\\u00e9 \\\\ \\/\"",
    "42",
    "-0",
];

/// Generates predict bodies from the german golden rows with the
/// mutations the decoder must agree with the oracle on.
struct BodyGen {
    rng: StdRng,
    rows: &'static [Vec<(String, Value)>],
    label: &'static str,
}

impl BodyGen {
    fn seeded(seed: u64) -> Self {
        static ROWS: std::sync::OnceLock<Vec<Vec<(String, Value)>>> = std::sync::OnceLock::new();
        let data = german();
        let rows = ROWS.get_or_init(|| {
            (0..data.n_rows())
                .map(|i| match row_value(data, i) {
                    Value::Obj(members) => members,
                    other => panic!("a golden row is not an object: {other:?}"),
                })
                .collect()
        });
        BodyGen {
            rng: StdRng::seed_from_u64(seed),
            rows,
            label: data.schema().label_name().unwrap(),
        }
    }

    fn chance(&mut self, p: f64) -> bool {
        self.rng.random_bool(p)
    }

    fn pick<'a>(&mut self, items: &'a [&'a str]) -> &'a str {
        items[self.rng.random_range(0..items.len())]
    }

    fn ws(&mut self) -> &'static str {
        self.pick(&["", "", "", " ", "\n", "\t ", "\r\n  "])
    }

    /// A value nested in arrays so that its innermost item sits at
    /// `MAX_DEPTH - 1`, `MAX_DEPTH` or `MAX_DEPTH + 1`, for a value at
    /// nesting `depth`.
    fn deep(&mut self, depth: usize) -> String {
        let innermost = MAX_DEPTH - 1 + self.rng.random_range(0..3usize);
        let levels = innermost - depth;
        format!("{}1{}", "[".repeat(levels), "]".repeat(levels))
    }

    /// A key as JSON text, sometimes spelled with an escape.
    fn key(&mut self, name: &str) -> String {
        let mut text = String::new();
        match name.char_indices().nth(1) {
            Some((at, c)) if c.is_ascii() && self.chance(0.1) => {
                text.push('"');
                text.push_str(&name[..at]);
                text.push_str(&format!("\\u{:04x}", c as u32));
                text.push_str(&name[at + c.len_utf8()..]);
                text.push('"');
            }
            _ => write_escaped(name, &mut text),
        }
        text
    }

    /// A mutated cell for a golden `value`.
    fn cell(&mut self, value: &Value, depth: usize) -> String {
        match self.rng.random_range(0..10) {
            0 => self.pick(ODD_VALUES).to_string(),
            1 => self.pick(NUMBERS).to_string(),
            2 if depth + 1 < MAX_DEPTH => self.deep(depth),
            3 => match value {
                Value::Str(s) => {
                    let suffix = self.pick(&["\\\"", "\\u00e9", "\\ud800", "\\n", "\\/"]);
                    let mut text = String::new();
                    write_escaped(s, &mut text);
                    text.insert_str(text.len() - 1, suffix);
                    text
                }
                _ => value.to_json(),
            },
            _ => value.to_json(),
        }
    }

    /// One row object at nesting `depth`.
    fn row(&mut self, depth: usize) -> String {
        if self.chance(0.05) {
            return self.pick(ODD_VALUES).to_string();
        }
        let base = &self.rows[self.rng.random_range(0..self.rows.len())];
        let mut members: Vec<(String, String)> = Vec::new();
        for (name, value) in base {
            if self.chance(0.05) {
                continue;
            }
            let text = if self.chance(0.05) {
                self.cell(value, depth + 1)
            } else {
                value.to_json()
            };
            members.push((self.key(name), text));
        }
        if self.chance(0.3) {
            members.shuffle(&mut self.rng);
        }
        if self.chance(0.2) && !base.is_empty() {
            let (name, value) = &base[self.rng.random_range(0..base.len())];
            let at = self.rng.random_range(0..=members.len());
            let duplicate = (self.key(name), self.cell(value, depth + 1));
            members.insert(at, duplicate);
        }
        if self.chance(0.2) {
            let name = if self.chance(0.3) {
                self.label
            } else {
                "unknown"
            };
            let value = if self.chance(0.3) {
                self.deep(depth + 1)
            } else {
                self.pick(ODD_VALUES).to_string()
            };
            let at = self.rng.random_range(0..=members.len());
            members.insert(at, (self.key(name), value));
        }
        self.object(&members)
    }

    fn object(&mut self, members: &[(String, String)]) -> String {
        let mut text = format!("{{{}", self.ws());
        for (i, (key, value)) in members.iter().enumerate() {
            if i > 0 {
                text.push(',');
                text.push_str(self.ws());
            }
            let (a, b) = (self.ws(), self.ws());
            text.push_str(&format!("{key}{a}:{b}{value}"));
        }
        text.push_str(self.ws());
        text.push('}');
        text
    }

    fn rows_array(&mut self) -> String {
        let n = self.rng.random_range(1..5);
        let items: Vec<String> = (0..n).map(|_| self.row(2)).collect();
        let sep = format!(",{}", self.ws());
        format!("[{}{}]", items.join(&sep), self.ws())
    }

    /// One request body.
    fn body(&mut self) -> String {
        let row = "\"row\"".to_string();
        let rows = "\"rows\"".to_string();
        let mut members: Vec<(String, String)> = match self.rng.random_range(0..9) {
            0 | 1 => vec![(row, self.row(1))],
            2 | 3 => vec![(rows, self.rows_array())],
            4 => vec![(rows, "[]".to_string())],
            5 => vec![(rows, self.pick(ODD_VALUES).to_string())],
            6 => {
                let mut both = vec![(row, self.row(1)), (rows, self.rows_array())];
                both.shuffle(&mut self.rng);
                both
            }
            7 => {
                let mut repeated = vec![(rows, self.pick(ODD_VALUES).to_string())];
                repeated.push((self.key("rows"), self.rows_array()));
                repeated.push((self.key("row"), self.row(1)));
                repeated.push((self.key("row"), self.pick(ODD_VALUES).to_string()));
                repeated.shuffle(&mut self.rng);
                repeated
            }
            _ => {
                let top = format!("[{}]", self.row(1));
                return self
                    .pick(&[top.as_str(), "\"row\"", "5", "null"])
                    .to_string();
            }
        };
        if self.chance(0.2) {
            let at = self.rng.random_range(0..=members.len());
            let value = if self.chance(0.5) {
                self.deep(1)
            } else {
                self.pick(ODD_VALUES).to_string()
            };
            members.insert(at, ("\"extra\"".to_string(), value));
        }
        let mut body = self.object(&members);
        if self.chance(0.1) {
            let tail = self.pick(&["x", "}", "]", ",", " 1", " \n", "{}"]);
            body.push_str(tail);
        }
        if self.chance(0.1) {
            let mut cut = self.rng.random_range(0..=body.len());
            while !body.is_char_boundary(cut) {
                cut -= 1;
            }
            body.truncate(cut);
        }
        body
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn decoder_agrees_with_parse_and_frame_build(seed in any::<u64>()) {
        let schema = german().schema();
        let body = BodyGen::seeded(seed).body();
        assert_agrees(schema, &body);
    }

    #[test]
    fn writer_renders_the_response_document_bytes(
        seed in any::<u64>(),
        n in 0usize..12,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let scored: Vec<ScoredRow> = (0..n)
            .map(|_| ScoredRow {
                privileged: rng.random_bool(0.5),
                score: number(&mut rng),
                decision: number(&mut rng),
            })
            .collect();
        let fingerprint = ["fnv1a64:0123456789abcdef", "fp \"q\" \\ \u{e9}\n\u{1}"][n % 2];
        let mut written = String::new();
        write_predictions(fingerprint, &scored, &mut written);
        prop_assert_eq!(written, response_value(fingerprint, &scored).to_json());
    }
}

/// Every prefix of a short body: truncation at each byte is a syntax
/// error both sides report at the same byte (or, for the whole body, the
/// same frame).
#[test]
fn decoder_agrees_on_every_truncation() {
    let schema = german().schema();
    let body = "{\"rows\": [{\"age\": -0, \"sex\": \"fem\\u0061le\", \"unknown\": [[{}]]}, 7],\
                \"row\" : {\"age\": 1e999, \"sex\": \"male\", \"age\": \"x\"}, \"z\": \"\\ud800\u{e9}\"}";
    for cut in 0..=body.len() {
        if body.is_char_boundary(cut) {
            assert_agrees(schema, &body[..cut]);
        }
    }
}

/// A few bodies pinned by hand, so that the shapes the generator aims
/// at are certainly covered.
#[test]
fn decoder_agrees_on_shapes_and_precedence() {
    let schema = german().schema();
    let nested = |levels: usize| format!("{}1{}", "[".repeat(levels), "]".repeat(levels));
    let bodies = [
        "{\"rows\": []}".to_string(),
        "{\"rows\": 5}".to_string(),
        "{\"rows\": [], \"row\": {}}".to_string(),
        "{\"row\": 5}".to_string(),
        "[]".to_string(),
        "{\"row\": {\"age\": \"x\", \"sex\": 3}} x".to_string(),
        "{\"row\": {\"sex\": 3, \"age\": \"x\"}}".to_string(),
        "{\"row\": {\"age\": 1, \"age\": \"x\"}}".to_string(),
        format!("{{\"row\": {{\"u\": {}}}}}", nested(MAX_DEPTH - 2)),
        format!("{{\"row\": {{\"u\": {}}}}}", nested(MAX_DEPTH - 1)),
        format!("{{\"rows\": [{{\"u\": {}}}]}}", nested(MAX_DEPTH - 2)),
        format!("{{\"rows\": [{{\"u\": {}}}]}}", nested(MAX_DEPTH - 3)),
    ];
    for body in &bodies {
        assert_agrees(schema, body);
    }
}
