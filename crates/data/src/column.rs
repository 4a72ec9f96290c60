//! Typed columns with first-class missing values.
//!
//! FairPrep promotes data to a first-class citizen: records with missing
//! values are *kept* and tracked, not silently dropped (§2.4 of the paper
//! criticizes previous studies for removing them). Every cell is therefore
//! an `Option`: `None` models a missing value.

// Ordered maps only: the category dictionary and the mode counters live on
// the seeded path, where `HashMap`'s randomized iteration order is banned
// (enforced by the `fairprep-audit` nondeterminism lints). `mode()` already
// resolves ties deterministically, but a BTreeMap makes the iteration order
// itself reproducible instead of merely harmless.
use std::collections::BTreeMap;

use crate::error::{Error, Result};

/// A single cell value, borrowed from a column.
#[derive(Debug, Clone, PartialEq)]
pub enum Value<'a> {
    /// A numeric observation.
    Numeric(f64),
    /// A categorical observation.
    Categorical(&'a str),
    /// A missing observation.
    Missing,
}

impl Value<'_> {
    /// Returns `true` for [`Value::Missing`].
    #[must_use]
    pub fn is_missing(&self) -> bool {
        matches!(self, Value::Missing)
    }

    /// Returns the numeric payload, if any.
    #[must_use]
    pub fn as_numeric(&self) -> Option<f64> {
        match self {
            Value::Numeric(v) => Some(*v),
            _ => None,
        }
    }

    /// Returns the categorical payload, if any.
    #[must_use]
    pub fn as_categorical(&self) -> Option<&str> {
        match self {
            Value::Categorical(s) => Some(s),
            _ => None,
        }
    }
}

/// An owned cell value, used when constructing or mutating columns.
#[derive(Debug, Clone, PartialEq)]
pub enum OwnedValue {
    /// A numeric observation.
    Numeric(f64),
    /// A categorical observation.
    Categorical(String),
    /// A missing observation.
    Missing,
}

impl From<f64> for OwnedValue {
    fn from(v: f64) -> Self {
        OwnedValue::Numeric(v)
    }
}

impl From<&str> for OwnedValue {
    fn from(v: &str) -> Self {
        OwnedValue::Categorical(v.to_string())
    }
}

impl From<String> for OwnedValue {
    fn from(v: String) -> Self {
        OwnedValue::Categorical(v)
    }
}

/// The kind of data a column holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ColumnKind {
    /// Floating-point values.
    Numeric,
    /// String categories (dictionary-encoded).
    Categorical,
}

/// A dictionary-encoded categorical column payload.
///
/// Categories are interned once; cells store `u32` codes. This keeps per-cell
/// storage small and makes group-by operations cheap, which matters for the
/// large sweep workloads the benchmark harnesses run.
#[derive(Debug, Clone, PartialEq)]
pub struct CategoricalData {
    codes: Vec<Option<u32>>,
    categories: Vec<String>,
    index: BTreeMap<String, u32>,
}

impl CategoricalData {
    /// Creates an empty categorical payload.
    #[must_use]
    pub fn new() -> Self {
        CategoricalData {
            codes: Vec::new(),
            categories: Vec::new(),
            index: BTreeMap::new(),
        }
    }

    /// Interns `category` and returns its code.
    pub fn intern(&mut self, category: &str) -> u32 {
        if let Some(&code) = self.index.get(category) {
            return code;
        }
        // audit: allow(expect, reason = "u32 codes overflow only beyond 4 billion distinct categories, far past any supported dataset")
        let code = u32::try_from(self.categories.len()).expect("too many categories");
        self.categories.push(category.to_string());
        self.index.insert(category.to_string(), code);
        code
    }

    /// Appends a (possibly missing) category.
    pub fn push(&mut self, category: Option<&str>) {
        let code = category.map(|c| self.intern(c));
        self.codes.push(code);
    }

    /// Returns the code for `category` if it has been interned.
    #[must_use]
    pub fn code_of(&self, category: &str) -> Option<u32> {
        self.index.get(category).copied()
    }

    /// Returns the category string for `code`.
    #[must_use]
    pub fn category_of(&self, code: u32) -> Option<&str> {
        self.categories.get(code as usize).map(String::as_str)
    }

    /// The distinct categories, in interning order.
    #[must_use]
    pub fn categories(&self) -> &[String] {
        &self.categories
    }

    /// The per-row codes.
    #[must_use]
    pub fn codes(&self) -> &[Option<u32>] {
        &self.codes
    }
}

impl Default for CategoricalData {
    fn default() -> Self {
        Self::new()
    }
}

/// A typed column: a name-less vector of optional values.
#[derive(Debug, Clone, PartialEq)]
pub enum Column {
    /// Numeric payload.
    Numeric(Vec<Option<f64>>),
    /// Categorical payload.
    Categorical(CategoricalData),
}

impl Column {
    /// Creates an empty column of the requested kind.
    #[must_use]
    pub fn new(kind: ColumnKind) -> Self {
        match kind {
            ColumnKind::Numeric => Column::Numeric(Vec::new()),
            ColumnKind::Categorical => Column::Categorical(CategoricalData::new()),
        }
    }

    /// Creates a numeric column from complete values.
    #[must_use]
    pub fn from_f64(values: impl IntoIterator<Item = f64>) -> Self {
        Column::Numeric(values.into_iter().map(Some).collect())
    }

    /// Creates a numeric column that may contain missing values.
    #[must_use]
    pub fn from_optional_f64(values: impl IntoIterator<Item = Option<f64>>) -> Self {
        Column::Numeric(values.into_iter().collect())
    }

    /// Creates a categorical column from complete string values.
    #[must_use]
    pub fn from_strs<'a>(values: impl IntoIterator<Item = &'a str>) -> Self {
        let mut data = CategoricalData::new();
        for v in values {
            data.push(Some(v));
        }
        Column::Categorical(data)
    }

    /// Creates a categorical column that may contain missing values.
    #[must_use]
    pub fn from_optional_strs<'a>(values: impl IntoIterator<Item = Option<&'a str>>) -> Self {
        let mut data = CategoricalData::new();
        for v in values {
            data.push(v);
        }
        Column::Categorical(data)
    }

    /// The kind of the column.
    #[must_use]
    pub fn kind(&self) -> ColumnKind {
        match self {
            Column::Numeric(_) => ColumnKind::Numeric,
            Column::Categorical(_) => ColumnKind::Categorical,
        }
    }

    /// Number of rows.
    #[must_use]
    pub fn len(&self) -> usize {
        match self {
            Column::Numeric(v) => v.len(),
            Column::Categorical(c) => c.codes.len(),
        }
    }

    /// `true` when the column has no rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The value at row `i` (panics when out of bounds).
    #[must_use]
    pub fn get(&self, i: usize) -> Value<'_> {
        match self {
            Column::Numeric(v) => v[i].map_or(Value::Missing, Value::Numeric),
            Column::Categorical(c) => match c.codes[i] {
                Some(code) => Value::Categorical(&c.categories[code as usize]),
                None => Value::Missing,
            },
        }
    }

    /// `true` when the value at row `i` is missing.
    #[must_use]
    pub fn is_missing(&self, i: usize) -> bool {
        match self {
            Column::Numeric(v) => v[i].is_none(),
            Column::Categorical(c) => c.codes[i].is_none(),
        }
    }

    /// Number of missing cells.
    #[must_use]
    pub fn missing_count(&self) -> usize {
        match self {
            Column::Numeric(v) => v.iter().filter(|x| x.is_none()).count(),
            Column::Categorical(c) => c.codes.iter().filter(|x| x.is_none()).count(),
        }
    }

    /// Appends an owned value, checking the type.
    pub fn push(&mut self, value: OwnedValue) -> Result<()> {
        match (self, value) {
            (Column::Numeric(v), OwnedValue::Numeric(x)) => v.push(Some(x)),
            (Column::Numeric(v), OwnedValue::Missing) => v.push(None),
            (Column::Categorical(c), OwnedValue::Categorical(s)) => c.push(Some(&s)),
            (Column::Categorical(c), OwnedValue::Missing) => c.push(None),
            (col, _) => {
                let expected = if col.kind() == ColumnKind::Numeric {
                    "numeric"
                } else {
                    "categorical"
                };
                return Err(Error::ColumnTypeMismatch {
                    column: String::new(),
                    expected,
                });
            }
        }
        Ok(())
    }

    /// Overwrites row `i` with `value` (same typing rules as [`Column::push`]).
    pub fn set(&mut self, i: usize, value: OwnedValue) -> Result<()> {
        match (self, value) {
            (Column::Numeric(v), OwnedValue::Numeric(x)) => v[i] = Some(x),
            (Column::Numeric(v), OwnedValue::Missing) => v[i] = None,
            (Column::Categorical(c), OwnedValue::Categorical(s)) => {
                let code = c.intern(&s);
                c.codes[i] = Some(code);
            }
            (Column::Categorical(c), OwnedValue::Missing) => c.codes[i] = None,
            (col, _) => {
                let expected = if col.kind() == ColumnKind::Numeric {
                    "numeric"
                } else {
                    "categorical"
                };
                return Err(Error::ColumnTypeMismatch {
                    column: String::new(),
                    expected,
                });
            }
        }
        Ok(())
    }

    /// Materializes a new column containing the rows at `indices` (in order,
    /// duplicates allowed — this is what resamplers rely on).
    #[must_use]
    pub fn take(&self, indices: &[usize]) -> Column {
        match self {
            Column::Numeric(v) => Column::Numeric(indices.iter().map(|&i| v[i]).collect()),
            Column::Categorical(c) => {
                // Preserve the dictionary so that codes remain comparable
                // across splits of the same frame.
                let mut out = CategoricalData {
                    codes: Vec::with_capacity(indices.len()),
                    categories: c.categories.clone(),
                    index: c.index.clone(),
                };
                for &i in indices {
                    out.codes.push(c.codes[i]);
                }
                Column::Categorical(out)
            }
        }
    }

    /// Returns the numeric payload or a type error.
    pub fn as_numeric(&self) -> Result<&[Option<f64>]> {
        match self {
            Column::Numeric(v) => Ok(v),
            Column::Categorical(_) => Err(Error::ColumnTypeMismatch {
                column: String::new(),
                expected: "numeric",
            }),
        }
    }

    /// Returns the categorical payload or a type error.
    pub fn as_categorical(&self) -> Result<&CategoricalData> {
        match self {
            Column::Categorical(c) => Ok(c),
            Column::Numeric(_) => Err(Error::ColumnTypeMismatch {
                column: String::new(),
                expected: "categorical",
            }),
        }
    }

    /// Iterates over the values of the column.
    pub fn iter(&self) -> impl Iterator<Item = Value<'_>> + '_ {
        (0..self.len()).map(move |i| self.get(i))
    }

    /// Mean of the non-missing numeric values, `None` when all are missing
    /// or the column is categorical.
    #[must_use]
    pub fn mean(&self) -> Option<f64> {
        let v = self.as_numeric().ok()?;
        let (sum, n) = v
            .iter()
            .flatten()
            .fold((0.0_f64, 0usize), |(s, n), &x| (s + x, n + 1));
        if n == 0 {
            None
        } else {
            Some(sum / n as f64)
        }
    }

    /// Most frequent non-missing value, as an owned value. Ties break towards
    /// the value seen first, which keeps the operation deterministic.
    #[must_use]
    pub fn mode(&self) -> Option<OwnedValue> {
        match self {
            Column::Numeric(v) => {
                // Bucket by bit pattern: exact-equality mode for numerics.
                let mut counts: BTreeMap<u64, (usize, usize, f64)> = BTreeMap::new();
                for (pos, x) in v.iter().enumerate() {
                    if let Some(x) = x {
                        let e = counts.entry(x.to_bits()).or_insert((0, pos, *x));
                        e.0 += 1;
                    }
                }
                counts
                    .into_values()
                    .max_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)))
                    .map(|(_, _, x)| OwnedValue::Numeric(x))
            }
            Column::Categorical(c) => {
                let mut counts: BTreeMap<u32, (usize, usize)> = BTreeMap::new();
                for (pos, code) in c.codes.iter().enumerate() {
                    if let Some(code) = code {
                        let e = counts.entry(*code).or_insert((0, pos));
                        e.0 += 1;
                    }
                }
                counts
                    .into_iter()
                    .max_by(|a, b| a.1 .0.cmp(&b.1 .0).then(b.1 .1.cmp(&a.1 .1)))
                    .map(|(code, _)| OwnedValue::Categorical(c.categories[code as usize].clone()))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numeric_roundtrip() {
        let col = Column::from_f64([1.0, 2.0, 3.0]);
        assert_eq!(col.len(), 3);
        assert_eq!(col.kind(), ColumnKind::Numeric);
        assert_eq!(col.get(1), Value::Numeric(2.0));
        assert_eq!(col.missing_count(), 0);
    }

    #[test]
    fn numeric_missing_tracked() {
        let col = Column::from_optional_f64([Some(1.0), None, Some(3.0)]);
        assert!(col.is_missing(1));
        assert!(!col.is_missing(0));
        assert_eq!(col.missing_count(), 1);
        assert_eq!(col.get(1), Value::Missing);
    }

    #[test]
    fn categorical_interning_dedupes() {
        let col = Column::from_strs(["a", "b", "a", "c", "b"]);
        let cat = col.as_categorical().unwrap();
        assert_eq!(cat.categories(), &["a", "b", "c"]);
        assert_eq!(cat.code_of("b"), Some(1));
        assert_eq!(cat.category_of(2), Some("c"));
    }

    #[test]
    fn take_preserves_dictionary_and_order() {
        let col = Column::from_strs(["a", "b", "c"]);
        let taken = col.take(&[2, 0, 2]);
        assert_eq!(taken.get(0), Value::Categorical("c"));
        assert_eq!(taken.get(1), Value::Categorical("a"));
        assert_eq!(taken.get(2), Value::Categorical("c"));
        // Dictionary survives even for categories absent from the selection.
        assert_eq!(taken.as_categorical().unwrap().code_of("b"), Some(1));
    }

    #[test]
    fn push_type_checked() {
        let mut col = Column::new(ColumnKind::Numeric);
        col.push(OwnedValue::Numeric(1.0)).unwrap();
        col.push(OwnedValue::Missing).unwrap();
        assert!(col.push(OwnedValue::Categorical("x".into())).is_err());
        assert_eq!(col.len(), 2);
    }

    #[test]
    fn set_replaces_and_interns() {
        let mut col = Column::from_strs(["a", "a"]);
        col.set(1, OwnedValue::Categorical("z".into())).unwrap();
        assert_eq!(col.get(1), Value::Categorical("z"));
        col.set(0, OwnedValue::Missing).unwrap();
        assert!(col.is_missing(0));
    }

    #[test]
    fn mean_skips_missing() {
        let col = Column::from_optional_f64([Some(1.0), None, Some(3.0)]);
        assert_eq!(col.mean(), Some(2.0));
        let all_missing = Column::from_optional_f64([None, None]);
        assert_eq!(all_missing.mean(), None);
    }

    #[test]
    fn mode_categorical() {
        let col = Column::from_optional_strs([Some("x"), Some("y"), Some("y"), None]);
        assert_eq!(col.mode(), Some(OwnedValue::Categorical("y".into())));
    }

    #[test]
    fn mode_numeric_tie_breaks_to_first_seen() {
        let col = Column::from_f64([5.0, 7.0, 7.0, 5.0]);
        assert_eq!(col.mode(), Some(OwnedValue::Numeric(5.0)));
    }

    #[test]
    fn mode_all_missing_is_none() {
        let col = Column::from_optional_strs([None, None]);
        assert_eq!(col.mode(), None);
    }

    #[test]
    fn value_accessors() {
        assert!(Value::Missing.is_missing());
        assert_eq!(Value::Numeric(2.0).as_numeric(), Some(2.0));
        assert_eq!(Value::Categorical("q").as_categorical(), Some("q"));
        assert_eq!(Value::Numeric(2.0).as_categorical(), None);
    }
}
