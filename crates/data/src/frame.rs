//! A minimal column-oriented data frame.
//!
//! This is the pandas substitute the framework is built on: named, typed
//! columns of equal length, with row selection (`take`), filtering, and
//! per-row views. It deliberately supports only the operations the FairPrep
//! lifecycle needs — it is a substrate, not a general analytics engine.

// The name index is a BTreeMap, not a HashMap: lookups are the only use
// today, but an ordered map guarantees that any future iteration over the
// index is deterministic — a seeded-path invariant enforced by the
// `fairprep-audit` nondeterminism lints.
use std::collections::BTreeMap;

use crate::column::{Column, ColumnKind, OwnedValue, Value};
use crate::error::{Error, Result};
use crate::provenance::Provenance;

/// A named collection of equal-length [`Column`]s.
#[derive(Debug, Clone, Default)]
pub struct DataFrame {
    names: Vec<String>,
    columns: Vec<Column>,
    index: BTreeMap<String, usize>,
    provenance: Provenance,
}

/// Equality compares the data (names and columns) only; the provenance tag
/// is bookkeeping, and two identical frames from different partitions must
/// still compare equal (reproducibility tests rely on this).
impl PartialEq for DataFrame {
    fn eq(&self, other: &Self) -> bool {
        self.names == other.names && self.columns == other.columns
    }
}

impl DataFrame {
    /// Creates an empty frame (no columns, no rows).
    #[must_use]
    pub fn new() -> Self {
        DataFrame::default()
    }

    /// Adds a column. All columns must have equal length.
    pub fn add_column(&mut self, name: &str, column: Column) -> Result<()> {
        if self.index.contains_key(name) {
            return Err(Error::DuplicateColumn(name.to_string()));
        }
        if let Some(first) = self.columns.first() {
            if first.len() != column.len() {
                return Err(Error::LengthMismatch {
                    expected: first.len(),
                    actual: column.len(),
                });
            }
        }
        self.index.insert(name.to_string(), self.columns.len());
        self.names.push(name.to_string());
        self.columns.push(column);
        Ok(())
    }

    /// Builder-style [`DataFrame::add_column`].
    pub fn with_column(mut self, name: &str, column: Column) -> Result<Self> {
        self.add_column(name, column)?;
        Ok(self)
    }

    /// The partition-provenance tag of the frame's rows.
    #[must_use]
    pub fn provenance(&self) -> Provenance {
        self.provenance
    }

    /// Re-tags the frame. Called by the seeded split when partitions are
    /// born; everything downstream only propagates.
    pub fn set_provenance(&mut self, provenance: Provenance) {
        self.provenance = provenance;
    }

    /// Builder-style [`DataFrame::set_provenance`].
    #[must_use]
    pub fn with_provenance(mut self, provenance: Provenance) -> Self {
        self.provenance = provenance;
        self
    }

    /// Number of rows.
    #[must_use]
    pub fn n_rows(&self) -> usize {
        self.columns.first().map_or(0, Column::len)
    }

    /// Number of columns.
    #[must_use]
    pub fn n_cols(&self) -> usize {
        self.columns.len()
    }

    /// `true` when the frame holds no rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.n_rows() == 0
    }

    /// Column names in insertion order.
    #[must_use]
    pub fn column_names(&self) -> &[String] {
        &self.names
    }

    /// `true` when a column with `name` exists.
    #[must_use]
    pub fn has_column(&self, name: &str) -> bool {
        self.index.contains_key(name)
    }

    /// Borrows a column by name.
    pub fn column(&self, name: &str) -> Result<&Column> {
        self.index
            .get(name)
            .map(|&i| &self.columns[i])
            .ok_or_else(|| Error::ColumnNotFound(name.to_string()))
    }

    /// Mutably borrows a column by name.
    pub fn column_mut(&mut self, name: &str) -> Result<&mut Column> {
        match self.index.get(name) {
            Some(&i) => Ok(&mut self.columns[i]),
            None => Err(Error::ColumnNotFound(name.to_string())),
        }
    }

    /// Replaces an existing column with a new one of equal length.
    pub fn replace_column(&mut self, name: &str, column: Column) -> Result<()> {
        if column.len() != self.n_rows() {
            return Err(Error::LengthMismatch {
                expected: self.n_rows(),
                actual: column.len(),
            });
        }
        match self.index.get(name) {
            Some(&i) => {
                self.columns[i] = column;
                Ok(())
            }
            None => Err(Error::ColumnNotFound(name.to_string())),
        }
    }

    /// The cell at (`row`, `column`).
    pub fn value(&self, row: usize, column: &str) -> Result<Value<'_>> {
        Ok(self.column(column)?.get(row))
    }

    /// Overwrites the cell at (`row`, `column`).
    pub fn set_value(&mut self, row: usize, column: &str, value: OwnedValue) -> Result<()> {
        self.column_mut(column)?.set(row, value)
    }

    /// Materializes a new frame with the rows at `indices` (duplicates
    /// allowed, order preserved). The provenance tag travels with the rows.
    #[must_use]
    pub fn take(&self, indices: &[usize]) -> DataFrame {
        let mut out = DataFrame::new();
        for (name, col) in self.names.iter().zip(&self.columns) {
            out.add_column(name, col.take(indices))
                // audit: allow(expect, reason = "source columns are unique and equal-length by construction, so re-adding them cannot fail")
                .expect("take preserves schema");
        }
        out.provenance = self.provenance;
        out
    }

    /// Keeps only rows where `predicate(row_index)` holds; returns the new
    /// frame and the kept original row indices.
    #[must_use]
    pub fn filter(&self, predicate: impl Fn(usize) -> bool) -> (DataFrame, Vec<usize>) {
        let indices: Vec<usize> = (0..self.n_rows()).filter(|&i| predicate(i)).collect();
        (self.take(&indices), indices)
    }

    /// Row indices that contain at least one missing value.
    #[must_use]
    pub fn incomplete_rows(&self) -> Vec<usize> {
        (0..self.n_rows())
            .filter(|&i| self.columns.iter().any(|c| c.is_missing(i)))
            .collect()
    }

    /// `true` when row `i` has a missing value in any column.
    #[must_use]
    pub fn row_has_missing(&self, i: usize) -> bool {
        self.columns.iter().any(|c| c.is_missing(i))
    }

    /// Total number of missing cells across the frame.
    #[must_use]
    pub fn missing_cells(&self) -> usize {
        self.columns.iter().map(Column::missing_count).sum()
    }

    /// Vertically concatenates two frames with identical column names/kinds.
    pub fn concat(&self, other: &DataFrame) -> Result<DataFrame> {
        if self.names != other.names {
            return Err(Error::InvalidParameter {
                name: "concat",
                message: "column names differ".to_string(),
            });
        }
        let mut out = DataFrame::new();
        for (name, (a, b)) in self
            .names
            .iter()
            .zip(self.columns.iter().zip(&other.columns))
        {
            if a.kind() != b.kind() {
                return Err(Error::ColumnTypeMismatch {
                    column: name.clone(),
                    expected: "matching kind",
                });
            }
            let mut col = a.clone();
            for i in 0..b.len() {
                let v = match b.get(i) {
                    Value::Numeric(x) => OwnedValue::Numeric(x),
                    Value::Categorical(s) => OwnedValue::Categorical(s.to_string()),
                    Value::Missing => OwnedValue::Missing,
                };
                col.push(v)?;
            }
            out.add_column(name, col)?;
        }
        // Mixed-partition concatenation degrades to Derived; stacking two
        // train frames is still train data.
        out.provenance = self.provenance.merged(other.provenance);
        Ok(out)
    }

    /// Projects the frame onto a subset of columns (in the given order).
    /// The provenance tag travels with the rows.
    pub fn select(&self, names: &[&str]) -> Result<DataFrame> {
        let mut out = DataFrame::new();
        for &name in names {
            out.add_column(name, self.column(name)?.clone())?;
        }
        out.provenance = self.provenance;
        Ok(out)
    }
}

/// A builder that assembles a frame row by row — convenient for dataset
/// generators and CSV ingestion.
#[derive(Debug, Clone)]
pub struct FrameBuilder {
    names: Vec<String>,
    columns: Vec<Column>,
}

impl FrameBuilder {
    /// Declares the columns (name, kind) the builder will accept.
    #[must_use]
    pub fn new(spec: &[(&str, ColumnKind)]) -> Self {
        FrameBuilder {
            names: spec.iter().map(|(n, _)| (*n).to_string()).collect(),
            columns: spec.iter().map(|(_, k)| Column::new(*k)).collect(),
        }
    }

    /// Appends one row; `values` must match the declared column count and
    /// kinds. Runs once per ingested row, so it must stay allocation-free.
    // audit: hot-path
    pub fn push_row(&mut self, values: Vec<OwnedValue>) -> Result<()> {
        if values.len() != self.columns.len() {
            return Err(Error::LengthMismatch {
                expected: self.columns.len(),
                actual: values.len(),
            });
        }
        for (col, v) in self.columns.iter_mut().zip(values) {
            col.push(v)?;
        }
        Ok(())
    }

    /// Finalizes the frame.
    pub fn finish(self) -> Result<DataFrame> {
        let mut out = DataFrame::new();
        for (name, col) in self.names.into_iter().zip(self.columns) {
            out.add_column(&name, col)?;
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DataFrame {
        DataFrame::new()
            .with_column(
                "age",
                Column::from_optional_f64([Some(25.0), None, Some(40.0)]),
            )
            .unwrap()
            .with_column("job", Column::from_strs(["clerk", "none", "chef"]))
            .unwrap()
    }

    #[test]
    fn shape_and_lookup() {
        let df = sample();
        assert_eq!(df.n_rows(), 3);
        assert_eq!(df.n_cols(), 2);
        assert_eq!(df.column_names(), &["age", "job"]);
        assert!(df.has_column("age"));
        assert!(!df.has_column("income"));
        assert_eq!(df.value(2, "age").unwrap(), Value::Numeric(40.0));
        assert!(df.column("nope").is_err());
    }

    #[test]
    fn add_column_length_checked() {
        let mut df = sample();
        let err = df.add_column("short", Column::from_f64([1.0]));
        assert_eq!(
            err,
            Err(Error::LengthMismatch {
                expected: 3,
                actual: 1
            })
        );
    }

    #[test]
    fn add_column_duplicate_rejected() {
        let mut df = sample();
        let err = df.add_column("age", Column::from_f64([1.0, 2.0, 3.0]));
        assert_eq!(err, Err(Error::DuplicateColumn("age".to_string())));
    }

    #[test]
    fn take_and_filter() {
        let df = sample();
        let taken = df.take(&[2, 0]);
        assert_eq!(taken.n_rows(), 2);
        assert_eq!(taken.value(0, "job").unwrap(), Value::Categorical("chef"));

        let (complete, kept) = df.filter(|i| !df.row_has_missing(i));
        assert_eq!(kept, vec![0, 2]);
        assert_eq!(complete.n_rows(), 2);
        assert_eq!(complete.missing_cells(), 0);
    }

    #[test]
    fn incomplete_rows_detected() {
        let df = sample();
        assert_eq!(df.incomplete_rows(), vec![1]);
        assert!(df.row_has_missing(1));
        assert!(!df.row_has_missing(0));
        assert_eq!(df.missing_cells(), 1);
    }

    #[test]
    fn set_value_roundtrip() {
        let mut df = sample();
        df.set_value(1, "age", OwnedValue::Numeric(33.0)).unwrap();
        assert_eq!(df.value(1, "age").unwrap(), Value::Numeric(33.0));
    }

    #[test]
    fn concat_stacks_rows() {
        let df = sample();
        let both = df.concat(&df).unwrap();
        assert_eq!(both.n_rows(), 6);
        assert_eq!(both.value(4, "age").unwrap(), Value::Missing);
    }

    #[test]
    fn concat_rejects_mismatched_names() {
        let df = sample();
        let other = DataFrame::new()
            .with_column("x", Column::from_f64([1.0]))
            .unwrap();
        assert!(df.concat(&other).is_err());
    }

    #[test]
    fn select_projects() {
        let df = sample();
        let only_job = df.select(&["job"]).unwrap();
        assert_eq!(only_job.n_cols(), 1);
        assert!(df.select(&["missing_col"]).is_err());
    }

    #[test]
    fn replace_column_checks_length() {
        let mut df = sample();
        df.replace_column("age", Column::from_f64([1.0, 2.0, 3.0]))
            .unwrap();
        assert_eq!(df.value(0, "age").unwrap(), Value::Numeric(1.0));
        assert!(df.replace_column("age", Column::from_f64([1.0])).is_err());
        assert!(df
            .replace_column("zzz", Column::from_f64([1.0, 2.0, 3.0]))
            .is_err());
    }

    #[test]
    fn builder_assembles_rows() {
        let mut b =
            FrameBuilder::new(&[("a", ColumnKind::Numeric), ("b", ColumnKind::Categorical)]);
        b.push_row(vec![
            OwnedValue::Numeric(1.0),
            OwnedValue::Categorical("x".into()),
        ])
        .unwrap();
        b.push_row(vec![OwnedValue::Missing, OwnedValue::Missing])
            .unwrap();
        let df = b.finish().unwrap();
        assert_eq!(df.n_rows(), 2);
        assert_eq!(df.missing_cells(), 2);
    }

    #[test]
    fn builder_rejects_bad_arity() {
        let mut b = FrameBuilder::new(&[("a", ColumnKind::Numeric)]);
        assert!(b.push_row(vec![]).is_err());
    }

    #[test]
    fn provenance_defaults_to_derived_and_propagates() {
        use crate::provenance::Provenance;
        let df = sample();
        assert_eq!(df.provenance(), Provenance::Derived);

        let tagged = sample().with_provenance(Provenance::Test);
        assert_eq!(tagged.provenance(), Provenance::Test);
        assert_eq!(tagged.take(&[0, 2]).provenance(), Provenance::Test);
        assert_eq!(
            tagged.select(&["age"]).unwrap().provenance(),
            Provenance::Test
        );
        let (filtered, _) = tagged.filter(|i| i == 0);
        assert_eq!(filtered.provenance(), Provenance::Test);
    }

    #[test]
    fn provenance_merges_on_concat() {
        use crate::provenance::Provenance;
        let train = sample().with_provenance(Provenance::Train);
        let test = sample().with_provenance(Provenance::Test);
        assert_eq!(
            train.concat(&train).unwrap().provenance(),
            Provenance::Train
        );
        assert_eq!(
            train.concat(&test).unwrap().provenance(),
            Provenance::Derived
        );
    }

    #[test]
    fn provenance_does_not_affect_equality() {
        use crate::provenance::Provenance;
        let a = sample().with_provenance(Provenance::Train);
        let b = sample().with_provenance(Provenance::Test);
        assert_eq!(a, b);
    }
}
