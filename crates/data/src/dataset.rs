//! The labelled dataset abstraction — FairPrep's equivalent of AIF360's
//! `BinaryLabelDataset`.
//!
//! A [`BinaryLabelDataset`] bundles a relational view (the [`DataFrame`]),
//! the experiment schema, the protected-group definition, per-instance
//! weights (used by reweighing-style interventions), and the binary label.
//! Labels are exposed in numeric form (`1.0` favorable / `0.0` unfavorable)
//! so that learners and metrics never need to know the original category
//! strings.

use crate::column::{Column, Value};
use crate::error::{Error, Result};
use crate::frame::DataFrame;
use crate::provenance::Provenance;
use crate::schema::{GroupSpec, ProtectedAttribute, Schema};

/// A dataset with a binary label and a protected-group annotation.
#[derive(Debug, Clone, PartialEq)]
pub struct BinaryLabelDataset {
    frame: DataFrame,
    schema: Schema,
    protected: ProtectedAttribute,
    favorable_label: String,
    labels: Vec<f64>,
    privileged_mask: Vec<bool>,
    instance_weights: Vec<f64>,
}

impl BinaryLabelDataset {
    /// Assembles a dataset from its parts.
    ///
    /// * `favorable_label` is the category string of the label column that
    ///   denotes the favorable (positive, `1.0`) outcome.
    /// * Rows with a missing label or a missing protected attribute are
    ///   rejected — the lifecycle needs both for every record.
    pub fn new(
        frame: DataFrame,
        schema: Schema,
        protected: ProtectedAttribute,
        favorable_label: &str,
    ) -> Result<Self> {
        schema.validate()?;
        let label_name = schema.label_name()?;
        let label_col = frame.column(label_name)?;
        let n = frame.n_rows();

        let mut labels = Vec::with_capacity(n);
        for i in 0..n {
            match label_col.get(i) {
                Value::Categorical(s) => labels.push(f64::from(u8::from(s == favorable_label))),
                Value::Numeric(v) => {
                    // audit: allow(float-eq, reason = "accepts only the exact encodings 0.0/1.0; anything else is rejected as an invalid label")
                    if v == 0.0 || v == 1.0 {
                        labels.push(v);
                    } else {
                        return Err(Error::InvalidLabel(v));
                    }
                }
                Value::Missing => {
                    return Err(Error::EmptyData(format!("label missing at row {i}")))
                }
            }
        }

        let privileged_mask = compute_privileged_mask(&frame, &protected)?;
        if !privileged_mask.iter().any(|&p| p) {
            return Err(Error::EmptyGroup { privileged: true });
        }
        if privileged_mask.iter().all(|&p| p) {
            return Err(Error::EmptyGroup { privileged: false });
        }

        Ok(BinaryLabelDataset {
            frame,
            schema,
            protected,
            favorable_label: favorable_label.to_string(),
            labels,
            privileged_mask,
            instance_weights: vec![1.0; n],
        })
    }

    /// Assembles a dataset for **inference-time scoring**: rows that carry
    /// features and the protected attribute but no outcome.
    ///
    /// The label column is synthesized (or overwritten, if the request
    /// happened to include one — serving never trusts a caller-supplied
    /// outcome) with the favorable category, so every code path that reads
    /// labels sees a well-formed all-`1.0` vector that the score path never
    /// consults. Group *presence* is not validated — a single-row request
    /// is necessarily single-group — but a missing protected attribute is
    /// still rejected, because per-group decision rates and post-processors
    /// need it for every record. The frame is tagged [`Provenance::Test`]
    /// so any accidental `fit` on serving traffic trips the leak guard.
    pub fn for_inference(
        mut frame: DataFrame,
        schema: Schema,
        protected: ProtectedAttribute,
        favorable_label: &str,
    ) -> Result<Self> {
        schema.validate()?;
        let label_name = schema.label_name()?.to_string();
        let n = frame.n_rows();

        let label_col = match schema
            .fields()
            .iter()
            .find(|f| f.name == label_name)
            .map(|f| f.kind)
        {
            Some(crate::column::ColumnKind::Numeric) => Column::from_f64(vec![1.0; n]),
            _ => Column::from_strs((0..n).map(|_| favorable_label)),
        };
        if frame.column(&label_name).is_ok() {
            frame.replace_column(&label_name, label_col)?;
        } else {
            frame.add_column(&label_name, label_col)?;
        }
        frame.set_provenance(Provenance::Test);

        let privileged_mask = compute_privileged_mask(&frame, &protected)?;

        Ok(BinaryLabelDataset {
            frame,
            schema,
            protected,
            favorable_label: favorable_label.to_string(),
            labels: vec![1.0; n],
            privileged_mask,
            instance_weights: vec![1.0; n],
        })
    }

    /// Number of instances.
    #[must_use]
    pub fn n_rows(&self) -> usize {
        self.frame.n_rows()
    }

    /// The relational view of the data.
    #[must_use]
    pub fn frame(&self) -> &DataFrame {
        &self.frame
    }

    /// The partition-provenance tag of the underlying frame.
    #[must_use]
    pub fn provenance(&self) -> Provenance {
        self.frame.provenance()
    }

    /// Re-tags the underlying frame (used by the seeded split when the
    /// train/validation/test partitions are born).
    pub fn set_provenance(&mut self, provenance: Provenance) {
        self.frame.set_provenance(provenance);
    }

    /// The `debug_assert!` leak guard every data-dependent `fit` entry
    /// point calls before touching this dataset: rejects test-tagged
    /// inputs in debug builds (see [`crate::provenance::guard_fit`]).
    #[inline]
    pub fn guard_fit(&self, component: &str) {
        crate::provenance::guard_fit(self.provenance(), component);
    }

    /// The experiment schema.
    #[must_use]
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The protected-attribute declaration.
    #[must_use]
    pub fn protected(&self) -> &ProtectedAttribute {
        &self.protected
    }

    /// The category string denoting the favorable label.
    #[must_use]
    pub fn favorable_label(&self) -> &str {
        &self.favorable_label
    }

    /// Binary labels: `1.0` favorable, `0.0` unfavorable.
    #[must_use]
    pub fn labels(&self) -> &[f64] {
        &self.labels
    }

    /// `true` at index `i` iff instance `i` belongs to the privileged group.
    #[must_use]
    pub fn privileged_mask(&self) -> &[bool] {
        &self.privileged_mask
    }

    /// Per-instance weights (all `1.0` unless an intervention reweighed).
    #[must_use]
    pub fn instance_weights(&self) -> &[f64] {
        &self.instance_weights
    }

    /// Replaces the instance weights (e.g. after reweighing).
    pub fn set_instance_weights(&mut self, weights: Vec<f64>) -> Result<()> {
        if weights.len() != self.n_rows() {
            return Err(Error::LengthMismatch {
                expected: self.n_rows(),
                actual: weights.len(),
            });
        }
        if let Some(w) = weights.iter().find(|w| !w.is_finite() || **w < 0.0) {
            return Err(Error::InvalidParameter {
                name: "instance_weights",
                message: format!("weight {w} is not a finite non-negative number"),
            });
        }
        self.instance_weights = weights;
        Ok(())
    }

    /// Indices of the privileged (`true`) or unprivileged (`false`) group.
    #[must_use]
    pub fn group_indices(&self, privileged: bool) -> Vec<usize> {
        self.privileged_mask
            .iter()
            .enumerate()
            .filter(|(_, &p)| p == privileged)
            .map(|(i, _)| i)
            .collect()
    }

    /// Fraction of favorable labels; over the whole dataset when `group` is
    /// `None`, otherwise within the selected group.
    #[must_use]
    pub fn base_rate(&self, group: Option<bool>) -> f64 {
        let (pos, n) = self
            .labels
            .iter()
            .zip(&self.privileged_mask)
            .filter(|(_, &p)| group.is_none_or(|g| p == g))
            .fold((0.0, 0usize), |(pos, n), (&y, _)| (pos + y, n + 1));
        if n == 0 {
            f64::NAN
        } else {
            pos / n as f64
        }
    }

    /// Materializes the sub-dataset at `indices` (duplicates allowed —
    /// resamplers rely on this). Weights, labels and group masks travel with
    /// the rows.
    #[must_use]
    pub fn take(&self, indices: &[usize]) -> BinaryLabelDataset {
        BinaryLabelDataset {
            frame: self.frame.take(indices),
            schema: self.schema.clone(),
            protected: self.protected.clone(),
            favorable_label: self.favorable_label.clone(),
            labels: indices.iter().map(|&i| self.labels[i]).collect(),
            privileged_mask: indices.iter().map(|&i| self.privileged_mask[i]).collect(),
            instance_weights: indices.iter().map(|&i| self.instance_weights[i]).collect(),
        }
    }

    /// Replaces a feature column in the relational view (used by repairing
    /// preprocessors such as the disparate-impact remover). Labels, masks and
    /// weights are untouched.
    pub fn replace_column(&mut self, name: &str, column: Column) -> Result<()> {
        if self.schema.label_name()? == name {
            return Err(Error::InvalidParameter {
                name: "replace_column",
                message: "label column cannot be replaced through this method".to_string(),
            });
        }
        self.frame.replace_column(name, column)?;
        if name == self.protected.name {
            self.privileged_mask = compute_privileged_mask(&self.frame, &self.protected)?;
        }
        Ok(())
    }

    /// Mutable access to the relational view for imputation-style edits that
    /// must not touch the label column.
    ///
    /// The label and group caches are recomputed afterwards via
    /// [`BinaryLabelDataset::refresh_caches`]; callers inside the workspace
    /// use the safe wrappers in `fairprep-impute` instead of this method.
    pub fn frame_mut(&mut self) -> &mut DataFrame {
        &mut self.frame
    }

    /// Recomputes the privileged mask after direct frame edits.
    pub fn refresh_caches(&mut self) -> Result<()> {
        self.privileged_mask = compute_privileged_mask(&self.frame, &self.protected)?;
        Ok(())
    }

    /// Row indices with at least one missing value.
    #[must_use]
    pub fn incomplete_rows(&self) -> Vec<usize> {
        self.frame.incomplete_rows()
    }

    /// Replaces the binary labels (used by relabeling interventions such as
    /// massaging). The label column in the relational view is rewritten
    /// accordingly; the label column must contain exactly two categories so
    /// the unfavorable category is unambiguous.
    pub fn set_labels(&mut self, labels: Vec<f64>) -> Result<()> {
        if labels.len() != self.n_rows() {
            return Err(Error::LengthMismatch {
                expected: self.n_rows(),
                actual: labels.len(),
            });
        }
        // audit: allow(float-eq, reason = "label validity means exactly 0.0 or 1.0; approximate comparison would accept bad labels")
        if let Some(bad) = labels.iter().find(|v| **v != 0.0 && **v != 1.0) {
            return Err(Error::InvalidLabel(*bad));
        }
        let label_name = self.schema.label_name()?.to_string();
        let label_col = self.frame.column(&label_name)?;
        let unfavorable = match label_col {
            Column::Categorical(cat) => {
                let others: Vec<&str> = cat
                    .categories()
                    .iter()
                    .map(String::as_str)
                    .filter(|c| *c != self.favorable_label)
                    .collect();
                if others.len() != 1 {
                    return Err(Error::InvalidParameter {
                        name: "set_labels",
                        message: format!(
                            "label column must have exactly 2 categories, found {}",
                            others.len() + 1
                        ),
                    });
                }
                // audit: allow(index-literal, reason = "guarded by the others.len() != 1 check above")
                crate::column::OwnedValue::Categorical(others[0].to_string())
            }
            Column::Numeric(_) => crate::column::OwnedValue::Numeric(0.0),
        };
        let favorable = match label_col {
            Column::Categorical(_) => {
                crate::column::OwnedValue::Categorical(self.favorable_label.clone())
            }
            Column::Numeric(_) => crate::column::OwnedValue::Numeric(1.0),
        };
        for (i, &y) in labels.iter().enumerate() {
            // audit: allow(float-eq, reason = "labels are validated to be exactly 0.0 or 1.0 at construction")
            let v = if y == 1.0 {
                favorable.clone()
            } else {
                unfavorable.clone()
            };
            self.frame.column_mut(&label_name)?.set(i, v)?;
        }
        self.labels = labels;
        Ok(())
    }
}

fn compute_privileged_mask(frame: &DataFrame, protected: &ProtectedAttribute) -> Result<Vec<bool>> {
    let col = frame.column(&protected.name)?;
    let n = frame.n_rows();
    let mut mask = Vec::with_capacity(n);
    for i in 0..n {
        let privileged = match (&protected.privileged, col.get(i)) {
            (GroupSpec::CategoryIn(values), Value::Categorical(s)) => values.iter().any(|v| v == s),
            (GroupSpec::NumericAtLeast(t), Value::Numeric(v)) => v >= *t,
            (_, Value::Missing) => {
                return Err(Error::EmptyData(format!(
                    "protected attribute {} missing at row {i}",
                    protected.name
                )))
            }
            _ => {
                return Err(Error::ColumnTypeMismatch {
                    column: protected.name.clone(),
                    expected: "kind matching the group spec",
                })
            }
        };
        mask.push(privileged);
    }
    Ok(mask)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::ColumnKind;

    pub(crate) fn toy() -> BinaryLabelDataset {
        let frame = DataFrame::new()
            .with_column("score", Column::from_f64([10.0, 20.0, 30.0, 40.0]))
            .unwrap()
            .with_column("sex", Column::from_strs(["m", "f", "m", "f"]))
            .unwrap()
            .with_column(
                "outcome",
                Column::from_strs(["good", "bad", "good", "good"]),
            )
            .unwrap();
        let schema = Schema::new()
            .numeric_feature("score")
            .metadata("sex", ColumnKind::Categorical)
            .label("outcome");
        BinaryLabelDataset::new(
            frame,
            schema,
            ProtectedAttribute::categorical("sex", &["m"]),
            "good",
        )
        .unwrap()
    }

    #[test]
    fn labels_are_binarized() {
        let ds = toy();
        assert_eq!(ds.labels(), &[1.0, 0.0, 1.0, 1.0]);
        assert_eq!(ds.favorable_label(), "good");
    }

    #[test]
    fn privileged_mask_matches_spec() {
        let ds = toy();
        assert_eq!(ds.privileged_mask(), &[true, false, true, false]);
        assert_eq!(ds.group_indices(true), vec![0, 2]);
        assert_eq!(ds.group_indices(false), vec![1, 3]);
    }

    #[test]
    fn base_rates() {
        let ds = toy();
        assert!((ds.base_rate(None) - 0.75).abs() < 1e-12);
        assert!((ds.base_rate(Some(true)) - 1.0).abs() < 1e-12);
        assert!((ds.base_rate(Some(false)) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn for_inference_synthesizes_labels_and_tags_test() {
        // Serving rows: features + protected attribute, no outcome column.
        let frame = DataFrame::new()
            .with_column("score", Column::from_f64([10.0, 20.0]))
            .unwrap()
            .with_column("sex", Column::from_strs(["m", "f"]))
            .unwrap();
        let schema = Schema::new()
            .numeric_feature("score")
            .metadata("sex", ColumnKind::Categorical)
            .label("outcome");
        let ds = BinaryLabelDataset::for_inference(
            frame,
            schema,
            ProtectedAttribute::categorical("sex", &["m"]),
            "good",
        )
        .unwrap();
        assert_eq!(ds.labels(), &[1.0, 1.0]);
        assert_eq!(ds.privileged_mask(), &[true, false]);
        assert_eq!(ds.provenance(), Provenance::Test);
        // Synthesized column holds the favorable category everywhere.
        let col = ds.frame().column("outcome").unwrap();
        assert_eq!(col.get(0), Value::Categorical("good"));
    }

    #[test]
    fn for_inference_overwrites_caller_supplied_labels() {
        let frame = DataFrame::new()
            .with_column("score", Column::from_f64([10.0]))
            .unwrap()
            .with_column("sex", Column::from_strs(["f"]))
            .unwrap()
            .with_column("outcome", Column::from_strs(["bad"]))
            .unwrap();
        let schema = Schema::new()
            .numeric_feature("score")
            .metadata("sex", ColumnKind::Categorical)
            .label("outcome");
        let ds = BinaryLabelDataset::for_inference(
            frame,
            schema,
            ProtectedAttribute::categorical("sex", &["m"]),
            "good",
        )
        .unwrap();
        // Single-group batches are legal at inference time...
        assert_eq!(ds.privileged_mask(), &[false]);
        // ...and the caller's outcome claim is discarded.
        assert_eq!(ds.labels(), &[1.0]);
    }

    #[test]
    fn for_inference_still_rejects_missing_protected() {
        let frame = DataFrame::new()
            .with_column("score", Column::from_f64([10.0]))
            .unwrap()
            .with_column("sex", Column::from_optional_strs([None::<&str>]))
            .unwrap();
        let schema = Schema::new()
            .numeric_feature("score")
            .metadata("sex", ColumnKind::Categorical)
            .label("outcome");
        let err = BinaryLabelDataset::for_inference(
            frame,
            schema,
            ProtectedAttribute::categorical("sex", &["m"]),
            "good",
        )
        .unwrap_err();
        assert!(
            matches!(err, Error::EmptyData(_) | Error::InvalidParameter { .. }),
            "unexpected: {err}"
        );
    }

    #[test]
    fn take_carries_annotations() {
        let mut ds = toy();
        ds.set_instance_weights(vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let sub = ds.take(&[3, 1]);
        assert_eq!(sub.labels(), &[1.0, 0.0]);
        assert_eq!(sub.privileged_mask(), &[false, false]);
        assert_eq!(sub.instance_weights(), &[4.0, 2.0]);
    }

    #[test]
    fn weights_validated() {
        let mut ds = toy();
        assert!(ds.set_instance_weights(vec![1.0]).is_err());
        assert!(ds.set_instance_weights(vec![1.0, -1.0, 1.0, 1.0]).is_err());
        assert!(ds
            .set_instance_weights(vec![1.0, f64::NAN, 1.0, 1.0])
            .is_err());
        assert!(ds.set_instance_weights(vec![0.5; 4]).is_ok());
    }

    #[test]
    fn missing_label_rejected() {
        let frame = DataFrame::new()
            .with_column("x", Column::from_f64([1.0, 2.0]))
            .unwrap()
            .with_column("g", Column::from_strs(["a", "b"]))
            .unwrap()
            .with_column("y", Column::from_optional_strs([Some("good"), None]))
            .unwrap();
        let schema = Schema::new()
            .numeric_feature("x")
            .metadata("g", ColumnKind::Categorical)
            .label("y");
        let result = BinaryLabelDataset::new(
            frame,
            schema,
            ProtectedAttribute::categorical("g", &["a"]),
            "good",
        );
        assert!(result.is_err());
    }

    #[test]
    fn single_group_rejected() {
        let frame = DataFrame::new()
            .with_column("x", Column::from_f64([1.0, 2.0]))
            .unwrap()
            .with_column("g", Column::from_strs(["a", "a"]))
            .unwrap()
            .with_column("y", Column::from_strs(["good", "bad"]))
            .unwrap();
        let schema = Schema::new()
            .numeric_feature("x")
            .metadata("g", ColumnKind::Categorical)
            .label("y");
        let result = BinaryLabelDataset::new(
            frame,
            schema,
            ProtectedAttribute::categorical("g", &["a"]),
            "good",
        );
        assert_eq!(result.unwrap_err(), Error::EmptyGroup { privileged: false });
    }

    #[test]
    fn numeric_labels_accepted_when_binary() {
        let frame = DataFrame::new()
            .with_column("g", Column::from_strs(["a", "b"]))
            .unwrap()
            .with_column("y", Column::from_f64([1.0, 0.0]))
            .unwrap();
        let schema = Schema::new()
            .metadata("g", ColumnKind::Categorical)
            .label("y");
        let ds = BinaryLabelDataset::new(
            frame,
            schema,
            ProtectedAttribute::categorical("g", &["a"]),
            "1",
        )
        .unwrap();
        assert_eq!(ds.labels(), &[1.0, 0.0]);
    }

    #[test]
    fn replace_column_protects_label() {
        let mut ds = toy();
        assert!(ds
            .replace_column("outcome", Column::from_strs(["x", "x", "x", "x"]))
            .is_err());
        ds.replace_column("score", Column::from_f64([0.0, 0.0, 0.0, 0.0]))
            .unwrap();
        assert_eq!(ds.frame().value(0, "score").unwrap(), Value::Numeric(0.0));
    }

    #[test]
    fn replace_protected_column_refreshes_mask() {
        let mut ds = toy();
        ds.replace_column("sex", Column::from_strs(["f", "f", "m", "m"]))
            .unwrap();
        assert_eq!(ds.privileged_mask(), &[false, false, true, true]);
    }
}

#[cfg(test)]
mod set_labels_tests {
    use super::tests::toy;
    use crate::column::Value;

    #[test]
    fn set_labels_rewrites_cache_and_frame() {
        let mut ds = toy();
        ds.set_labels(vec![0.0, 1.0, 0.0, 1.0]).unwrap();
        assert_eq!(ds.labels(), &[0.0, 1.0, 0.0, 1.0]);
        assert_eq!(
            ds.frame().value(0, "outcome").unwrap(),
            Value::Categorical("bad")
        );
        assert_eq!(
            ds.frame().value(1, "outcome").unwrap(),
            Value::Categorical("good")
        );
    }

    #[test]
    fn set_labels_validates() {
        let mut ds = toy();
        assert!(ds.set_labels(vec![1.0]).is_err());
        assert!(ds.set_labels(vec![2.0, 0.0, 0.0, 0.0]).is_err());
    }
}
