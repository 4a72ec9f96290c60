//! Profiles the dataset at every lifecycle boundary for the manifest.
//!
//! The lifecycle snapshots the dataset at every boundary where a fitted
//! component rewrites it (split, resampling, imputation, repair,
//! featurization, prediction). [`ProfileBuilder`] computes the
//! [`fairprep_data::profile`] sketches at each boundary, diffs adjacent
//! snapshots, stores both in the manifest's `profile` section as they
//! are, and records threshold-crossing drifts as manifest warnings.
//! Everything captured here is a pure function of
//! `(configuration, data, seed)`, so the resulting `profile` section is
//! byte-stable across thread budgets and repeated runs.

use fairprep_data::dataset::BinaryLabelDataset;
use fairprep_data::error::Result;
use fairprep_data::profile::{dataset_drift, DatasetProfile};
use fairprep_fairness::metrics::decision_rates;
use fairprep_ml::matrix::Matrix;
use fairprep_trace::{
    DataProfile, FeatureSpaceRecord, PredictionRecord, ProfileDiffRecord, SnapshotRecord, Tracer,
};

/// Accumulates dataset snapshots across the lifecycle and assembles the
/// manifest's `profile` section.
pub(crate) struct ProfileBuilder {
    profile: DataProfile,
    /// The dataset of the previous boundary, whose profile is the last
    /// snapshot: the PSI bins raw values into the baseline's quantile
    /// edges.
    last: Option<BinaryLabelDataset>,
}

impl ProfileBuilder {
    pub(crate) fn new() -> ProfileBuilder {
        ProfileBuilder {
            profile: DataProfile::default(),
            last: None,
        }
    }

    /// Profiles `data` at the boundary named `stage`, diffs it against the
    /// previous snapshot, and records threshold-crossing drifts as
    /// warnings on `tracer`. Must only be called from the sequential
    /// lifecycle function (warnings are order-sensitive).
    pub(crate) fn snapshot(&mut self, stage: &str, data: &BinaryLabelDataset, tracer: &Tracer) {
        let profile = DatasetProfile::compute(data);
        if let (Some(prev_data), Some(prev)) = (&self.last, self.profile.snapshots.last()) {
            let drift = dataset_drift(prev_data, &prev.profile, data, &profile);
            for warning in drift.warnings(&prev.stage, stage) {
                tracer.record_warning(warning);
            }
            self.profile.diffs.push(ProfileDiffRecord {
                from: prev.stage.clone(),
                to: stage.to_string(),
                drift,
            });
        }
        self.profile.snapshots.push(SnapshotRecord {
            stage: stage.to_string(),
            profile,
        });
        self.last = Some(data.clone());
    }

    /// Records the shape and moments of the featurized design matrix.
    pub(crate) fn features(&mut self, x: &Matrix) {
        let data = x.data();
        let n = data.len();
        let (mean, std_dev, min, max) = if n == 0 {
            (f64::NAN, f64::NAN, f64::NAN, f64::NAN)
        } else {
            let mean = data.iter().sum::<f64>() / n as f64;
            let var = data.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n as f64;
            let min = data.iter().copied().fold(f64::INFINITY, f64::min);
            let max = data.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            (mean, var.sqrt(), min, max)
        };
        self.profile.features = Some(FeatureSpaceRecord {
            rows: x.n_rows() as u64,
            dims: x.n_cols() as u64,
            mean,
            std_dev,
            min,
            max,
        });
    }

    /// Records the selected pipeline's sealed-test decision rates next to
    /// the label base rates of the same rows, making prediction-vs-label
    /// shifts directly readable from the manifest.
    pub(crate) fn predictions(
        &mut self,
        y_pred: &[f64],
        y_true: &[f64],
        privileged: &[bool],
    ) -> Result<()> {
        let decisions = decision_rates(y_pred, privileged)?;
        let labels = decision_rates(y_true, privileged)?;
        self.profile.predictions = Some(PredictionRecord {
            rows: y_pred.len() as u64,
            positive_rate: decisions.overall,
            privileged_positive_rate: decisions.privileged,
            unprivileged_positive_rate: decisions.unprivileged,
            base_rate: labels.overall,
            privileged_base_rate: labels.privileged,
            unprivileged_base_rate: labels.unprivileged,
            statistical_parity_difference: decisions.statistical_parity_difference(),
        });
        Ok(())
    }

    pub(crate) fn finish(self) -> DataProfile {
        self.profile
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairprep_data::column::{Column, ColumnKind};
    use fairprep_data::frame::DataFrame;
    use fairprep_data::schema::{ProtectedAttribute, Schema};

    fn dataset(scores: &[f64], groups: &[&str], labels: &[&str]) -> BinaryLabelDataset {
        let frame = DataFrame::new()
            .with_column("score", Column::from_f64(scores.iter().copied()))
            .unwrap()
            .with_column("g", Column::from_strs(groups.iter().copied()))
            .unwrap()
            .with_column("y", Column::from_strs(labels.iter().copied()))
            .unwrap();
        let schema = Schema::new()
            .numeric_feature("score")
            .metadata("g", ColumnKind::Categorical)
            .label("y");
        BinaryLabelDataset::new(
            frame,
            schema,
            ProtectedAttribute::categorical("g", &["a"]),
            "p",
        )
        .unwrap()
    }

    #[test]
    fn snapshots_and_diffs_accumulate_in_order() {
        let a = dataset(
            &[1.0, 2.0, 3.0, 4.0],
            &["a", "b", "a", "b"],
            &["p", "n", "p", "n"],
        );
        let b = dataset(&[1.0, 3.0, 2.0], &["a", "a", "b"], &["p", "p", "p"]);
        let tracer = Tracer::enabled();
        let mut builder = ProfileBuilder::new();
        builder.snapshot("raw", &a, &tracer);
        builder.snapshot("train_split", &b, &tracer);
        let profile = builder.finish();
        assert_eq!(profile.snapshots.len(), 2);
        assert_eq!(profile.diffs.len(), 1);
        assert_eq!(profile.diffs[0].from, "raw");
        assert_eq!(profile.diffs[0].to, "train_split");
        assert_eq!(profile.diffs[0].drift.row_delta, -1);
        // The privileged share jumped from 0.5 to 2/3 and the base rate
        // from 0.5 to 1.0 — both cross the warn thresholds.
        let warnings = tracer.warnings();
        assert!(
            warnings.iter().any(|w| w.contains("share")),
            "warnings: {warnings:?}"
        );
        assert!(
            warnings.iter().any(|w| w.contains("base rate")),
            "warnings: {warnings:?}"
        );
    }

    #[test]
    fn features_and_predictions_round_trip() {
        let mut builder = ProfileBuilder::new();
        let x = Matrix::from_rows(&[vec![0.0, 1.0], vec![2.0, 3.0]]).unwrap();
        builder.features(&x);
        builder
            .predictions(&[1.0, 0.0], &[1.0, 1.0], &[true, false])
            .unwrap();
        let profile = builder.finish();
        let f = profile.features.unwrap();
        assert_eq!(f.rows, 2);
        assert_eq!(f.dims, 2);
        assert!((f.mean - 1.5).abs() < 1e-12);
        assert!((f.min - 0.0).abs() < 1e-12);
        assert!((f.max - 3.0).abs() < 1e-12);
        let p = profile.predictions.unwrap();
        assert_eq!(p.rows, 2);
        assert!((p.positive_rate - 0.5).abs() < 1e-12);
        assert!((p.base_rate - 1.0).abs() < 1e-12);
        assert!((p.statistical_parity_difference - (0.0 - 1.0)).abs() < 1e-12);
    }
}
