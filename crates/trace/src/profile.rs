//! The manifest's `profile` section: dataset snapshots, stage-to-stage
//! drift, and the featurized-matrix and prediction summaries.
//!
//! Snapshots and diffs hold `fairprep_data::profile`'s own
//! [`DatasetProfile`] and [`DatasetDrift`]; the lifecycle (in
//! `fairprep-core`) computes them and this module only renders them.
//! Everything in a [`DataProfile`] is a pure function of
//! `(configuration, data, seed)` — no timings, no pointers — so the
//! rendered `profile` section obeys the same byte-stability contract as
//! the rest of [`RunManifest::canonical`](crate::RunManifest::canonical).

use fairprep_data::profile::{ColumnProfile, DatasetDrift, DatasetProfile, GroupLabelTable};

use crate::manifest::JsonWriter;

/// The profile of one dataset snapshot at a named lifecycle boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotRecord {
    /// Boundary name (`raw`, `train_split`, `train_imputed`, …).
    pub stage: String,
    /// The snapshot's profile.
    pub profile: DatasetProfile,
}

/// Drift between two adjacent snapshots.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileDiffRecord {
    /// Baseline snapshot name.
    pub from: String,
    /// Current snapshot name.
    pub to: String,
    /// The drift from `from` to `to`.
    pub drift: DatasetDrift,
}

/// Shape and moments of the featurized (encoded + scaled) design matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureSpaceRecord {
    /// Training rows.
    pub rows: u64,
    /// Feature dimensionality after one-hot encoding.
    pub dims: u64,
    /// Mean over all matrix entries.
    pub mean: f64,
    /// Population standard deviation over all entries.
    pub std_dev: f64,
    /// Smallest entry.
    pub min: f64,
    /// Largest entry.
    pub max: f64,
}

/// Decision rates of the selected pipeline on the sealed test set — the
/// post-intervention output distribution, diffable against the label
/// base rates of the same rows.
#[derive(Debug, Clone, PartialEq)]
pub struct PredictionRecord {
    /// Test rows scored.
    pub rows: u64,
    /// Overall positive-prediction (selection) rate.
    pub positive_rate: f64,
    /// Selection rate within the privileged group.
    pub privileged_positive_rate: f64,
    /// Selection rate within the unprivileged group.
    pub unprivileged_positive_rate: f64,
    /// Favorable-label rate of the same rows.
    pub base_rate: f64,
    /// Favorable-label rate of the privileged rows.
    pub privileged_base_rate: f64,
    /// Favorable-label rate of the unprivileged rows.
    pub unprivileged_base_rate: f64,
    /// `unprivileged_positive_rate − privileged_positive_rate`.
    pub statistical_parity_difference: f64,
}

/// The complete profile section of a run manifest: one snapshot per data
/// boundary, the featurized-matrix summary, the selected pipeline's test
/// predictions, and the diffs between adjacent snapshots.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DataProfile {
    /// Snapshots in lifecycle order.
    pub snapshots: Vec<SnapshotRecord>,
    /// Featurized design-matrix summary, when a featurizer ran.
    pub features: Option<FeatureSpaceRecord>,
    /// Sealed-test prediction rates of the selected pipeline.
    pub predictions: Option<PredictionRecord>,
    /// Diffs between adjacent snapshots, in lifecycle order.
    pub diffs: Vec<ProfileDiffRecord>,
}

impl DataProfile {
    /// `true` when nothing was recorded (the section is then omitted).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.snapshots.is_empty()
            && self.features.is_none()
            && self.predictions.is_none()
            && self.diffs.is_empty()
    }

    /// Writes the section body as the value of an already emitted
    /// `"profile"` key.
    pub(crate) fn write_json(&self, w: &mut JsonWriter) {
        w.open_obj();
        w.key("snapshots");
        w.open_arr();
        for snap in &self.snapshots {
            w.item();
            w.open_obj();
            w.field_str("stage", &snap.stage);
            w.field_u64("rows", snap.profile.rows);
            w.key("columns");
            w.open_obj();
            for (name, col) in &snap.profile.columns {
                w.key(name);
                write_column(w, col);
            }
            w.close_obj();
            w.key("group_label");
            write_group_label(w, &snap.profile.group_label);
            w.close_obj();
        }
        w.close_arr();
        if let Some(features) = &self.features {
            w.key("features");
            w.open_obj();
            w.field_u64("rows", features.rows);
            w.field_u64("dims", features.dims);
            w.field_f64("mean", features.mean);
            w.field_f64("std_dev", features.std_dev);
            w.field_f64("min", features.min);
            w.field_f64("max", features.max);
            w.close_obj();
        }
        if let Some(pred) = &self.predictions {
            w.key("predictions");
            w.open_obj();
            w.field_u64("rows", pred.rows);
            w.field_f64("positive_rate", pred.positive_rate);
            w.field_f64("privileged_positive_rate", pred.privileged_positive_rate);
            w.field_f64(
                "unprivileged_positive_rate",
                pred.unprivileged_positive_rate,
            );
            w.field_f64("base_rate", pred.base_rate);
            w.field_f64("privileged_base_rate", pred.privileged_base_rate);
            w.field_f64("unprivileged_base_rate", pred.unprivileged_base_rate);
            w.field_f64(
                "statistical_parity_difference",
                pred.statistical_parity_difference,
            );
            w.close_obj();
        }
        w.key("diffs");
        w.open_arr();
        for diff in &self.diffs {
            let drift = &diff.drift;
            w.item();
            w.open_obj();
            w.field_str("from", &diff.from);
            w.field_str("to", &diff.to);
            w.field_i64("row_delta", drift.row_delta);
            w.field_f64("privileged_share_delta", drift.privileged_share_delta);
            w.field_f64("base_rate_delta", drift.base_rate_delta);
            w.field_f64(
                "privileged_base_rate_delta",
                drift.privileged_base_rate_delta,
            );
            w.field_f64(
                "unprivileged_base_rate_delta",
                drift.unprivileged_base_rate_delta,
            );
            w.key("columns");
            w.open_obj();
            for col in &drift.columns {
                w.key(&col.name);
                w.open_obj();
                w.field_f64("missing_delta", col.missing_delta);
                w.field_f64("psi", col.psi);
                w.close_obj();
            }
            w.close_obj();
            w.close_obj();
        }
        w.close_arr();
        w.close_obj();
    }

    /// Renders the per-stage drift table shown under `--trace-summary`:
    /// one row per snapshot transition with the row delta, the largest
    /// column PSI (and which column it was), and the base-rate shifts —
    /// overall and per protected group.
    #[must_use]
    pub fn drift_table(&self) -> String {
        let mut out = String::new();
        out.push_str("data drift by stage:\n");
        if self.diffs.is_empty() {
            out.push_str("  (fewer than two snapshots recorded)\n");
        } else {
            out.push_str(&format!(
                "  {:<36} {:>7} {:>8} {:<16} {:>11} {:>11} {:>13}\n",
                "transition",
                "Δrows",
                "max_psi",
                "psi_column",
                "Δbase_rate",
                "Δpriv_rate",
                "Δunpriv_rate"
            ));
            for diff in &self.diffs {
                let drift = &diff.drift;
                let (psi, psi_col) = drift
                    .max_psi()
                    .map_or((0.0, "-"), |c| (c.psi, c.name.as_str()));
                out.push_str(&format!(
                    "  {:<36} {:>7} {:>8.3} {:<16} {:>+11.3} {:>+11.3} {:>+13.3}\n",
                    format!("{}->{}", diff.from, diff.to),
                    drift.row_delta,
                    psi,
                    psi_col,
                    drift.base_rate_delta,
                    drift.privileged_base_rate_delta,
                    drift.unprivileged_base_rate_delta,
                ));
            }
        }
        if let Some(pred) = &self.predictions {
            out.push_str(&format!(
                "test predictions: positive rate {:.3} (priv {:.3} / unpriv {:.3}) \
                 vs base rate {:.3} (priv {:.3} / unpriv {:.3}), SPD {:+.3}\n",
                pred.positive_rate,
                pred.privileged_positive_rate,
                pred.unprivileged_positive_rate,
                pred.base_rate,
                pred.privileged_base_rate,
                pred.unprivileged_base_rate,
                pred.statistical_parity_difference,
            ));
        }
        out
    }
}

fn write_column(w: &mut JsonWriter, col: &ColumnProfile) {
    w.open_obj();
    match col {
        ColumnProfile::Numeric {
            count,
            missing,
            mean,
            std_dev,
            min,
            max,
            quantiles,
        } => {
            w.field_str("kind", "numeric");
            w.field_u64("count", *count);
            w.field_u64("missing", *missing);
            w.field_f64("mean", *mean);
            w.field_f64("std_dev", *std_dev);
            w.field_f64("min", *min);
            w.field_f64("max", *max);
            w.key("quantiles");
            w.f64_array(quantiles);
        }
        ColumnProfile::Categorical {
            count,
            missing,
            cardinality,
            top,
        } => {
            w.field_str("kind", "categorical");
            w.field_u64("count", *count);
            w.field_u64("missing", *missing);
            w.field_u64("cardinality", *cardinality);
            w.key("top");
            w.open_obj();
            for (name, n) in top {
                w.field_u64(name, *n);
            }
            w.close_obj();
        }
    }
    w.close_obj();
}

/// Writes the table's four counts and the four rates derived from them.
fn write_group_label(w: &mut JsonWriter, g: &GroupLabelTable) {
    w.open_obj();
    w.field_u64("privileged_favorable", g.privileged_favorable);
    w.field_u64("privileged_unfavorable", g.privileged_unfavorable);
    w.field_u64("unprivileged_favorable", g.unprivileged_favorable);
    w.field_u64("unprivileged_unfavorable", g.unprivileged_unfavorable);
    w.field_f64("privileged_share", g.privileged_share());
    w.field_f64("base_rate", g.base_rate());
    w.field_f64("privileged_base_rate", g.privileged_base_rate());
    w.field_f64("unprivileged_base_rate", g.unprivileged_base_rate());
    w.close_obj();
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use fairprep_data::profile::ColumnDrift;

    pub(crate) fn sample_profile() -> DataProfile {
        DataProfile {
            snapshots: vec![
                SnapshotRecord {
                    stage: "raw".to_string(),
                    profile: DatasetProfile {
                        rows: 10,
                        columns: vec![
                            (
                                "score".to_string(),
                                ColumnProfile::Numeric {
                                    count: 9,
                                    missing: 1,
                                    mean: 2.5,
                                    std_dev: 1.25,
                                    min: 0.0,
                                    max: 5.0,
                                    quantiles: vec![0.0, 2.5, 5.0],
                                },
                            ),
                            (
                                "group".to_string(),
                                ColumnProfile::Categorical {
                                    count: 10,
                                    missing: 0,
                                    cardinality: 2,
                                    top: vec![("a".to_string(), 6), ("b".to_string(), 4)],
                                },
                            ),
                        ],
                        group_label: GroupLabelTable {
                            privileged_favorable: 4,
                            privileged_unfavorable: 2,
                            unprivileged_favorable: 1,
                            unprivileged_unfavorable: 3,
                        },
                    },
                },
                SnapshotRecord {
                    stage: "train_split".to_string(),
                    profile: DatasetProfile {
                        rows: 7,
                        columns: Vec::new(),
                        group_label: GroupLabelTable {
                            privileged_favorable: 3,
                            privileged_unfavorable: 1,
                            unprivileged_favorable: 1,
                            unprivileged_unfavorable: 2,
                        },
                    },
                },
            ],
            features: Some(FeatureSpaceRecord {
                rows: 7,
                dims: 4,
                mean: 0.1,
                std_dev: 0.9,
                min: -2.0,
                max: 2.0,
            }),
            predictions: Some(PredictionRecord {
                rows: 3,
                positive_rate: 2.0 / 3.0,
                privileged_positive_rate: 1.0,
                unprivileged_positive_rate: 0.5,
                base_rate: 1.0 / 3.0,
                privileged_base_rate: 0.0,
                unprivileged_base_rate: 0.5,
                statistical_parity_difference: -0.5,
            }),
            diffs: vec![ProfileDiffRecord {
                from: "raw".to_string(),
                to: "train_split".to_string(),
                drift: DatasetDrift {
                    row_delta: -3,
                    privileged_share_delta: 4.0 / 7.0 - 0.6,
                    base_rate_delta: 4.0 / 7.0 - 0.5,
                    privileged_base_rate_delta: 0.75 - 4.0 / 6.0,
                    unprivileged_base_rate_delta: 1.0 / 3.0 - 0.25,
                    columns: vec![
                        ColumnDrift {
                            name: "score".to_string(),
                            missing_delta: -0.1,
                            psi: 0.04,
                        },
                        ColumnDrift {
                            name: "group".to_string(),
                            missing_delta: 0.0,
                            psi: 0.01,
                        },
                    ],
                },
            }],
        }
    }

    #[test]
    fn profile_json_is_valid_and_ordered() {
        let profile = sample_profile();
        let mut w = JsonWriter::new();
        w.open_obj();
        w.key("profile");
        profile.write_json(&mut w);
        w.close_obj();
        let text = w.finish();
        let v = crate::json::parse(&text).expect("profile section must be valid JSON");
        let p = v.get("profile").unwrap();
        let snaps = p.get("snapshots").and_then(|s| s.as_array()).unwrap();
        assert_eq!(snaps.len(), 2);
        assert_eq!(snaps[0].get("stage").and_then(|s| s.as_str()), Some("raw"));
        assert_eq!(
            snaps[0]
                .get("columns")
                .and_then(|c| c.get("score"))
                .and_then(|c| c.get("kind"))
                .and_then(|k| k.as_str()),
            Some("numeric")
        );
        let diffs = p.get("diffs").and_then(|d| d.as_array()).unwrap();
        assert_eq!(diffs.len(), 1);
        assert!(diffs[0]
            .get("columns")
            .and_then(|c| c.get("score"))
            .and_then(|c| c.get("psi"))
            .is_some());
        assert!(p
            .get("predictions")
            .and_then(|pr| pr.get("statistical_parity_difference"))
            .is_some());
    }

    #[test]
    fn drift_table_has_psi_and_group_rate_columns() {
        let table = sample_profile().drift_table();
        assert!(table.contains("max_psi"), "{table}");
        assert!(table.contains("Δpriv_rate"), "{table}");
        assert!(table.contains("Δunpriv_rate"), "{table}");
        assert!(table.contains("raw->train_split"), "{table}");
        // Largest PSI came from `score`.
        assert!(table.contains("score"), "{table}");
        assert!(table.contains("SPD"), "{table}");
    }

    #[test]
    fn empty_profile_renders_placeholder() {
        let table = DataProfile::default().drift_table();
        assert!(table.contains("fewer than two snapshots"));
        assert!(DataProfile::default().is_empty());
    }
}
