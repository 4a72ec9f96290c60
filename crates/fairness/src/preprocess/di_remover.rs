//! Disparate-impact removal [Feldman et al., KDD 2015].
//!
//! "Edits feature values to increase group fairness while preserving the
//! rank-ordering within groups. The repair level parameter represents the
//! repair amount." (§4)
//!
//! For each numeric feature, the repairer learns the per-group empirical
//! quantile functions on the training data. Repairing a value `v` from
//! group `g`: compute its quantile `q` within `g`'s training distribution,
//! look up the *median distribution* value at `q` (with two groups: the
//! mean of both group quantile functions), and blend:
//! `v' = (1 − λ) · v + λ · median(q)` with repair level `λ ∈ [0, 1]`.
//! Monotone per-group maps preserve within-group rank order. Fit and
//! unseal tabulate the median value per distinct training value and per
//! gap (see `GroupRepair`), so repairing a cell is one binary search.

// audit: allow-file(index-literal, reason = "per-group state is a [Vec; 2] pair indexed by bool, windows(2) yields pairs, and the single slice index is guarded by a length check")
use fairprep_data::column::Column;
use fairprep_data::dataset::BinaryLabelDataset;
use fairprep_data::error::{Error, Result};
use fairprep_ml::sealing;
use fairprep_trace::json::{obj, Value};

use crate::preprocess::{FittedPreprocessor, Preprocessor};

pub(crate) const KIND: &str = "di_remover";

/// The disparate-impact remover with a configurable repair level.
#[derive(Debug, Clone, Copy)]
pub struct DisparateImpactRemover {
    /// Repair amount λ: `0.0` = no change, `1.0` = full repair.
    pub repair_level: f64,
}

impl DisparateImpactRemover {
    /// Creates a remover with the given repair level.
    #[must_use]
    pub fn new(repair_level: f64) -> Self {
        DisparateImpactRemover { repair_level }
    }
}

impl Preprocessor for DisparateImpactRemover {
    fn name(&self) -> String {
        format!("di_remover({})", self.repair_level)
    }

    fn fit(&self, train: &BinaryLabelDataset, _seed: u64) -> Result<Box<dyn FittedPreprocessor>> {
        train.guard_fit("DisparateImpactRemover::fit");
        if !(0.0..=1.0).contains(&self.repair_level) || !self.repair_level.is_finite() {
            return Err(Error::InvalidParameter {
                name: "repair_level",
                message: format!("{} not in [0, 1]", self.repair_level),
            });
        }
        let mask = train.privileged_mask();
        let mut features = Vec::new();
        for name in train.schema().numeric_features() {
            let col = train.frame().column(name)?;
            let values = col.as_numeric()?;
            let mut sorted = [Vec::new(), Vec::new()];
            for (i, v) in values.iter().enumerate() {
                if let Some(v) = v {
                    // The rank tables binary-search the training values,
                    // which NaN leaves without an order.
                    if v.is_nan() {
                        return Err(Error::ColumnTypeMismatch {
                            column: (*name).to_string(),
                            expected: "NaN-free",
                        });
                    }
                    sorted[usize::from(mask[i])].push(*v);
                }
            }
            for s in &mut sorted {
                s.sort_by(f64::total_cmp);
            }
            if sorted[0].is_empty() || sorted[1].is_empty() {
                return Err(Error::EmptyGroup {
                    privileged: sorted[1].is_empty(),
                });
            }
            features.push(FeatureRepair::new((*name).to_string(), sorted));
        }
        Ok(Box::new(FittedDiRemover {
            repair_level: self.repair_level,
            features,
        }))
    }
}

struct FeatureRepair {
    name: String,
    /// `groups[0]` = unprivileged, `groups[1]` = privileged.
    groups: [GroupRepair; 2],
}

impl FeatureRepair {
    /// A feature's repair from its non-empty, NaN-free, ascending group
    /// distributions, which it keeps only as runs.
    fn new(name: String, sorted: [Vec<f64>; 2]) -> FeatureRepair {
        let groups =
            [0, 1].map(|g| GroupRepair::build(&sorted[g], |q| median_value_at(&sorted, q)));
        FeatureRepair { name, groups }
    }

    /// Repairs value `v` of group `g`: `v` blended with the
    /// median-distribution value at `v`'s quantile within `g`.
    fn repair(&self, g: usize, v: f64, lambda: f64) -> f64 {
        (1.0 - lambda) * v + lambda * self.groups[g].median_for(v)
    }
}

/// Value of a sorted training distribution at quantile `q` (linear
/// interpolation).
fn value_at(s: &[f64], q: f64) -> f64 {
    if s.len() == 1 {
        return s[0];
    }
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let lo = pos.floor() as usize;
    let hi = (lo + 1).min(s.len() - 1);
    let frac = pos - lo as f64;
    s[lo] * (1.0 - frac) + s[hi] * frac
}

/// The median-distribution value at quantile `q`: with two groups, the
/// mean of the two group quantile functions.
fn median_value_at(sorted: &[Vec<f64>; 2], q: f64) -> f64 {
    0.5 * (value_at(&sorted[0], q) + value_at(&sorted[1], q))
}

/// One group's training distribution, kept as runs of one bit pattern,
/// and its median-distribution value for every query.
///
/// A query's quantile within the group, `(#(x < v) + #(x ≤ v)) / 2n`
/// (the mid-distribution convention, robust to ties), is constant while
/// `v` equals one distinct training value, and while `v` lies strictly
/// between two neighbouring ones. So one median per distinct value and
/// one per gap answer every query: a binary search over the distinct
/// values and one read.
struct GroupRepair {
    /// The distinct bit patterns among the training values, ascending.
    /// Only -0.0 and 0.0 differ in bits and compare equal; they are
    /// neighbours, and a query equal to them stops at -0.0.
    values: Vec<f64>,
    /// `ends[k]`: training values sorted at or before `values[k]`, so its
    /// run covers sorted positions `ends[k - 1]..ends[k]`. Only sealing
    /// reads it.
    ends: Vec<usize>,
    /// `medians[2k]` answers a query strictly between `values[k - 1]`
    /// and `values[k]` (below the minimum for `k = 0`, above the maximum
    /// for `k = values.len()`); `medians[2k + 1]` a query equal to
    /// `values[k]`.
    medians: Vec<f64>,
}

impl GroupRepair {
    /// The runs and medians of the ascending, NaN-free, non-empty group
    /// distribution `sorted`, with `median_at` the median-distribution
    /// value at a quantile.
    fn build(sorted: &[f64], median_at: impl Fn(f64) -> f64) -> GroupRepair {
        let quantile = |below: usize, at_or_below: usize| {
            let rank = (below + at_or_below) as f64 / 2.0;
            (rank / sorted.len() as f64).clamp(0.0, 1.0)
        };
        let same = |a: f64, b: f64| a.to_bits() == b.to_bits();
        let runs = 1 + sorted.windows(2).filter(|w| !same(w[0], w[1])).count();
        let mut values = Vec::with_capacity(runs);
        let mut ends = Vec::with_capacity(runs);
        let mut medians = Vec::with_capacity(2 * runs + 1);
        let mut start = 0;
        while let Some(&v) = sorted.get(start) {
            let end = start + sorted[start..].iter().take_while(|x| same(**x, v)).count();
            // `#(x ≤ v)` also counts the 0.0 run after a -0.0 one.
            let at_or_below = end + sorted[end..].iter().take_while(|x| **x == v).count();
            values.push(v);
            ends.push(end);
            medians.push(median_at(quantile(start, start)));
            medians.push(median_at(quantile(start, at_or_below)));
            start = end;
        }
        medians.push(median_at(quantile(sorted.len(), sorted.len())));
        GroupRepair {
            values,
            ends,
            medians,
        }
    }

    /// The median-distribution value for query `v`. A NaN query counts
    /// no training value below or at it, like one below the minimum.
    fn median_for(&self, v: f64) -> f64 {
        let k = self.values.partition_point(|x| *x < v);
        let at = self.values.get(k).is_some_and(|x| *x == v);
        // `k <= values.len()`, and `at` only when `k < values.len()`.
        self.medians[2 * k + usize::from(at)]
    }

    /// The training values in sorted order: the sealed record.
    fn sorted(&self) -> Vec<f64> {
        let mut sorted = Vec::with_capacity(self.ends.last().copied().unwrap_or(0));
        for (&v, &end) in self.values.iter().zip(&self.ends) {
            sorted.resize(end, v);
        }
        sorted
    }
}

pub(crate) struct FittedDiRemover {
    repair_level: f64,
    features: Vec<FeatureRepair>,
}

/// Reconstructs a fitted disparate-impact remover from a sealed record,
/// validating everything the repair math relies on: the per-group training
/// values must be non-empty, NaN-free and sorted (the rank tables are
/// built from them and binary-searched).
pub(crate) fn unseal_di_remover(v: &Value) -> Result<FittedDiRemover> {
    let repair_level = sealing::req_f64(v, "repair_level")?;
    if !repair_level.is_finite() || !(0.0..=1.0).contains(&repair_level) {
        return Err(sealing::seal_err("di_remover repair_level not in [0, 1]"));
    }
    let mut features = Vec::new();
    for feature in sealing::req_arr(v, "features")? {
        let name = sealing::req_str(feature, "name")?.to_string();
        let sorted = [
            sealing::req_f64_vec(feature, "unprivileged")?,
            sealing::req_f64_vec(feature, "privileged")?,
        ];
        for group in &sorted {
            if group.is_empty() {
                return Err(sealing::seal_err(
                    "di_remover feature has an empty group distribution",
                ));
            }
            if group.iter().any(|x| x.is_nan()) {
                return Err(sealing::seal_err(format!(
                    "di_remover feature {name} has NaN in a group distribution"
                )));
            }
            if group.windows(2).any(|w| w[0].total_cmp(&w[1]).is_gt()) {
                return Err(sealing::seal_err(
                    "di_remover group distribution is not sorted",
                ));
            }
        }
        features.push(FeatureRepair::new(name, sorted));
    }
    Ok(FittedDiRemover {
        repair_level,
        features,
    })
}

impl FittedDiRemover {
    fn repair_dataset(&self, data: &BinaryLabelDataset) -> Result<BinaryLabelDataset> {
        // audit: allow(float-eq, reason = "repair level 0.0 is the exact user-supplied no-op configuration")
        if self.repair_level == 0.0 {
            return Ok(data.clone());
        }
        let mask = data.privileged_mask().to_vec();
        let mut out = data.clone();
        for feature in &self.features {
            let col = data.frame().column(&feature.name)?;
            let values = col.as_numeric()?;
            let repaired: Vec<Option<f64>> = values
                .iter()
                .enumerate()
                .map(|(i, v)| v.map(|v| feature.repair(usize::from(mask[i]), v, self.repair_level)))
                .collect();
            out.replace_column(&feature.name, Column::from_optional_f64(repaired))?;
        }
        Ok(out)
    }
}

impl FittedPreprocessor for FittedDiRemover {
    fn transform_train(&self, train: &BinaryLabelDataset) -> Result<BinaryLabelDataset> {
        self.repair_dataset(train)
    }

    fn transform_eval(&self, data: &BinaryLabelDataset) -> Result<BinaryLabelDataset> {
        self.repair_dataset(data)
    }

    fn seal(&self) -> Result<Value> {
        let features: Vec<Value> = self
            .features
            .iter()
            .map(|f| {
                obj(vec![
                    ("name", Value::Str(f.name.clone())),
                    ("unprivileged", Value::bits_vec(&f.groups[0].sorted())),
                    ("privileged", Value::bits_vec(&f.groups[1].sorted())),
                ])
            })
            .collect();
        Ok(obj(vec![
            ("kind", Value::Str(KIND.to_string())),
            ("repair_level", Value::bits(self.repair_level)),
            ("features", Value::Arr(features)),
        ]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::preprocess::test_support::biased_dataset;
    use proptest::prelude::*;

    /// The per-query reference the rank tables replace: the quantile of
    /// `v` within group `g` by two binary searches over the group's
    /// whole training distribution, then the blend.
    fn reference_repair(feature: &FeatureRepair, g: usize, v: f64, lambda: f64) -> f64 {
        let sorted = feature.groups.each_ref().map(GroupRepair::sorted);
        let s = &sorted[g];
        // rank = (#(x < v) + #(x <= v)) / 2 — robust to ties.
        let below = s.partition_point(|x| *x < v);
        let at_or_below = s.partition_point(|x| *x <= v);
        let rank = (below + at_or_below) as f64 / 2.0;
        let q = (rank / s.len() as f64).clamp(0.0, 1.0);
        (1.0 - lambda) * v + lambda * median_value_at(&sorted, q)
    }

    /// Training values drawn with ties, both zeros and both infinities.
    const PALETTE: [f64; 10] = [
        f64::NEG_INFINITY,
        -3.0,
        -1.5,
        -0.0,
        0.0,
        0.5,
        1.0,
        2.0,
        7.25,
        f64::INFINITY,
    ];

    fn group(indices: &[usize]) -> Vec<f64> {
        let mut values: Vec<f64> = indices.iter().map(|&i| PALETTE[i]).collect();
        values.sort_by(f64::total_cmp);
        values
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Queries at every palette value, inside every finite gap, far
        /// below and above the palette, and NaN, repair to the same bits
        /// as the reference at levels 0.5, 1.0 and a random one.
        #[test]
        fn rank_tables_repair_to_the_reference_bits(
            unprivileged in prop::collection::vec(0..PALETTE.len(), 1..24),
            privileged in prop::collection::vec(0..PALETTE.len(), 1..24),
            lambda in 0.0..=1.0f64,
            inside in 0.0..1.0f64,
        ) {
            let sorted = [group(&unprivileged), group(&privileged)];
            let feature = FeatureRepair::new("x".to_string(), sorted.clone());
            // The runs give back the sealed bits.
            for (kept, given) in feature.groups.iter().zip(&sorted) {
                let bits = |values: &[f64]| values.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                prop_assert_eq!(bits(&kept.sorted()), bits(given));
            }
            let mut queries = PALETTE.to_vec();
            queries.extend(
                PALETTE
                    .windows(2)
                    .filter(|w| w[0].is_finite() && w[1].is_finite())
                    .map(|w| w[0] + (w[1] - w[0]) * inside),
            );
            queries.extend([-1e300, -10.0, 10.0, 1e300, f64::NAN]);
            for level in [0.5, 1.0, lambda] {
                for g in 0..2 {
                    for &v in &queries {
                        let (fast, slow) = (feature.repair(g, v, level), reference_repair(&feature, g, v, level));
                        prop_assert_eq!(
                            fast.to_bits(),
                            slow.to_bits(),
                            "group {} query {} level {}: {} vs {}",
                            g, v, level, fast, slow
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn fit_refuses_nan_training_values() {
        let mut ds = biased_dataset(20);
        let mut scores: Vec<f64> = column_values(&ds, "score");
        scores[3] = f64::NAN;
        ds.frame_mut()
            .replace_column("score", Column::from_f64(scores))
            .unwrap();
        let err = DisparateImpactRemover::new(1.0).fit(&ds, 0).err().unwrap();
        assert_eq!(
            err,
            Error::ColumnTypeMismatch {
                column: "score".to_string(),
                expected: "NaN-free",
            }
        );
    }

    #[test]
    fn unseal_refuses_nan_training_values() {
        // A leading -NaN sorts first under `total_cmp`, so the order
        // check alone would accept it.
        for privileged in [vec![-f64::NAN, 1.0, 2.0], vec![1.0, 2.0, f64::NAN]] {
            let record = obj(vec![
                ("kind", Value::Str(KIND.to_string())),
                ("repair_level", Value::bits(1.0)),
                (
                    "features",
                    Value::Arr(vec![obj(vec![
                        ("name", Value::Str("score".to_string())),
                        ("unprivileged", Value::bits_vec(&[0.5, 1.5])),
                        ("privileged", Value::bits_vec(&privileged)),
                    ])]),
                ),
            ]);
            assert!(matches!(
                unseal_di_remover(&record),
                Err(Error::Seal(msg)) if msg.contains("NaN")
            ));
        }
    }

    #[test]
    fn sealed_round_trip_repairs_identically() {
        let ds = biased_dataset(200);
        let fitted = DisparateImpactRemover::new(0.7).fit(&ds, 0).unwrap();
        let record = fitted.seal().unwrap();
        let unsealed = unseal_di_remover(&record).unwrap();
        assert_eq!(unsealed.seal().unwrap(), record);
        assert_eq!(
            unsealed.transform_eval(&ds).unwrap().frame(),
            fitted.transform_eval(&ds).unwrap().frame()
        );
    }

    fn column_values(ds: &BinaryLabelDataset, name: &str) -> Vec<f64> {
        ds.frame()
            .column(name)
            .unwrap()
            .as_numeric()
            .unwrap()
            .iter()
            .map(|v| v.unwrap())
            .collect()
    }

    #[test]
    fn zero_repair_is_identity() {
        let ds = biased_dataset(60);
        let fitted = DisparateImpactRemover::new(0.0).fit(&ds, 0).unwrap();
        let out = fitted.transform_train(&ds).unwrap();
        assert_eq!(out.frame(), ds.frame());
    }

    #[test]
    fn full_repair_aligns_group_distributions() {
        let ds = biased_dataset(200);
        let fitted = DisparateImpactRemover::new(1.0).fit(&ds, 0).unwrap();
        let out = fitted.transform_train(&ds).unwrap();
        let values = column_values(&out, "score");
        let mask = out.privileged_mask();
        let mean = |privileged: bool| -> f64 {
            let xs: Vec<f64> = values
                .iter()
                .zip(mask)
                .filter(|(_, &m)| m == privileged)
                .map(|(&v, _)| v)
                .collect();
            xs.iter().sum::<f64>() / xs.len() as f64
        };
        let gap_after = (mean(true) - mean(false)).abs();
        // Original gap is 30; full repair must nearly close it.
        assert!(gap_after < 2.0, "gap after full repair: {gap_after}");
    }

    #[test]
    fn partial_repair_is_between() {
        let ds = biased_dataset(200);
        let orig = column_values(&ds, "score");
        let half = DisparateImpactRemover::new(0.5)
            .fit(&ds, 0)
            .unwrap()
            .transform_train(&ds)
            .unwrap();
        let full = DisparateImpactRemover::new(1.0)
            .fit(&ds, 0)
            .unwrap()
            .transform_train(&ds)
            .unwrap();
        let half_v = column_values(&half, "score");
        let full_v = column_values(&full, "score");
        for i in 0..orig.len() {
            let expected = 0.5 * (orig[i] + full_v[i]);
            assert!((half_v[i] - expected).abs() < 1e-9, "row {i}");
        }
    }

    #[test]
    fn rank_order_within_groups_is_preserved() {
        let ds = biased_dataset(100);
        let orig = column_values(&ds, "score");
        let out = DisparateImpactRemover::new(1.0)
            .fit(&ds, 0)
            .unwrap()
            .transform_train(&ds)
            .unwrap();
        let repaired = column_values(&out, "score");
        let mask = ds.privileged_mask();
        for privileged in [true, false] {
            let idx: Vec<usize> = (0..100).filter(|&i| mask[i] == privileged).collect();
            for a in 0..idx.len() {
                for b in a + 1..idx.len() {
                    let (i, j) = (idx[a], idx[b]);
                    if orig[i] < orig[j] {
                        assert!(
                            repaired[i] <= repaired[j] + 1e-9,
                            "rank inversion at ({i}, {j})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn labels_and_weights_are_untouched() {
        let ds = biased_dataset(60);
        let out = DisparateImpactRemover::new(1.0)
            .fit(&ds, 0)
            .unwrap()
            .transform_train(&ds)
            .unwrap();
        assert_eq!(out.labels(), ds.labels());
        assert_eq!(out.instance_weights(), ds.instance_weights());
    }

    #[test]
    fn eval_split_is_repaired_with_train_statistics() {
        let ds = biased_dataset(200);
        let train_idx: Vec<usize> = (0..150).collect();
        let test_idx: Vec<usize> = (150..200).collect();
        let train = ds.take(&train_idx);
        let test = ds.take(&test_idx);
        let fitted = DisparateImpactRemover::new(1.0).fit(&train, 0).unwrap();
        let out = fitted.transform_eval(&test).unwrap();
        // Test rows must change (they carry the group gap).
        assert_ne!(column_values(&out, "score"), column_values(&test, "score"));
        // And labels stay fixed.
        assert_eq!(out.labels(), test.labels());
    }

    #[test]
    fn invalid_repair_level_rejected() {
        let ds = biased_dataset(20);
        assert!(DisparateImpactRemover::new(1.5).fit(&ds, 0).is_err());
        assert!(DisparateImpactRemover::new(-0.1).fit(&ds, 0).is_err());
        assert!(DisparateImpactRemover::new(f64::NAN).fit(&ds, 0).is_err());
    }

    #[test]
    fn name_includes_repair_level() {
        assert_eq!(DisparateImpactRemover::new(0.5).name(), "di_remover(0.5)");
    }
}
