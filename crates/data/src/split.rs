//! Seeded data splitting: train/validation/test partitions and k-fold
//! cross-validation folds.
//!
//! The paper (§2.1) shows that previous studies violated test-set isolation,
//! in part because splitting happened *after* preprocessing. In FairPrep the
//! split is the very first operation on the raw dataset, and it is fully
//! determined by the experiment seed (§2.5, reproducibility).

use rand::seq::SliceRandom;

use crate::dataset::BinaryLabelDataset;
use crate::error::{Error, Result};
use crate::provenance::Provenance;
use crate::rng::component_rng;

/// Fractions for a three-way split. Must sum to 1 (±1e-9).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SplitSpec {
    /// Fraction of rows for the training set.
    pub train: f64,
    /// Fraction of rows for the validation set.
    pub validation: f64,
    /// Fraction of rows for the held-out test set.
    pub test: f64,
}

impl SplitSpec {
    /// The paper's standard configuration: 70% train / 10% validation /
    /// 20% test (§5.1–§5.3).
    #[must_use]
    pub fn paper_default() -> Self {
        SplitSpec {
            train: 0.7,
            validation: 0.1,
            test: 0.2,
        }
    }

    /// Stable human-readable description (`train/validation/test`
    /// fractions), used verbatim in run manifests — float `Display` is
    /// shortest-roundtrip, so this string is deterministic.
    #[must_use]
    pub fn describe(&self) -> String {
        format!("{}/{}/{}", self.train, self.validation, self.test)
    }

    /// Validates the fractions.
    pub fn validate(&self) -> Result<()> {
        for (name, v) in [
            ("train", self.train),
            ("validation", self.validation),
            ("test", self.test),
        ] {
            if !(0.0..=1.0).contains(&v) || !v.is_finite() {
                return Err(Error::InvalidSplit(format!(
                    "{name} fraction {v} out of [0,1]"
                )));
            }
        }
        let sum = self.train + self.validation + self.test;
        if (sum - 1.0).abs() > 1e-9 {
            return Err(Error::InvalidSplit(format!(
                "fractions sum to {sum}, expected 1"
            )));
        }
        // audit: allow(float-eq, reason = "rejects the exact degenerate configuration value 0.0, not a computed quantity")
        if self.train == 0.0 || self.test == 0.0 {
            return Err(Error::InvalidSplit(
                "train and test fractions must be positive".to_string(),
            ));
        }
        Ok(())
    }
}

/// The result of a three-way split.
#[derive(Debug, Clone)]
pub struct TrainValTest {
    /// Training partition.
    pub train: BinaryLabelDataset,
    /// Validation partition (may be empty when `validation == 0`).
    pub validation: BinaryLabelDataset,
    /// Held-out test partition.
    pub test: BinaryLabelDataset,
    /// Original row indices of each partition (for auditing/lineage).
    pub indices: SplitIndices,
}

/// Original row indices of each partition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitIndices {
    /// Rows assigned to the training set.
    pub train: Vec<usize>,
    /// Rows assigned to the validation set.
    pub validation: Vec<usize>,
    /// Rows assigned to the test set.
    pub test: Vec<usize>,
}

/// Splits `dataset` into train/validation/test with a seeded shuffle.
///
/// The shuffle consumes the `"splitter"` component stream of `seed`, so the
/// partition depends only on (dataset order, seed) — never on other
/// components of the run.
pub fn train_val_test_split(
    dataset: &BinaryLabelDataset,
    spec: SplitSpec,
    seed: u64,
) -> Result<TrainValTest> {
    let indices = split_row_indices(dataset.n_rows(), spec, seed)?;
    Ok(tagged_partitions(
        dataset,
        indices.train,
        indices.validation,
        indices.test,
    ))
}

/// Computes the shuffled partition indices of the three-way split without
/// touching any data — the RNG-consuming core of [`train_val_test_split`].
fn split_row_indices(n: usize, spec: SplitSpec, seed: u64) -> Result<SplitIndices> {
    spec.validate()?;
    if n < 3 {
        return Err(Error::EmptyData(format!(
            "need at least 3 rows to split, have {n}"
        )));
    }
    let mut order: Vec<usize> = (0..n).collect();
    let mut rng = component_rng(seed, "splitter");
    order.shuffle(&mut rng);

    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let n_train = ((n as f64) * spec.train).round() as usize;
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let n_val = ((n as f64) * spec.validation).round() as usize;
    let n_train = n_train.min(n.saturating_sub(1));
    let n_val = n_val.min(n - n_train);
    if n_train + n_val >= n {
        return Err(Error::InvalidSplit(format!(
            "test partition empty for n={n}, train={}, validation={}",
            spec.train, spec.validation
        )));
    }

    Ok(SplitIndices {
        train: order[..n_train].to_vec(),
        validation: order[n_train..n_train + n_val].to_vec(),
        test: order[n_train + n_val..].to_vec(),
    })
}

/// Materializes the three partitions and stamps their provenance tags —
/// the single place in the workspace where `Train` and `Test` tags are
/// born. Every downstream operation only propagates them; every `fit`
/// entry point guards against the `Test` tag.
fn tagged_partitions(
    dataset: &BinaryLabelDataset,
    train_idx: Vec<usize>,
    val_idx: Vec<usize>,
    test_idx: Vec<usize>,
) -> TrainValTest {
    let mut train = dataset.take(&train_idx);
    train.set_provenance(Provenance::Train);
    // Validation stays `Derived`: postprocessors legitimately fit on
    // validation predictions (§3), so it must not trip the leak guards.
    let mut validation = dataset.take(&val_idx);
    validation.set_provenance(Provenance::Derived);
    let mut test = dataset.take(&test_idx);
    test.set_provenance(Provenance::Test);
    TrainValTest {
        train,
        validation,
        test,
        indices: SplitIndices {
            train: train_idx,
            validation: val_idx,
            test: test_idx,
        },
    }
}

/// Seeded k-fold assignment over `n` rows. Returns, for each fold,
/// `(train_indices, validation_indices)`.
///
/// Folds partition the rows: every row appears in exactly one validation
/// fold. Fold sizes differ by at most one.
pub fn k_fold_indices(n: usize, k: usize, seed: u64) -> Result<Vec<(Vec<usize>, Vec<usize>)>> {
    if k < 2 {
        return Err(Error::InvalidParameter {
            name: "k",
            message: format!("k-fold needs k >= 2, got {k}"),
        });
    }
    if n < k {
        return Err(Error::EmptyData(format!(
            "cannot make {k} folds from {n} rows"
        )));
    }
    let mut order: Vec<usize> = (0..n).collect();
    let mut rng = component_rng(seed, "kfold");
    order.shuffle(&mut rng);

    let mut folds = Vec::with_capacity(k);
    let base = n / k;
    let extra = n % k;
    let mut start = 0usize;
    for f in 0..k {
        let size = base + usize::from(f < extra);
        let val: Vec<usize> = order[start..start + size].to_vec();
        let train: Vec<usize> = order[..start]
            .iter()
            .chain(&order[start + size..])
            .copied()
            .collect();
        folds.push((train, val));
        start += size;
    }
    Ok(folds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::{Column, ColumnKind};
    use crate::frame::DataFrame;
    use crate::schema::{ProtectedAttribute, Schema};

    fn dataset(n: usize) -> BinaryLabelDataset {
        let frame = DataFrame::new()
            .with_column("x", Column::from_f64((0..n).map(|i| i as f64)))
            .unwrap()
            .with_column(
                "g",
                Column::from_strs((0..n).map(|i| if i % 2 == 0 { "a" } else { "b" })),
            )
            .unwrap()
            .with_column(
                "y",
                Column::from_strs((0..n).map(|i| if i % 3 == 0 { "pos" } else { "neg" })),
            )
            .unwrap();
        let schema = Schema::new()
            .numeric_feature("x")
            .metadata("g", ColumnKind::Categorical)
            .label("y");
        BinaryLabelDataset::new(
            frame,
            schema,
            ProtectedAttribute::categorical("g", &["a"]),
            "pos",
        )
        .unwrap()
    }

    #[test]
    fn paper_default_is_70_10_20() {
        let s = SplitSpec::paper_default();
        assert_eq!(
            s,
            SplitSpec {
                train: 0.7,
                validation: 0.1,
                test: 0.2
            }
        );
        s.validate().unwrap();
    }

    #[test]
    fn split_partitions_all_rows() {
        let ds = dataset(100);
        let split = train_val_test_split(&ds, SplitSpec::paper_default(), 13).unwrap();
        assert_eq!(split.train.n_rows(), 70);
        assert_eq!(split.validation.n_rows(), 10);
        assert_eq!(split.test.n_rows(), 20);

        let mut all: Vec<usize> = split
            .indices
            .train
            .iter()
            .chain(&split.indices.validation)
            .chain(&split.indices.test)
            .copied()
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn split_stamps_provenance_tags() {
        let ds = dataset(100);
        assert_eq!(ds.provenance(), Provenance::Derived);
        let split = train_val_test_split(&ds, SplitSpec::paper_default(), 13).unwrap();
        assert_eq!(split.train.provenance(), Provenance::Train);
        assert_eq!(split.validation.provenance(), Provenance::Derived);
        assert_eq!(split.test.provenance(), Provenance::Test);
        // Tags survive downstream row selection (what resamplers do).
        assert_eq!(split.test.take(&[0, 1]).provenance(), Provenance::Test);

        let strat = stratified_train_val_test_split(&ds, SplitSpec::paper_default(), 13).unwrap();
        assert_eq!(strat.train.provenance(), Provenance::Train);
        assert_eq!(strat.test.provenance(), Provenance::Test);
    }

    #[test]
    fn split_is_seed_deterministic() {
        let ds = dataset(50);
        let a = train_val_test_split(&ds, SplitSpec::paper_default(), 42).unwrap();
        let b = train_val_test_split(&ds, SplitSpec::paper_default(), 42).unwrap();
        assert_eq!(a.indices, b.indices);
        let c = train_val_test_split(&ds, SplitSpec::paper_default(), 43).unwrap();
        assert_ne!(a.indices, c.indices);
    }

    #[test]
    fn split_rejects_bad_fractions() {
        let bad = SplitSpec {
            train: 0.5,
            validation: 0.1,
            test: 0.1,
        };
        assert!(bad.validate().is_err());
        let negative = SplitSpec {
            train: -0.1,
            validation: 0.6,
            test: 0.5,
        };
        assert!(negative.validate().is_err());
        let no_test = SplitSpec {
            train: 0.9,
            validation: 0.1,
            test: 0.0,
        };
        assert!(no_test.validate().is_err());
    }

    #[test]
    fn split_rejects_tiny_dataset() {
        let frame = DataFrame::new()
            .with_column("g", Column::from_strs(["a", "b"]))
            .unwrap()
            .with_column("y", Column::from_strs(["pos", "neg"]))
            .unwrap();
        let schema = Schema::new()
            .metadata("g", ColumnKind::Categorical)
            .label("y");
        let ds = BinaryLabelDataset::new(
            frame,
            schema,
            ProtectedAttribute::categorical("g", &["a"]),
            "pos",
        )
        .unwrap();
        assert!(train_val_test_split(&ds, SplitSpec::paper_default(), 1).is_err());
    }

    #[test]
    fn kfold_partitions_rows() {
        let folds = k_fold_indices(10, 3, 7).unwrap();
        assert_eq!(folds.len(), 3);
        let mut val_all: Vec<usize> = folds.iter().flat_map(|(_, v)| v.clone()).collect();
        val_all.sort_unstable();
        assert_eq!(val_all, (0..10).collect::<Vec<_>>());
        for (train, val) in &folds {
            assert_eq!(train.len() + val.len(), 10);
            for v in val {
                assert!(!train.contains(v));
            }
        }
        // Sizes differ by at most one: 10 = 4 + 3 + 3.
        let sizes: Vec<usize> = folds.iter().map(|(_, v)| v.len()).collect();
        assert_eq!(sizes, vec![4, 3, 3]);
    }

    #[test]
    fn kfold_is_seed_deterministic() {
        assert_eq!(
            k_fold_indices(20, 5, 9).unwrap(),
            k_fold_indices(20, 5, 9).unwrap()
        );
        assert_ne!(
            k_fold_indices(20, 5, 9).unwrap(),
            k_fold_indices(20, 5, 10).unwrap()
        );
    }

    #[test]
    fn kfold_rejects_bad_params() {
        assert!(k_fold_indices(10, 1, 0).is_err());
        assert!(k_fold_indices(2, 5, 0).is_err());
    }
}

/// Splits `dataset` into train/validation/test **stratified by
/// (label × group) cell**: each partition preserves the joint proportions
/// of the full data as closely as integer counts allow. Important for tiny
/// datasets (e.g. ricci's 118 rows), where a plain random split can leave a
/// partition without any unprivileged positives.
pub fn stratified_train_val_test_split(
    dataset: &BinaryLabelDataset,
    spec: SplitSpec,
    seed: u64,
) -> Result<TrainValTest> {
    spec.validate()?;
    let n = dataset.n_rows();
    if n < 3 {
        return Err(Error::EmptyData(format!(
            "need at least 3 rows to split, have {n}"
        )));
    }
    let labels = dataset.labels();
    let mask = dataset.privileged_mask();
    let mut rng = component_rng(seed, "splitter/stratified");

    let mut train_idx = Vec::new();
    let mut val_idx = Vec::new();
    let mut test_idx = Vec::new();
    for y in [0.0, 1.0] {
        for privileged in [false, true] {
            let mut cell: Vec<usize> = (0..n)
                .filter(|&i| labels[i] == y && mask[i] == privileged)
                .collect();
            if cell.is_empty() {
                continue;
            }
            cell.shuffle(&mut rng);
            let c = cell.len();
            // Reserve the test share first (at least one row per cell of
            // size >= 2) so rare cells are always represented in the test
            // set; train takes its share next; validation gets the rest.
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            let n_test = if c >= 2 {
                (((c as f64) * spec.test).round().max(1.0) as usize).min(c - 1)
            } else {
                0
            };
            let remaining = c - n_test;
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            let n_train = (((c as f64) * spec.train).round() as usize).clamp(1, remaining);
            let n_val = remaining - n_train;
            train_idx.extend_from_slice(&cell[..n_train]);
            val_idx.extend_from_slice(&cell[n_train..n_train + n_val]);
            test_idx.extend_from_slice(&cell[n_train + n_val..]);
        }
    }
    if train_idx.is_empty() || test_idx.is_empty() {
        return Err(Error::InvalidSplit(
            "stratified split produced an empty train or test partition".to_string(),
        ));
    }
    train_idx.sort_unstable();
    val_idx.sort_unstable();
    test_idx.sort_unstable();

    Ok(tagged_partitions(dataset, train_idx, val_idx, test_idx))
}

#[cfg(test)]
mod stratified_tests {
    use super::*;
    use crate::column::{Column, ColumnKind};
    use crate::frame::DataFrame;
    use crate::schema::{ProtectedAttribute, Schema};

    /// 200 rows with a rare cell: only 5% are unprivileged positives.
    fn skewed(n: usize) -> BinaryLabelDataset {
        let frame = DataFrame::new()
            .with_column("x", Column::from_f64((0..n).map(|i| i as f64)))
            .unwrap()
            .with_column(
                "g",
                Column::from_strs((0..n).map(|i| if i % 4 == 0 { "b" } else { "a" })),
            )
            .unwrap()
            .with_column(
                "y",
                Column::from_strs((0..n).map(|i| {
                    // unprivileged (i % 4 == 0) positive only when i % 20 == 0
                    let positive = if i % 4 == 0 { i % 20 == 0 } else { i % 2 == 1 };
                    if positive {
                        "p"
                    } else {
                        "n"
                    }
                })),
            )
            .unwrap();
        let schema = Schema::new()
            .numeric_feature("x")
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
    fn partitions_all_rows_disjointly() {
        let ds = skewed(200);
        let split = stratified_train_val_test_split(&ds, SplitSpec::paper_default(), 3).unwrap();
        let mut all: Vec<usize> = split
            .indices
            .train
            .iter()
            .chain(&split.indices.validation)
            .chain(&split.indices.test)
            .copied()
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..200).collect::<Vec<_>>());
    }

    #[test]
    fn rare_cell_present_in_train_and_test() {
        let ds = skewed(200);
        let split = stratified_train_val_test_split(&ds, SplitSpec::paper_default(), 7).unwrap();
        let rare = |part: &BinaryLabelDataset| {
            (0..part.n_rows())
                .filter(|&i| part.labels()[i] == 1.0 && !part.privileged_mask()[i])
                .count()
        };
        assert!(rare(&split.train) > 0, "train lost the rare cell");
        assert!(rare(&split.test) > 0, "test lost the rare cell");
    }

    #[test]
    fn proportions_are_preserved() {
        let ds = skewed(400);
        let split = stratified_train_val_test_split(&ds, SplitSpec::paper_default(), 5).unwrap();
        let overall = ds.base_rate(None);
        for part in [&split.train, &split.test] {
            assert!(
                (part.base_rate(None) - overall).abs() < 0.05,
                "partition base rate {} vs overall {}",
                part.base_rate(None),
                overall
            );
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let ds = skewed(100);
        let a = stratified_train_val_test_split(&ds, SplitSpec::paper_default(), 1).unwrap();
        let b = stratified_train_val_test_split(&ds, SplitSpec::paper_default(), 1).unwrap();
        assert_eq!(a.indices, b.indices);
        let c = stratified_train_val_test_split(&ds, SplitSpec::paper_default(), 2).unwrap();
        assert_ne!(a.indices, c.indices);
    }

    #[test]
    fn rejects_tiny_input_and_bad_spec() {
        let ds = skewed(100);
        let bad = SplitSpec {
            train: 0.5,
            validation: 0.4,
            test: 0.2,
        };
        assert!(stratified_train_val_test_split(&ds, bad, 0).is_err());
    }
}
