//! The featurizer: converts a relational dataset into the matrix form
//! consumed by learners.
//!
//! "After imputation on the raw training data, FairPrep applies feature
//! transformations to convert the data into a numeric format suitable for
//! learning algorithms. By default, the framework scales numeric features
//! with a user-chosen strategy, and one-hot encodes categorical values. If
//! the feature transformers require aggregate statistics from the data, we
//! again ensure that these are only computed on the training dataset. The
//! 'fitted' feature transformers are stored in memory afterwards, in order
//! to be applied to the validation set and test set in later phases." (§3)

use fairprep_data::column::Column;
use fairprep_data::dataset::BinaryLabelDataset;
use fairprep_data::error::{Error, Result};
use fairprep_trace::json::{obj, Value as Json};
use fairprep_trace::{Counter, Tracer};

use crate::matrix::Matrix;
use crate::sealing;
use crate::transform::onehot::OneHotEncoder;
use crate::transform::scaler::{FittedScaler, ScalerSpec};

/// A featurizer fitted on a training set; applies identically to any later
/// split of the same schema.
#[derive(Debug, Clone, PartialEq)]
pub struct FittedFeaturizer {
    numeric_names: Vec<String>,
    categorical_names: Vec<String>,
    scaler: FittedScaler,
    encoders: Vec<OneHotEncoder>,
    feature_names: Vec<String>,
}

impl FittedFeaturizer {
    /// Fits scaling statistics and one-hot dictionaries on the **training**
    /// dataset only.
    ///
    /// Numeric feature columns must be complete (run the missing-value
    /// handler first); categorical training cells may be missing and are
    /// skipped when collecting categories.
    pub fn fit(train: &BinaryLabelDataset, scaler: ScalerSpec) -> Result<FittedFeaturizer> {
        train.guard_fit("FittedFeaturizer::fit");
        let schema = train.schema();
        let numeric_names: Vec<String> = schema
            .numeric_features()
            .iter()
            .map(ToString::to_string)
            .collect();
        let categorical_names: Vec<String> = schema
            .categorical_features()
            .iter()
            .map(ToString::to_string)
            .collect();

        // Collect complete numeric training columns for the scaler.
        let mut numeric_columns = Vec::with_capacity(numeric_names.len());
        for name in &numeric_names {
            let col = train.frame().column(name)?;
            let values = col.as_numeric()?;
            let complete: Vec<f64> = values.iter().flatten().copied().collect();
            if complete.len() != values.len() {
                return Err(Error::EmptyData(format!(
                    "numeric feature {name} still has missing values at featurization; \
                     run a missing-value handler first"
                )));
            }
            numeric_columns.push(complete);
        }
        let fitted_scaler = scaler.fit(&numeric_columns)?;

        let mut encoders = Vec::with_capacity(categorical_names.len());
        for name in &categorical_names {
            encoders.push(OneHotEncoder::fit(train.frame().column(name)?)?);
        }

        let mut feature_names = numeric_names.clone();
        for (name, enc) in categorical_names.iter().zip(&encoders) {
            feature_names.extend(enc.feature_names(name));
        }

        Ok(FittedFeaturizer {
            numeric_names,
            categorical_names,
            scaler: fitted_scaler,
            encoders,
            feature_names,
        })
    }

    /// Names of the produced matrix columns.
    #[must_use]
    pub fn feature_names(&self) -> &[String] {
        &self.feature_names
    }

    /// Output dimensionality.
    #[must_use]
    pub fn n_features(&self) -> usize {
        self.feature_names.len()
    }

    /// The scaling strategy used for numeric features.
    #[must_use]
    pub fn scaler_spec(&self) -> ScalerSpec {
        self.scaler.spec()
    }

    /// Serializes the fitted featurizer — scaler parameters and one-hot
    /// dictionaries — into a sealed component record.
    #[must_use]
    pub fn seal(&self) -> Json {
        let encoders = self
            .categorical_names
            .iter()
            .zip(&self.encoders)
            .map(|(name, enc)| {
                obj(vec![
                    ("name", Json::Str(name.clone())),
                    ("categories", enc.seal()),
                ])
            })
            .collect();
        obj(vec![
            ("kind", Json::Str("featurizer".to_string())),
            (
                "numeric",
                Json::Arr(
                    self.numeric_names
                        .iter()
                        .map(|n| Json::Str(n.clone()))
                        .collect(),
                ),
            ),
            ("scaler", self.scaler.seal()),
            ("encoders", Json::Arr(encoders)),
        ])
    }

    /// Reconstructs a fitted featurizer from a sealed component record.
    /// Feature names are rebuilt from the sealed dictionaries, so the
    /// produced matrix layout is identical to the fit-time layout.
    pub fn unseal(v: &Json) -> Result<FittedFeaturizer> {
        sealing::expect_kind(v, "featurizer")?;
        let numeric_names = sealing::req_str_vec(v, "numeric")?;
        let scaler = FittedScaler::unseal(sealing::req(v, "scaler")?)?;
        if scaler.n_features() != numeric_names.len() {
            return Err(sealing::seal_err(format!(
                "scaler width {} does not match {} numeric features",
                scaler.n_features(),
                numeric_names.len()
            )));
        }
        let mut categorical_names = Vec::new();
        let mut encoders = Vec::new();
        for record in sealing::req_arr(v, "encoders")? {
            categorical_names.push(sealing::req_str(record, "name")?.to_string());
            encoders.push(OneHotEncoder::unseal(sealing::req(record, "categories")?)?);
        }
        let mut feature_names = numeric_names.clone();
        for (name, enc) in categorical_names.iter().zip(&encoders) {
            feature_names.extend(enc.feature_names(name));
        }
        Ok(FittedFeaturizer {
            numeric_names,
            categorical_names,
            scaler,
            encoders,
            feature_names,
        })
    }

    /// Transforms any split (train/validation/test) of the schema the
    /// featurizer was fitted on into a feature matrix.
    pub fn transform(&self, dataset: &BinaryLabelDataset) -> Result<Matrix> {
        self.transform_impl(dataset).map(|(out, _)| out)
    }

    /// Like [`FittedFeaturizer::transform`], additionally counting the
    /// categorical cells routed to the unseen-category indicator slot into
    /// [`Counter::UnseenCategories`]. The count is a pure function of the
    /// data, so it is safe for the canonical manifest.
    pub fn transform_traced(
        &self,
        dataset: &BinaryLabelDataset,
        tracer: &Tracer,
    ) -> Result<Matrix> {
        let (out, unseen) = self.transform_impl(dataset)?;
        tracer.add(Counter::UnseenCategories, unseen);
        Ok(out)
    }

    fn transform_impl(&self, dataset: &BinaryLabelDataset) -> Result<(Matrix, u64)> {
        let n = dataset.n_rows();
        let d = self.n_features();
        let mut out = Matrix::zeros(n, d);

        // Numeric block.
        for (j, name) in self.numeric_names.iter().enumerate() {
            let col = dataset.frame().column(name)?;
            let values = col.as_numeric()?;
            for (i, v) in values.iter().enumerate() {
                match v {
                    Some(x) => out.set(i, j, self.scaler.transform_value(j, *x)?),
                    None => {
                        return Err(Error::EmptyData(format!(
                            "numeric feature {name} missing at row {i} during transform"
                        )))
                    }
                }
            }
        }

        // Categorical blocks: each entry of the column's dictionary is
        // mapped to its one-hot slot once, then every row sets the slot
        // of its code. Missing cells stay all-zero.
        let mut unseen = 0u64;
        let mut offset = self.numeric_names.len();
        let mut slots = Vec::new();
        for (name, enc) in self.categorical_names.iter().zip(&self.encoders) {
            let Column::Categorical(data) = dataset.frame().column(name)? else {
                return Err(Error::ColumnTypeMismatch {
                    column: name.clone(),
                    expected: "categorical",
                });
            };
            let unseen_slot = enc.width() - 1;
            slots.clear();
            slots.extend(data.categories().iter().map(|c| enc.slot_of(c)));
            for (i, code) in data.codes().iter().enumerate() {
                if let Some(&slot) = code.and_then(|code| slots.get(code as usize)) {
                    unseen += u64::from(slot == unseen_slot);
                    out.set(i, offset + slot, 1.0);
                }
            }
            offset += enc.width();
        }

        // Carry the lifecycle tag into matrix form so downstream model
        // fits can reject test data too.
        out.set_provenance(dataset.provenance());
        Ok((out, unseen))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairprep_data::column::{Column, ColumnKind};
    use fairprep_data::frame::DataFrame;
    use fairprep_data::schema::{ProtectedAttribute, Schema};

    fn dataset(jobs: &[&str], ages: &[f64]) -> BinaryLabelDataset {
        let n = jobs.len();
        let frame = DataFrame::new()
            .with_column("age", Column::from_f64(ages.iter().copied()))
            .unwrap()
            .with_column("job", Column::from_strs(jobs.iter().copied()))
            .unwrap()
            .with_column(
                "g",
                Column::from_strs((0..n).map(|i| if i % 2 == 0 { "a" } else { "b" })),
            )
            .unwrap()
            .with_column(
                "y",
                Column::from_strs((0..n).map(|i| if i % 2 == 0 { "p" } else { "n" })),
            )
            .unwrap();
        let schema = Schema::new()
            .numeric_feature("age")
            .categorical_feature("job")
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
    fn fit_transform_shapes_and_names() {
        let train = dataset(
            &["clerk", "chef", "clerk", "nurse"],
            &[20.0, 30.0, 40.0, 50.0],
        );
        let f = FittedFeaturizer::fit(&train, ScalerSpec::Standard).unwrap();
        // 1 numeric + (3 categories + unseen) = 5.
        assert_eq!(f.n_features(), 5);
        assert_eq!(
            f.feature_names(),
            &["age", "job=clerk", "job=chef", "job=nurse", "job=<unseen>"]
        );
        let m = f.transform(&train).unwrap();
        assert_eq!(m.n_rows(), 4);
        assert_eq!(m.n_cols(), 5);
        assert!(m.is_finite());
    }

    #[test]
    fn numeric_scaling_uses_train_statistics_only() {
        let train = dataset(&["a", "a", "a", "a"], &[0.0, 10.0, 0.0, 10.0]);
        let test = dataset(&["a", "a", "a", "a"], &[20.0, 20.0, 20.0, 20.0]);
        let f = FittedFeaturizer::fit(&train, ScalerSpec::MinMax).unwrap();
        let m = f.transform(&test).unwrap();
        // Train range was [0, 10], so test value 20 maps to 2.0 — proof the
        // test data did not influence the fit.
        assert_eq!(m.get(0, 0), 2.0);
    }

    #[test]
    fn unseen_test_category_routes_to_unseen_slot() {
        let train = dataset(&["clerk", "chef", "clerk", "chef"], &[1.0, 2.0, 3.0, 4.0]);
        let test = dataset(&["pilot", "clerk", "pilot", "clerk"], &[1.0, 2.0, 3.0, 4.0]);
        let f = FittedFeaturizer::fit(&train, ScalerSpec::NoScaling).unwrap();
        let m = f.transform(&test).unwrap();
        let names = f.feature_names();
        let unseen_ix = names.iter().position(|n| n == "job=<unseen>").unwrap();
        assert_eq!(m.get(0, unseen_ix), 1.0);
        assert_eq!(m.get(1, unseen_ix), 0.0);
    }

    #[test]
    fn transform_traced_counts_test_only_categories() {
        let train = dataset(&["clerk", "chef", "clerk", "chef"], &[1.0, 2.0, 3.0, 4.0]);
        let test = dataset(&["pilot", "clerk", "pilot", "clerk"], &[1.0, 2.0, 3.0, 4.0]);
        let f = FittedFeaturizer::fit(&train, ScalerSpec::NoScaling).unwrap();
        let tracer = Tracer::enabled();
        // Training data contains no unseen categories by construction.
        f.transform_traced(&train, &tracer).unwrap();
        assert_eq!(tracer.counter(Counter::UnseenCategories), 0);
        // "pilot" appears only in the test split: two rows route to the
        // unseen slot and the counter records both.
        let m = f.transform_traced(&test, &tracer).unwrap();
        assert_eq!(tracer.counter(Counter::UnseenCategories), 2);
        assert_eq!(m, f.transform(&test).unwrap());
    }

    /// The per-cell reference the dictionary-slot encoding replaces:
    /// every categorical cell looked up in its encoder's categories.
    fn reference_categorical_block(
        f: &FittedFeaturizer,
        ds: &BinaryLabelDataset,
    ) -> (Vec<f64>, u64) {
        let mut block = Vec::new();
        let mut unseen = 0;
        for i in 0..ds.n_rows() {
            for (name, enc) in f.categorical_names.iter().zip(&f.encoders) {
                let cell = ds.frame().column(name).unwrap().get(i);
                let value = cell.as_categorical();
                if value.is_some_and(|v| enc.categories().iter().all(|c| c != v)) {
                    unseen += 1;
                }
                block.extend(enc.encode(value));
            }
        }
        (block, unseen)
    }

    #[test]
    fn dictionary_slots_match_the_per_cell_reference() {
        let train = dataset(&["clerk", "chef", "clerk", "nurse"], &[1.0, 2.0, 3.0, 4.0]);
        let f = FittedFeaturizer::fit(&train, ScalerSpec::NoScaling).unwrap();
        // Unseen categories, missing cells, and dictionary entries no row
        // uses ("nurse" and "sailor" fall out of the `take`).
        let mut test = dataset(
            &["pilot", "clerk", "nurse", "chef", "pilot", "sailor", "chef"],
            &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0],
        );
        let jobs = [
            Some("pilot"),
            None,
            Some("nurse"),
            Some("chef"),
            Some("pilot"),
            None,
            Some("sailor"),
        ];
        test.frame_mut()
            .replace_column("job", Column::from_optional_strs(jobs))
            .unwrap();
        let test = test.take(&[0, 1, 3, 4, 5, 3]);
        let tracer = Tracer::enabled();
        let m = f.transform_traced(&test, &tracer).unwrap();
        let (block, unseen) = reference_categorical_block(&f, &test);
        let numeric = f.numeric_names.len();
        let fast: Vec<f64> = (0..m.n_rows())
            .flat_map(|i| m.row(i)[numeric..].to_vec())
            .collect();
        assert_eq!(fast, block);
        assert_eq!(tracer.counter(Counter::UnseenCategories), unseen);
        assert_eq!(unseen, 2);
    }

    #[test]
    fn missing_numeric_rejected_at_fit_and_transform() {
        let mut ds = dataset(&["a", "b", "a", "b"], &[1.0, 2.0, 3.0, 4.0]);
        ds.frame_mut()
            .replace_column(
                "age",
                Column::from_optional_f64([Some(1.0), None, Some(3.0), Some(4.0)]),
            )
            .unwrap();
        assert!(FittedFeaturizer::fit(&ds, ScalerSpec::Standard).is_err());

        let train = dataset(&["a", "b", "a", "b"], &[1.0, 2.0, 3.0, 4.0]);
        let f = FittedFeaturizer::fit(&train, ScalerSpec::Standard).unwrap();
        assert!(f.transform(&ds).is_err());
    }

    #[test]
    fn transform_stamps_matrix_provenance() {
        use fairprep_data::provenance::Provenance;
        let mut ds = dataset(&["x", "y", "x", "y"], &[5.0, 6.0, 7.0, 8.0]);
        let f = FittedFeaturizer::fit(&ds, ScalerSpec::NoScaling).unwrap();
        ds.set_provenance(Provenance::Test);
        let m = f.transform(&ds).unwrap();
        assert_eq!(m.provenance(), Provenance::Test);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "test-set isolation violation")]
    fn fit_rejects_test_tagged_dataset() {
        use fairprep_data::provenance::Provenance;
        let mut ds = dataset(&["x", "y", "x", "y"], &[5.0, 6.0, 7.0, 8.0]);
        ds.set_provenance(Provenance::Test);
        let _ = FittedFeaturizer::fit(&ds, ScalerSpec::Standard);
    }

    #[test]
    fn transform_is_deterministic() {
        let train = dataset(&["x", "y", "x", "y"], &[5.0, 6.0, 7.0, 8.0]);
        let f = FittedFeaturizer::fit(&train, ScalerSpec::Standard).unwrap();
        let a = f.transform(&train).unwrap();
        let b = f.transform(&train).unwrap();
        assert_eq!(a, b);
    }
}
