//! Learned, per-column imputation — the Datawig substitute.
//!
//! Datawig [Biessmann et al., CIKM'18] "auto-featurizes data and learns a
//! deep learning model tailored to the data for imputation. Its
//! implementation focuses on imputing one column at a time ... We utilize
//! this approach in the fit method to learn an imputation model for each
//! feature using the remaining features (but not the class label) in the
//! training dataset as input. At imputation time ... each of the fitted
//! models is applied on the target data to impute the missing attributes."
//! (§4)
//!
//! This implementation keeps exactly that structure — auto-featurized
//! inputs, one learned model per target column, fit on training data only —
//! but replaces the deep network with linear models (one-vs-rest logistic
//! regression for categorical targets, SGD ridge regression for numeric
//! targets). The paper itself observes that on `adult` "datawig does no
//! worse than mode" because the imputed attributes are highly skewed; a
//! linear learned imputer preserves that finding while exercising the same
//! lifecycle code path.

use fairprep_data::column::{Column, ColumnKind, OwnedValue, Value};
use fairprep_data::dataset::BinaryLabelDataset;
use fairprep_data::error::{Error, Result};
use fairprep_data::rng::derive_seed;
use fairprep_ml::matrix::{dot, Matrix, SGD_PREFETCH_AHEAD};
use fairprep_ml::model::logistic::FittedLogisticRegression;
use fairprep_ml::model::{
    Classifier, FittedClassifier, LogisticRegressionConfig, LogisticRegressionSgd, Penalty,
};
use fairprep_ml::sealing;
use fairprep_ml::transform::OneHotEncoder;
use fairprep_trace::json::{obj, Value as Json};

use crate::{FittedMissingValueHandler, MissingValueHandler};

/// Learned per-column imputer (Datawig substitute).
#[derive(Debug, Clone)]
pub struct ModelBasedImputer {
    /// Columns to learn imputation models for. `None` imputes every feature
    /// column that contains missing values in the training data.
    pub target_columns: Option<Vec<String>>,
    /// Training epochs for the per-column models.
    pub epochs: usize,
}

impl Default for ModelBasedImputer {
    fn default() -> Self {
        ModelBasedImputer {
            target_columns: None,
            epochs: 15,
        }
    }
}

impl ModelBasedImputer {
    /// Imputer for an explicit set of target columns (the `DatawigImputer
    /// ('age')` pattern from the paper's §4 example).
    #[must_use]
    pub fn for_columns(columns: &[&str]) -> Self {
        ModelBasedImputer {
            target_columns: Some(columns.iter().map(ToString::to_string).collect()),
            epochs: 15,
        }
    }
}

impl MissingValueHandler for ModelBasedImputer {
    fn name(&self) -> String {
        "model_based_imputation".to_string()
    }

    fn fit(
        &self,
        train: &BinaryLabelDataset,
        seed: u64,
    ) -> Result<Box<dyn FittedMissingValueHandler>> {
        train.guard_fit("ModelBasedImputer::fit");
        let label = train.schema().label_name()?.to_string();
        let feature_columns: Vec<String> = train
            .frame()
            .column_names()
            .iter()
            .filter(|n| **n != label)
            .cloned()
            .collect();

        let targets: Vec<String> = match &self.target_columns {
            Some(cols) => {
                for c in cols {
                    if !train.frame().has_column(c) {
                        return Err(Error::ColumnNotFound(c.clone()));
                    }
                    if *c == label {
                        return Err(Error::InvalidParameter {
                            name: "target_columns",
                            message: "the class label cannot be an imputation target".to_string(),
                        });
                    }
                }
                cols.clone()
            }
            None => feature_columns
                .iter()
                .filter(|name| {
                    train
                        .frame()
                        .column(name)
                        .map(|c| c.missing_count() > 0)
                        .unwrap_or(false)
                })
                .cloned()
                .collect(),
        };

        let mut models = Vec::with_capacity(targets.len());
        for target in &targets {
            let model = ColumnModel::fit(
                train,
                target,
                &feature_columns,
                self.epochs,
                derive_seed(seed, &format!("imputer/{target}")),
            )?;
            models.push(model);
        }

        // Mode fallback for columns without a learned model, so that a split
        // with unexpected missingness still comes out complete.
        let fallback = crate::column_fills(train, crate::FillStrategy::Mode)?;

        Ok(Box::new(FittedModelBasedImputer { models, fallback }))
    }
}

/// Input featurization for one source column of an imputation model.
#[derive(Debug, Clone)]
enum InputEncoding {
    /// Standardize with train statistics; missing cells map to the mean
    /// (i.e., zero after standardization).
    Numeric { mean: f64, std: f64 },
    /// One-hot with unseen slot; missing cells map to all-zeros.
    Categorical(OneHotEncoder),
}

impl InputEncoding {
    fn width(&self) -> usize {
        match self {
            InputEncoding::Numeric { .. } => 1,
            InputEncoding::Categorical(enc) => enc.width(),
        }
    }

    fn encode_into(&self, value: &Value<'_>, out: &mut [f64]) -> Result<()> {
        match self {
            InputEncoding::Numeric { mean, std } => {
                let x = value.as_numeric().unwrap_or(*mean);
                // audit: allow(index-literal, reason = "Numeric encodings have width 1, so the destination slot always exists")
                out[0] = if *std > 0.0 { (x - mean) / std } else { 0.0 };
                Ok(())
            }
            InputEncoding::Categorical(enc) => enc.encode_into(value.as_categorical(), out),
        }
    }
}

/// The learned predictor for one target column.
enum TargetModel {
    /// One-vs-rest logistic models, one per training category.
    Categorical {
        categories: Vec<String>,
        models: Vec<Box<dyn FittedClassifier>>,
    },
    /// Linear regression on the standardized target.
    Numeric {
        weights: Vec<f64>,
        intercept: f64,
        mean: f64,
        std: f64,
    },
}

struct ColumnModel {
    target: String,
    inputs: Vec<(String, InputEncoding)>,
    width: usize,
    model: TargetModel,
}

impl ColumnModel {
    fn fit(
        train: &BinaryLabelDataset,
        target: &str,
        feature_columns: &[String],
        epochs: usize,
        seed: u64,
    ) -> Result<ColumnModel> {
        // Build the input encoding from all feature columns except the target.
        let mut inputs = Vec::new();
        let mut columns = Vec::new();
        for name in feature_columns {
            if name == target {
                continue;
            }
            let col = train.frame().column(name)?;
            let encoding = match col.kind() {
                ColumnKind::Numeric => {
                    let values: Vec<f64> = col.as_numeric()?.iter().flatten().copied().collect();
                    if values.is_empty() {
                        // Entirely-missing input: contribute a constant zero.
                        InputEncoding::Numeric {
                            mean: 0.0,
                            std: 0.0,
                        }
                    } else {
                        let n = values.len() as f64;
                        let mean = values.iter().sum::<f64>() / n;
                        let var = values.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
                        InputEncoding::Numeric {
                            mean,
                            std: var.sqrt(),
                        }
                    }
                }
                ColumnKind::Categorical => InputEncoding::Categorical(OneHotEncoder::fit(col)?),
            };
            inputs.push((name.clone(), encoding));
            columns.push(col);
        }
        let width: usize = inputs.iter().map(|(_, e)| e.width()).sum();

        // Rows where the target is observed form the supervised training set.
        let target_col = train.frame().column(target)?;
        let observed: Vec<usize> = (0..train.n_rows())
            .filter(|&i| !target_col.is_missing(i))
            .collect();
        if observed.is_empty() {
            return Err(Error::EmptyData(format!(
                "imputation target {target} has no observed training values"
            )));
        }

        let mut x = Matrix::zeros(observed.len(), width);
        for (r, &i) in observed.iter().enumerate() {
            encode_row(&inputs, &columns, i, x.row_mut(r))?;
        }

        let model = match target_col.kind() {
            ColumnKind::Categorical => {
                let values: Vec<String> = observed
                    .iter()
                    .map(|&i| {
                        target_col
                            .get(i)
                            .as_categorical()
                            // audit: allow(expect, reason = "rows were filtered to non-missing target cells just above")
                            .expect("observed categorical")
                            .to_string()
                    })
                    .collect();
                let mut categories: Vec<String> = Vec::new();
                for v in &values {
                    if !categories.contains(v) {
                        categories.push(v.clone());
                    }
                }
                let learner = LogisticRegressionSgd::new(LogisticRegressionConfig {
                    penalty: Penalty::L2,
                    alpha: 1e-4,
                    max_epochs: epochs,
                    ..Default::default()
                });
                let weights = vec![1.0; observed.len()];
                let mut models = Vec::with_capacity(categories.len());
                for (c_ix, category) in categories.iter().enumerate() {
                    let y: Vec<f64> = values
                        .iter()
                        .map(|v| f64::from(u8::from(v == category)))
                        .collect();
                    models.push(learner.fit(
                        &x,
                        &y,
                        &weights,
                        derive_seed(seed, &format!("ovr/{c_ix}")),
                    )?);
                }
                TargetModel::Categorical { categories, models }
            }
            ColumnKind::Numeric => {
                let ys: Vec<f64> = observed
                    .iter()
                    // audit: allow(expect, reason = "rows were filtered to non-missing target cells just above")
                    .map(|&i| target_col.get(i).as_numeric().expect("observed numeric"))
                    .collect();
                let n = ys.len() as f64;
                let mean = ys.iter().sum::<f64>() / n;
                let var = ys.iter().map(|y| (y - mean).powi(2)).sum::<f64>() / n;
                let std = var.sqrt();
                let standardized: Vec<f64> = if std > 0.0 {
                    ys.iter().map(|y| (y - mean) / std).collect()
                } else {
                    vec![0.0; ys.len()]
                };
                let (weights, intercept) = fit_ridge_sgd(&x, &standardized, epochs, 1e-4, seed);
                TargetModel::Numeric {
                    weights,
                    intercept,
                    mean,
                    std,
                }
            }
        };

        Ok(ColumnModel {
            target: target.to_string(),
            inputs,
            width,
            model,
        })
    }

    /// Looks this model's input columns up in `data`, in input order.
    fn input_columns<'a>(&self, data: &'a BinaryLabelDataset) -> Result<Vec<&'a Column>> {
        self.inputs
            .iter()
            .map(|(name, _)| data.frame().column(name))
            .collect()
    }

    /// Predicts the target value for row `i` of the input `columns`
    /// resolved by [`ColumnModel::input_columns`].
    fn predict(&self, columns: &[&Column], i: usize) -> Result<OwnedValue> {
        let mut row = vec![0.0; self.width];
        encode_row(&self.inputs, columns, i, &mut row)?;
        match &self.model {
            TargetModel::Categorical { categories, models } => {
                let x = Matrix::from_vec(1, self.width, row)?;
                let mut best = (0usize, f64::NEG_INFINITY);
                for (c_ix, model) in models.iter().enumerate() {
                    let p = model.predict_proba(&x)?[0];
                    if p > best.1 {
                        best = (c_ix, p);
                    }
                }
                Ok(OwnedValue::Categorical(categories[best.0].clone()))
            }
            TargetModel::Numeric {
                weights,
                intercept,
                mean,
                std,
            } => {
                let z = dot(weights, &row) + intercept;
                let v = z * std + mean;
                Ok(OwnedValue::Numeric(if v.is_finite() { v } else { *mean }))
            }
        }
    }
}

/// Encodes the input features of row `i` into `out`; `columns` holds the
/// column of each of `inputs`, in the same order.
fn encode_row(
    inputs: &[(String, InputEncoding)],
    columns: &[&Column],
    i: usize,
    out: &mut [f64],
) -> Result<()> {
    let mut offset = 0usize;
    for ((_, enc), col) in inputs.iter().zip(columns) {
        let w = enc.width();
        enc.encode_into(&col.get(i), &mut out[offset..offset + w])?;
        offset += w;
    }
    Ok(())
}

/// Plain SGD ridge regression on a standardized target.
fn fit_ridge_sgd(x: &Matrix, y: &[f64], epochs: usize, alpha: f64, seed: u64) -> (Vec<f64>, f64) {
    use rand::seq::SliceRandom;
    let mut rng = fairprep_data::rng::component_rng(seed, "imputer/ridge");
    let d = x.n_cols();
    let mut w = vec![0.0_f64; d];
    let mut b = 0.0_f64;
    let mut order: Vec<usize> = (0..x.n_rows()).collect();
    let mut t: u64 = 0;
    for _ in 0..epochs.max(1) {
        order.shuffle(&mut rng);
        for (k, &i) in order.iter().enumerate() {
            if let Some(&ahead) = order.get(k + SGD_PREFETCH_AHEAD) {
                x.prefetch_row(ahead);
            }
            t += 1;
            #[allow(clippy::cast_precision_loss)]
            let eta = 0.05 / (t as f64).powf(0.25);
            let row = x.row(i);
            let err = dot(&w, row) + b - y[i];
            for (wj, &xj) in w.iter_mut().zip(row) {
                *wj -= eta * (err * xj + alpha * *wj);
            }
            b -= eta * err;
        }
    }
    (w, b)
}

/// The fitted Datawig-substitute imputer.
pub(crate) struct FittedModelBasedImputer {
    models: Vec<ColumnModel>,
    fallback: Vec<(String, OwnedValue)>,
}

/// Sealed-record kind tag for the model-based imputer.
pub(crate) const KIND: &str = "model_based";

fn seal_input_encoding(enc: &InputEncoding) -> Json {
    match enc {
        InputEncoding::Numeric { mean, std } => obj(vec![(
            "num",
            obj(vec![("mean", Json::bits(*mean)), ("std", Json::bits(*std))]),
        )]),
        InputEncoding::Categorical(onehot) => obj(vec![("cat", onehot.seal())]),
    }
}

fn unseal_input_encoding(v: &Json) -> Result<InputEncoding> {
    if let Some(num) = v.get("num") {
        return Ok(InputEncoding::Numeric {
            mean: sealing::req_f64(num, "mean")?,
            std: sealing::req_f64(num, "std")?,
        });
    }
    if let Some(cat) = v.get("cat") {
        return Ok(InputEncoding::Categorical(OneHotEncoder::unseal(cat)?));
    }
    Err(sealing::seal_err("unrecognized input-encoding record"))
}

fn seal_target_model(model: &TargetModel) -> Result<Json> {
    match model {
        TargetModel::Categorical { categories, models } => {
            let sealed_models = models
                .iter()
                .map(|m| m.seal())
                .collect::<Result<Vec<Json>>>()?;
            Ok(obj(vec![
                (
                    "categories",
                    Json::Arr(categories.iter().map(|c| Json::Str(c.clone())).collect()),
                ),
                ("models", Json::Arr(sealed_models)),
            ]))
        }
        TargetModel::Numeric {
            weights,
            intercept,
            mean,
            std,
        } => Ok(obj(vec![
            ("weights", Json::bits_vec(weights)),
            ("intercept", Json::bits(*intercept)),
            ("mean", Json::bits(*mean)),
            ("std", Json::bits(*std)),
        ])),
    }
}

/// Reconstructs the model predicting `target` from inputs that encode to
/// `width` values. Rejects records that would load but fail at prediction:
/// a one-vs-rest record with no categories, a member that is not a
/// logistic model, or weights of another width.
fn unseal_target_model(v: &Json, target: &str, width: usize) -> Result<TargetModel> {
    let check_width = |weights: &[f64]| {
        if weights.len() == width {
            Ok(())
        } else {
            Err(sealing::seal_err(format!(
                "imputer for {target}: weight width {} does not match input width {width}",
                weights.len()
            )))
        }
    };
    if let Some(categories) = v.get("categories") {
        let categories: Vec<String> = categories
            .as_array()
            .ok_or_else(|| sealing::seal_err("categories is not an array"))?
            .iter()
            .map(|c| {
                c.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| sealing::seal_err("category is not a string"))
            })
            .collect::<Result<_>>()?;
        if categories.is_empty() {
            return Err(sealing::seal_err(format!(
                "imputer for {target}: one-vs-rest record has no categories"
            )));
        }
        let models = sealing::req_arr(v, "models")?
            .iter()
            .map(|m| {
                let model = FittedLogisticRegression::unseal(m)?;
                check_width(&model.weights)?;
                Ok(Box::new(model) as Box<dyn FittedClassifier>)
            })
            .collect::<Result<Vec<_>>>()?;
        if models.len() != categories.len() {
            return Err(sealing::seal_err(
                "one-vs-rest model count does not match category count",
            ));
        }
        return Ok(TargetModel::Categorical { categories, models });
    }
    let weights = sealing::req_f64_vec(v, "weights")?;
    check_width(&weights)?;
    Ok(TargetModel::Numeric {
        weights,
        intercept: sealing::req_f64(v, "intercept")?,
        mean: sealing::req_f64(v, "mean")?,
        std: sealing::req_f64(v, "std")?,
    })
}

/// Reconstructs the fitted imputer from a sealed component record.
pub(crate) fn unseal_model_based(v: &Json) -> Result<FittedModelBasedImputer> {
    sealing::expect_kind(v, KIND)?;
    let mut models = Vec::new();
    for record in sealing::req_arr(v, "models")? {
        let target = sealing::req_str(record, "target")?.to_string();
        let mut inputs = Vec::new();
        for input in sealing::req_arr(record, "inputs")? {
            inputs.push((
                sealing::req_str(input, "name")?.to_string(),
                unseal_input_encoding(sealing::req(input, "encoding")?)?,
            ));
        }
        let width: usize = inputs.iter().map(|(_, e)| e.width()).sum();
        let model = unseal_target_model(sealing::req(record, "model")?, &target, width)?;
        models.push(ColumnModel {
            target,
            inputs,
            width,
            model,
        });
    }
    let mut fallback = Vec::new();
    for record in sealing::req_arr(v, "fallback")? {
        fallback.push((
            sealing::req_str(record, "name")?.to_string(),
            crate::unseal_owned_value(sealing::req(record, "value")?)?,
        ));
    }
    Ok(FittedModelBasedImputer { models, fallback })
}

impl FittedMissingValueHandler for FittedModelBasedImputer {
    fn handle_missing(&self, data: &BinaryLabelDataset) -> Result<BinaryLabelDataset> {
        let mut out = data.clone();
        // Predict from the *original* data so each column is imputed
        // independently (the Datawig per-column protocol).
        for model in &self.models {
            let col = data.frame().column(&model.target)?;
            let missing: Vec<usize> = (0..col.len()).filter(|&i| col.is_missing(i)).collect();
            if missing.is_empty() {
                continue;
            }
            let columns = model.input_columns(data)?;
            for i in missing {
                let value = model.predict(&columns, i)?;
                out.frame_mut().set_value(i, &model.target, value)?;
            }
        }
        // Mode fallback for residual missingness in columns that had no
        // missing training values (and hence no learned model).
        for (name, fill) in &self.fallback {
            let col = out.frame().column(name)?;
            let missing: Vec<usize> = (0..col.len()).filter(|&i| col.is_missing(i)).collect();
            for i in missing {
                out.frame_mut().set_value(i, name, fill.clone())?;
            }
        }
        out.refresh_caches()?;
        Ok(out)
    }

    fn seal(&self) -> Result<Json> {
        let models = self
            .models
            .iter()
            .map(|m| {
                let inputs = m
                    .inputs
                    .iter()
                    .map(|(name, enc)| {
                        obj(vec![
                            ("name", Json::Str(name.clone())),
                            ("encoding", seal_input_encoding(enc)),
                        ])
                    })
                    .collect();
                Ok(obj(vec![
                    ("target", Json::Str(m.target.clone())),
                    ("inputs", Json::Arr(inputs)),
                    ("model", seal_target_model(&m.model)?),
                ]))
            })
            .collect::<Result<Vec<Json>>>()?;
        let fallback = self
            .fallback
            .iter()
            .map(|(name, fill)| {
                obj(vec![
                    ("name", Json::Str(name.clone())),
                    ("value", crate::seal_owned_value(fill)),
                ])
            })
            .collect();
        Ok(obj(vec![
            ("kind", Json::Str(KIND.to_string())),
            ("models", Json::Arr(models)),
            ("fallback", Json::Arr(fallback)),
        ]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairprep_data::column::Column;
    use fairprep_data::frame::DataFrame;
    use fairprep_data::schema::{ProtectedAttribute, Schema};

    /// Dataset where `job` is perfectly predictable from `dept`:
    /// dept=kitchen → chef, dept=office → clerk.
    fn predictable_dataset(n: usize, missing_every: usize) -> BinaryLabelDataset {
        let depts: Vec<&str> = (0..n)
            .map(|i| if i % 2 == 0 { "kitchen" } else { "office" })
            .collect();
        let jobs: Vec<Option<&str>> = (0..n)
            .map(|i| {
                if i % missing_every == 0 {
                    None
                } else if i % 2 == 0 {
                    Some("chef")
                } else {
                    Some("clerk")
                }
            })
            .collect();
        let ages: Vec<Option<f64>> = (0..n)
            .map(|i| {
                if (i + 1) % missing_every == 0 {
                    None
                } else {
                    // age strongly depends on dept
                    Some(if i % 2 == 0 { 30.0 } else { 50.0 })
                }
            })
            .collect();
        let frame = DataFrame::new()
            .with_column("dept", Column::from_strs(depts))
            .unwrap()
            .with_column("job", Column::from_optional_strs(jobs))
            .unwrap()
            .with_column("age", Column::from_optional_f64(ages))
            .unwrap()
            .with_column(
                "g",
                Column::from_strs((0..n).map(|i| if i % 3 == 0 { "a" } else { "b" })),
            )
            .unwrap()
            .with_column(
                "y",
                Column::from_strs((0..n).map(|i| if i % 2 == 0 { "p" } else { "n" })),
            )
            .unwrap();
        let schema = Schema::new()
            .categorical_feature("dept")
            .categorical_feature("job")
            .numeric_feature("age")
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
    fn learns_categorical_imputation_from_other_columns() {
        let ds = predictable_dataset(60, 6);
        let fitted = ModelBasedImputer::default().fit(&ds, 7).unwrap();
        let out = fitted.handle_missing(&ds).unwrap();
        assert_eq!(out.frame().missing_cells(), 0);
        // Every imputed job must match the dept-determined value.
        for i in (0..60).step_by(6) {
            let dept = ds.frame().value(i, "dept").unwrap();
            let expected = if dept == Value::Categorical("kitchen") {
                "chef"
            } else {
                "clerk"
            };
            assert_eq!(
                out.frame().value(i, "job").unwrap(),
                Value::Categorical(expected),
                "row {i}"
            );
        }
    }

    #[test]
    fn learns_numeric_imputation_from_other_columns() {
        let ds = predictable_dataset(60, 6);
        let fitted = ModelBasedImputer::default().fit(&ds, 7).unwrap();
        let out = fitted.handle_missing(&ds).unwrap();
        for i in 0..60 {
            if ds.frame().column("age").unwrap().is_missing(i) {
                let v = out.frame().value(i, "age").unwrap().as_numeric().unwrap();
                let expected = if i % 2 == 0 { 30.0 } else { 50.0 };
                assert!(
                    (v - expected).abs() < 8.0,
                    "row {i}: imputed {v}, expected near {expected}"
                );
            }
        }
    }

    #[test]
    fn explicit_target_columns_respected() {
        let ds = predictable_dataset(30, 5);
        let fitted = ModelBasedImputer::for_columns(&["job"])
            .fit(&ds, 1)
            .unwrap();
        let out = fitted.handle_missing(&ds).unwrap();
        // job is imputed by the model; age is covered by the mode fallback,
        // so the result is still complete.
        assert_eq!(out.frame().missing_cells(), 0);
    }

    #[test]
    fn label_cannot_be_target() {
        let ds = predictable_dataset(30, 5);
        assert!(ModelBasedImputer::for_columns(&["y"]).fit(&ds, 0).is_err());
    }

    #[test]
    fn unknown_target_is_error() {
        let ds = predictable_dataset(30, 5);
        assert!(ModelBasedImputer::for_columns(&["nope"])
            .fit(&ds, 0)
            .is_err());
    }

    #[test]
    fn imputation_is_seed_deterministic() {
        let ds = predictable_dataset(40, 4);
        let a = ModelBasedImputer::default()
            .fit(&ds, 9)
            .unwrap()
            .handle_missing(&ds)
            .unwrap();
        let b = ModelBasedImputer::default()
            .fit(&ds, 9)
            .unwrap()
            .handle_missing(&ds)
            .unwrap();
        assert_eq!(a.frame(), b.frame());
    }

    #[test]
    fn fit_on_train_applies_to_unseen_split() {
        let ds = predictable_dataset(60, 6);
        let train_idx: Vec<usize> = (0..40).collect();
        let test_idx: Vec<usize> = (40..60).collect();
        let train = ds.take(&train_idx);
        let test = ds.take(&test_idx);
        let fitted = ModelBasedImputer::default().fit(&train, 3).unwrap();
        let out = fitted.handle_missing(&test).unwrap();
        assert_eq!(out.frame().missing_cells(), 0);
        assert_eq!(out.n_rows(), 20);
        assert_eq!(out.labels(), test.labels());
    }

    #[test]
    fn complete_dataset_passes_through_unchanged() {
        // Row 0 of the generator is always incomplete; drop it to obtain a
        // fully-complete dataset.
        let base = predictable_dataset(21, 1_000_000);
        let ds = base.take(&(1..21).collect::<Vec<_>>());
        assert_eq!(ds.frame().missing_cells(), 0);
        let fitted = ModelBasedImputer::default().fit(&ds, 0).unwrap();
        let out = fitted.handle_missing(&ds).unwrap();
        assert_eq!(out.frame(), ds.frame());
    }
}
