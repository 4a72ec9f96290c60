//! # fairprep-impute
//!
//! Missing-value handling for the FairPrep lifecycle.
//!
//! "FairPrep offers a set of predefined strategies such as 'complete case
//! analysis' (removal of records with missing values) or different
//! imputation algorithms, ranging from simple strategies that fill in the
//! most frequent value of an attribute, to more sophisticated strategies
//! that learn a model tailored to the data for imputation. Note that
//! FairPrep enforces that imputation models are learned on the training
//! data only." (§3)
//!
//! The strategies:
//!
//! * [`CompleteCaseAnalysis`] — drop incomplete records (what previous
//!   studies did implicitly, §2.4),
//! * [`ModeImputer`] — fill with the most frequent training value,
//! * [`MeanModeImputer`] — mean for numeric, mode for categorical,
//! * [`ModelBasedImputer`] — the Datawig substitute: one learned model per
//!   target column, trained on the remaining feature columns (never the
//!   class label).
//!
//! [`inject`] provides MCAR/MAR missingness injection so any complete
//! dataset can participate in imputation studies.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod inject;
pub mod model_based;

use fairprep_data::column::{Column, OwnedValue};
use fairprep_data::dataset::BinaryLabelDataset;
use fairprep_data::error::{Error, Result};
use fairprep_data::profile::GROUP_BALANCE_WARN_THRESHOLD;
use fairprep_ml::sealing;
use fairprep_trace::json::{obj, Value as Json};
use fairprep_trace::{Counter, Stage, Tracer};

pub use model_based::ModelBasedImputer;

/// A strategy for treating records with missing values.
///
/// Mirrors the paper's `MissingValueHandler` interface (§4): `fit` sees only
/// the training data; the fitted handler is later applied by the framework
/// to the validation and test sets.
pub trait MissingValueHandler: Send + Sync {
    /// Stable strategy name for run metadata.
    fn name(&self) -> String;

    /// Learns any statistics/models required for imputation from the
    /// **training** dataset only.
    fn fit(
        &self,
        train: &BinaryLabelDataset,
        seed: u64,
    ) -> Result<Box<dyn FittedMissingValueHandler>>;

    /// Like [`MissingValueHandler::fit`], recording an `impute` span on
    /// `tracer`. The default simply wraps `fit`, so existing strategies
    /// participate in tracing without any changes.
    fn fit_traced(
        &self,
        train: &BinaryLabelDataset,
        seed: u64,
        tracer: &Tracer,
    ) -> Result<Box<dyn FittedMissingValueHandler>> {
        let _span = tracer.span(Stage::Impute);
        self.fit(train, seed)
    }
}

/// A fitted missing-value handler, applicable to any split.
pub trait FittedMissingValueHandler: Send + Sync {
    /// Produces a dataset without missing feature values. Depending on the
    /// strategy this either completes records (imputation) or removes them
    /// (complete-case analysis).
    fn handle_missing(&self, data: &BinaryLabelDataset) -> Result<BinaryLabelDataset>;

    /// `true` when the strategy removes records instead of completing them
    /// (the lifecycle uses this to keep imputed-vs-complete bookkeeping
    /// meaningful).
    fn removes_records(&self) -> bool {
        false
    }

    /// Like [`FittedMissingValueHandler::handle_missing`], counting the
    /// work performed: rows removed by record-dropping strategies
    /// (`rows_dropped`) or cells filled in by imputing ones
    /// (`cells_imputed`). Both are pure functions of the data, so they
    /// are safe for the canonical manifest.
    ///
    /// Record-dropping strategies additionally compare per-group drop
    /// rates and record a manifest warning when they diverge by at least
    /// [`GROUP_BALANCE_WARN_THRESHOLD`] — the §2.4 failure mode where
    /// complete-case analysis silently erodes one protected group.
    fn handle_missing_traced(
        &self,
        data: &BinaryLabelDataset,
        tracer: &Tracer,
    ) -> Result<BinaryLabelDataset> {
        let missing_before = data.frame().missing_cells();
        let rows_before = data.n_rows();
        let out = self.handle_missing(data)?;
        if self.removes_records() {
            let dropped = rows_before.saturating_sub(out.n_rows()) as u64;
            tracer.add(Counter::RowsDropped, dropped);
            if dropped > 0 {
                warn_on_disproportionate_drop(data, &out, tracer);
            }
        } else {
            tracer.add(
                Counter::CellsImputed,
                missing_before.saturating_sub(out.frame().missing_cells()) as u64,
            );
        }
        Ok(out)
    }

    /// Serializes the fitted handler into a sealed-pipeline component
    /// record reloadable via [`unseal_handler`]. The default refuses with
    /// a typed error so experimental handlers stay usable in-process
    /// without silently producing unservable artifacts.
    fn seal(&self) -> Result<Json> {
        Err(Error::Seal(
            "this missing-value handler does not support sealing".to_string(),
        ))
    }
}

/// Reconstructs a fitted missing-value handler from a sealed component
/// record, dispatching on its `"kind"` tag.
pub fn unseal_handler(v: &Json) -> Result<Box<dyn FittedMissingValueHandler>> {
    match sealing::kind_of(v)? {
        "complete_case" => Ok(Box::new(FittedCompleteCase)),
        "fill" => {
            let mut fills = Vec::new();
            for record in sealing::req_arr(v, "fills")? {
                fills.push((
                    sealing::req_str(record, "name")?.to_string(),
                    unseal_owned_value(sealing::req(record, "value")?)?,
                ));
            }
            Ok(Box::new(FittedFillImputer { fills }))
        }
        model_based::KIND => Ok(Box::new(model_based::unseal_model_based(v)?)),
        other => Err(Error::Seal(format!(
            "unknown missing-value handler kind {other:?}"
        ))),
    }
}

/// Serializes an [`OwnedValue`] fill constant (numeric values travel as
/// bit patterns, categories as strings, missing as `null`).
pub(crate) fn seal_owned_value(v: &OwnedValue) -> Json {
    match v {
        OwnedValue::Numeric(x) => obj(vec![("num", Json::bits(*x))]),
        OwnedValue::Categorical(s) => obj(vec![("cat", Json::Str(s.clone()))]),
        OwnedValue::Missing => Json::Null,
    }
}

/// Inverse of [`seal_owned_value`].
pub(crate) fn unseal_owned_value(v: &Json) -> Result<OwnedValue> {
    if matches!(v, Json::Null) {
        return Ok(OwnedValue::Missing);
    }
    if let Some(num) = v.get("num") {
        return num
            .as_f64_bits()
            .map(OwnedValue::Numeric)
            .ok_or_else(|| sealing::seal_err("numeric fill is not a float bit pattern"));
    }
    if let Some(cat) = v.get("cat") {
        return cat
            .as_str()
            .map(|s| OwnedValue::Categorical(s.to_string()))
            .ok_or_else(|| sealing::seal_err("categorical fill is not a string"));
    }
    Err(sealing::seal_err("unrecognized fill value record"))
}

/// Records a tracer warning when record removal hits one protected group
/// at a rate at least [`GROUP_BALANCE_WARN_THRESHOLD`] apart from the
/// other's.
fn warn_on_disproportionate_drop(
    before: &BinaryLabelDataset,
    after: &BinaryLabelDataset,
    tracer: &Tracer,
) {
    let count = |mask: &[bool], privileged: bool| mask.iter().filter(|&&p| p == privileged).count();
    let priv_before = count(before.privileged_mask(), true);
    let unpriv_before = count(before.privileged_mask(), false);
    if priv_before == 0 || unpriv_before == 0 {
        return;
    }
    let priv_rate = priv_before.saturating_sub(count(after.privileged_mask(), true)) as f64
        / priv_before as f64;
    let unpriv_rate = unpriv_before.saturating_sub(count(after.privileged_mask(), false)) as f64
        / unpriv_before as f64;
    if (priv_rate - unpriv_rate).abs() >= GROUP_BALANCE_WARN_THRESHOLD {
        tracer.record_warning(format!(
            "record dropping is group-disproportionate: privileged drop rate \
             {priv_rate:.3} vs unprivileged {unpriv_rate:.3}"
        ));
    }
}

/// Removal of records with missing values ("complete case analysis").
#[derive(Debug, Clone, Copy, Default)]
pub struct CompleteCaseAnalysis;

impl MissingValueHandler for CompleteCaseAnalysis {
    fn name(&self) -> String {
        "complete_case_analysis".to_string()
    }

    fn fit(
        &self,
        train: &BinaryLabelDataset,
        _seed: u64,
    ) -> Result<Box<dyn FittedMissingValueHandler>> {
        train.guard_fit("CompleteCaseAnalysis::fit");
        Ok(Box::new(FittedCompleteCase))
    }
}

struct FittedCompleteCase;

impl FittedMissingValueHandler for FittedCompleteCase {
    fn handle_missing(&self, data: &BinaryLabelDataset) -> Result<BinaryLabelDataset> {
        let keep: Vec<usize> = (0..data.n_rows())
            .filter(|&i| !data.frame().row_has_missing(i))
            .collect();
        if keep.is_empty() {
            return Err(Error::EmptyData(
                "complete-case analysis removed every record".to_string(),
            ));
        }
        Ok(data.take(&keep))
    }

    fn removes_records(&self) -> bool {
        true
    }

    fn seal(&self) -> Result<Json> {
        Ok(obj(vec![("kind", Json::Str("complete_case".to_string()))]))
    }
}

/// Fills every missing value with the most frequent training value of its
/// attribute (scikit-learn's most-frequent `SimpleImputer`, the paper's
/// `ModeImputer`).
#[derive(Debug, Clone, Copy, Default)]
pub struct ModeImputer;

impl MissingValueHandler for ModeImputer {
    fn name(&self) -> String {
        "mode_imputation".to_string()
    }

    fn fit(
        &self,
        train: &BinaryLabelDataset,
        _seed: u64,
    ) -> Result<Box<dyn FittedMissingValueHandler>> {
        train.guard_fit("ModeImputer::fit");
        Ok(Box::new(FittedFillImputer {
            fills: column_fills(train, FillStrategy::Mode)?,
        }))
    }
}

/// Mean imputation for numeric attributes, mode for categorical ones (the
/// scikit-learn default interpolation Ann starts with in §1.1).
#[derive(Debug, Clone, Copy, Default)]
pub struct MeanModeImputer;

impl MissingValueHandler for MeanModeImputer {
    fn name(&self) -> String {
        "mean_mode_imputation".to_string()
    }

    fn fit(
        &self,
        train: &BinaryLabelDataset,
        _seed: u64,
    ) -> Result<Box<dyn FittedMissingValueHandler>> {
        train.guard_fit("MeanModeImputer::fit");
        Ok(Box::new(FittedFillImputer {
            fills: column_fills(train, FillStrategy::MeanMode)?,
        }))
    }
}

#[derive(Clone, Copy)]
pub(crate) enum FillStrategy {
    Mode,
    MeanMode,
}

/// Computes the per-feature-column fill values on the training data.
pub(crate) fn column_fills(
    train: &BinaryLabelDataset,
    strategy: FillStrategy,
) -> Result<Vec<(String, OwnedValue)>> {
    let label = train.schema().label_name()?.to_string();
    let mut fills = Vec::new();
    for name in train.frame().column_names() {
        if *name == label {
            continue;
        }
        let col = train.frame().column(name)?;
        if col.missing_count() == col.len() {
            return Err(Error::EmptyData(format!(
                "column {name} is entirely missing in the training data"
            )));
        }
        let fill = match (strategy, col) {
            (FillStrategy::MeanMode, Column::Numeric(_)) => {
                // audit: allow(expect, reason = "the all-missing check above guarantees at least one present value, so mean exists")
                OwnedValue::Numeric(col.mean().expect("non-empty numeric column"))
            }
            // audit: allow(expect, reason = "the all-missing check above guarantees at least one present value, so mode exists")
            _ => col.mode().expect("non-empty column"),
        };
        fills.push((name.clone(), fill));
    }
    Ok(fills)
}

/// A fitted constant-fill imputer (mode or mean/mode).
struct FittedFillImputer {
    fills: Vec<(String, OwnedValue)>,
}

impl FittedMissingValueHandler for FittedFillImputer {
    fn handle_missing(&self, data: &BinaryLabelDataset) -> Result<BinaryLabelDataset> {
        let mut out = data.clone();
        for (name, fill) in &self.fills {
            let col = out.frame().column(name)?;
            let missing_rows: Vec<usize> = (0..col.len()).filter(|&i| col.is_missing(i)).collect();
            if missing_rows.is_empty() {
                continue;
            }
            let frame = out.frame_mut();
            for i in missing_rows {
                frame.set_value(i, name, fill.clone())?;
            }
        }
        out.refresh_caches()?;
        Ok(out)
    }

    fn seal(&self) -> Result<Json> {
        let fills = self
            .fills
            .iter()
            .map(|(name, fill)| {
                obj(vec![
                    ("name", Json::Str(name.clone())),
                    ("value", seal_owned_value(fill)),
                ])
            })
            .collect();
        Ok(obj(vec![
            ("kind", Json::Str("fill".to_string())),
            ("fills", Json::Arr(fills)),
        ]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairprep_data::column::{ColumnKind, Value};
    use fairprep_data::frame::DataFrame;
    use fairprep_data::schema::{ProtectedAttribute, Schema};

    pub(crate) fn dataset_with_missing() -> BinaryLabelDataset {
        let frame = DataFrame::new()
            .with_column(
                "age",
                Column::from_optional_f64([Some(20.0), None, Some(40.0), Some(60.0), None]),
            )
            .unwrap()
            .with_column(
                "job",
                Column::from_optional_strs([
                    Some("clerk"),
                    Some("clerk"),
                    None,
                    Some("chef"),
                    Some("clerk"),
                ]),
            )
            .unwrap()
            .with_column("g", Column::from_strs(["a", "b", "a", "b", "a"]))
            .unwrap()
            .with_column("y", Column::from_strs(["p", "n", "p", "n", "p"]))
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
    fn complete_case_removes_incomplete_rows() {
        let ds = dataset_with_missing();
        let fitted = CompleteCaseAnalysis.fit(&ds, 0).unwrap();
        let out = fitted.handle_missing(&ds).unwrap();
        assert_eq!(out.n_rows(), 2); // rows 0 and 3 are complete
        assert_eq!(out.frame().missing_cells(), 0);
        assert!(fitted.removes_records());
        assert_eq!(out.labels(), &[1.0, 0.0]);
    }

    #[test]
    fn complete_case_errors_when_nothing_survives() {
        let ds = dataset_with_missing();
        let all_incomplete = ds.take(&[1, 2, 4]);
        let fitted = CompleteCaseAnalysis.fit(&all_incomplete, 0).unwrap();
        assert!(fitted.handle_missing(&all_incomplete).is_err());
    }

    #[test]
    fn mode_imputation_fills_with_train_modes() {
        let ds = dataset_with_missing();
        let fitted = ModeImputer.fit(&ds, 0).unwrap();
        let out = fitted.handle_missing(&ds).unwrap();
        assert_eq!(out.n_rows(), 5);
        assert_eq!(out.frame().missing_cells(), 0);
        assert!(!fitted.removes_records());
        assert_eq!(
            out.frame().value(2, "job").unwrap(),
            Value::Categorical("clerk")
        );
    }

    #[test]
    fn mean_mode_uses_mean_for_numeric() {
        let ds = dataset_with_missing();
        let fitted = MeanModeImputer.fit(&ds, 0).unwrap();
        let out = fitted.handle_missing(&ds).unwrap();
        // Mean of {20, 40, 60} = 40.
        assert_eq!(out.frame().value(1, "age").unwrap(), Value::Numeric(40.0));
        assert_eq!(out.frame().value(4, "age").unwrap(), Value::Numeric(40.0));
        // Categorical still mode-filled.
        assert_eq!(
            out.frame().value(2, "job").unwrap(),
            Value::Categorical("clerk")
        );
    }

    #[test]
    fn fitted_on_train_applies_train_statistics_to_test() {
        // Train mean is 40; missing test cells must receive the *train*
        // mean (isolation, §2.1).
        let ds = dataset_with_missing();
        let train = ds.take(&[0, 2, 3]); // ages 20, 40, 60 → mean 40
        let test = ds.take(&[1, 4]); // both missing age
        let fitted = MeanModeImputer.fit(&train, 0).unwrap();
        let out = fitted.handle_missing(&test).unwrap();
        assert_eq!(out.frame().value(0, "age").unwrap(), Value::Numeric(40.0));
        assert_eq!(out.frame().value(1, "age").unwrap(), Value::Numeric(40.0));
    }

    #[test]
    fn label_column_is_never_touched() {
        let ds = dataset_with_missing();
        let fitted = ModeImputer.fit(&ds, 0).unwrap();
        let out = fitted.handle_missing(&ds).unwrap();
        assert_eq!(out.labels(), ds.labels());
        assert_eq!(out.favorable_label(), ds.favorable_label());
    }

    #[test]
    fn all_missing_training_column_is_error() {
        let frame = DataFrame::new()
            .with_column("x", Column::from_optional_f64([None, None]))
            .unwrap()
            .with_column("g", Column::from_strs(["a", "b"]))
            .unwrap()
            .with_column("y", Column::from_strs(["p", "n"]))
            .unwrap();
        let schema = Schema::new()
            .numeric_feature("x")
            .metadata("g", ColumnKind::Categorical)
            .label("y");
        let ds = BinaryLabelDataset::new(
            frame,
            schema,
            ProtectedAttribute::categorical("g", &["a"]),
            "p",
        )
        .unwrap();
        assert!(ModeImputer.fit(&ds, 0).is_err());
        assert!(MeanModeImputer.fit(&ds, 0).is_err());
    }

    #[test]
    fn disproportionate_drop_records_a_warning() {
        use fairprep_trace::Tracer;
        // All missingness sits in the unprivileged group "b": dropping
        // incomplete rows erases it at rate 1.0 vs 0.0 for "a".
        let frame = DataFrame::new()
            .with_column(
                "age",
                Column::from_optional_f64([Some(20.0), None, Some(40.0), None, Some(30.0)]),
            )
            .unwrap()
            .with_column("g", Column::from_strs(["a", "b", "a", "b", "a"]))
            .unwrap()
            .with_column("y", Column::from_strs(["p", "n", "p", "n", "p"]))
            .unwrap();
        let schema = Schema::new()
            .numeric_feature("age")
            .metadata("g", ColumnKind::Categorical)
            .label("y");
        let ds = BinaryLabelDataset::new(
            frame,
            schema,
            ProtectedAttribute::categorical("g", &["a"]),
            "p",
        )
        .unwrap();
        let tracer = Tracer::enabled();
        let fitted = CompleteCaseAnalysis.fit(&ds, 0).unwrap();
        let out = fitted.handle_missing_traced(&ds, &tracer).unwrap();
        assert_eq!(out.n_rows(), 3);
        let warnings = tracer.warnings();
        assert_eq!(warnings.len(), 1);
        assert!(
            warnings[0].contains("group-disproportionate"),
            "unexpected warning: {}",
            warnings[0]
        );
        assert!(warnings[0].contains("1.000") && warnings[0].contains("0.000"));
    }

    #[test]
    fn balanced_drop_stays_silent() {
        use fairprep_trace::Tracer;
        // One incomplete row per two-row group: both drop rates are 0.5.
        let frame = DataFrame::new()
            .with_column(
                "age",
                Column::from_optional_f64([None, None, Some(40.0), Some(50.0)]),
            )
            .unwrap()
            .with_column("g", Column::from_strs(["a", "b", "a", "b"]))
            .unwrap()
            .with_column("y", Column::from_strs(["p", "n", "p", "n"]))
            .unwrap();
        let schema = Schema::new()
            .numeric_feature("age")
            .metadata("g", ColumnKind::Categorical)
            .label("y");
        let ds = BinaryLabelDataset::new(
            frame,
            schema,
            ProtectedAttribute::categorical("g", &["a"]),
            "p",
        )
        .unwrap();
        let tracer = Tracer::enabled();
        let fitted = CompleteCaseAnalysis.fit(&ds, 0).unwrap();
        fitted.handle_missing_traced(&ds, &tracer).unwrap();
        assert!(tracer.warnings().is_empty());
    }

    #[test]
    fn names() {
        assert_eq!(CompleteCaseAnalysis.name(), "complete_case_analysis");
        assert_eq!(ModeImputer.name(), "mode_imputation");
        assert_eq!(MeanModeImputer.name(), "mean_mode_imputation");
    }

    /// Every shipped handler seals, reloads through the serialize → parse
    /// cycle, and produces an identical completed dataset.
    #[test]
    fn handlers_seal_and_unseal_identically() {
        let ds = dataset_with_missing();
        let handlers: Vec<Box<dyn MissingValueHandler>> = vec![
            Box::new(CompleteCaseAnalysis),
            Box::new(ModeImputer),
            Box::new(MeanModeImputer),
            Box::new(ModelBasedImputer::default()),
        ];
        for handler in handlers {
            let fitted = handler.fit(&ds, 11).unwrap();
            let sealed = fitted.seal().unwrap();
            let reparsed = fairprep_trace::json::parse(&sealed.to_json()).unwrap();
            let reloaded = unseal_handler(&reparsed).unwrap();
            assert_eq!(
                reloaded.removes_records(),
                fitted.removes_records(),
                "{}",
                handler.name()
            );
            let a = fitted.handle_missing(&ds).unwrap();
            let b = reloaded.handle_missing(&ds).unwrap();
            assert_eq!(a, b, "{} drifted through seal/unseal", handler.name());
        }
    }

    #[test]
    fn unseal_handler_rejects_unknown_and_malformed_records() {
        use fairprep_ml::matrix::Matrix;
        use fairprep_ml::model::{Classifier, DecisionTree};

        let unknown = obj(vec![("kind", Json::Str("quantile_fill".into()))]);
        assert!(matches!(
            unseal_handler(&unknown).map(|_| ()).unwrap_err(),
            Error::Seal(_)
        ));
        // fill record with a broken value entry
        let broken = obj(vec![
            ("kind", Json::Str("fill".into())),
            (
                "fills",
                Json::Arr(vec![obj(vec![("name", Json::Str("age".into()))])]),
            ),
        ]);
        assert!(matches!(
            unseal_handler(&broken).map(|_| ()).unwrap_err(),
            Error::Seal(_)
        ));

        // A model-based record imputing `job` from one numeric input (`age`)
        // with the given one-vs-rest members.
        let model_based = |members: Vec<Json>| {
            let categories = ["clerk", "chef"][..members.len()]
                .iter()
                .map(|c| Json::Str((*c).into()))
                .collect();
            let encoding = obj(vec![("mean", Json::bits(40.0)), ("std", Json::bits(20.0))]);
            let input = obj(vec![
                ("name", Json::Str("age".into())),
                ("encoding", obj(vec![("num", encoding)])),
            ]);
            let record = obj(vec![
                ("target", Json::Str("job".into())),
                ("inputs", Json::Arr(vec![input])),
                (
                    "model",
                    obj(vec![
                        ("categories", Json::Arr(categories)),
                        ("models", Json::Arr(members)),
                    ]),
                ),
            ]);
            obj(vec![
                ("kind", Json::Str(model_based::KIND.into())),
                ("models", Json::Arr(vec![record])),
                ("fallback", Json::Arr(vec![])),
            ])
        };
        let logistic = |weights: &[f64]| {
            obj(vec![
                ("kind", Json::Str("logistic".into())),
                ("weights", Json::bits_vec(weights)),
                ("intercept", Json::bits(0.0)),
            ])
        };
        let valid = unseal_handler(&model_based(vec![logistic(&[1.0]), logistic(&[-1.0])]))
            .unwrap()
            .handle_missing(&dataset_with_missing())
            .unwrap();
        assert_eq!(valid.frame().column("job").unwrap().missing_count(), 0);

        let x = Matrix::from_rows(&[vec![0.0], vec![1.0]]).unwrap();
        let tree = DecisionTree::default()
            .fit(&x, &[0.0, 1.0], &[1.0; 2], 0)
            .unwrap()
            .seal()
            .unwrap();
        let hostile = [
            ("no categories or models", vec![]),
            (
                "a member that is not logistic",
                vec![logistic(&[1.0]), tree],
            ),
            ("weights wider than the input", vec![logistic(&[1.0, 2.0])]),
        ];
        for (case, members) in hostile {
            let err = unseal_handler(&model_based(members)).map(|_| ());
            assert!(matches!(err, Err(Error::Seal(_))), "{case}: {err:?}");
        }
    }
}
