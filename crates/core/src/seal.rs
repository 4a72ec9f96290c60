//! Sealed pipelines: canonical, versioned artifacts of a fitted chain.
//!
//! A [`SealedPipeline`] freezes everything phase 3 needs to score unseen
//! rows — the fitted missing-value handler, preprocessor, featurizer,
//! model, and (optional) postprocessor of the selected candidate — plus
//! the dataset contract (schema, protected attribute, favorable label)
//! and a [`DatasetProfile`] of the raw training partition. The artifact is
//! content-addressed by the same FNV-1a fingerprint scheme the sweep
//! journal uses ([`crate::journal::config_fingerprint`]), serialized as
//! canonical JSON with every `f64` written as its IEEE-754 bit pattern,
//! so `save → load → predict` is **byte-for-byte identical** to the
//! in-process pipeline — including NaN payloads and the seeded RNG
//! streams of randomized postprocessors.
//!
//! Corrupted, truncated, or version-skewed artifacts surface as
//! [`Error::Seal`] — loading a damaged pipeline must never panic, because
//! a scoring service does it on untrusted disk state at request time.

use std::path::{Path, PathBuf};

use fairprep_data::column::ColumnKind;
use fairprep_data::dataset::BinaryLabelDataset;
use fairprep_data::error::{Error, Result};
use fairprep_data::frame::DataFrame;
use fairprep_data::profile::{
    ColumnProfile, DatasetProfile, GroupLabelTable, QUANTILE_POINTS, TOP_K,
};
use fairprep_data::schema::{GroupSpec, ProtectedAttribute, Role, Schema};
use fairprep_fairness::postprocess::FittedPostprocessor;
use fairprep_fairness::preprocess::FittedPreprocessor;
use fairprep_impute::FittedMissingValueHandler;
use fairprep_ml::model::FittedClassifier;
use fairprep_ml::sealing;
use fairprep_ml::transform::FittedFeaturizer;
use fairprep_trace::json::{obj, parse, Value};

/// Version tag written into every sealed artifact. Bumped when the layout
/// changes incompatibly; [`SealedPipeline::from_value`] refuses versions
/// it does not understand instead of misreading them.
pub const SEAL_SCHEMA_VERSION: u64 = 1;

/// One row's scoring outcome from [`SealedPipeline::score_frame`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoredRow {
    /// Whether the row belongs to the privileged group.
    pub privileged: bool,
    /// Model score in `[0, 1]`; `None` when the row was dropped before
    /// scoring (complete-case analysis on an incomplete row).
    pub score: Option<f64>,
    /// Hard decision (0/1) after post-processing; `None` iff `score` is.
    pub decision: Option<f64>,
}

impl ScoredRow {
    /// True when the pipeline refused to score the row (complete-case
    /// analysis dropped it).
    #[must_use]
    pub fn dropped(&self) -> bool {
        self.score.is_none()
    }
}

/// The frozen, serializable form of one fitted lifecycle chain.
pub struct SealedPipeline {
    /// Content address: `fnv1a64:<16 hex digits>` over the sealed
    /// configuration descriptor (experiment, seed, every component name,
    /// and the selected learner).
    pub fingerprint: String,
    /// Experiment name the pipeline was fitted under.
    pub experiment: String,
    /// Master seed of the run.
    pub seed: u64,
    /// Name of the selected candidate learner.
    pub learner: String,
    /// Profile of the raw training partition, the drift baseline a
    /// scoring service compares live traffic against.
    pub train_profile: DatasetProfile,
    pub(crate) schema: Schema,
    pub(crate) protected: ProtectedAttribute,
    pub(crate) favorable_label: String,
    pub(crate) missing_handler: Box<dyn FittedMissingValueHandler>,
    pub(crate) preprocessor: Box<dyn FittedPreprocessor>,
    pub(crate) featurizer: FittedFeaturizer,
    pub(crate) model: Box<dyn FittedClassifier>,
    pub(crate) postprocessor: Option<Box<dyn FittedPostprocessor>>,
}

impl SealedPipeline {
    /// The dataset schema requests must conform to.
    #[must_use]
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The protected attribute and its privileged-group definition.
    #[must_use]
    pub fn protected(&self) -> &ProtectedAttribute {
        &self.protected
    }

    /// The favorable label category.
    #[must_use]
    pub fn favorable_label(&self) -> &str {
        &self.favorable_label
    }

    /// File name a pipeline with this fingerprint is stored under
    /// (`:` is not portable in file names, so it becomes `-`).
    #[must_use]
    pub fn file_name(fingerprint: &str) -> String {
        format!("{}.json", fingerprint.replace(':', "-"))
    }

    /// Serializes the pipeline into its canonical JSON value. Fails with
    /// [`Error::Seal`] when a configured component does not support
    /// sealing (experimental interventions opt out explicitly).
    pub fn to_value(&self) -> Result<Value> {
        Ok(obj(vec![
            ("schema_version", Value::from_u64(SEAL_SCHEMA_VERSION)),
            ("fingerprint", Value::Str(self.fingerprint.clone())),
            ("experiment", Value::Str(self.experiment.clone())),
            ("seed", Value::from_u64(self.seed)),
            ("learner", Value::Str(self.learner.clone())),
            ("schema", seal_schema(&self.schema)),
            ("protected", seal_protected(&self.protected)),
            ("favorable_label", Value::Str(self.favorable_label.clone())),
            ("missing_handler", self.missing_handler.seal()?),
            ("preprocessor", self.preprocessor.seal()?),
            ("featurizer", self.featurizer.seal()),
            ("model", self.model.seal()?),
            (
                "postprocessor",
                match &self.postprocessor {
                    Some(post) => post.seal()?,
                    None => Value::Null,
                },
            ),
            ("train_profile", seal_profile(&self.train_profile)),
        ]))
    }

    /// Reconstructs a pipeline from its canonical JSON value, validating
    /// the version tag and every component record. All failures are typed
    /// [`Error::Seal`]s; this function never panics on malformed input.
    pub fn from_value(v: &Value) -> Result<SealedPipeline> {
        let version = sealing::req_u64(v, "schema_version")?;
        if version != SEAL_SCHEMA_VERSION {
            return Err(Error::Seal(format!(
                "sealed-pipeline schema version {version} is not supported \
                 (this build reads version {SEAL_SCHEMA_VERSION})"
            )));
        }
        let schema = unseal_schema(sealing::req(v, "schema")?)?;
        schema
            .validate()
            .map_err(|e| Error::Seal(format!("sealed schema is inconsistent: {e}")))?;
        let postprocessor = match sealing::req(v, "postprocessor")? {
            Value::Null => None,
            record => Some(fairprep_fairness::postprocess::unseal_postprocessor(
                record,
            )?),
        };
        Ok(SealedPipeline {
            fingerprint: sealing::req_str(v, "fingerprint")?.to_string(),
            experiment: sealing::req_str(v, "experiment")?.to_string(),
            seed: sealing::req_u64(v, "seed")?,
            learner: sealing::req_str(v, "learner")?.to_string(),
            train_profile: unseal_profile(sealing::req(v, "train_profile")?)?,
            schema,
            protected: unseal_protected(sealing::req(v, "protected")?)?,
            favorable_label: sealing::req_str(v, "favorable_label")?.to_string(),
            missing_handler: fairprep_impute::unseal_handler(sealing::req(v, "missing_handler")?)?,
            preprocessor: fairprep_fairness::preprocess::unseal_preprocessor(sealing::req(
                v,
                "preprocessor",
            )?)?,
            featurizer: FittedFeaturizer::unseal(sealing::req(v, "featurizer")?)?,
            // The fairness-level dispatcher is a superset of the ml one:
            // it also reads LFR records.
            model: fairprep_fairness::inprocess::unseal_classifier(sealing::req(v, "model")?)?,
            postprocessor,
        })
    }

    /// Writes the artifact into `dir` under its fingerprint-derived file
    /// name and returns the path.
    pub fn save(&self, dir: &Path) -> Result<PathBuf> {
        std::fs::create_dir_all(dir)
            .map_err(|e| Error::Io(format!("creating registry {}: {e}", dir.display())))?;
        let path = dir.join(Self::file_name(&self.fingerprint));
        let text = self.to_value()?.to_json();
        std::fs::write(&path, text)
            .map_err(|e| Error::Io(format!("writing {}: {e}", path.display())))?;
        Ok(path)
    }

    /// Loads an artifact from disk. Unreadable files, malformed JSON, and
    /// damaged component records all surface as [`Error::Seal`].
    pub fn load(path: &Path) -> Result<SealedPipeline> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| Error::Seal(format!("cannot read {}: {e}", path.display())))?;
        let value = parse(&text)
            .map_err(|e| Error::Seal(format!("malformed artifact {}: {e}", path.display())))?;
        SealedPipeline::from_value(&value)
    }

    /// Scores a batch of request rows: the frame must carry every feature
    /// column of the sealed schema (the label is synthesized). Replays the
    /// frozen chain exactly as phase 3 does — missing-value handling with
    /// training statistics, feature repair, featurization, batched model
    /// scoring, post-processing — and maps the results back onto the input
    /// rows, marking rows a complete-case handler dropped.
    pub fn score_frame(&self, frame: DataFrame) -> Result<Vec<ScoredRow>> {
        let dataset = BinaryLabelDataset::for_inference(
            frame,
            self.schema.clone(),
            self.protected.clone(),
            &self.favorable_label,
        )?;
        let privileged_all = dataset.privileged_mask().to_vec();
        let incomplete: Vec<bool> = (0..dataset.n_rows())
            .map(|i| dataset.frame().row_has_missing(i))
            .collect();
        if self.missing_handler.removes_records() && incomplete.iter().all(|&i| i) {
            // Handlers are free to reject an all-incomplete batch outright
            // (training treats an emptied partition as an error), but a
            // serving batch of only-incomplete rows is a legitimate
            // request: every row simply comes back dropped.
            return Ok(privileged_all
                .iter()
                .map(|&p| ScoredRow {
                    privileged: p,
                    score: None,
                    decision: None,
                })
                .collect());
        }
        let completed = self.missing_handler.handle_missing(&dataset)?;
        if completed.n_rows() == 0 {
            // Every row was incomplete and the handler drops records; there
            // is nothing to run through the model.
            return Ok(privileged_all
                .iter()
                .map(|&p| ScoredRow {
                    privileged: p,
                    score: None,
                    decision: None,
                })
                .collect());
        }
        let repaired = self.preprocessor.transform_eval(&completed)?;
        let x = self.featurizer.transform(&repaired)?;
        let scores = self.model.predict_proba(&x)?;
        let kept_privileged = repaired.privileged_mask();
        let decisions = match &self.postprocessor {
            Some(post) => post.adjust(&scores, kept_privileged)?,
            None => scores
                .iter()
                .map(|&s| f64::from(u8::from(s > 0.5)))
                .collect(),
        };

        if !self.missing_handler.removes_records() {
            if scores.len() != privileged_all.len() {
                return Err(Error::LengthMismatch {
                    expected: privileged_all.len(),
                    actual: scores.len(),
                });
            }
            return Ok(privileged_all
                .iter()
                .zip(scores.iter().zip(&decisions))
                .map(|(&p, (&s, &d))| ScoredRow {
                    privileged: p,
                    score: Some(s),
                    decision: Some(d),
                })
                .collect());
        }
        // Complete-case path: the handler removed incomplete rows; walk the
        // original rows and consume one scored result per complete row.
        let kept = incomplete.iter().filter(|&&inc| !inc).count();
        if scores.len() != kept {
            return Err(Error::LengthMismatch {
                expected: kept,
                actual: scores.len(),
            });
        }
        let mut next = 0usize;
        Ok(privileged_all
            .iter()
            .zip(&incomplete)
            .map(|(&p, &inc)| {
                if inc {
                    ScoredRow {
                        privileged: p,
                        score: None,
                        decision: None,
                    }
                } else {
                    let row = ScoredRow {
                        privileged: p,
                        score: Some(scores[next]),
                        decision: Some(decisions[next]),
                    };
                    next += 1;
                    row
                }
            })
            .collect())
    }
}

// ---------------------------------------------------------------------
// Schema / protected-attribute records
// ---------------------------------------------------------------------

fn role_tag(role: Role) -> &'static str {
    match role {
        Role::NumericFeature => "numeric_feature",
        Role::CategoricalFeature => "categorical_feature",
        Role::Label => "label",
        Role::Metadata => "metadata",
    }
}

fn kind_tag(kind: ColumnKind) -> &'static str {
    match kind {
        ColumnKind::Numeric => "numeric",
        ColumnKind::Categorical => "categorical",
    }
}

fn seal_schema(schema: &Schema) -> Value {
    Value::Arr(
        schema
            .fields()
            .iter()
            .map(|f| {
                obj(vec![
                    ("name", Value::Str(f.name.clone())),
                    ("kind", Value::Str(kind_tag(f.kind).to_string())),
                    ("role", Value::Str(role_tag(f.role).to_string())),
                ])
            })
            .collect(),
    )
}

fn unseal_schema(v: &Value) -> Result<Schema> {
    let Some(fields) = v.as_array() else {
        return Err(sealing::seal_err("schema record is not an array"));
    };
    let mut schema = Schema::new();
    for field in fields {
        let name = sealing::req_str(field, "name")?;
        let kind = match sealing::req_str(field, "kind")? {
            "numeric" => ColumnKind::Numeric,
            "categorical" => ColumnKind::Categorical,
            other => {
                return Err(sealing::seal_err(format!(
                    "unknown column kind {other:?} for field {name:?}"
                )))
            }
        };
        schema = match sealing::req_str(field, "role")? {
            "numeric_feature" => schema.numeric_feature(name),
            "categorical_feature" => schema.categorical_feature(name),
            "label" => schema.label(name),
            "metadata" => schema.metadata(name, kind),
            other => {
                return Err(sealing::seal_err(format!(
                    "unknown field role {other:?} for field {name:?}"
                )))
            }
        };
        // The builder fixes the kind for feature/label roles; a sealed
        // record disagreeing with it is corrupt, not a preference.
        let rebuilt = schema
            .fields()
            .last()
            .ok_or_else(|| sealing::seal_err("schema rebuild lost a field"))?;
        if rebuilt.kind != kind {
            return Err(sealing::seal_err(format!(
                "field {name:?} declares kind {:?} but its role implies {:?}",
                kind, rebuilt.kind
            )));
        }
    }
    Ok(schema)
}

fn seal_protected(p: &ProtectedAttribute) -> Value {
    let privileged = match &p.privileged {
        GroupSpec::CategoryIn(values) => obj(vec![
            ("kind", Value::Str("category_in".to_string())),
            (
                "values",
                Value::Arr(values.iter().map(|v| Value::Str(v.clone())).collect()),
            ),
        ]),
        GroupSpec::NumericAtLeast(threshold) => obj(vec![
            ("kind", Value::Str("numeric_at_least".to_string())),
            ("threshold", Value::bits(*threshold)),
        ]),
    };
    obj(vec![
        ("name", Value::Str(p.name.clone())),
        ("privileged", privileged),
    ])
}

fn unseal_protected(v: &Value) -> Result<ProtectedAttribute> {
    let spec = sealing::req(v, "privileged")?;
    let privileged = match sealing::kind_of(spec)? {
        "category_in" => GroupSpec::CategoryIn(sealing::req_str_vec(spec, "values")?),
        "numeric_at_least" => {
            let threshold = sealing::req_f64(spec, "threshold")?;
            if threshold.is_nan() {
                return Err(sealing::seal_err("NaN privileged-group threshold"));
            }
            GroupSpec::NumericAtLeast(threshold)
        }
        other => {
            return Err(sealing::seal_err(format!(
                "unknown privileged-group spec {other:?}"
            )))
        }
    };
    Ok(ProtectedAttribute {
        name: sealing::req_str(v, "name")?.to_string(),
        privileged,
    })
}

// ---------------------------------------------------------------------
// Dataset-profile records
// ---------------------------------------------------------------------

fn seal_column_profile(p: &ColumnProfile) -> Value {
    match p {
        ColumnProfile::Numeric {
            count,
            missing,
            mean,
            std_dev,
            min,
            max,
            quantiles,
        } => obj(vec![
            ("kind", Value::Str("numeric".to_string())),
            ("count", Value::from_u64(*count)),
            ("missing", Value::from_u64(*missing)),
            ("mean", Value::bits(*mean)),
            ("std_dev", Value::bits(*std_dev)),
            ("min", Value::bits(*min)),
            ("max", Value::bits(*max)),
            ("quantiles", Value::bits_vec(quantiles)),
        ]),
        ColumnProfile::Categorical {
            count,
            missing,
            cardinality,
            top,
        } => obj(vec![
            ("kind", Value::Str("categorical".to_string())),
            ("count", Value::from_u64(*count)),
            ("missing", Value::from_u64(*missing)),
            ("cardinality", Value::from_u64(*cardinality)),
            (
                "top",
                Value::Arr(
                    top.iter()
                        .map(|(name, n)| {
                            obj(vec![
                                ("value", Value::Str(name.clone())),
                                ("count", Value::from_u64(*n)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]),
    }
}

/// Reconstructs the sealed profile of column `name`. A categorical
/// profile holds at most [`TOP_K`] top categories whose counts sum to no
/// more than the column's count: the scoring service's drift baseline
/// sums them and gives each a bin.
fn unseal_column_profile(name: &str, v: &Value) -> Result<ColumnProfile> {
    match sealing::kind_of(v)? {
        "numeric" => {
            // All quantile points or none (an empty column): the scoring
            // service's drift baseline reads every point.
            let quantiles = sealing::req_f64_vec(v, "quantiles")?;
            if !quantiles.is_empty() && quantiles.len() != QUANTILE_POINTS {
                return Err(sealing::seal_err(format!(
                    "numeric profile has {} quantiles, expected {QUANTILE_POINTS} or none",
                    quantiles.len()
                )));
            }
            Ok(ColumnProfile::Numeric {
                count: sealing::req_u64(v, "count")?,
                missing: sealing::req_u64(v, "missing")?,
                mean: sealing::req_f64(v, "mean")?,
                std_dev: sealing::req_f64(v, "std_dev")?,
                min: sealing::req_f64(v, "min")?,
                max: sealing::req_f64(v, "max")?,
                quantiles,
            })
        }
        "categorical" => {
            let entries = sealing::req_arr(v, "top")?;
            if entries.len() > TOP_K {
                return Err(sealing::seal_err(format!(
                    "categorical profile of {name:?} has {} top categories, at most {TOP_K} allowed",
                    entries.len()
                )));
            }
            let mut top = Vec::new();
            for entry in entries {
                top.push((
                    sealing::req_str(entry, "value")?.to_string(),
                    sealing::req_u64(entry, "count")?,
                ));
            }
            let count = sealing::req_u64(v, "count")?;
            let covered = top.iter().try_fold(0u64, |sum, (_, n)| sum.checked_add(*n));
            if covered.is_none_or(|covered| covered > count) {
                return Err(sealing::seal_err(format!(
                    "categorical profile of {name:?} counts more top-category rows than its {count} rows"
                )));
            }
            Ok(ColumnProfile::Categorical {
                count,
                missing: sealing::req_u64(v, "missing")?,
                cardinality: sealing::req_u64(v, "cardinality")?,
                top,
            })
        }
        other => Err(sealing::seal_err(format!(
            "unknown column-profile kind {other:?}"
        ))),
    }
}

fn seal_profile(p: &DatasetProfile) -> Value {
    obj(vec![
        ("rows", Value::from_u64(p.rows)),
        (
            "columns",
            Value::Arr(
                p.columns
                    .iter()
                    .map(|(name, col)| {
                        obj(vec![
                            ("name", Value::Str(name.clone())),
                            ("profile", seal_column_profile(col)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "group_label",
            obj(vec![
                (
                    "privileged_favorable",
                    Value::from_u64(p.group_label.privileged_favorable),
                ),
                (
                    "privileged_unfavorable",
                    Value::from_u64(p.group_label.privileged_unfavorable),
                ),
                (
                    "unprivileged_favorable",
                    Value::from_u64(p.group_label.unprivileged_favorable),
                ),
                (
                    "unprivileged_unfavorable",
                    Value::from_u64(p.group_label.unprivileged_unfavorable),
                ),
            ]),
        ),
    ])
}

fn unseal_profile(v: &Value) -> Result<DatasetProfile> {
    let mut columns = Vec::new();
    for entry in sealing::req_arr(v, "columns")? {
        let name = sealing::req_str(entry, "name")?;
        let profile = unseal_column_profile(name, sealing::req(entry, "profile")?)?;
        columns.push((name.to_string(), profile));
    }
    let table = sealing::req(v, "group_label")?;
    Ok(DatasetProfile {
        rows: sealing::req_u64(v, "rows")?,
        columns,
        group_label: GroupLabelTable {
            privileged_favorable: sealing::req_u64(table, "privileged_favorable")?,
            privileged_unfavorable: sealing::req_u64(table, "privileged_unfavorable")?,
            unprivileged_favorable: sealing::req_u64(table, "unprivileged_favorable")?,
            unprivileged_unfavorable: sealing::req_u64(table, "unprivileged_unfavorable")?,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairprep_data::column::Column;

    fn sample_profile() -> DatasetProfile {
        DatasetProfile::compute(&sample_dataset(60))
    }

    fn sample_dataset(n: usize) -> BinaryLabelDataset {
        let frame = DataFrame::new()
            .with_column(
                "score",
                Column::from_optional_f64((0..n).map(|i| {
                    if i % 7 == 0 {
                        None
                    } else {
                        Some(i as f64 * 1.5)
                    }
                })),
            )
            .unwrap()
            .with_column(
                "sex",
                Column::from_strs((0..n).map(|i| if i % 2 == 0 { "m" } else { "f" })),
            )
            .unwrap()
            .with_column(
                "y",
                Column::from_strs((0..n).map(|i| if i % 3 == 0 { "yes" } else { "no" })),
            )
            .unwrap();
        let schema = Schema::new()
            .numeric_feature("score")
            .metadata("sex", ColumnKind::Categorical)
            .label("y");
        BinaryLabelDataset::new(
            frame,
            schema,
            ProtectedAttribute::categorical("sex", &["m"]),
            "yes",
        )
        .unwrap()
    }

    #[test]
    fn profile_roundtrips_bit_identically() {
        let profile = sample_profile();
        let sealed = seal_profile(&profile);
        let reparsed = parse(&sealed.to_json()).unwrap();
        assert_eq!(unseal_profile(&reparsed).unwrap(), profile);
    }

    #[test]
    fn schema_and_protected_roundtrip() {
        let ds = sample_dataset(20);
        let schema = parse(&seal_schema(ds.schema()).to_json()).unwrap();
        assert_eq!(&unseal_schema(&schema).unwrap(), ds.schema());
        let protected = parse(&seal_protected(ds.protected()).to_json()).unwrap();
        assert_eq!(&unseal_protected(&protected).unwrap(), ds.protected());
        let numeric = ProtectedAttribute {
            name: "age".to_string(),
            privileged: GroupSpec::NumericAtLeast(25.0),
        };
        let reparsed = parse(&seal_protected(&numeric).to_json()).unwrap();
        assert_eq!(unseal_protected(&reparsed).unwrap(), numeric);
    }

    #[test]
    fn malformed_records_are_typed_errors() {
        let bad_role = Value::Arr(vec![obj(vec![
            ("name", Value::Str("x".into())),
            ("kind", Value::Str("numeric".into())),
            ("role", Value::Str("target".into())),
        ])]);
        assert!(matches!(unseal_schema(&bad_role), Err(Error::Seal(_))));
        let bad_spec = obj(vec![
            ("name", Value::Str("sex".into())),
            (
                "privileged",
                obj(vec![("kind", Value::Str("regex".into()))]),
            ),
        ]);
        assert!(matches!(unseal_protected(&bad_spec), Err(Error::Seal(_))));
        let bad_profile = obj(vec![("rows", Value::from_u64(3))]);
        assert!(matches!(unseal_profile(&bad_profile), Err(Error::Seal(_))));
        // A quantile sketch one point short.
        let short = seal_column_profile(&ColumnProfile::Numeric {
            count: 3,
            missing: 0,
            mean: 1.0,
            std_dev: 0.5,
            min: 0.0,
            max: 2.0,
            quantiles: vec![1.0; QUANTILE_POINTS - 1],
        });
        assert!(matches!(
            unseal_column_profile("x", &short),
            Err(Error::Seal(msg)) if msg.contains("quantiles")
        ));
        // Categorical profiles: more than TOP_K top categories, counts
        // whose sum overflows, and counts whose sum exceeds the column's.
        let categorical = |count: u64, top: Vec<u64>| {
            seal_column_profile(&ColumnProfile::Categorical {
                count,
                missing: 0,
                cardinality: top.len() as u64,
                top: top
                    .into_iter()
                    .enumerate()
                    .map(|(i, n)| (format!("c{i}"), n))
                    .collect(),
            })
        };
        for (count, top) in [
            (100, vec![1; TOP_K + 1]),
            (u64::MAX, vec![u64::MAX, 1]),
            (10, vec![6, 5]),
        ] {
            assert!(matches!(
                unseal_column_profile("job", &categorical(count, top)),
                Err(Error::Seal(msg)) if msg.contains("\"job\"")
            ));
        }
        assert!(unseal_column_profile("job", &categorical(11, vec![6, 5])).is_ok());
        assert!(unseal_column_profile("job", &categorical(100, vec![1; TOP_K])).is_ok());
    }

    #[test]
    fn file_name_replaces_colons() {
        assert_eq!(
            SealedPipeline::file_name("fnv1a64:00ff"),
            "fnv1a64-00ff.json"
        );
    }
}
