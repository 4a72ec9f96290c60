//! The traced run's replay of one lifecycle run through the crates'
//! public functions.
//!
//! [`replay`] follows `crates/core/src/lifecycle.rs` step by step for a
//! single-candidate experiment (no resampling, random split, standard
//! scaler, max-validation-accuracy selection) with the same
//! `derive_seed` labels, so it reproduces `Experiment::run` and
//! `run_sealed` bit for bit; the crate's tests check that on every grid
//! configuration. Each call into a crate sits in its own span.

use fairprep_core::experiment::{MaxValidationAccuracy, ModelSelector};
use fairprep_core::journal::config_fingerprint;
use fairprep_core::results::CandidateEvaluation;
use fairprep_data::dataset::BinaryLabelDataset;
use fairprep_data::error::{Error, Result};
use fairprep_data::profile::DatasetProfile;
use fairprep_data::resample::{NoResampling, Resampler};
use fairprep_data::rng::derive_seed;
use fairprep_data::split::{train_val_test_split, SplitSpec};
use fairprep_fairness::metrics::{MetricsReport, ReportInputs};
use fairprep_fairness::postprocess::FittedPostprocessor;
use fairprep_fairness::preprocess::FittedPreprocessor;
use fairprep_impute::FittedMissingValueHandler;
use fairprep_ml::matrix::Matrix;
use fairprep_ml::model::FittedClassifier;
use fairprep_ml::transform::{FittedFeaturizer, ScalerSpec};
use fairprep_trace::{Counter, Tracer};

use crate::grid::{self, Config};
use crate::spans::Spans;

/// The fitted chain of the selected candidate.
pub struct Chain {
    pub missing_handler: Box<dyn FittedMissingValueHandler>,
    pub preprocessor: Box<dyn FittedPreprocessor>,
    pub featurizer: FittedFeaturizer,
    pub model: Box<dyn FittedClassifier>,
    pub postprocessor: Option<Box<dyn FittedPostprocessor>>,
}

pub struct Replayed {
    pub test_digest: String,
    /// The sealed fingerprint (`run_sealed` replays only).
    pub fingerprint: Option<String>,
    /// The raw-training-partition profile (`run_sealed` replays only).
    pub train_profile: Option<DatasetProfile>,
    pub chain: Chain,
    pub cells_imputed: u64,
    pub cv_fits: u64,
    pub fold_cache_hits: u64,
}

struct Evaluated {
    y_true: Vec<f64>,
    y_pred: Vec<f64>,
    scores: Vec<f64>,
    privileged: Vec<bool>,
    incomplete: Option<Vec<bool>>,
}

impl Evaluated {
    fn report(&self, spans: &mut Spans) -> Result<MetricsReport> {
        spans.time("fairness.metrics_ms", || {
            MetricsReport::compute(ReportInputs {
                y_true: &self.y_true,
                y_pred: &self.y_pred,
                scores: Some(&self.scores),
                privileged_mask: &self.privileged,
                incomplete_mask: self.incomplete.as_deref(),
            })
        })
    }
}

impl Chain {
    fn decide(&self, scores: &[f64], privileged: &[bool], spans: &mut Spans) -> Result<Vec<f64>> {
        match &self.postprocessor {
            Some(post) => spans.time("fairness.post_apply_ms", || post.adjust(scores, privileged)),
            None => Ok(scores
                .iter()
                .map(|&s| f64::from(u8::from(s > 0.5)))
                .collect()),
        }
    }

    /// Validation/test replay of the fitted chain.
    fn evaluate(
        &self,
        data: &BinaryLabelDataset,
        tracer: &Tracer,
        spans: &mut Spans,
    ) -> Result<Evaluated> {
        let incomplete_before: Vec<bool> = (0..data.n_rows())
            .map(|i| data.frame().row_has_missing(i))
            .collect();
        let completed = spans.time("impute.apply_ms", || {
            self.missing_handler.handle_missing(data)
        })?;
        let incomplete = (!self.missing_handler.removes_records()).then_some(incomplete_before);
        let repaired = spans.time("fairness.pre_apply_ms", || {
            self.preprocessor.transform_eval(&completed)
        })?;
        let x = spans.time("ml.featurize_apply_ms", || {
            self.featurizer.transform_traced(&repaired, tracer)
        })?;
        let scores = spans.time("ml.predict_ms", || self.model.predict_proba(&x))?;
        let privileged = repaired.privileged_mask().to_vec();
        let y_pred = self.decide(&scores, &privileged, spans)?;
        Ok(Evaluated {
            y_true: repaired.labels().to_vec(),
            y_pred,
            scores,
            privileged,
            incomplete,
        })
    }

    fn evaluate_train_view(
        &self,
        train: &BinaryLabelDataset,
        x_train: &Matrix,
        spans: &mut Spans,
    ) -> Result<Evaluated> {
        let scores = spans.time("ml.predict_ms", || self.model.predict_proba(x_train))?;
        let privileged = train.privileged_mask().to_vec();
        let y_pred = self.decide(&scores, &privileged, spans)?;
        Ok(Evaluated {
            y_true: train.labels().to_vec(),
            y_pred,
            scores,
            privileged,
            incomplete: None,
        })
    }
}

/// Replays one run of `config` on `data` (the experiment's master seed
/// is `seed`, its CV thread budget `threads`); with `seal`, also what
/// `run_sealed` adds: the raw-train profile and the fingerprint.
pub fn replay(
    config: &Config,
    experiment: &str,
    data: &BinaryLabelDataset,
    seed: u64,
    threads: usize,
    seal: bool,
    spans: &mut Spans,
) -> Result<Replayed> {
    let tracer = Tracer::enabled();
    let split = spans.time("data.split_ms", || {
        train_val_test_split(data, SplitSpec::paper_default(), seed)
    })?;
    let test = split.test;
    let test_incomplete: Vec<bool> = (0..test.n_rows())
        .map(|i| test.frame().row_has_missing(i))
        .collect();
    let raw_train = split.train;
    let raw_validation = split.validation;
    let resampled = spans.time("data.resample_ms", || {
        NoResampling.resample(&raw_train, derive_seed(seed, "resampler"))
    })?;

    let candidate_seed = derive_seed(seed, "candidate/0");
    let handler = config.missing_handler();
    let missing_handler = spans.time("impute.fit_ms", || {
        handler.fit_traced(
            &resampled,
            derive_seed(candidate_seed, "missing_handler"),
            &tracer,
        )
    })?;
    let completed_train = spans.time("impute.apply_ms", || {
        missing_handler.handle_missing_traced(&resampled, &tracer)
    })?;
    let pre = config.preprocessor();
    let preprocessor = spans.time("fairness.pre_fit_ms", || {
        pre.fit_traced(
            &completed_train,
            derive_seed(candidate_seed, "preprocessor"),
            &tracer,
        )
    })?;
    let train = spans.time("fairness.pre_apply_ms", || {
        preprocessor.transform_train(&completed_train)
    })?;
    let featurizer = spans.time("ml.featurize_fit_ms", || {
        FittedFeaturizer::fit(&train, ScalerSpec::Standard)
    })?;
    let x_train = spans.time("ml.featurize_apply_ms", || featurizer.transform(&train))?;
    let learner = config.learner();
    let model = spans.time("ml.train_ms", || {
        learner.fit_model_traced(
            &x_train,
            &train,
            derive_seed(candidate_seed, "learner"),
            threads,
            &tracer,
        )
    })?;

    let mut chain = Chain {
        missing_handler,
        preprocessor,
        featurizer,
        model,
        postprocessor: None,
    };
    let postprocessor = config.postprocessor();
    if let Some(post) = &postprocessor {
        let pre_post = chain.evaluate(&raw_validation, &tracer, spans)?;
        chain.postprocessor = Some(spans.time("fairness.post_fit_ms", || {
            post.fit_traced(
                &pre_post.scores,
                &pre_post.y_true,
                &pre_post.privileged,
                derive_seed(candidate_seed, "postprocessor"),
                &tracer,
            )
        })?);
    }

    let train_eval = chain.evaluate_train_view(&train, &x_train, spans)?;
    let val_eval = chain.evaluate(&raw_validation, &tracer, spans)?;
    let candidates = vec![CandidateEvaluation {
        learner: learner.name(),
        train_report: train_eval.report(spans)?,
        validation_report: val_eval.report(spans)?,
    }];
    let selected = MaxValidationAccuracy.select(&candidates);
    if selected != 0 {
        return Err(Error::Seal(format!("selector chose {selected} of 1")));
    }

    let mut test_eval = chain.evaluate(&test, &tracer, spans)?;
    if test_eval.incomplete.is_some() {
        test_eval.incomplete = Some(test_incomplete);
    }
    let test_report = test_eval.report(spans)?;

    let (fingerprint, train_profile) = if seal {
        let profile = spans.time("data.profile_ms", || DatasetProfile::compute(&raw_train));
        let descriptor = format!(
            "seal|experiment={experiment}|seed={seed}|resampler={}|missing={}|scaler={}|\
             preprocessor={}|postprocessor={}|learner={}",
            NoResampling.name(),
            handler.name(),
            ScalerSpec::Standard.name(),
            pre.name(),
            postprocessor
                .as_ref()
                .map_or_else(|| "none".to_string(), |p| p.name()),
            learner.name(),
        );
        (Some(config_fingerprint(&descriptor)), Some(profile))
    } else {
        (None, None)
    };

    Ok(Replayed {
        test_digest: grid::digest(&test_report),
        fingerprint,
        train_profile,
        chain,
        cells_imputed: tracer.counter(Counter::CellsImputed),
        cv_fits: tracer.counter(Counter::FoldsEvaluated),
        fold_cache_hits: tracer.counter(Counter::FoldCacheHits),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::{adult, experiment_seed, fig2_grid, fig4_grid, german};

    /// The replay matches `Experiment::run` (fig2) and `run_sealed`
    /// (fig4) bit for bit on every grid configuration at one seed.
    #[test]
    fn replay_reproduces_the_lifecycle_on_every_configuration() {
        let seed = experiment_seed(1);
        let german = german(1).unwrap();
        for config in fig2_grid() {
            let run = config
                .experiment("germancredit", german.clone(), seed, 2)
                .unwrap()
                .run()
                .unwrap();
            let mut spans = Spans::new(0);
            let replayed =
                replay(&config, "germancredit", &german, seed, 2, false, &mut spans).unwrap();
            assert_eq!(
                replayed.test_digest,
                grid::digest(&run.test_report),
                "{}",
                config.name()
            );
        }
        let adult = adult(1).unwrap();
        for config in fig4_grid() {
            let (run, sealed) = config
                .experiment("adult", adult.clone(), seed, 1)
                .unwrap()
                .run_sealed()
                .unwrap();
            let mut spans = Spans::new(0);
            let replayed = replay(&config, "adult", &adult, seed, 1, true, &mut spans).unwrap();
            assert_eq!(
                replayed.test_digest,
                grid::digest(&run.test_report),
                "{}",
                config.name()
            );
            assert_eq!(
                replayed.fingerprint.as_deref(),
                Some(sealed.fingerprint.as_str())
            );
            assert!(replayed.train_profile.as_ref() == Some(&sealed.train_profile));
        }
    }
}
