//! Learner adapters: the bridge between the lifecycle and the model zoo.
//!
//! "FairPrep exposes a simple interface for learning algorithms, to allow
//! the integration of many different models with low effort. The
//! `fit_model` method of a learner provides the implementation with access
//! to the training data and the random seed used by the current run" (§4).
//!
//! A [`Learner`] receives the featurized training matrix *and* the
//! annotated training dataset (labels, instance weights, protected-group
//! mask), so that both plain baselines and in-processing interventions fit
//! the same interface — exactly how the paper integrates scikit-learn
//! baselines and AIF360's adversarial debiasing side by side.

use fairprep_data::dataset::BinaryLabelDataset;
use fairprep_data::error::Result;
use fairprep_fairness::inprocess::InProcessor;
use fairprep_ml::matrix::Matrix;
use fairprep_ml::model::{
    Classifier, DecisionTree, FittedClassifier, GaussianNaiveBayes, LogisticRegressionSgd,
    RandomForest,
};
use fairprep_ml::selection::{
    decision_tree_grid, logistic_regression_grid, GridSearchCv, RandomizedSearchCv,
};
use fairprep_trace::Tracer;

/// A learning algorithm pluggable into the lifecycle.
pub trait Learner: Send + Sync {
    /// Stable name (with variant) for run metadata.
    fn name(&self) -> String;

    /// Trains a model on the featurized training data. `train` carries the
    /// labels, instance weights (possibly reweighed), and the
    /// protected-group mask; `seed` drives all randomness.
    fn fit_model(
        &self,
        x: &Matrix,
        train: &BinaryLabelDataset,
        seed: u64,
    ) -> Result<Box<dyn FittedClassifier>>;

    /// Like [`fit_model`](Learner::fit_model), with a worker-thread budget
    /// for learners that parallelize internally (cross-validated searches)
    /// and a `tracer` for their tuning spans and counters. Results are
    /// bit-identical at every budget. Learners that cross-validate
    /// internally override this to call their search's traced entry point;
    /// the default ignores both and runs sequentially, so plain learners
    /// need no changes.
    fn fit_model_traced(
        &self,
        x: &Matrix,
        train: &BinaryLabelDataset,
        seed: u64,
        threads: usize,
        tracer: &Tracer,
    ) -> Result<Box<dyn FittedClassifier>> {
        let _ = (threads, tracer);
        self.fit_model(x, train, seed)
    }
}

/// Baseline logistic regression, in the paper's two §5.1 variants:
/// untuned (library defaults) or tuned via 5-fold cross-validated grid
/// search over the §4 grid (3 penalties × 4 alphas).
#[derive(Debug, Clone, Copy)]
pub struct LogisticRegressionLearner {
    /// `true` = grid search + 5-fold CV; `false` = default hyperparameters.
    pub tuned: bool,
}

impl Learner for LogisticRegressionLearner {
    fn name(&self) -> String {
        format!(
            "logistic_regression({})",
            if self.tuned { "tuned" } else { "default" }
        )
    }

    fn fit_model(
        &self,
        x: &Matrix,
        train: &BinaryLabelDataset,
        seed: u64,
    ) -> Result<Box<dyn FittedClassifier>> {
        self.fit_model_traced(x, train, seed, 1, &Tracer::disabled())
    }

    fn fit_model_traced(
        &self,
        x: &Matrix,
        train: &BinaryLabelDataset,
        seed: u64,
        threads: usize,
        tracer: &Tracer,
    ) -> Result<Box<dyn FittedClassifier>> {
        let weights = train.instance_weights();
        if self.tuned {
            let outcome = GridSearchCv::new(5).with_threads(threads).search_traced(
                &logistic_regression_grid(),
                x,
                train.labels(),
                weights,
                seed,
                tracer,
            )?;
            Ok(outcome.best_model)
        } else {
            LogisticRegressionSgd::default().fit(x, train.labels(), weights, seed)
        }
    }
}

/// Baseline decision tree (untuned or tuned over the §5.1 grid:
/// 2 criteria × 3 depths × 4 min-leaf × 3 min-split).
#[derive(Debug, Clone, Copy)]
pub struct DecisionTreeLearner {
    /// `true` = grid search + 5-fold CV; `false` = default hyperparameters.
    pub tuned: bool,
}

impl Learner for DecisionTreeLearner {
    fn name(&self) -> String {
        format!(
            "decision_tree({})",
            if self.tuned { "tuned" } else { "default" }
        )
    }

    fn fit_model(
        &self,
        x: &Matrix,
        train: &BinaryLabelDataset,
        seed: u64,
    ) -> Result<Box<dyn FittedClassifier>> {
        self.fit_model_traced(x, train, seed, 1, &Tracer::disabled())
    }

    fn fit_model_traced(
        &self,
        x: &Matrix,
        train: &BinaryLabelDataset,
        seed: u64,
        threads: usize,
        tracer: &Tracer,
    ) -> Result<Box<dyn FittedClassifier>> {
        let weights = train.instance_weights();
        if self.tuned {
            let outcome = GridSearchCv::new(5).with_threads(threads).search_traced(
                &decision_tree_grid(),
                x,
                train.labels(),
                weights,
                seed,
                tracer,
            )?;
            Ok(outcome.best_model)
        } else {
            DecisionTree::default().fit(x, train.labels(), weights, seed)
        }
    }
}

/// Budget-limited decision tree: randomized search over the §5.1 grid,
/// cross-validating only `n_iter` sampled candidates instead of all 72 —
/// the cheap middle ground between untuned and fully-tuned baselines.
#[derive(Debug, Clone, Copy)]
pub struct RandomizedDecisionTreeLearner {
    /// Number of grid candidates to sample.
    pub n_iter: usize,
}

impl Learner for RandomizedDecisionTreeLearner {
    fn name(&self) -> String {
        format!("decision_tree(randomized:{})", self.n_iter)
    }

    fn fit_model(
        &self,
        x: &Matrix,
        train: &BinaryLabelDataset,
        seed: u64,
    ) -> Result<Box<dyn FittedClassifier>> {
        self.fit_model_traced(x, train, seed, 1, &Tracer::disabled())
    }

    fn fit_model_traced(
        &self,
        x: &Matrix,
        train: &BinaryLabelDataset,
        seed: u64,
        threads: usize,
        tracer: &Tracer,
    ) -> Result<Box<dyn FittedClassifier>> {
        let outcome = RandomizedSearchCv::new(5, self.n_iter)
            .with_threads(threads)
            .search_traced(
                &decision_tree_grid(),
                x,
                train.labels(),
                train.instance_weights(),
                seed,
                tracer,
            )?;
        Ok(outcome.best_model)
    }
}

/// Gaussian naive Bayes baseline (extension model).
#[derive(Debug, Clone, Copy, Default)]
pub struct NaiveBayesLearner;

impl Learner for NaiveBayesLearner {
    fn name(&self) -> String {
        "gaussian_naive_bayes".to_string()
    }

    fn fit_model(
        &self,
        x: &Matrix,
        train: &BinaryLabelDataset,
        seed: u64,
    ) -> Result<Box<dyn FittedClassifier>> {
        GaussianNaiveBayes::default().fit(x, train.labels(), train.instance_weights(), seed)
    }
}

/// Random-forest baseline (extension model; paper future work §7).
#[derive(Debug, Clone, Copy, Default)]
pub struct RandomForestLearner {
    /// Forest configuration (`Default` = 50 trees, sqrt features).
    pub config: fairprep_ml::model::RandomForestConfig,
}

impl Learner for RandomForestLearner {
    fn name(&self) -> String {
        format!("random_forest(n_trees={})", self.config.n_trees)
    }

    fn fit_model(
        &self,
        x: &Matrix,
        train: &BinaryLabelDataset,
        seed: u64,
    ) -> Result<Box<dyn FittedClassifier>> {
        RandomForest::new(self.config).fit(x, train.labels(), train.instance_weights(), seed)
    }
}

/// Adapter integrating any in-processing fairness intervention as a learner
/// — the paper's `AdversarialDebiasing(Learner)` pattern (§4).
pub struct InProcessLearner<T: InProcessor> {
    /// The wrapped fairness-aware algorithm.
    pub inner: T,
}

impl<T: InProcessor> InProcessLearner<T> {
    /// Wraps an in-processor.
    pub fn new(inner: T) -> Self {
        InProcessLearner { inner }
    }
}

impl<T: InProcessor> Learner for InProcessLearner<T> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn fit_model(
        &self,
        x: &Matrix,
        train: &BinaryLabelDataset,
        seed: u64,
    ) -> Result<Box<dyn FittedClassifier>> {
        self.inner.fit(
            x,
            train.labels(),
            train.instance_weights(),
            train.privileged_mask(),
            seed,
        )
    }
}

/// Adapter turning any plain `fairprep_ml` classifier configuration into a
/// lifecycle learner (for custom user models).
pub struct ClassifierLearner<C: Classifier> {
    /// The wrapped classifier configuration.
    pub inner: C,
}

impl<C: Classifier> ClassifierLearner<C> {
    /// Wraps a classifier.
    pub fn new(inner: C) -> Self {
        ClassifierLearner { inner }
    }
}

impl<C: Classifier> Learner for ClassifierLearner<C> {
    fn name(&self) -> String {
        self.inner.name().to_string()
    }

    fn fit_model(
        &self,
        x: &Matrix,
        train: &BinaryLabelDataset,
        seed: u64,
    ) -> Result<Box<dyn FittedClassifier>> {
        self.inner
            .fit(x, train.labels(), train.instance_weights(), seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairprep_datasets::generate_german;
    use fairprep_fairness::inprocess::AdversarialDebiasing;
    use fairprep_ml::transform::{FittedFeaturizer, ScalerSpec};

    fn featurized() -> (Matrix, BinaryLabelDataset) {
        let ds = generate_german(200, 5).unwrap();
        let f = FittedFeaturizer::fit(&ds, ScalerSpec::Standard).unwrap();
        let x = f.transform(&ds).unwrap();
        (x, ds)
    }

    #[test]
    fn untuned_learners_fit_and_predict() {
        let (x, ds) = featurized();
        for learner in [
            Box::new(LogisticRegressionLearner { tuned: false }) as Box<dyn Learner>,
            Box::new(DecisionTreeLearner { tuned: false }),
            Box::new(NaiveBayesLearner),
        ] {
            let model = learner.fit_model(&x, &ds, 7).unwrap();
            let preds = model.predict(&x).unwrap();
            assert_eq!(preds.len(), 200, "{}", learner.name());
            let acc = preds
                .iter()
                .zip(ds.labels())
                .filter(|(p, t)| p == t)
                .count() as f64
                / 200.0;
            assert!(acc > 0.55, "{} accuracy {acc}", learner.name());
        }
    }

    #[test]
    fn tuned_logistic_regression_runs_grid_search() {
        let (x, ds) = featurized();
        let model = LogisticRegressionLearner { tuned: true }
            .fit_model(&x, &ds, 5)
            .unwrap();
        let preds = model.predict(&x).unwrap();
        let acc = preds
            .iter()
            .zip(ds.labels())
            .filter(|(p, t)| p == t)
            .count() as f64
            / 200.0;
        assert!(acc > 0.6, "tuned LR accuracy {acc}");
    }

    #[test]
    fn inprocess_adapter_passes_the_group_mask() {
        let (x, ds) = featurized();
        let learner = InProcessLearner::new(AdversarialDebiasing::default());
        let model = learner.fit_model(&x, &ds, 2).unwrap();
        assert_eq!(model.predict(&x).unwrap().len(), 200);
        assert!(learner.name().contains("adversarial"));
    }

    #[test]
    fn classifier_adapter_works() {
        let (x, ds) = featurized();
        let learner = ClassifierLearner::new(DecisionTree::default());
        let model = learner.fit_model(&x, &ds, 2).unwrap();
        assert_eq!(model.predict(&x).unwrap().len(), 200);
        assert_eq!(learner.name(), "decision_tree");
    }

    #[test]
    fn names_distinguish_variants() {
        assert_ne!(
            LogisticRegressionLearner { tuned: true }.name(),
            LogisticRegressionLearner { tuned: false }.name()
        );
        assert_ne!(
            DecisionTreeLearner { tuned: true }.name(),
            DecisionTreeLearner { tuned: false }.name()
        );
    }
}

#[cfg(test)]
mod randomized_learner_tests {
    use super::*;
    use fairprep_datasets::generate_german;
    use fairprep_ml::transform::{FittedFeaturizer, ScalerSpec};

    #[test]
    fn randomized_tree_learner_fits() {
        let ds = generate_german(250, 6).unwrap();
        let f = FittedFeaturizer::fit(&ds, ScalerSpec::Standard).unwrap();
        let x = f.transform(&ds).unwrap();
        let learner = RandomizedDecisionTreeLearner { n_iter: 8 };
        let model = learner.fit_model(&x, &ds, 4).unwrap();
        let preds = model.predict(&x).unwrap();
        let acc = preds
            .iter()
            .zip(ds.labels())
            .filter(|(p, t)| p == t)
            .count() as f64
            / 250.0;
        assert!(acc > 0.6, "accuracy {acc}");
        assert_eq!(learner.name(), "decision_tree(randomized:8)");
    }
}
