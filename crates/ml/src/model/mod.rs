//! Learning algorithms: the classifier interface and its implementations.
//!
//! FairPrep "exposes a simple interface for learning algorithms, to allow
//! the integration of many different models with low effort" (§4). A
//! [`Classifier`] receives the feature matrix, binary labels, per-instance
//! weights (so that reweighing-style interventions work with every model),
//! and the run's random seed (so that training is reproducible).

use fairprep_data::error::{Error, Result};

use crate::matrix::Matrix;

pub mod forest;
pub mod knn;
pub mod logistic;
pub mod naive_bayes;
pub mod tree;

pub use forest::{RandomForest, RandomForestConfig};
pub use knn::KNearestNeighbors;
pub use logistic::{LogisticRegressionConfig, LogisticRegressionSgd, Penalty};
pub use naive_bayes::GaussianNaiveBayes;
pub use tree::{DecisionTree, DecisionTreeConfig, PrunableTree, SplitCriterion};

/// An unfitted classifier configuration.
pub trait Classifier: Send + Sync {
    /// Stable algorithm name for run metadata.
    fn name(&self) -> &'static str;

    /// A short description of the configuration (hyperparameter values),
    /// used to label grid-search candidates.
    fn describe(&self) -> String;

    /// Trains on `(x, y)` with per-instance `weights`, deriving all
    /// randomness from `seed`.
    fn fit(
        &self,
        x: &Matrix,
        y: &[f64],
        weights: &[f64],
        seed: u64,
    ) -> Result<Box<dyn FittedClassifier>>;

    /// The configuration of a [`DecisionTree`] candidate, `None` for every
    /// other model. Cross-validated search uses it to fit tree candidates
    /// that differ only in depth and split-size limits from one tree per
    /// fold (see [`tree::PrunableTree::prune`]).
    fn tree_config(&self) -> Option<DecisionTreeConfig> {
        None
    }

    /// The configuration of a [`LogisticRegressionSgd`] candidate, `None`
    /// for every other model. Cross-validated search uses it to fit
    /// candidates that differ only in their penalty together, in blocks of
    /// [`logistic::BLOCK_WIDTH`] (see [`logistic::fit_block`]).
    fn logistic_config(&self) -> Option<LogisticRegressionConfig> {
        None
    }
}

/// A trained model.
pub trait FittedClassifier: Send + Sync {
    /// Probability of the favorable class for every row of `x`.
    fn predict_proba(&self, x: &Matrix) -> Result<Vec<f64>>;

    /// Hard predictions at the 0.5 threshold.
    fn predict(&self, x: &Matrix) -> Result<Vec<f64>> {
        Ok(self
            .predict_proba(x)?
            .into_iter()
            .map(|p| f64::from(u8::from(p > 0.5)))
            .collect())
    }

    /// Serializes the fitted model into a sealed-pipeline component
    /// record (a `"kind"`-tagged JSON object with bit-exact floats),
    /// reloadable via [`unseal_classifier`].
    ///
    /// The default refuses: test doubles and experimental models are
    /// usable in-process without being deployable, and the error names
    /// the gap instead of silently sealing an unservable pipeline.
    fn seal(&self) -> Result<fairprep_trace::json::Value> {
        Err(Error::Seal(
            "this classifier does not support sealing".to_string(),
        ))
    }
}

/// Reconstructs a fitted classifier from a sealed component record,
/// dispatching on its `"kind"` tag. The inverse of
/// [`FittedClassifier::seal`] for every model this crate ships.
pub fn unseal_classifier(v: &fairprep_trace::json::Value) -> Result<Box<dyn FittedClassifier>> {
    match crate::sealing::kind_of(v)? {
        logistic::KIND => Ok(Box::new(logistic::FittedLogisticRegression::unseal(v)?)),
        tree::KIND => Ok(Box::new(tree::FittedDecisionTree::unseal(v)?)),
        forest::KIND => Ok(Box::new(forest::FittedRandomForest::unseal(v)?)),
        knn::KIND => Ok(Box::new(knn::FittedKnn::unseal(v)?)),
        naive_bayes::KIND => Ok(Box::new(naive_bayes::FittedGaussianNb::unseal(v)?)),
        other => Err(Error::Seal(format!("unknown classifier kind {other:?}"))),
    }
}

/// Validates the common `(x, y, weights)` training inputs. Every
/// [`Classifier::fit`] implementation calls this first, so the provenance
/// leak guard here covers all models.
pub(crate) fn validate_training_inputs(x: &Matrix, y: &[f64], weights: &[f64]) -> Result<()> {
    fairprep_data::provenance::guard_fit(x.provenance(), "Classifier::fit");
    if x.n_rows() == 0 {
        return Err(Error::EmptyData("training matrix".to_string()));
    }
    if y.len() != x.n_rows() {
        return Err(Error::LengthMismatch {
            expected: x.n_rows(),
            actual: y.len(),
        });
    }
    if weights.len() != x.n_rows() {
        return Err(Error::LengthMismatch {
            expected: x.n_rows(),
            actual: weights.len(),
        });
    }
    // audit: allow(float-eq, reason = "label validity means exactly 0.0 or 1.0; approximate comparison would accept bad labels")
    if let Some(bad) = y.iter().find(|v| **v != 0.0 && **v != 1.0) {
        return Err(Error::InvalidLabel(*bad));
    }
    if weights.iter().any(|w| !w.is_finite() || *w < 0.0) {
        return Err(Error::InvalidParameter {
            name: "weights",
            message: "weights must be finite and non-negative".to_string(),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    struct ConstantModel(f64);
    impl FittedClassifier for ConstantModel {
        fn predict_proba(&self, x: &Matrix) -> Result<Vec<f64>> {
            Ok(vec![self.0; x.n_rows()])
        }
    }

    #[test]
    fn default_predict_thresholds_at_half() {
        let x = Matrix::zeros(3, 1);
        assert_eq!(ConstantModel(0.7).predict(&x).unwrap(), vec![1.0, 1.0, 1.0]);
        assert_eq!(ConstantModel(0.5).predict(&x).unwrap(), vec![0.0, 0.0, 0.0]);
        assert_eq!(ConstantModel(0.2).predict(&x).unwrap(), vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn input_validation() {
        let x = Matrix::zeros(2, 1);
        assert!(validate_training_inputs(&x, &[0.0, 1.0], &[1.0, 1.0]).is_ok());
        assert!(validate_training_inputs(&x, &[0.0], &[1.0, 1.0]).is_err());
        assert!(validate_training_inputs(&x, &[0.0, 2.0], &[1.0, 1.0]).is_err());
        assert!(validate_training_inputs(&x, &[0.0, 1.0], &[1.0, -1.0]).is_err());
        assert!(validate_training_inputs(&Matrix::zeros(0, 1), &[], &[]).is_err());
    }

    #[test]
    fn unsealable_models_report_a_typed_error() {
        let err = ConstantModel(0.5).seal().unwrap_err();
        assert!(matches!(err, Error::Seal(_)), "{err}");
    }

    /// Every shipped model seals, unseals via the dispatcher, and then
    /// predicts **bit-identically** on data it has never seen.
    #[test]
    fn every_model_seals_and_unseals_bit_identically() {
        let rows: Vec<Vec<f64>> = (0..40)
            .map(|i| {
                vec![
                    f64::from(u8::from(i % 2 == 0)) + (i % 7) as f64 * 0.03,
                    ((i * 5) % 11) as f64 * 0.2,
                    ((i * 3) % 13) as f64 * -0.1,
                ]
            })
            .collect();
        let x = Matrix::from_rows(&rows).unwrap();
        let y: Vec<f64> = (0..40).map(|i| f64::from(u8::from(i % 2 == 0))).collect();
        let w = vec![1.0; 40];
        let probe_rows: Vec<Vec<f64>> = (0..9)
            .map(|i| vec![(i as f64) * 0.37 - 1.0, (i as f64) * 0.11, 0.5 - i as f64])
            .collect();
        let probe = Matrix::from_rows(&probe_rows).unwrap();

        let learners: Vec<Box<dyn Classifier>> = vec![
            Box::new(LogisticRegressionSgd::default()),
            Box::new(DecisionTree::default()),
            Box::new(RandomForest::default()),
            Box::new(KNearestNeighbors::default()),
            Box::new(GaussianNaiveBayes::default()),
        ];
        for learner in learners {
            let fitted = learner.fit(&x, &y, &w, 17).unwrap();
            let sealed = fitted.seal().unwrap();
            // Through the full serialize → parse cycle, not just the tree.
            let reparsed = fairprep_trace::json::parse(&sealed.to_json()).unwrap();
            let reloaded = unseal_classifier(&reparsed).unwrap();
            let a = fitted.predict_proba(&probe).unwrap();
            let b = reloaded.predict_proba(&probe).unwrap();
            let bits = |v: &[f64]| v.iter().map(|p| p.to_bits()).collect::<Vec<u64>>();
            assert_eq!(bits(&a), bits(&b), "{} drifted", learner.name());
        }
    }

    #[test]
    fn unseal_rejects_unknown_kind_and_malformed_records() {
        use fairprep_trace::json::{obj, Value};
        let err_of = |v: &Value| match unseal_classifier(v) {
            Ok(_) => panic!("malformed record unsealed"),
            Err(e) => e,
        };
        let unknown = obj(vec![("kind", Value::Str("perceptron".into()))]);
        assert!(matches!(err_of(&unknown), Error::Seal(_)));
        let missing_kind = obj(vec![("weights", Value::bits_vec(&[1.0]))]);
        assert!(matches!(err_of(&missing_kind), Error::Seal(_)));
        // A logistic record with a truncated field is a typed error.
        let broken = obj(vec![
            ("kind", Value::Str("logistic".into())),
            ("weights", Value::bits_vec(&[1.0, 2.0])),
        ]);
        assert!(matches!(err_of(&broken), Error::Seal(_)));
    }
}
