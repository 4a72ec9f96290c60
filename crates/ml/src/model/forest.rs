//! Random forest — bagged decision trees with random feature subspaces.
//!
//! An extension model (the paper lists "additional models" as future work,
//! §7). Each tree trains on a seeded bootstrap sample of the rows and a
//! seeded random subset of the features (the random-subspace method);
//! predictions average the per-tree leaf probabilities. Instance weights
//! flow into both the bootstrap draw (via weighted sampling) and the tree
//! construction, so reweighing-style interventions affect the ensemble.

use rand::Rng;

use fairprep_data::error::{Error, Result};
use fairprep_data::rng::{component_rng, derive_seed};
use fairprep_trace::json::{obj, Value};

use crate::matrix::Matrix;
use crate::model::tree::{DecisionTree, DecisionTreeConfig, FittedDecisionTree};
use crate::model::{validate_training_inputs, Classifier, FittedClassifier};
use crate::sealing;

/// Hyperparameters of [`RandomForest`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RandomForestConfig {
    /// Number of trees.
    pub n_trees: usize,
    /// Per-tree configuration.
    pub tree: DecisionTreeConfig,
    /// Number of features each tree sees (`None` = `ceil(sqrt(d))`).
    pub max_features: Option<usize>,
}

impl Default for RandomForestConfig {
    fn default() -> Self {
        RandomForestConfig {
            n_trees: 50,
            tree: DecisionTreeConfig {
                min_samples_leaf: 2,
                ..Default::default()
            },
            max_features: None,
        }
    }
}

/// Random-forest learner.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RandomForest {
    /// Hyperparameter configuration.
    pub config: RandomForestConfig,
}

impl RandomForest {
    /// Creates a learner with the given configuration.
    #[must_use]
    pub fn new(config: RandomForestConfig) -> Self {
        RandomForest { config }
    }
}

impl Classifier for RandomForest {
    fn name(&self) -> &'static str {
        "random_forest"
    }

    fn describe(&self) -> String {
        format!(
            "n_trees={} max_depth={} max_features={}",
            self.config.n_trees,
            self.config
                .tree
                .max_depth
                .map_or_else(|| "none".to_string(), |d| d.to_string()),
            self.config
                .max_features
                .map_or_else(|| "sqrt".to_string(), |f| f.to_string()),
        )
    }

    fn fit(
        &self,
        x: &Matrix,
        y: &[f64],
        weights: &[f64],
        seed: u64,
    ) -> Result<Box<dyn FittedClassifier>> {
        validate_training_inputs(x, y, weights)?;
        if self.config.n_trees == 0 {
            return Err(Error::InvalidParameter {
                name: "n_trees",
                message: "a forest needs at least one tree".to_string(),
            });
        }
        let n = x.n_rows();
        let d = x.n_cols();
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let n_features = self
            .config
            .max_features
            .unwrap_or_else(|| (d as f64).sqrt().ceil() as usize)
            .clamp(1, d);

        // Weighted cumulative distribution for the bootstrap draw.
        let total_weight: f64 = weights.iter().sum();
        if total_weight <= 0.0 {
            return Err(Error::InvalidParameter {
                name: "weights",
                message: "total weight must be positive".to_string(),
            });
        }
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for &w in weights {
            acc += w;
            cdf.push(acc);
        }

        let tree_learner = DecisionTree::new(self.config.tree);
        let mut members = Vec::with_capacity(self.config.n_trees);
        for t in 0..self.config.n_trees {
            let tree_seed = derive_seed(seed, &format!("forest/tree/{t}"));
            let mut rng = component_rng(tree_seed, "bootstrap");

            // Weighted bootstrap of the rows.
            let rows: Vec<usize> = (0..n)
                .map(|_| {
                    let draw = rng.random::<f64>() * total_weight;
                    cdf.partition_point(|&c| c < draw).min(n - 1)
                })
                .collect();

            // Random feature subspace.
            let mut features: Vec<usize> = (0..d).collect();
            for i in 0..n_features {
                let j = rng.random_range(i..d);
                features.swap(i, j);
            }
            features.truncate(n_features);
            features.sort_unstable();

            // Single-pass bootstrap×subspace gather — no intermediate
            // full-width bootstrap copy.
            let x_sub = x.gather(&rows, &features);
            let y_sub: Vec<f64> = rows.iter().map(|&i| y[i]).collect();
            // Bootstrap already accounts for the weights.
            let w_sub = vec![1.0; rows.len()];
            let model = tree_learner.fit_tree(&x_sub, &y_sub, &w_sub, tree_seed)?;
            members.push(ForestMember { features, model });
        }
        Ok(Box::new(FittedRandomForest {
            members,
            n_features: d,
        }))
    }
}

struct ForestMember {
    features: Vec<usize>,
    model: FittedDecisionTree,
}

/// A trained random forest.
pub struct FittedRandomForest {
    members: Vec<ForestMember>,
    n_features: usize,
}

/// Sealed-record kind tag for random forests.
pub(crate) const KIND: &str = "random_forest";

impl FittedRandomForest {
    /// Reconstructs the forest from a sealed component record. Each
    /// member's subspace indices are validated against the full feature
    /// width (the mapped predict path indexes `row[features[f]]`
    /// unchecked), and every member tree re-runs its own arena checks.
    pub(crate) fn unseal(v: &Value) -> Result<FittedRandomForest> {
        sealing::expect_kind(v, KIND)?;
        let n_features = sealing::req_usize(v, "n_features")?;
        let mut members = Vec::new();
        for member in sealing::req_arr(v, "members")? {
            let features = sealing::req_arr(member, "features")?
                .iter()
                .map(|f| {
                    f.as_u64_any()
                        .map(|f| f as usize)
                        .ok_or_else(|| sealing::seal_err("member feature index is not an integer"))
                })
                .collect::<Result<Vec<usize>>>()?;
            if let Some(&bad) = features.iter().find(|&&f| f >= n_features) {
                return Err(sealing::seal_err(format!(
                    "member subspace index {bad} exceeds feature width {n_features}"
                )));
            }
            let model = FittedDecisionTree::unseal(sealing::req(member, "tree")?)?;
            if model.n_features() != features.len() {
                return Err(sealing::seal_err(format!(
                    "member tree width {} does not match its subspace of {}",
                    model.n_features(),
                    features.len()
                )));
            }
            members.push(ForestMember { features, model });
        }
        if members.is_empty() {
            return Err(sealing::seal_err("random forest has no members"));
        }
        Ok(FittedRandomForest {
            members,
            n_features,
        })
    }
}

impl FittedClassifier for FittedRandomForest {
    fn seal(&self) -> Result<Value> {
        let members = self
            .members
            .iter()
            .map(|member| {
                Ok(obj(vec![
                    (
                        "features",
                        Value::Arr(
                            member
                                .features
                                .iter()
                                .map(|&f| Value::from_u64(f as u64))
                                .collect(),
                        ),
                    ),
                    ("tree", member.model.seal()?),
                ]))
            })
            .collect::<Result<Vec<Value>>>()?;
        Ok(obj(vec![
            ("kind", Value::Str(KIND.to_string())),
            ("n_features", Value::from_u64(self.n_features as u64)),
            ("members", Value::Arr(members)),
        ]))
    }

    fn predict_proba(&self, x: &Matrix) -> Result<Vec<f64>> {
        if x.n_cols() != self.n_features {
            return Err(Error::LengthMismatch {
                expected: self.n_features,
                actual: x.n_cols(),
            });
        }
        // Trees read their subspace straight off the full-width rows — no
        // per-member column selection or per-member probability vector.
        let mut sums = vec![0.0_f64; x.n_rows()];
        for member in &self.members {
            for (s, row) in sums.iter_mut().zip(x.rows_iter()) {
                *s += member.model.proba_one_mapped(row, &member.features);
            }
        }
        let k = self.members.len() as f64;
        Ok(sums.into_iter().map(|s| s / k).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Noisy majority problem: y depends on feature 0, features 1–3 are
    /// uninformative.
    fn data(n: usize) -> (Matrix, Vec<f64>) {
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                vec![
                    f64::from(u8::from(i % 2 == 0)),
                    ((i * 7) % 13) as f64,
                    ((i * 3) % 5) as f64,
                    ((i * 11) % 17) as f64,
                ]
            })
            .collect();
        let y: Vec<f64> = (0..n).map(|i| f64::from(u8::from(i % 2 == 0))).collect();
        (Matrix::from_rows(&rows).unwrap(), y)
    }

    #[test]
    fn learns_with_feature_subspaces() {
        let (x, y) = data(200);
        let forest = RandomForest::default();
        let model = forest.fit(&x, &y, &vec![1.0; 200], 5).unwrap();
        let preds = model.predict(&x).unwrap();
        let correct = preds.iter().zip(&y).filter(|(p, t)| p == t).count();
        assert!(correct >= 190, "{correct}/200");
    }

    #[test]
    fn training_is_seed_deterministic() {
        let (x, y) = data(100);
        let w = vec![1.0; 100];
        let forest = RandomForest::new(RandomForestConfig {
            n_trees: 11,
            ..Default::default()
        });
        let a = forest
            .fit(&x, &y, &w, 9)
            .unwrap()
            .predict_proba(&x)
            .unwrap();
        let b = forest
            .fit(&x, &y, &w, 9)
            .unwrap()
            .predict_proba(&x)
            .unwrap();
        assert_eq!(a, b);
        let c = forest
            .fit(&x, &y, &w, 10)
            .unwrap()
            .predict_proba(&x)
            .unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn probabilities_are_ensemble_averages() {
        let (x, y) = data(80);
        let model = RandomForest::default()
            .fit(&x, &y, &vec![1.0; 80], 2)
            .unwrap();
        for p in model.predict_proba(&x).unwrap() {
            assert!((0.0..=1.0).contains(&p));
        }
    }

    #[test]
    fn weights_bias_the_bootstrap() {
        // Conflicting labels at the same point; heavy weight decides.
        let x = Matrix::from_rows(&[vec![0.0], vec![0.0]]).unwrap();
        let y = vec![1.0, 0.0];
        let forest = RandomForest::new(RandomForestConfig {
            n_trees: 30,
            ..Default::default()
        });
        let heavy_pos = forest.fit(&x, &y, &[20.0, 1.0], 3).unwrap();
        assert!(heavy_pos.predict_proba(&x).unwrap()[0] > 0.5);
        let heavy_neg = forest.fit(&x, &y, &[1.0, 20.0], 3).unwrap();
        assert!(heavy_neg.predict_proba(&x).unwrap()[0] < 0.5);
    }

    #[test]
    fn invalid_config_rejected() {
        let (x, y) = data(10);
        let forest = RandomForest::new(RandomForestConfig {
            n_trees: 0,
            ..Default::default()
        });
        assert!(forest.fit(&x, &y, &[1.0; 10], 0).is_err());
    }

    #[test]
    fn predict_checks_dimensionality() {
        let (x, y) = data(20);
        let model = RandomForest::default().fit(&x, &y, &[1.0; 20], 0).unwrap();
        assert!(model.predict_proba(&Matrix::zeros(1, 9)).is_err());
    }

    #[test]
    fn max_features_clamped_and_respected() {
        let (x, y) = data(60);
        let forest = RandomForest::new(RandomForestConfig {
            n_trees: 5,
            max_features: Some(100), // clamps to d = 4
            ..Default::default()
        });
        let model = forest.fit(&x, &y, &vec![1.0; 60], 1).unwrap();
        assert_eq!(model.predict(&x).unwrap().len(), 60);
    }

    #[test]
    fn describe_mentions_parameters() {
        let d = RandomForest::default().describe();
        assert!(d.contains("n_trees=50"));
        assert!(d.contains("max_features=sqrt"));
    }
}
