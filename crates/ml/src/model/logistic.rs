//! Logistic regression trained with stochastic gradient descent.
//!
//! This mirrors the paper's baseline "logistic regression
//! (`SGDClassifier` with logistic loss function)" (§4): per-example SGD on
//! the log loss with optional L1 / L2 / elastic-net regularization, an
//! inverse-scaling learning-rate schedule, per-instance sample weights, and
//! a seeded per-epoch shuffle.
//!
//! Like its scikit-learn counterpart, the optimizer is *deliberately* not
//! protected against unscaled features: gradient magnitudes grow with the
//! feature scale, and wildly-scaled inputs make training diverge. This is
//! exactly the failure mode §5.2 / Figure 3 of the paper studies.
//!
//! [`fit_block`] fits up to [`BLOCK_WIDTH`] configurations that differ only
//! in their penalty in one pass, each member bit-identical to its own
//! [`LogisticRegressionSgd::fit`]; cross-validated search fits the paper's
//! grid that way.

use rand::seq::SliceRandom;

use fairprep_data::error::{Error, Result};
use fairprep_data::rng::component_rng;

use fairprep_trace::json::{obj, Value};

use crate::kernels::sgd_step;
use crate::matrix::{dot, sigmoid, Matrix, SGD_PREFETCH_AHEAD};
use crate::model::{validate_training_inputs, Classifier, FittedClassifier};
use crate::sealing;

/// Regularization penalty for [`LogisticRegressionSgd`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Penalty {
    /// No regularization.
    None,
    /// L2 (ridge) penalty.
    L2,
    /// L1 (lasso) penalty.
    L1,
    /// Elastic net: `l1_ratio * L1 + (1 - l1_ratio) * L2`.
    ElasticNet {
        /// Mixing parameter in `[0, 1]`.
        l1_ratio: f64,
    },
}

impl Penalty {
    /// Stable name for metadata / grid descriptions.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Penalty::None => "none",
            Penalty::L2 => "l2",
            Penalty::L1 => "l1",
            Penalty::ElasticNet { .. } => "elasticnet",
        }
    }
}

/// Hyperparameters of the SGD logistic regression.
#[derive(Debug, Clone, PartialEq)]
pub struct LogisticRegressionConfig {
    /// Regularization kind.
    pub penalty: Penalty,
    /// Regularization strength (scikit-learn's `alpha`).
    pub alpha: f64,
    /// Initial learning rate (scikit-learn's `eta0` for the `invscaling`
    /// schedule; the effective rate at step `t` is `eta0 / t^power_t`).
    pub eta0: f64,
    /// Learning-rate decay exponent.
    pub power_t: f64,
    /// Number of passes over the data.
    pub max_epochs: usize,
    /// Whether to learn an intercept term.
    pub fit_intercept: bool,
}

impl Default for LogisticRegressionConfig {
    /// scikit-learn-like defaults: L2, `alpha = 1e-4`, `eta0 = 0.1` with
    /// inverse scaling, 20 epochs.
    fn default() -> Self {
        LogisticRegressionConfig {
            penalty: Penalty::L2,
            alpha: 1e-4,
            eta0: 0.1,
            power_t: 0.25,
            max_epochs: 20,
            fit_intercept: true,
        }
    }
}

/// SGD logistic regression (the paper's baseline linear model).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LogisticRegressionSgd {
    /// Hyperparameter configuration.
    pub config: LogisticRegressionConfig,
}

impl LogisticRegressionSgd {
    /// Creates a learner with the given configuration.
    #[must_use]
    pub fn new(config: LogisticRegressionConfig) -> Self {
        LogisticRegressionSgd { config }
    }

    fn validate(&self) -> Result<()> {
        self.config.check()
    }
}

impl LogisticRegressionConfig {
    /// Rejects the configurations [`LogisticRegressionSgd::fit`] refuses,
    /// with the same error.
    pub(crate) fn check(&self) -> Result<()> {
        if !(self.alpha.is_finite() && self.alpha >= 0.0) {
            return Err(Error::InvalidParameter {
                name: "alpha",
                message: format!("{} must be finite and >= 0", self.alpha),
            });
        }
        if !(self.eta0.is_finite() && self.eta0 > 0.0) {
            return Err(Error::InvalidParameter {
                name: "eta0",
                message: format!("{} must be finite and > 0", self.eta0),
            });
        }
        if !(self.power_t.is_finite() && self.power_t >= 0.0) {
            return Err(Error::InvalidParameter {
                name: "power_t",
                message: format!("{} must be finite and >= 0", self.power_t),
            });
        }
        if self.max_epochs == 0 {
            return Err(Error::InvalidParameter {
                name: "max_epochs",
                message: "must be >= 1".to_string(),
            });
        }
        if let Penalty::ElasticNet { l1_ratio } = self.penalty {
            if !(0.0..=1.0).contains(&l1_ratio) {
                return Err(Error::InvalidParameter {
                    name: "l1_ratio",
                    message: format!("{l1_ratio} not in [0, 1]"),
                });
            }
        }
        Ok(())
    }

    /// The `(l1, l2)` strengths of one SGD step, split from `alpha` as
    /// [`LogisticRegressionSgd::fit`] splits them.
    #[must_use]
    pub(crate) fn penalty_strengths(&self) -> (f64, f64) {
        match self.penalty {
            Penalty::None => (0.0, 0.0),
            Penalty::L1 => (self.alpha, 0.0),
            Penalty::L2 => (0.0, self.alpha),
            Penalty::ElasticNet { l1_ratio } => {
                (self.alpha * l1_ratio, self.alpha * (1.0 - l1_ratio))
            }
        }
    }

    /// Whether [`fit_block`] can fit `self` and `other` together: they
    /// agree, bit for bit, on everything that sets the shuffle and the
    /// step sizes (`eta0`, `power_t`, `max_epochs`, `fit_intercept`), and
    /// on whether the step has an `l1` term at all.
    #[must_use]
    pub fn shares_block_with(&self, other: &Self) -> bool {
        self.eta0.to_bits() == other.eta0.to_bits()
            && self.power_t.to_bits() == other.power_t.to_bits()
            && self.max_epochs == other.max_epochs
            && self.fit_intercept == other.fit_intercept
            && (self.penalty_strengths().0 > 0.0) == (other.penalty_strengths().0 > 0.0)
    }
}

impl Classifier for LogisticRegressionSgd {
    fn name(&self) -> &'static str {
        "logistic_regression_sgd"
    }

    fn describe(&self) -> String {
        let c = &self.config;
        format!(
            "penalty={} alpha={} eta0={} epochs={}",
            c.penalty.name(),
            c.alpha,
            c.eta0,
            c.max_epochs
        )
    }

    fn fit(
        &self,
        x: &Matrix,
        y: &[f64],
        weights: &[f64],
        seed: u64,
    ) -> Result<Box<dyn FittedClassifier>> {
        self.validate()?;
        validate_training_inputs(x, y, weights)?;
        let n = x.n_rows();
        let d = x.n_cols();
        let c = &self.config;

        let mut w = vec![0.0_f64; d];
        let mut b = 0.0_f64;
        let mut order: Vec<usize> = (0..n).collect();
        let mut rng = component_rng(seed, "learner/logistic_sgd");
        let mut t: u64 = 0;

        let (l1, l2) = match c.penalty {
            Penalty::None => (0.0, 0.0),
            Penalty::L1 => (c.alpha, 0.0),
            Penalty::L2 => (0.0, c.alpha),
            Penalty::ElasticNet { l1_ratio } => (c.alpha * l1_ratio, c.alpha * (1.0 - l1_ratio)),
        };

        for _epoch in 0..c.max_epochs {
            order.shuffle(&mut rng);
            for (k, &i) in order.iter().enumerate() {
                if let Some(&ahead) = order.get(k + SGD_PREFETCH_AHEAD) {
                    x.prefetch_row(ahead);
                }
                t += 1;
                #[allow(clippy::cast_precision_loss)]
                let eta = c.eta0 / (t as f64).powf(c.power_t);
                let row = x.row(i);
                let z = dot(&w, row) + b;
                let p = sigmoid(z);
                // Gradient of the weighted log loss wrt z: weight * (p - y).
                let g = weights[i] * (p - y[i]);
                // Element-wise fused update; bit-identical to the former
                // inline loop (see kernels::sgd_step's contract).
                sgd_step(&mut w, row, g, eta, l1, l2);
                if c.fit_intercept {
                    b -= eta * g;
                }
            }
        }

        Ok(Box::new(FittedLogisticRegression {
            weights: w,
            intercept: b,
        }))
    }

    fn logistic_config(&self) -> Option<LogisticRegressionConfig> {
        Some(self.config.clone())
    }
}

/// Members of one [`fit_block`]. Each feature's weights sit side by side,
/// one per member, so every step's products, sums and updates run across
/// the members in vector registers.
pub const BLOCK_WIDTH: usize = 4;

/// One value per block member.
type Lanes = [f64; BLOCK_WIDTH];

/// Fits every configuration of `configs` on `(x, y, weights)` with `seed`
/// in one pass and returns the models in order; each equals the model
/// [`LogisticRegressionSgd::fit`] trains for it, bit for bit.
///
/// Members that [share a block](LogisticRegressionConfig::shares_block_with)
/// draw the same shuffle and the same step sizes, so one shuffle, one
/// `powf` per step and one row read serve them all. Their weights are
/// stored member-minor (`[[f64; 4]; d]`) and each member keeps `fit`'s
/// arithmetic: [`dot`]'s reduction tree `(a0+a1)+(a2+a3)+tail` then `+ b`,
/// [`sigmoid`], and [`sgd_step`]'s update. A block with fewer than
/// [`BLOCK_WIDTH`] members fills the rest with copies of its last member
/// and drops their results.
///
/// Refuses, with the error `fit` would give, an invalid configuration or
/// invalid training inputs, and with [`Error::InvalidParameter`] an empty
/// block, more than [`BLOCK_WIDTH`] members, or members that do not share
/// a block.
pub fn fit_block(
    configs: &[LogisticRegressionConfig],
    x: &Matrix,
    y: &[f64],
    weights: &[f64],
    seed: u64,
) -> Result<Vec<FittedLogisticRegression>> {
    let Some(last) = configs.last() else {
        return Err(Error::InvalidParameter {
            name: "block",
            message: "no configuration to fit".to_string(),
        });
    };
    if configs.len() > BLOCK_WIDTH || configs.iter().any(|c| !c.shares_block_with(last)) {
        return Err(Error::InvalidParameter {
            name: "block",
            message: format!(
                "{} configurations that do not share a block of {BLOCK_WIDTH}",
                configs.len()
            ),
        });
    }
    for config in configs {
        config.check()?;
    }
    validate_training_inputs(x, y, weights)?;
    let lane = |c: usize| configs.get(c).unwrap_or(last).penalty_strengths();
    let l1: Lanes = std::array::from_fn(|c| lane(c).0);
    let l2: Lanes = std::array::from_fn(|c| lane(c).1);
    let has_l1 = last.penalty_strengths().0 > 0.0;

    let mut w = vec![[0.0_f64; BLOCK_WIDTH]; x.n_cols()];
    let mut b = [0.0_f64; BLOCK_WIDTH];
    let mut order: Vec<usize> = (0..x.n_rows()).collect();
    let mut rng = component_rng(seed, "learner/logistic_sgd");
    let mut t: u64 = 0;
    for _epoch in 0..last.max_epochs {
        order.shuffle(&mut rng);
        for (k, &i) in order.iter().enumerate() {
            if let Some(&ahead) = order.get(k + SGD_PREFETCH_AHEAD) {
                x.prefetch_row(ahead);
            }
            t += 1;
            #[allow(clippy::cast_precision_loss)]
            let eta = last.eta0 / (t as f64).powf(last.power_t);
            let row = x.row(i);
            let z = block_dot(&w, row);
            let g: Lanes = std::array::from_fn(|c| weights[i] * (sigmoid(z[c] + b[c]) - y[i]));
            if has_l1 {
                block_step::<true>(&mut w, row, &g, eta, &l1, &l2);
            } else {
                block_step::<false>(&mut w, row, &g, eta, &l1, &l2);
            }
            if last.fit_intercept {
                for (bc, gc) in b.iter_mut().zip(g) {
                    *bc -= eta * gc;
                }
            }
        }
    }
    Ok((0..configs.len())
        .map(|c| FittedLogisticRegression {
            weights: w.iter().map(|wj| wj[c]).collect(),
            intercept: b[c],
        })
        .collect())
}

/// Every member's [`dot`] of its weights with `row`: four accumulators per
/// member, accumulator `j` summing the products of the features with index
/// ≡ `j` (mod 4) in ascending order, combined as `(a0+a1)+(a2+a3)+tail`.
#[inline]
fn block_dot(w: &[Lanes], row: &[f64]) -> Lanes {
    let quads = row.len() - row.len() % 4;
    let (w4, w_tail) = w.split_at(quads);
    let (row4, row_tail) = row.split_at(quads);
    let mut acc = [[0.0_f64; BLOCK_WIDTH]; 4];
    for (ws, xs) in w4.chunks_exact(4).zip(row4.chunks_exact(4)) {
        for ((acc_j, w_j), &x_j) in acc.iter_mut().zip(ws).zip(xs) {
            for (a, &wc) in acc_j.iter_mut().zip(w_j) {
                *a += wc * x_j;
            }
        }
    }
    let mut tail = [0.0_f64; BLOCK_WIDTH];
    for (w_j, &x_j) in w_tail.iter().zip(row_tail) {
        for (a, &wc) in tail.iter_mut().zip(w_j) {
            *a += wc * x_j;
        }
    }
    let [a0, a1, a2, a3] = acc;
    std::array::from_fn(|c| (a0[c] + a1[c]) + (a2[c] + a3[c]) + tail[c])
}

/// Every member's [`sgd_step`]: `w -= eta * (g * x + l2 * w)`, plus
/// `l1 * signum(w)` inside the parentheses when `L1`. A member with
/// `l1 == 0` must not take the `L1` form, because `sgd_step` adds no term
/// for it and `+ 0.0 * signum(w)` is not a no-op: it turns a `-0.0`
/// gradient into `+0.0`, and beside a NaN gradient it adds a second NaN
/// whose payload the hardware may return instead.
#[inline]
fn block_step<const L1: bool>(
    w: &mut [Lanes],
    row: &[f64],
    g: &Lanes,
    eta: f64,
    l1: &Lanes,
    l2: &Lanes,
) {
    for (w_j, &x_j) in w.iter_mut().zip(row) {
        for (((wc, gc), l1c), l2c) in w_j.iter_mut().zip(g).zip(l1).zip(l2) {
            let mut grad = gc * x_j + l2c * *wc;
            if L1 {
                grad += l1c * wc.signum();
            }
            *wc -= eta * grad;
        }
    }
}

/// A trained logistic-regression model.
#[derive(Debug, Clone, PartialEq)]
pub struct FittedLogisticRegression {
    /// Learned feature weights.
    pub weights: Vec<f64>,
    /// Learned intercept.
    pub intercept: f64,
}

/// Sealed-record kind tag for logistic regression.
pub(crate) const KIND: &str = "logistic";

impl FittedLogisticRegression {
    /// Reconstructs the model from a sealed component record, rejecting
    /// records of any other kind.
    pub fn unseal(v: &Value) -> Result<FittedLogisticRegression> {
        sealing::expect_kind(v, KIND)?;
        Ok(FittedLogisticRegression {
            weights: sealing::req_f64_vec(v, "weights")?,
            intercept: sealing::req_f64(v, "intercept")?,
        })
    }
}

impl FittedClassifier for FittedLogisticRegression {
    fn seal(&self) -> Result<Value> {
        Ok(obj(vec![
            ("kind", Value::Str(KIND.to_string())),
            ("weights", Value::bits_vec(&self.weights)),
            ("intercept", Value::bits(self.intercept)),
        ]))
    }

    fn predict_proba(&self, x: &Matrix) -> Result<Vec<f64>> {
        let mut scores = x.matvec(&self.weights)?;
        for z in &mut scores {
            *z += self.intercept;
            *z = if z.is_finite() {
                sigmoid(*z)
            } else {
                // A diverged model (unscaled features, §5.2) produces
                // non-finite scores; report an uninformative 0.5 rather
                // than poisoning downstream metrics with NaN.
                0.5
            };
        }
        Ok(scores)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Linearly separable toy problem: y = 1 iff x0 > 0.
    fn separable(n: usize) -> (Matrix, Vec<f64>) {
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                let v = if i % 2 == 0 { 1.0 } else { -1.0 };
                vec![v, 0.5]
            })
            .collect();
        let y: Vec<f64> = (0..n).map(|i| f64::from(u8::from(i % 2 == 0))).collect();
        (Matrix::from_rows(&rows).unwrap(), y)
    }

    #[test]
    fn learns_separable_problem() {
        let (x, y) = separable(100);
        let model = LogisticRegressionSgd::default()
            .fit(&x, &y, &vec![1.0; 100], 7)
            .unwrap();
        let preds = model.predict(&x).unwrap();
        let correct = preds.iter().zip(&y).filter(|(p, t)| p == t).count();
        assert!(correct >= 98, "only {correct}/100 correct");
    }

    #[test]
    fn training_is_seed_deterministic() {
        let (x, y) = separable(60);
        let w = vec![1.0; 60];
        let lr = LogisticRegressionSgd::default();
        let a = lr.fit(&x, &y, &w, 3).unwrap().predict_proba(&x).unwrap();
        let b = lr.fit(&x, &y, &w, 3).unwrap().predict_proba(&x).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn zero_weight_examples_are_ignored() {
        // Half the data is mislabeled but has zero weight: the model should
        // still learn the clean half.
        let rows: Vec<Vec<f64>> = (0..100)
            .map(|i| vec![if i % 2 == 0 { 1.0 } else { -1.0 }])
            .collect();
        let x = Matrix::from_rows(&rows).unwrap();
        let mut y: Vec<f64> = (0..100).map(|i| f64::from(u8::from(i % 2 == 0))).collect();
        let mut w = vec![1.0; 100];
        for i in 50..100 {
            y[i] = 1.0 - y[i]; // flip labels
            w[i] = 0.0; // but remove influence
        }
        let model = LogisticRegressionSgd::default()
            .fit(&x, &y, &w, 11)
            .unwrap();
        let preds = model.predict(&x).unwrap();
        let clean_correct = (0..50).filter(|&i| preds[i] == y[i]).count();
        assert!(clean_correct >= 48, "{clean_correct}/50");
    }

    #[test]
    fn l1_produces_sparser_weights_than_none() {
        // Feature 1 is pure noise; L1 should shrink it harder.
        let rows: Vec<Vec<f64>> = (0..200)
            .map(|i| {
                vec![
                    if i % 2 == 0 { 1.0 } else { -1.0 },
                    ((i * 37) % 11) as f64 / 11.0,
                ]
            })
            .collect();
        let x = Matrix::from_rows(&rows).unwrap();
        let y: Vec<f64> = (0..200).map(|i| f64::from(u8::from(i % 2 == 0))).collect();
        let w = vec![1.0; 200];
        let dense = LogisticRegressionSgd::new(LogisticRegressionConfig {
            penalty: Penalty::None,
            ..Default::default()
        });
        let sparse = LogisticRegressionSgd::new(LogisticRegressionConfig {
            penalty: Penalty::L1,
            alpha: 0.01,
            ..Default::default()
        });
        let d = dense.fit(&x, &y, &w, 5).unwrap();
        let s = sparse.fit(&x, &y, &w, 5).unwrap();
        let d = d.predict_proba(&x).unwrap();
        let s = s.predict_proba(&x).unwrap();
        // Both should still classify well; this is a smoke test that the
        // penalty path runs and does not destroy the signal.
        let acc = |p: &Vec<f64>| {
            p.iter()
                .zip(&y)
                .filter(|(pi, yi)| (**pi > 0.5) == (**yi == 1.0))
                .count()
        };
        assert!(acc(&d) > 190);
        assert!(acc(&s) > 190);
    }

    #[test]
    fn diverged_model_reports_half_probability() {
        let model = FittedLogisticRegression {
            weights: vec![f64::INFINITY],
            intercept: 0.0,
        };
        let x = Matrix::from_rows(&[vec![1.0]]).unwrap();
        assert_eq!(model.predict_proba(&x).unwrap(), vec![0.5]);
    }

    #[test]
    fn predict_checks_dimensionality() {
        let model = FittedLogisticRegression {
            weights: vec![1.0, 2.0],
            intercept: 0.0,
        };
        let x = Matrix::zeros(1, 3);
        assert!(model.predict_proba(&x).is_err());
    }

    #[test]
    fn config_validation() {
        let w = vec![1.0; 4];
        let (x, y) = separable(4);
        let bad_alpha = LogisticRegressionSgd::new(LogisticRegressionConfig {
            alpha: -1.0,
            ..Default::default()
        });
        assert!(bad_alpha.fit(&x, &y, &w, 0).is_err());
        let bad_ratio = LogisticRegressionSgd::new(LogisticRegressionConfig {
            penalty: Penalty::ElasticNet { l1_ratio: 2.0 },
            ..Default::default()
        });
        assert!(bad_ratio.fit(&x, &y, &w, 0).is_err());
        let bad_epochs = LogisticRegressionSgd::new(LogisticRegressionConfig {
            max_epochs: 0,
            ..Default::default()
        });
        assert!(bad_epochs.fit(&x, &y, &w, 0).is_err());
    }

    /// A non-finite or negative `power_t` is refused by `fit` and
    /// `fit_block` alike; `0.0`, a constant step, still fits.
    #[test]
    fn power_t_must_be_finite_and_non_negative() {
        let w = vec![1.0; 40];
        let (x, y) = separable(40);
        let with = |power_t: f64| LogisticRegressionConfig {
            power_t,
            ..Default::default()
        };
        for power_t in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -2.0] {
            let own = LogisticRegressionSgd::new(with(power_t))
                .fit(&x, &y, &w, 3)
                .err();
            assert!(
                matches!(
                    own,
                    Some(Error::InvalidParameter {
                        name: "power_t",
                        ..
                    })
                ),
                "{power_t}: {own:?}"
            );
            let block = fit_block(&[with(power_t)], &x, &y, &w, 3).err();
            assert_eq!(block, own, "{power_t}");
        }
        let constant = LogisticRegressionSgd::new(with(0.0))
            .fit(&x, &y, &w, 3)
            .unwrap();
        assert_eq!(constant.predict(&x).unwrap(), y);
        let block = fit_block(&[with(0.0)], &x, &y, &w, 3).unwrap();
        assert!(block[0].weights.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn describe_mentions_hyperparameters() {
        let lr = LogisticRegressionSgd::default();
        let d = lr.describe();
        assert!(d.contains("penalty=l2"));
        assert!(d.contains("alpha=0.0001"));
    }
}
