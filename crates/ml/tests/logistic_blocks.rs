//! Property test: every member of a lockstep block (`fit_block`) trains
//! the model its own `LogisticRegressionSgd::fit` trains, equal in its
//! sealed record, which holds the weights and the intercept as bit
//! patterns. Cross-validated search fits the paper's logistic grid in such
//! blocks, so this test referees that the search still scores exactly the
//! models the grid describes.
//!
//! Cases cover every `d % 4` tail (1 to 17 columns, and 65 as on a german
//! fold), 1 to 12 members of mixed penalties split into blocks of at most
//! four (so some blocks are short), unit, non-unit and zero instance
//! weights, and unscaled inputs whose weights overflow to ±∞ and NaN as
//! the tuned unscaled logistic regression of the paper's Fig. 3 does.

use fairprep_data::error::Error;
use fairprep_ml::matrix::Matrix;
use fairprep_ml::model::logistic::{fit_block, FittedLogisticRegression, BLOCK_WIDTH};
use fairprep_ml::model::{
    Classifier, FittedClassifier, LogisticRegressionConfig, LogisticRegressionSgd, Penalty,
};
use proptest::prelude::*;

/// Column counts: every tail length of the four-accumulator `dot` at
/// several widths, and the width of a german CV fold.
const COLUMNS: [usize; 18] = [
    1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 65,
];

/// Reweighing-style weights, indexed by `2 * group + label`.
const CELL_WEIGHTS: [f64; 4] = [0.8125, 1.3, 0.95, 1.0714285714285714];

/// Per-column magnitudes of an unscaled matrix: unit columns beside
/// german-like amounts and columns large enough that the weights
/// overflow within an epoch.
const UNSCALED: [f64; 5] = [1.0, 1e3, 1e5, 1e80, 1e160];

/// A `rows` × `cols` problem from raw codes in `[-1, 1)`.
///
/// `weight_mode` 0 gives unit weights, 1 reweighing-style cell weights,
/// 2 cell weights with every third row at zero. `unscaled` multiplies
/// column `j` by `UNSCALED[j % 5]`.
fn problem(
    rows: usize,
    cols: usize,
    codes: &[f64],
    weight_mode: usize,
    unscaled: bool,
) -> (Matrix, Vec<f64>, Vec<f64>) {
    let data: Vec<Vec<f64>> = (0..rows)
        .map(|r| {
            (0..cols)
                .map(|j| {
                    let v = codes[(r * cols + j) % codes.len()];
                    if unscaled {
                        v * UNSCALED[j % UNSCALED.len()]
                    } else {
                        v
                    }
                })
                .collect()
        })
        .collect();
    // Labels follow the first feature, with every fifth row flipped.
    let y: Vec<f64> = data
        .iter()
        .enumerate()
        .map(|(r, row)| f64::from(u8::from((row[0] > 0.0) != (r % 5 == 0))))
        .collect();
    let w = y
        .iter()
        .enumerate()
        .map(|(r, &label)| match weight_mode {
            0 => 1.0,
            _ if weight_mode == 2 && r % 3 == 0 => 0.0,
            _ => CELL_WEIGHTS[2 * (r % 2) + usize::from(label > 0.5)],
        })
        .collect();
    (Matrix::from_rows(&data).unwrap(), y, w)
}

/// A member's configuration from codes: the penalty (`None`, `L2`, `L1`,
/// or elastic net at ratio 0, ½, 1 or `ratio`), `alpha` (0, the paper's
/// four values, or `ratio / 10`), and the settings every member of a
/// block shares.
fn config(
    (penalty, alpha, ratio): (usize, usize, f64),
    (eta0, epochs, fit_intercept): (f64, usize, bool),
) -> LogisticRegressionConfig {
    let penalty = match penalty {
        0 => Penalty::None,
        1 => Penalty::L2,
        2 => Penalty::L1,
        3 => Penalty::ElasticNet { l1_ratio: 0.0 },
        4 => Penalty::ElasticNet { l1_ratio: 0.5 },
        5 => Penalty::ElasticNet { l1_ratio: 1.0 },
        _ => Penalty::ElasticNet { l1_ratio: ratio },
    };
    let alpha = [0.0, 5e-5, 1e-4, 5e-3, 1e-3, ratio / 10.0][alpha];
    LogisticRegressionConfig {
        penalty,
        alpha,
        eta0,
        max_epochs: epochs,
        fit_intercept,
        ..LogisticRegressionConfig::default()
    }
}

/// Splits `configs` into the blocks the search forms: members with and
/// without an `l1` term apart, at most [`BLOCK_WIDTH`] to a block, in
/// order.
fn blocks(configs: &[LogisticRegressionConfig]) -> Vec<Vec<LogisticRegressionConfig>> {
    let mut out: Vec<Vec<LogisticRegressionConfig>> = Vec::new();
    for config in configs {
        match out
            .iter_mut()
            .find(|b| b.len() < BLOCK_WIDTH && b[0].shares_block_with(config))
        {
            Some(block) => block.push(config.clone()),
            None => out.push(vec![config.clone()]),
        }
    }
    out
}

/// The sealed record of a model, as JSON text: weights and intercept as
/// bit patterns.
fn sealed(model: &dyn FittedClassifier) -> String {
    model.seal().unwrap().to_json()
}

/// Fits every block of `configs` and checks each member against its own
/// fit; returns how many member weights came out non-finite.
fn check_members(
    configs: &[LogisticRegressionConfig],
    (x, y, w): &(Matrix, Vec<f64>, Vec<f64>),
    seed: u64,
) -> Result<usize, TestCaseError> {
    let mut non_finite = 0;
    for block in blocks(configs) {
        let fitted = fit_block(&block, x, y, w, seed).unwrap();
        prop_assert_eq!(fitted.len(), block.len());
        for (member, model) in block.iter().zip(&fitted) {
            let alone = LogisticRegressionSgd::new(member.clone())
                .fit(x, y, w, seed)
                .unwrap();
            prop_assert_eq!(sealed(model), sealed(alone.as_ref()), "{:?}", member);
            non_finite += model.weights.iter().filter(|v| !v.is_finite()).count();
        }
    }
    Ok(non_finite)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn block_members_equal_their_own_fits(
        column in 0_usize..COLUMNS.len(),
        rows in 6_usize..40,
        members in prop::collection::vec((0_usize..7, 0_usize..6, 0.0_f64..1.0), 1..=12),
        shared in (0_usize..3, 1_usize..4, any::<bool>()),
        weight_mode in 0_usize..3,
        unscaled in any::<bool>(),
        codes in prop::collection::vec(-1.0_f64..1.0, 64),
        seed in any::<u64>(),
    ) {
        let (eta0, epochs, fit_intercept) = shared;
        let shared = ([0.1, 0.01, 0.5][eta0], epochs, fit_intercept);
        let configs: Vec<_> = members.iter().map(|&m| config(m, shared)).collect();
        let data = problem(rows, COLUMNS[column], &codes, weight_mode, unscaled);
        check_members(&configs, &data, seed)?;
    }
}

/// The paper's grid (L2, L1 and elastic net at ½, four alphas each) and
/// `Penalty::None` on every column count, with and without scaling, and
/// with every weight mode: the unscaled cases must drive weights to ±∞
/// and NaN, and the members must still match their own fits.
#[test]
fn paper_grid_blocks_match_on_every_tail_and_on_diverged_weights() {
    let codes: Vec<f64> = (0..97).map(|i| (f64::from(i) * 0.618_034).sin()).collect();
    let shared = (0.1, 3, true);
    let mut configs: Vec<_> = [1, 2, 4]
        .iter()
        .flat_map(|&penalty| (1..5).map(move |alpha| config((penalty, alpha, 0.0), shared)))
        .collect();
    configs.push(config((0, 0, 0.0), shared));
    let mut non_finite = 0;
    for &cols in &COLUMNS {
        for weight_mode in 0..3 {
            for unscaled in [false, true] {
                let data = problem(30, cols, &codes, weight_mode, unscaled);
                non_finite += check_members(&configs, &data, 41).unwrap();
            }
        }
    }
    assert!(non_finite > 100, "only {non_finite} non-finite weights");
}

#[test]
fn a_block_refuses_what_it_cannot_fit_in_lockstep() {
    let codes: Vec<f64> = (0..40).map(|i| f64::from(i % 7) / 7.0 - 0.4).collect();
    let (x, y, w) = problem(20, 3, &codes, 0, false);
    let fit = |configs: &[LogisticRegressionConfig]| fit_block(configs, &x, &y, &w, 5);
    let l2 = LogisticRegressionConfig::default();
    let l1 = LogisticRegressionConfig {
        penalty: Penalty::L1,
        ..l2.clone()
    };
    let refused = |result: Result<Vec<FittedLogisticRegression>, Error>| match result {
        Err(Error::InvalidParameter { name: "block", .. }) => {}
        other => panic!("{:?}", other.map(|m| m.len())),
    };
    refused(fit(&[]));
    refused(fit(&vec![l2.clone(); BLOCK_WIDTH + 1]));
    refused(fit(&[l2.clone(), l1.clone()]));
    for other in [
        LogisticRegressionConfig {
            eta0: 0.05,
            ..l2.clone()
        },
        LogisticRegressionConfig {
            power_t: 0.5,
            ..l2.clone()
        },
        LogisticRegressionConfig {
            max_epochs: 3,
            ..l2.clone()
        },
        LogisticRegressionConfig {
            fit_intercept: false,
            ..l2.clone()
        },
    ] {
        refused(fit(&[l2.clone(), other]));
    }

    // An invalid member fails the block with the error its own fit gives.
    let invalid = LogisticRegressionConfig {
        alpha: -1.0,
        ..l2.clone()
    };
    let own = LogisticRegressionSgd::new(invalid.clone())
        .fit(&x, &y, &w, 5)
        .err()
        .unwrap();
    assert!(matches!(own, Error::InvalidParameter { name: "alpha", .. }));
    assert_eq!(fit(&[l2.clone(), invalid]).err().unwrap(), own);

    // So do invalid training inputs.
    let own = LogisticRegressionSgd::new(l2.clone())
        .fit(&x, &y, &w[1..], 5)
        .err()
        .unwrap();
    assert_eq!(fit_block(&[l2], &x, &y, &w[1..], 5).err().unwrap(), own);
}
