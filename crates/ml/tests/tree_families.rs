//! Property test: a decision tree pruned from its family's build equals
//! the tree fitted with the member's own configuration, node for node and
//! in its sealed form. A family is the candidates sharing `criterion` and
//! `min_samples_leaf`; cross-validated search grows one tree per family
//! and fold with the family's loosest `max_depth` and `min_samples_split`
//! and prunes it to every member, so these tests referee that the search
//! still scores exactly the trees the paper's grid describes. Features take
//! few distinct values (ties at every split) and weights are non-unit, one
//! per group × label cell as reweighing assigns them.

use fairprep_ml::matrix::Matrix;
use fairprep_ml::model::{DecisionTree, DecisionTreeConfig, FittedClassifier};
use fairprep_ml::selection::decision_tree_grid;
use proptest::prelude::*;

/// Reweighing-style weights, indexed by `2 * group + label`.
const CELL_WEIGHTS: [f64; 4] = [0.8125, 1.3, 0.95, 1.0714285714285714];

/// The paper's grid as concrete tree configurations.
fn grid_configs() -> Vec<DecisionTreeConfig> {
    decision_tree_grid()
        .iter()
        .map(|c| c.tree_config().expect("the tree grid holds only trees"))
        .collect()
}

/// The loosest configuration of `config`'s family within `configs`: the
/// deepest `max_depth` (`None` is unbounded) and the smallest
/// `min_samples_split`.
fn family_loosest(
    configs: &[DecisionTreeConfig],
    config: &DecisionTreeConfig,
) -> DecisionTreeConfig {
    let family = || {
        configs.iter().filter(|c| {
            c.criterion == config.criterion && c.min_samples_leaf == config.min_samples_leaf
        })
    };
    DecisionTreeConfig {
        max_depth: family()
            .map(|c| c.max_depth)
            .reduce(|a, b| a.zip(b).map(|(a, b)| a.max(b)))
            .flatten(),
        min_samples_split: family().map(|c| c.min_samples_split).min().unwrap_or(2),
        ..*config
    }
}

/// A `rows` × `cols` problem from raw codes: feature values repeat across
/// `levels` distinct values, labels and groups are independent coin flips.
fn problem(
    rows: usize,
    cols: usize,
    levels: u32,
    codes: &[u32],
    flips: &[u32],
) -> (Matrix, Vec<f64>, Vec<f64>) {
    let data: Vec<Vec<f64>> = (0..rows)
        .map(|r| {
            (0..cols)
                .map(|c| f64::from(codes[r * cols + c] % levels) * 0.5 - 1.0)
                .collect()
        })
        .collect();
    let y: Vec<f64> = (0..rows).map(|r| f64::from(flips[r] & 1)).collect();
    let w: Vec<f64> = (0..rows)
        .map(|r| CELL_WEIGHTS[((flips[r] >> 1) & 1) as usize * 2 + (flips[r] & 1) as usize])
        .collect();
    (Matrix::from_rows(&data).expect("rectangular rows"), y, w)
}

/// Sealed JSON of a fitted tree.
fn sealed(tree: &dyn FittedClassifier) -> String {
    tree.seal().expect("trees seal").to_json()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Every grid member pruned from its family's loosest build, and from
    /// an unbounded build of its family, equals `fit_tree` with the
    /// member's own configuration.
    #[test]
    fn pruned_family_tree_equals_direct_fit(
        rows in 12_usize..=160,
        cols in 1_usize..=4,
        levels in 2_u32..=7,
        codes in prop::collection::vec(0_u32..1000, 640),
        flips in prop::collection::vec(0_u32..4, 160),
    ) {
        let (x, y, w) = problem(rows, cols, levels, &codes, &flips);
        let configs = grid_configs();
        for config in &configs {
            let want = DecisionTree::new(*config).fit_tree(&x, &y, &w, 0).expect("valid fit");
            let unbounded = DecisionTreeConfig {
                max_depth: None,
                min_samples_split: 2,
                ..*config
            };
            for grown in [family_loosest(&configs, config), unbounded] {
                let family = DecisionTree::new(grown)
                    .fit_prunable(&x, &y, &w)
                    .expect("valid fit");
                let got = family.prune(config).expect("member of the family");
                prop_assert_eq!(&got, &want, "{:?} pruned from {:?}", config, grown);
                prop_assert_eq!(
                    sealed(&got),
                    sealed(&want),
                    "{:?} pruned from {:?}",
                    config,
                    grown
                );
            }
        }
    }
}
