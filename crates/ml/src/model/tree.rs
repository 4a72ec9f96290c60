//! CART-style decision-tree classifier.
//!
//! The paper's second baseline model ("decision trees from scikit-learn",
//! §4), with the hyperparameters its §5.1 grid sweeps: split criterion
//! (gini / entropy), maximum depth, minimum samples per leaf, and minimum
//! samples per split. Supports per-instance weights so that reweighing-style
//! interventions influence tree construction, and is — like all tree
//! learners — insensitive to monotone feature scaling (the §5.2 / Figure 3
//! contrast with logistic regression).

use fairprep_data::error::{Error, Result};
use fairprep_trace::json::{obj, Value};

use crate::matrix::Matrix;
use crate::model::{validate_training_inputs, Classifier, FittedClassifier};
use crate::sealing;

/// Split-quality criterion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SplitCriterion {
    /// Gini impurity.
    Gini,
    /// Shannon entropy.
    Entropy,
}

impl SplitCriterion {
    /// Stable name for metadata.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            SplitCriterion::Gini => "gini",
            SplitCriterion::Entropy => "entropy",
        }
    }

    /// Impurity of a node with weighted positive mass `pos` out of total
    /// weighted mass `total`.
    fn impurity(self, pos: f64, total: f64) -> f64 {
        if total <= 0.0 {
            return 0.0;
        }
        let p = (pos / total).clamp(0.0, 1.0);
        match self {
            SplitCriterion::Gini => 2.0 * p * (1.0 - p),
            SplitCriterion::Entropy => {
                let mut h = 0.0;
                for q in [p, 1.0 - p] {
                    if q > 0.0 {
                        h -= q * q.log2();
                    }
                }
                h
            }
        }
    }
}

/// Hyperparameters of [`DecisionTree`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecisionTreeConfig {
    /// Split-quality criterion.
    pub criterion: SplitCriterion,
    /// Maximum tree depth (`None` = unbounded).
    pub max_depth: Option<usize>,
    /// Minimum number of samples required in each leaf.
    pub min_samples_leaf: usize,
    /// Minimum number of samples required to attempt a split.
    pub min_samples_split: usize,
}

impl DecisionTreeConfig {
    /// Rejects configurations that cannot grow a tree.
    pub(crate) fn check(&self) -> Result<()> {
        if self.min_samples_leaf == 0 || self.min_samples_split < 2 {
            return Err(Error::InvalidParameter {
                name: "decision_tree",
                message: "min_samples_leaf >= 1 and min_samples_split >= 2 required".to_string(),
            });
        }
        Ok(())
    }

    /// Whether the depth and split-size limits let a node at `depth`
    /// (the root has depth 0) holding `rows` training rows split.
    fn allows_split(&self, depth: usize, rows: usize) -> bool {
        self.max_depth.is_none_or(|d| depth < d) && rows >= self.min_samples_split
    }
}

impl Default for DecisionTreeConfig {
    fn default() -> Self {
        DecisionTreeConfig {
            criterion: SplitCriterion::Gini,
            max_depth: None,
            min_samples_leaf: 1,
            min_samples_split: 2,
        }
    }
}

/// CART decision-tree learner.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DecisionTree {
    /// Hyperparameter configuration.
    pub config: DecisionTreeConfig,
}

impl DecisionTree {
    /// Creates a learner with the given configuration.
    #[must_use]
    pub fn new(config: DecisionTreeConfig) -> Self {
        DecisionTree { config }
    }
}

#[derive(Debug, Clone, PartialEq)]
enum Node {
    Leaf {
        proba: f64,
    },
    Split {
        feature: usize,
        threshold: f64,
        left: usize,
        right: usize,
    },
}

/// A trained decision tree (nodes stored in an arena; index 0 is the root).
#[derive(Debug, Clone, PartialEq)]
pub struct FittedDecisionTree {
    nodes: Vec<Node>,
    n_features: usize,
}

impl FittedDecisionTree {
    /// Number of nodes (splits + leaves).
    #[must_use]
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Feature width the tree was trained on.
    pub(crate) fn n_features(&self) -> usize {
        self.n_features
    }

    /// Depth of the tree (a lone leaf has depth 0).
    #[must_use]
    pub fn depth(&self) -> usize {
        fn depth_of(nodes: &[Node], i: usize) -> usize {
            match &nodes[i] {
                Node::Leaf { .. } => 0,
                Node::Split { left, right, .. } => {
                    1 + depth_of(nodes, *left).max(depth_of(nodes, *right))
                }
            }
        }
        depth_of(&self.nodes, 0)
    }

    fn proba_one(&self, row: &[f64]) -> f64 {
        let mut i = 0usize;
        loop {
            match &self.nodes[i] {
                Node::Leaf { proba } => return *proba,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    i = if row[*feature] <= *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }

    /// Leaf probability for a full-width `row` when the tree was trained on
    /// the feature subset `features` (tree feature `f` reads
    /// `row[features[f]]`). Lets subspace ensembles predict straight off
    /// the original matrix without materializing per-member column
    /// selections.
    pub(crate) fn proba_one_mapped(&self, row: &[f64], features: &[usize]) -> f64 {
        let mut i = 0usize;
        loop {
            match &self.nodes[i] {
                Node::Leaf { proba } => return *proba,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    i = if row[features[*feature]] <= *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }
}

/// Sealed-record kind tag for CART decision trees.
pub(crate) const KIND: &str = "decision_tree";

impl FittedDecisionTree {
    /// Reconstructs the tree from a sealed component record.
    ///
    /// The arena invariant — a split's children sit at *strictly larger*
    /// indices than the split itself (the builder reserves the parent slot
    /// before recursing) — is re-validated here, so a corrupted artifact
    /// cannot smuggle in an out-of-bounds child (panic in `proba_one`) or
    /// a back-edge (infinite traversal loop).
    pub(crate) fn unseal(v: &Value) -> Result<FittedDecisionTree> {
        sealing::expect_kind(v, KIND)?;
        let n_features = sealing::req_usize(v, "n_features")?;
        let raw = sealing::req_arr(v, "nodes")?;
        if raw.is_empty() {
            return Err(sealing::seal_err("decision tree has no nodes"));
        }
        let mut nodes = Vec::with_capacity(raw.len());
        for (i, node) in raw.iter().enumerate() {
            if let Some(leaf) = node.get("leaf") {
                let proba = leaf
                    .as_f64_bits()
                    .ok_or_else(|| sealing::seal_err("leaf proba is not a float bit pattern"))?;
                nodes.push(Node::Leaf { proba });
            } else {
                let feature = sealing::req_usize(node, "feature")?;
                let threshold = sealing::req_f64(node, "threshold")?;
                let left = sealing::req_usize(node, "left")?;
                let right = sealing::req_usize(node, "right")?;
                if feature >= n_features {
                    return Err(sealing::seal_err(format!(
                        "split node {i} reads feature {feature} of {n_features}"
                    )));
                }
                if left <= i || right <= i || left >= raw.len() || right >= raw.len() {
                    return Err(sealing::seal_err(format!(
                        "split node {i} has invalid children ({left}, {right}) in arena of {}",
                        raw.len()
                    )));
                }
                nodes.push(Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                });
            }
        }
        Ok(FittedDecisionTree { nodes, n_features })
    }
}

impl FittedClassifier for FittedDecisionTree {
    fn seal(&self) -> Result<Value> {
        let nodes = self
            .nodes
            .iter()
            .map(|node| match node {
                Node::Leaf { proba } => obj(vec![("leaf", Value::bits(*proba))]),
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => obj(vec![
                    ("feature", Value::from_u64(*feature as u64)),
                    ("threshold", Value::bits(*threshold)),
                    ("left", Value::from_u64(*left as u64)),
                    ("right", Value::from_u64(*right as u64)),
                ]),
            })
            .collect();
        Ok(obj(vec![
            ("kind", Value::Str(KIND.to_string())),
            ("n_features", Value::from_u64(self.n_features as u64)),
            ("nodes", Value::Arr(nodes)),
        ]))
    }

    fn predict_proba(&self, x: &Matrix) -> Result<Vec<f64>> {
        if x.n_cols() != self.n_features {
            return Err(Error::LengthMismatch {
                expected: self.n_features,
                actual: x.n_cols(),
            });
        }
        Ok(x.rows_iter().map(|row| self.proba_one(row)).collect())
    }
}

/// What the builder knew about a node when it decided whether to split it.
#[derive(Debug, Clone, Copy)]
struct NodeStats {
    /// Training rows that reached the node.
    rows: usize,
    /// Distance from the root, which has depth 0.
    depth: usize,
    /// Weighted positive fraction of the node's rows: its leaf probability,
    /// kept for split nodes too so that a prune can turn them into leaves.
    proba: f64,
}

/// A fitted tree plus each node's row count, depth and leaf probability,
/// from which [`PrunableTree::prune`] derives the tree a stricter
/// `max_depth` / `min_samples_split` would have grown, without refitting.
#[derive(Debug, Clone)]
pub struct PrunableTree {
    config: DecisionTreeConfig,
    tree: FittedDecisionTree,
    stats: Vec<NodeStats>,
}

impl PrunableTree {
    /// The tree as grown.
    #[must_use]
    pub fn into_tree(self) -> FittedDecisionTree {
        self.tree
    }

    /// The tree [`DecisionTree::fit_tree`] grows with `config` on the same
    /// data, derived by turning into a leaf every split node at depth ≥
    /// `config.max_depth` or with fewer rows than `config.min_samples_split`.
    ///
    /// Greedy CART decides each node from that node's rows alone, and looser
    /// depth and split-size limits only allow more splits; so for a `config`
    /// that shares this tree's `criterion` and `min_samples_leaf` and is at
    /// least as strict in the other two, the result equals `fit_tree` node
    /// for node: the same pre-order arena and the same leaf probabilities.
    /// Any other `config` is an [`Error::InvalidParameter`].
    pub fn prune(&self, config: &DecisionTreeConfig) -> Result<FittedDecisionTree> {
        let grown = &self.config;
        let stricter = grown
            .max_depth
            .is_none_or(|g| config.max_depth.is_some_and(|d| d <= g))
            && config.min_samples_split >= grown.min_samples_split;
        if config.criterion != grown.criterion
            || config.min_samples_leaf != grown.min_samples_leaf
            || !stricter
        {
            return Err(Error::InvalidParameter {
                name: "decision_tree",
                message: format!(
                    "cannot prune a tree grown with {grown:?} to the looser or unrelated {config:?}"
                ),
            });
        }
        let mut nodes = Vec::with_capacity(self.tree.nodes.len());
        self.prune_into(0, config, &mut nodes);
        Ok(FittedDecisionTree {
            nodes,
            n_features: self.tree.n_features,
        })
    }

    /// Copies the subtree at grown node `i` into `out` in pre-order and
    /// returns its new index.
    fn prune_into(&self, i: usize, config: &DecisionTreeConfig, out: &mut Vec<Node>) -> usize {
        let NodeStats { rows, depth, proba } = self.stats[i];
        let me = out.len();
        out.push(Node::Leaf { proba });
        if let Node::Split {
            feature,
            threshold,
            left,
            right,
        } = self.tree.nodes[i]
        {
            if config.allows_split(depth, rows) {
                let left = self.prune_into(left, config, out);
                let right = self.prune_into(right, config, out);
                out[me] = Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                };
            }
        }
        me
    }
}

struct Builder<'a> {
    x: &'a Matrix,
    y: &'a [f64],
    w: &'a [f64],
    config: DecisionTreeConfig,
    /// Per feature, `Some((lo, hi))` when every weight is 1 and the column
    /// holds exactly two values ([`two_valued_columns`]): such a feature has
    /// one boundary at every node, scored from counts instead of a sort.
    two_valued: Vec<Option<(f64, f64)>>,
    /// The two-valued features with their `lo`, in feature order.
    counted: Vec<(usize, f64)>,
    /// Per feature, the current node's rows at `lo` and the sum of their
    /// labels; only the `counted` features are kept up to date.
    at_lo: Vec<(usize, f64)>,
    /// The current node's values of one sorted feature, in `indices` order.
    values: Vec<f64>,
    /// Positions into `values`, sorted by value.
    order: Vec<usize>,
    nodes: Vec<Node>,
    stats: Vec<NodeStats>,
}

struct BestSplit {
    feature: usize,
    threshold: f64,
    gain: f64,
}

impl<'a> Builder<'a> {
    fn new(x: &'a Matrix, y: &'a [f64], w: &'a [f64], config: DecisionTreeConfig) -> Self {
        // audit: allow(float-eq, reason = "counting is exact only when every weight is exactly 1.0; any other weight keeps the sorted scan")
        let unit_weights = w.iter().all(|&wi| wi == 1.0);
        let two_valued = if unit_weights {
            two_valued_columns(x)
        } else {
            vec![None; x.n_cols()]
        };
        let counted = two_valued
            .iter()
            .enumerate()
            .filter_map(|(f, pair)| pair.map(|(lo, _)| (f, lo)))
            .collect();
        Builder {
            x,
            y,
            w,
            config,
            two_valued,
            counted,
            at_lo: vec![(0, 0.0); x.n_cols()],
            values: Vec::with_capacity(x.n_rows()),
            order: Vec::with_capacity(x.n_rows()),
            nodes: Vec::new(),
            stats: Vec::new(),
        }
    }
}

impl Builder<'_> {
    fn build(&mut self, indices: &mut [usize], depth: usize) -> usize {
        let (pos, total) = self.weighted_counts(indices);
        let node_impurity = self.config.criterion.impurity(pos, total);
        let proba = if total > 0.0 { pos / total } else { 0.5 };

        let can_split = self.config.allows_split(depth, indices.len())
            && indices.len() >= 2 * self.config.min_samples_leaf
            && node_impurity > 1e-12;

        let best = if can_split {
            self.best_split(indices, node_impurity, pos, total)
        } else {
            None
        };

        // Reserve our slot before recursing so the root is node 0.
        self.nodes.push(Node::Leaf { proba });
        self.stats.push(NodeStats {
            rows: indices.len(),
            depth,
            proba,
        });
        let me = self.nodes.len() - 1;
        if let Some(split) = best {
            // Partition indices in place around the threshold.
            let mid = partition(indices, |i| self.x.get(i, split.feature) <= split.threshold);
            // A boundary whose lower side ends in a NaN has no `<=`
            // threshold (a NaN is `<=` nothing) and sends every row right;
            // the node then stays a leaf instead of recursing on its rows.
            if 0 < mid && mid < indices.len() {
                let (left_ix, right_ix) = indices.split_at_mut(mid);
                let left = self.build(left_ix, depth + 1);
                let right = self.build(right_ix, depth + 1);
                self.nodes[me] = Node::Split {
                    feature: split.feature,
                    threshold: split.threshold,
                    left,
                    right,
                };
            }
        }
        me
    }

    fn weighted_counts(&self, indices: &[usize]) -> (f64, f64) {
        let mut pos = 0.0;
        let mut total = 0.0;
        for &i in indices {
            total += self.w[i];
            pos += self.w[i] * self.y[i];
        }
        (pos, total)
    }

    /// Best split of the node holding `indices`, whose weighted positive
    /// mass and total mass are `all_pos` and `all_total`.
    ///
    /// A two-valued feature's one boundary is scored from the counts of
    /// [`Builder::count_two_valued`]; every other feature is gathered
    /// through [`split_key`], its positions sorted by value, and scanned.
    /// Counting needs unit weights: with them and 0/1 labels every partial
    /// sum is an integer below 2^53, exact in any order, so the counted
    /// boundary has the bits a scan in any order of its tied rows would
    /// give it. Other weights make that order observable, so they keep the
    /// scan for every feature, and the scan sorts positions with the
    /// comparisons the row indices had, which leaves its permutation
    /// unchanged.
    fn best_split(
        &mut self,
        indices: &[usize],
        node_impurity: f64,
        all_pos: f64,
        all_total: f64,
    ) -> Option<BestSplit> {
        let min_leaf = self.config.min_samples_leaf;
        let n = indices.len();
        let mut best: Option<BestSplit> = None;
        self.count_two_valued(indices);

        // Features in index order, so that ties keep the lowest feature.
        for feature in 0..self.x.n_cols() {
            if let Some((lo, hi)) = self.two_valued[feature] {
                let (n_left, left_pos) = self.at_lo[feature];
                // `min_leaf >= 1` also turns away a node holding one value.
                if n_left < min_leaf || n - n_left < min_leaf {
                    continue;
                }
                let gain = self.gain(node_impurity, left_pos, n_left as f64, all_pos, all_total);
                offer(&mut best, feature, gain, || midpoint(lo, hi));
                continue;
            }

            self.values.clear();
            self.values
                .extend(indices.iter().map(|&i| split_key(self.x.get(i, feature))));
            if let Some((first, rest)) = self.values.split_first() {
                if rest.iter().all(|v| v == first) {
                    continue; // cannot split between equal values
                }
            }
            self.order.clear();
            self.order.extend(0..n);
            self.order
                .sort_unstable_by(|&a, &b| self.values[a].total_cmp(&self.values[b]));

            let mut left_pos = 0.0;
            let mut left_total = 0.0;
            for k in 0..n - 1 {
                let p = self.order[k];
                let i = indices[p];
                left_pos += self.w[i] * self.y[i];
                left_total += self.w[i];
                let xv = self.values[p];
                let xn = self.values[self.order[k + 1]];
                if same_key(xv, xn) {
                    continue; // cannot split between equal values
                }
                let n_left = k + 1;
                if n_left < min_leaf || n - n_left < min_leaf {
                    continue;
                }
                let gain = self.gain(node_impurity, left_pos, left_total, all_pos, all_total);
                offer(&mut best, feature, gain, || midpoint(xv, xn));
            }
        }
        best
    }

    /// Counts, in one row-major pass over the node, each two-valued
    /// feature's rows at `lo` and the sum of their labels.
    fn count_two_valued(&mut self, indices: &[usize]) {
        if self.counted.is_empty() {
            return;
        }
        for &(f, _) in &self.counted {
            self.at_lo[f] = (0, 0.0);
        }
        for &i in indices {
            let row = self.x.row(i);
            let label = self.y[i];
            for &(f, lo) in &self.counted {
                // Exact: the column holds only `lo` and a `hi` unequal to it.
                if row[f] == lo {
                    let tally = &mut self.at_lo[f];
                    tally.0 += 1;
                    tally.1 += label;
                }
            }
        }
    }

    /// Impurity decrease from splitting the node into a left child of
    /// weighted positive mass `left_pos` out of `left_total` and the rest.
    fn gain(
        &self,
        node_impurity: f64,
        left_pos: f64,
        left_total: f64,
        all_pos: f64,
        all_total: f64,
    ) -> f64 {
        let right_pos = all_pos - left_pos;
        let right_total = all_total - left_total;
        let imp_l = self.config.criterion.impurity(left_pos, left_total);
        let imp_r = self.config.criterion.impurity(right_pos, right_total);
        let weighted_child = (left_total * imp_l + right_total * imp_r) / all_total.max(1e-12);
        node_impurity - weighted_child
    }
}

/// Keeps the split of `feature` with `gain` if it is admissible and beats
/// `best`. Like scikit-learn with `min_impurity_decrease = 0`, zero-gain
/// splits are admissible (this is what lets greedy CART solve XOR-shaped
/// problems); ties keep the first (lowest-feature) candidate for
/// determinism.
fn offer(best: &mut Option<BestSplit>, feature: usize, gain: f64, threshold: impl FnOnce() -> f64) {
    if gain >= 0.0 && best.as_ref().is_none_or(|b| gain > b.gain) {
        *best = Some(BestSplit {
            feature,
            threshold: threshold(),
            gain,
        });
    }
}

/// Per column of `x`, its two values `(lo, hi)` in `total_cmp` order when
/// the column holds exactly two bit patterns, neither is NaN, and they
/// compare unequal with `==`; `None` otherwise, so a `{-0.0, +0.0}` column
/// or one holding NaN is scanned like any other.
fn two_valued_columns(x: &Matrix) -> Vec<Option<(f64, f64)>> {
    let Some(first) = x.rows_iter().next() else {
        return vec![None; x.n_cols()];
    };
    // Per column: the first bit pattern, the second, and whether a third
    // has been seen.
    let mut seen: Vec<(u64, Option<u64>, bool)> =
        first.iter().map(|v| (v.to_bits(), None, false)).collect();
    for row in x.rows_iter() {
        for (v, (a, b, more)) in row.iter().zip(&mut seen) {
            let bits = v.to_bits();
            if bits == *a || *more {
                continue;
            }
            match b {
                None => *b = Some(bits),
                Some(b) if *b == bits => {}
                Some(_) => *more = true,
            }
        }
    }
    seen.iter()
        .map(|&(a, b, more)| {
            let (a, b) = (f64::from_bits(a), f64::from_bits(b?));
            let two = !more && !a.is_nan() && !b.is_nan() && a != b;
            two.then(|| {
                if a.total_cmp(&b).is_lt() {
                    (a, b)
                } else {
                    (b, a)
                }
            })
        })
        .collect()
}

/// The value the split search sorts and scans in place of `v`: a NaN of
/// either sign becomes the positive quiet NaN, which `total_cmp` sorts
/// above every number. That is the side `build` sends it to, because a NaN
/// is `<=` no threshold.
fn split_key(v: f64) -> f64 {
    if v.is_nan() {
        f64::NAN
    } else {
        v
    }
}

/// `true` when no threshold separates two adjacent sorted keys: equal
/// numbers, or two NaNs, which `==` calls unequal but whose midpoint
/// threshold is NaN and would send every row right.
fn same_key(a: f64, b: f64) -> bool {
    a == b || (a.is_nan() && b.is_nan())
}

/// Midpoint that is guaranteed to satisfy `lo <= mid < hi` for `lo < hi`.
/// When `lo` is −∞ or `hi` is NaN the halfway point is NaN, and `lo`
/// itself is the threshold.
fn midpoint(lo: f64, hi: f64) -> f64 {
    let mid = lo + (hi - lo) / 2.0;
    if mid < hi {
        mid
    } else {
        lo
    }
}

/// Stable-ish partition: moves elements satisfying `pred` to the front,
/// returns the boundary index.
fn partition(indices: &mut [usize], pred: impl Fn(usize) -> bool) -> usize {
    let mut store = 0usize;
    for k in 0..indices.len() {
        if pred(indices[k]) {
            indices.swap(store, k);
            store += 1;
        }
    }
    store
}

impl Classifier for DecisionTree {
    fn name(&self) -> &'static str {
        "decision_tree"
    }

    fn describe(&self) -> String {
        let c = &self.config;
        format!(
            "criterion={} max_depth={} min_leaf={} min_split={}",
            c.criterion.name(),
            c.max_depth
                .map_or_else(|| "none".to_string(), |d| d.to_string()),
            c.min_samples_leaf,
            c.min_samples_split
        )
    }

    fn fit(
        &self,
        x: &Matrix,
        y: &[f64],
        weights: &[f64],
        seed: u64,
    ) -> Result<Box<dyn FittedClassifier>> {
        Ok(Box::new(self.fit_tree(x, y, weights, seed)?))
    }

    fn tree_config(&self) -> Option<DecisionTreeConfig> {
        Some(self.config)
    }
}

impl DecisionTree {
    /// Fits and returns the concrete tree type (no trait-object box) —
    /// ensembles store members concretely and traverse them inline.
    pub fn fit_tree(
        &self,
        x: &Matrix,
        y: &[f64],
        weights: &[f64],
        _seed: u64,
    ) -> Result<FittedDecisionTree> {
        self.fit_prunable(x, y, weights)
            .map(PrunableTree::into_tree)
    }

    /// Fits like [`DecisionTree::fit_tree`] and keeps what
    /// [`PrunableTree::prune`] needs to derive, from this one fit, the tree
    /// of every stricter `max_depth` / `min_samples_split`.
    pub fn fit_prunable(&self, x: &Matrix, y: &[f64], weights: &[f64]) -> Result<PrunableTree> {
        validate_training_inputs(x, y, weights)?;
        self.config.check()?;
        let mut indices: Vec<usize> = (0..x.n_rows()).collect();
        let mut builder = Builder::new(x, y, weights, self.config);
        builder.build(&mut indices, 0);
        Ok(PrunableTree {
            config: self.config,
            tree: FittedDecisionTree {
                nodes: builder.nodes,
                n_features: x.n_cols(),
            },
            stats: builder.stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The builder as it was before two-valued features were counted: the
    /// same `build`, calling the split search it replaced.
    impl Builder<'_> {
        fn build_oracle(&mut self, indices: &mut [usize], depth: usize) -> usize {
            let (pos, total) = self.weighted_counts(indices);
            let node_impurity = self.config.criterion.impurity(pos, total);
            let proba = if total > 0.0 { pos / total } else { 0.5 };
            let can_split = self.config.allows_split(depth, indices.len())
                && indices.len() >= 2 * self.config.min_samples_leaf
                && node_impurity > 1e-12;
            let best = if can_split {
                self.best_split_oracle(indices, node_impurity, pos, total)
            } else {
                None
            };
            self.nodes.push(Node::Leaf { proba });
            self.stats.push(NodeStats {
                rows: indices.len(),
                depth,
                proba,
            });
            let me = self.nodes.len() - 1;
            if let Some(split) = best {
                let mid = partition(indices, |i| self.x.get(i, split.feature) <= split.threshold);
                if 0 < mid && mid < indices.len() {
                    let (left_ix, right_ix) = indices.split_at_mut(mid);
                    let left = self.build_oracle(left_ix, depth + 1);
                    let right = self.build_oracle(right_ix, depth + 1);
                    self.nodes[me] = Node::Split {
                        feature: split.feature,
                        threshold: split.threshold,
                        left,
                        right,
                    };
                }
            }
            me
        }

        /// The replaced split search: every feature sorted by strided
        /// `Matrix::get` reads, on the same NaN key, and scanned.
        fn best_split_oracle(
            &self,
            indices: &[usize],
            node_impurity: f64,
            all_pos: f64,
            all_total: f64,
        ) -> Option<BestSplit> {
            let min_leaf = self.config.min_samples_leaf;
            let mut best: Option<BestSplit> = None;
            let mut order: Vec<usize> = Vec::with_capacity(indices.len());

            for feature in 0..self.x.n_cols() {
                let value = |i: usize| split_key(self.x.get(i, feature));
                order.clear();
                order.extend_from_slice(indices);
                order.sort_unstable_by(|&a, &b| value(a).total_cmp(&value(b)));

                let mut left_pos = 0.0;
                let mut left_total = 0.0;
                for k in 0..order.len() - 1 {
                    let i = order[k];
                    left_pos += self.w[i] * self.y[i];
                    left_total += self.w[i];
                    let xv = value(i);
                    let xn = value(order[k + 1]);
                    if same_key(xv, xn) {
                        continue;
                    }
                    let n_left = k + 1;
                    let n_right = order.len() - n_left;
                    if n_left < min_leaf || n_right < min_leaf {
                        continue;
                    }
                    let right_pos = all_pos - left_pos;
                    let right_total = all_total - left_total;
                    let imp_l = self.config.criterion.impurity(left_pos, left_total);
                    let imp_r = self.config.criterion.impurity(right_pos, right_total);
                    let weighted_child =
                        (left_total * imp_l + right_total * imp_r) / all_total.max(1e-12);
                    let gain = node_impurity - weighted_child;
                    if gain >= 0.0 && best.as_ref().is_none_or(|b| gain > b.gain) {
                        best = Some(BestSplit {
                            feature,
                            threshold: midpoint(xv, xn),
                            gain,
                        });
                    }
                }
            }
            best
        }
    }

    /// One line per node, every float as its bit pattern: the split or the
    /// leaf, then the node's row count, depth and leaf probability.
    fn arena_bits(nodes: &[Node], stats: &[NodeStats]) -> Vec<String> {
        nodes
            .iter()
            .zip(stats)
            .map(|(node, s)| {
                let node = match node {
                    Node::Leaf { proba } => format!("leaf {:016x}", proba.to_bits()),
                    Node::Split {
                        feature,
                        threshold,
                        left,
                        right,
                    } => format!(
                        "x{feature} <= {:016x} ? {left} : {right}",
                        threshold.to_bits()
                    ),
                };
                let NodeStats { rows, depth, proba } = s;
                format!(
                    "{node} | {rows} rows, depth {depth}, {:016x}",
                    proba.to_bits()
                )
            })
            .collect()
    }

    /// A column of one of the kinds the oracle test mixes: one-hot 0/1,
    /// `{-0.0, 1.0}`, `{-0.0, +0.0}`, three-valued, continuous, constant,
    /// with ±∞, and with NaN of either sign.
    fn column(rng: &mut StdRng, rows: usize) -> Vec<f64> {
        let kinds: [&[f64]; 11] = [
            &[0.0, 1.0],
            &[-0.0, 1.0],
            &[-0.0, 0.0],
            &[-1.5, 0.25, 2.0],
            &[],
            &[0.75],
            &[f64::NEG_INFINITY, f64::INFINITY],
            &[f64::NEG_INFINITY, -1.0, 0.0, 3.0, f64::INFINITY],
            &[0.0, f64::INFINITY],
            &[1.0, f64::NAN],
            &[-f64::NAN, 0.0, 1.0, f64::NAN],
        ];
        let values = kinds[rng.random_range(0..kinds.len())];
        // Skewed like a one-hot indicator, or balanced.
        let skew = [0.5, 0.1][rng.random_range(0..2_usize)];
        (0..rows)
            .map(|_| match values {
                [] => rng.random::<f64>() * 4.0 - 2.0,
                [first, rest @ ..] if rest.is_empty() || rng.random_bool(1.0 - skew) => *first,
                _ => values[rng.random_range(1..values.len())],
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// `fit_prunable` builds the oracle's arena and node statistics bit
        /// for bit, over mixed column kinds, unit, reweighing-style and
        /// random positive weights, and the §5.1 hyperparameter ranges.
        #[test]
        fn builder_equals_the_sorting_oracle_node_for_node(seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let rows: usize = rng.random_range(2..=120);
            let cols: usize = rng.random_range(1..=8);
            let columns: Vec<Vec<f64>> = (0..cols).map(|_| column(&mut rng, rows)).collect();
            let data: Vec<Vec<f64>> = (0..rows)
                .map(|r| columns.iter().map(|c| c[r]).collect())
                .collect();
            let x = Matrix::from_rows(&data).expect("rectangular rows");
            let y: Vec<f64> = (0..rows).map(|_| f64::from(u8::from(rng.random_bool(0.4)))).collect();
            const CELL_WEIGHTS: [f64; 4] = [0.8125, 1.3, 0.95, 1.0714285714285714];
            let weighting = rng.random_range(0..3_u8);
            let w: Vec<f64> = y
                .iter()
                .map(|&label| match weighting {
                    0 => 1.0,
                    1 => CELL_WEIGHTS[2 * rng.random_range(0..2_usize) + usize::from(label > 0.5)],
                    _ => rng.random::<f64>() * 3.0 + 0.01,
                })
                .collect();
            let config = DecisionTreeConfig {
                criterion: [SplitCriterion::Gini, SplitCriterion::Entropy][rng.random_range(0..2_usize)],
                max_depth: [None, Some(3), Some(10)][rng.random_range(0..3_usize)],
                min_samples_leaf: rng.random_range(1..=10),
                min_samples_split: rng.random_range(2..=10),
            };

            let fitted = DecisionTree::new(config).fit_prunable(&x, &y, &w).expect("valid fit");
            let mut oracle = Builder::new(&x, &y, &w, config);
            oracle.build_oracle(&mut (0..rows).collect::<Vec<_>>(), 0);
            prop_assert_eq!(
                arena_bits(&fitted.tree.nodes, &fitted.stats),
                arena_bits(&oracle.nodes, &oracle.stats),
                "seed {}, {:?}",
                seed,
                config
            );
        }
    }

    /// Two-valued columns are told apart by bit pattern, NaN and `==`.
    #[test]
    fn two_valued_columns_need_two_distinct_non_nan_values() {
        let x = Matrix::from_rows(&[
            vec![0.0, -0.0, -0.0, 1.0, f64::NAN, 2.0, f64::NEG_INFINITY],
            vec![1.0, 1.0, 0.0, 1.0, 1.0, 3.0, f64::INFINITY],
            vec![0.0, -0.0, 0.0, 1.0, 1.0, 4.0, f64::INFINITY],
        ])
        .unwrap();
        let got: Vec<Option<(u64, u64)>> = two_valued_columns(&x)
            .into_iter()
            .map(|pair| pair.map(|(lo, hi)| (lo.to_bits(), hi.to_bits())))
            .collect();
        let bits = |lo: f64, hi: f64| Some((lo.to_bits(), hi.to_bits()));
        assert_eq!(
            got,
            vec![
                bits(0.0, 1.0),
                bits(-0.0, 1.0),
                None,
                None,
                None,
                None,
                bits(f64::NEG_INFINITY, f64::INFINITY),
            ]
        );
    }

    /// A NaN or −∞ feature value never yields a split that sends every row
    /// one way, on which an unbounded build would recurse until the stack
    /// overflows. −∞ rows and NaN rows of either sign split off cleanly:
    /// the search sorts every NaN above the numbers, where `<=` sends it.
    /// No boundary falls between two NaN rows, so a node of NaN rows with
    /// mixed labels still takes the real split below them.
    #[test]
    fn non_finite_features_split_or_stay_leaves() {
        let grows_3_nodes = |label: &str, column: &[f64], y: &[f64], predicted: &[f64]| {
            let rows: Vec<Vec<f64>> = column.iter().map(|&v| vec![v]).collect();
            let x = Matrix::from_rows(&rows).unwrap();
            let tree = DecisionTree::default()
                .fit_tree(&x, y, &vec![1.0; y.len()], 0)
                .unwrap();
            assert_eq!(tree.n_nodes(), 3, "{label}");
            assert_eq!(tree.predict(&x).unwrap(), predicted, "{label}");
        };
        for special in [f64::NAN, f64::NEG_INFINITY, -f64::NAN] {
            // The first seven rows hold `special` and are the positives.
            let column: Vec<f64> = (0..20)
                .map(|i| if i < 7 { special } else { f64::from(i % 2) })
                .collect();
            let y: Vec<f64> = (0..20).map(|i| f64::from(u8::from(i < 7))).collect();
            grows_3_nodes(&special.to_string(), &column, &y, &y);
        }
        // `[0, 0, 0, NaN×7]` labelled `[0×6, 1×4]`: the only split is
        // `x <= 0`; the NaN leaf holds 4 of 7 positives.
        let column: Vec<f64> = (0..10)
            .map(|i| if i < 3 { 0.0 } else { f64::NAN })
            .collect();
        let y: Vec<f64> = (0..10).map(|i| f64::from(u8::from(i >= 6))).collect();
        let predicted: Vec<f64> = (0..10).map(|i| f64::from(u8::from(i >= 3))).collect();
        grows_3_nodes("NaN pairs", &column, &y, &predicted);
    }

    fn xor_data() -> (Matrix, Vec<f64>) {
        // XOR needs depth >= 2 — not linearly separable.
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for _ in 0..10 {
            for (a, b) in [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)] {
                rows.push(vec![a, b]);
                y.push(f64::from(u8::from((a == 1.0) != (b == 1.0))));
            }
        }
        (Matrix::from_rows(&rows).unwrap(), y)
    }

    #[test]
    fn learns_xor() {
        let (x, y) = xor_data();
        let model = DecisionTree::default()
            .fit(&x, &y, &vec![1.0; y.len()], 0)
            .unwrap();
        let preds = model.predict(&x).unwrap();
        assert_eq!(preds, y);
    }

    #[test]
    fn max_depth_limits_tree() {
        let (x, y) = xor_data();
        let tree = DecisionTree::new(DecisionTreeConfig {
            max_depth: Some(1),
            ..Default::default()
        });
        let model = tree.fit(&x, &y, &vec![1.0; y.len()], 0).unwrap();
        // With depth 1, XOR cannot be solved: accuracy stays at 50%.
        let preds = model.predict(&x).unwrap();
        let correct = preds.iter().zip(&y).filter(|(p, t)| p == t).count();
        assert!(correct <= y.len() / 2 + 4);
    }

    #[test]
    fn depth_zero_is_single_leaf_base_rate() {
        let (x, y) = xor_data();
        let tree = DecisionTree::new(DecisionTreeConfig {
            max_depth: Some(0),
            ..Default::default()
        });
        let model = tree.fit(&x, &y, &vec![1.0; y.len()], 0).unwrap();
        let probas = model.predict_proba(&x).unwrap();
        for p in probas {
            assert!((p - 0.5).abs() < 1e-12); // XOR base rate
        }
    }

    #[test]
    fn min_samples_leaf_respected() {
        let rows: Vec<Vec<f64>> = (0..10).map(|i| vec![f64::from(i)]).collect();
        let y: Vec<f64> = (0..10).map(|i| f64::from(u8::from(i >= 9))).collect();
        let tree = DecisionTree::new(DecisionTreeConfig {
            min_samples_leaf: 3,
            ..Default::default()
        });
        let x = Matrix::from_rows(&rows).unwrap();
        let model = tree.fit(&x, &y, &[1.0; 10], 0).unwrap();
        // The pure split (9 vs 1) is forbidden; the tree must compromise.
        // Verify no leaf captured fewer than 3 samples by checking the split
        // structure indirectly: prediction for the lone positive cannot be
        // fully confident.
        let proba = model.predict_proba(&x).unwrap();
        assert!(proba[9] < 1.0);
    }

    #[test]
    fn weights_shift_leaf_probabilities() {
        // Same feature value, conflicting labels: leaf probability must be
        // the weighted positive fraction.
        let x = Matrix::from_rows(&[vec![1.0], vec![1.0]]).unwrap();
        let y = vec![1.0, 0.0];
        let model = DecisionTree::default().fit(&x, &y, &[3.0, 1.0], 0).unwrap();
        let proba = model.predict_proba(&x).unwrap();
        assert!((proba[0] - 0.75).abs() < 1e-12);
    }

    #[test]
    fn scale_invariance_of_predictions() {
        // Multiply a feature by 1000: the tree's predictions are unchanged
        // (the §5.2 robustness property).
        let (x, y) = xor_data();
        let scaled_rows: Vec<Vec<f64>> = x
            .rows_iter()
            .map(|r| vec![r[0] * 1000.0, r[1] * 1000.0])
            .collect();
        let xs = Matrix::from_rows(&scaled_rows).unwrap();
        let w = vec![1.0; y.len()];
        let m1 = DecisionTree::default().fit(&x, &y, &w, 0).unwrap();
        let m2 = DecisionTree::default().fit(&xs, &y, &w, 0).unwrap();
        assert_eq!(m1.predict(&x).unwrap(), m2.predict(&xs).unwrap());
    }

    #[test]
    fn entropy_criterion_also_learns() {
        let (x, y) = xor_data();
        let tree = DecisionTree::new(DecisionTreeConfig {
            criterion: SplitCriterion::Entropy,
            ..Default::default()
        });
        let model = tree.fit(&x, &y, &vec![1.0; y.len()], 0).unwrap();
        assert_eq!(model.predict(&x).unwrap(), y);
    }

    #[test]
    fn predict_checks_dimensionality() {
        let (x, y) = xor_data();
        let model = DecisionTree::default()
            .fit(&x, &y, &vec![1.0; y.len()], 0)
            .unwrap();
        assert!(model.predict(&Matrix::zeros(1, 5)).is_err());
    }

    #[test]
    fn invalid_config_rejected() {
        let (x, y) = xor_data();
        let w = vec![1.0; y.len()];
        let bad = DecisionTree::new(DecisionTreeConfig {
            min_samples_leaf: 0,
            ..Default::default()
        });
        assert!(bad.fit(&x, &y, &w, 0).is_err());
        let bad2 = DecisionTree::new(DecisionTreeConfig {
            min_samples_split: 1,
            ..Default::default()
        });
        assert!(bad2.fit(&x, &y, &w, 0).is_err());
    }

    #[test]
    fn prune_derives_only_stricter_members_of_the_family() {
        let (x, y) = xor_data();
        let w = vec![1.0; y.len()];
        let grown_config = DecisionTreeConfig {
            max_depth: Some(4),
            min_samples_split: 5,
            ..Default::default()
        };
        let grown = DecisionTree::new(grown_config)
            .fit_prunable(&x, &y, &w)
            .unwrap();
        assert_eq!(
            grown.prune(&grown_config).unwrap(),
            grown.clone().into_tree()
        );
        let stump = DecisionTreeConfig {
            max_depth: Some(1),
            min_samples_split: 30,
            ..grown_config
        };
        assert_eq!(
            grown.prune(&stump).unwrap(),
            DecisionTree::new(stump).fit_tree(&x, &y, &w, 0).unwrap()
        );
        let not_derivable = [
            DecisionTreeConfig {
                criterion: SplitCriterion::Entropy,
                ..grown_config
            },
            DecisionTreeConfig {
                min_samples_leaf: 2,
                ..grown_config
            },
            DecisionTreeConfig {
                max_depth: None,
                ..grown_config
            },
            DecisionTreeConfig {
                max_depth: Some(5),
                ..grown_config
            },
            DecisionTreeConfig {
                min_samples_split: 4,
                ..grown_config
            },
        ];
        for config in not_derivable {
            let err = grown.prune(&config).unwrap_err();
            assert!(matches!(err, Error::InvalidParameter { .. }), "{config:?}");
        }
    }

    #[test]
    fn impurity_functions() {
        assert_eq!(SplitCriterion::Gini.impurity(0.0, 10.0), 0.0);
        assert_eq!(SplitCriterion::Gini.impurity(10.0, 10.0), 0.0);
        assert!((SplitCriterion::Gini.impurity(5.0, 10.0) - 0.5).abs() < 1e-12);
        assert!((SplitCriterion::Entropy.impurity(5.0, 10.0) - 1.0).abs() < 1e-12);
        assert_eq!(SplitCriterion::Entropy.impurity(0.0, 10.0), 0.0);
    }

    #[test]
    fn tree_structure_accessors() {
        let (x, y) = xor_data();
        let boxed = DecisionTree::default()
            .fit(&x, &y, &vec![1.0; y.len()], 0)
            .unwrap();
        // Downcast via re-fit to the concrete type for structural checks.
        let mut indices: Vec<usize> = (0..x.n_rows()).collect();
        let w = vec![1.0; y.len()];
        let mut b = Builder::new(&x, &y, &w, DecisionTreeConfig::default());
        b.build(&mut indices, 0);
        let tree = FittedDecisionTree {
            nodes: b.nodes,
            n_features: 2,
        };
        assert!(tree.depth() >= 2);
        assert!(tree.n_nodes() >= 5);
        assert_eq!(tree.predict(&x).unwrap(), boxed.predict(&x).unwrap());
    }
}
