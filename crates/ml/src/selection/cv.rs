//! Seeded k-fold cross-validation and grid search.
//!
//! §2.1 of the paper documents that the study of Friedler et al. selected
//! hyperparameters *on the test set* — a strong isolation violation. Here,
//! cross-validated grid search operates strictly on the data it is given
//! (the lifecycle hands it the training partition only), scores candidates
//! by mean validation-fold accuracy, and refits the winning candidate on
//! the full training data.
//!
//! Four properties make the search fast without changing its results:
//!
//! * **Shared fold cache.** Folds are derived from the seed alone, so every
//!   candidate sees identical folds. [`FoldCache`] materializes each fold's
//!   `(x_train, y_train, w_train, x_val, y_val)` exactly once instead of
//!   once per candidate (~60× fewer row-gather allocations on the paper's
//!   decision-tree grid).
//! * **One tree build per family and fold.** Decision-tree candidates that
//!   share `criterion` and `min_samples_leaf` form a family. Each fold grows
//!   one tree with the family's loosest `max_depth` and `min_samples_split`
//!   and prunes it to every member
//!   ([`PrunableTree::prune`](crate::model::PrunableTree::prune)), which
//!   equals the member's own fit node for node. The paper's 72-candidate
//!   grid takes 40 tree builds at k = 5 instead of 360; the fold counters
//!   still count candidate×fold evaluations.
//! * **Logistic candidates in lockstep blocks.** Every candidate is fitted
//!   with the search seed, so logistic candidates that agree on `eta0`,
//!   `power_t`, `max_epochs`, `fit_intercept` and on having an `l1` term
//!   draw the same shuffle and step sizes. Three or four of them form a
//!   block that each fold fits in one pass ([`fit_block`]), each member
//!   equal to its own fit bit for bit. The paper's 12-candidate grid takes 15 fit
//!   jobs at k = 5 instead of 60.
//! * **Deterministic parallel fan-out.** Fit jobs, one per (family, fold),
//!   one per (block, fold) and one per (candidate, fold) for every other
//!   candidate, run on [`fairprep_data::parallel::parallel_map`], which
//!   returns results in submission order; every fit derives its randomness
//!   from the search seed, so any thread budget produces bit-identical
//!   scores and the same winner as the sequential path.

use std::cmp::Ordering;

use fairprep_data::error::{Error, Result};
use fairprep_data::parallel::parallel_map;
use fairprep_data::split::k_fold_indices;
use fairprep_trace::{Counter, Stage, Tracer};

use crate::eval::ConfusionMatrix;
use crate::matrix::Matrix;
use crate::model::logistic::{fit_block, BLOCK_WIDTH};
use crate::model::{
    Classifier, DecisionTree, DecisionTreeConfig, FittedClassifier, LogisticRegressionConfig,
};

/// Per-candidate cross-validation outcome.
#[derive(Debug, Clone)]
pub struct CandidateScore {
    /// Index into the candidate list.
    pub candidate: usize,
    /// The candidate's `describe()` string.
    pub description: String,
    /// Mean accuracy across validation folds.
    pub mean_score: f64,
    /// Standard deviation of the fold accuracies — k-fold CV quantifies
    /// "the variability of the estimated prediction error" (§2.2).
    pub std_score: f64,
    /// The individual fold accuracies.
    pub fold_scores: Vec<f64>,
}

/// The outcome of a grid search: the refitted best model plus the full
/// score table.
pub struct GridSearchOutcome {
    /// The winning candidate refitted on all training data.
    pub best_model: Box<dyn FittedClassifier>,
    /// Index of the winning candidate.
    pub best_candidate: usize,
    /// `describe()` of the winning candidate.
    pub best_description: String,
    /// Scores for every candidate (same order as the candidate list).
    pub scores: Vec<CandidateScore>,
}

/// One materialized cross-validation fold.
struct Fold {
    x_train: Matrix,
    y_train: Vec<f64>,
    w_train: Vec<f64>,
    x_val: Matrix,
    y_val: Vec<f64>,
}

/// Materialized k-fold partitions, built once per search and shared by
/// every candidate. Folds depend only on `(n_rows, k, seed)`, so caching
/// them cannot change any candidate's score.
pub struct FoldCache {
    folds: Vec<Fold>,
}

impl FoldCache {
    /// Materializes all `k` folds of `(x, y, weights)` for `seed`.
    pub fn build(x: &Matrix, y: &[f64], weights: &[f64], k: usize, seed: u64) -> Result<Self> {
        let folds = k_fold_indices(x.n_rows(), k, seed)?
            .iter()
            .map(|(train_ix, val_ix)| Fold {
                x_train: x.take_rows(train_ix),
                y_train: train_ix.iter().map(|&i| y[i]).collect(),
                w_train: train_ix.iter().map(|&i| weights[i]).collect(),
                x_val: x.take_rows(val_ix),
                y_val: val_ix.iter().map(|&i| y[i]).collect(),
            })
            .collect();
        Ok(FoldCache { folds })
    }

    /// Number of materialized folds.
    #[must_use]
    pub fn len(&self) -> usize {
        self.folds.len()
    }

    /// Whether the cache holds no folds.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.folds.is_empty()
    }

    /// Fits `candidate` on one fold's training part and returns its
    /// validation accuracy.
    fn score_fold(&self, candidate: &dyn Classifier, fold: usize, seed: u64) -> Result<f64> {
        let f = &self.folds[fold];
        let model = candidate.fit(&f.x_train, &f.y_train, &f.w_train, seed)?;
        self.accuracy(model.as_ref(), fold)
    }

    /// Grows `family`'s loosest tree on one fold's training part and
    /// returns each member's validation accuracy, in member order.
    fn score_family_fold(&self, family: &TreeFamily, fold: usize) -> Vec<Result<f64>> {
        let f = &self.folds[fold];
        match family
            .grown
            .fit_prunable(&f.x_train, &f.y_train, &f.w_train)
        {
            Ok(grown) => family
                .members
                .iter()
                .map(|(_, config)| {
                    grown
                        .prune(config)
                        .and_then(|tree| self.accuracy(&tree, fold))
                })
                .collect(),
            // Only the training inputs can fail a valid configuration, so
            // each member's own fit would have failed the same way.
            Err(e) => family.members.iter().map(|_| Err(e.clone())).collect(),
        }
    }

    /// Fits `block`'s members in lockstep on one fold's training part and
    /// returns each member's validation accuracy, in member order.
    fn score_block_fold(&self, block: &LogisticBlock, fold: usize, seed: u64) -> Vec<Result<f64>> {
        let f = &self.folds[fold];
        match fit_block(&block.configs, &f.x_train, &f.y_train, &f.w_train, seed) {
            Ok(models) => models
                .iter()
                .map(|model| self.accuracy(model, fold))
                .collect(),
            // Every member is valid, so only the training inputs can fail
            // the block, and each member's own fit would fail the same way.
            Err(e) => block.configs.iter().map(|_| Err(e.clone())).collect(),
        }
    }

    /// Validation accuracy of `model` on one fold.
    fn accuracy(&self, model: &dyn FittedClassifier, fold: usize) -> Result<f64> {
        let f = &self.folds[fold];
        let preds = model.predict(&f.x_val)?;
        Ok(ConfusionMatrix::compute(&f.y_val, &preds, None)?.accuracy())
    }
}

/// Decision-tree candidates that share `criterion` and `min_samples_leaf`.
/// Each fold grows one tree with the family's loosest `max_depth` and
/// `min_samples_split` and prunes it to every member
/// ([`crate::model::PrunableTree::prune`]), which equals fitting each
/// member on its own.
struct TreeFamily {
    /// The family's loosest configuration: the tree that is grown.
    grown: DecisionTree,
    /// Each member's position in the selected list, and its configuration.
    members: Vec<(usize, DecisionTreeConfig)>,
}

/// [`MIN_BLOCK`] to [`BLOCK_WIDTH`] valid logistic candidates that
/// [share a block](LogisticRegressionConfig::shares_block_with): each fold
/// fits them in one pass ([`fit_block`]), which equals fitting each member
/// on its own.
struct LogisticBlock {
    /// Each member's position in the selected list.
    slots: Vec<usize>,
    /// Each member's configuration, in the same order.
    configs: Vec<LogisticRegressionConfig>,
}

/// The fewest members a [`LogisticBlock`] has. [`fit_block`] computes all
/// [`BLOCK_WIDTH`] lanes whatever its fill, about 2.5 single fits' work on
/// a german fold, so a block pays off from three members; the members of
/// a smaller one are fitted on their own.
const MIN_BLOCK: usize = 3;

/// What one fit job fits on its fold.
#[derive(Clone, Copy)]
enum FitJob<'a> {
    /// The candidate at this position in the selected list, on its own.
    Candidate(usize),
    /// Every member of a tree family, from one grown tree.
    Family(&'a TreeFamily),
    /// Every member of a logistic block, in lockstep.
    Block(&'a LogisticBlock),
}

/// How the selected candidates are fitted.
struct Plan {
    families: Vec<TreeFamily>,
    blocks: Vec<LogisticBlock>,
    /// Positions of the candidates fitted on their own.
    alone: Vec<usize>,
}

/// Groups the selected tree candidates into families and the selected
/// logistic candidates into blocks. Every other model is fitted on its
/// own, and so is a tree or logistic configuration its own fit rejects, so
/// that it fails with that fit's error and its family or block does not.
fn plan_fits(candidates: &[Box<dyn Classifier>], selected: &[usize]) -> Plan {
    let mut families: Vec<TreeFamily> = Vec::new();
    let mut blocks: Vec<LogisticBlock> = Vec::new();
    let mut alone = Vec::new();
    for (slot, &candidate) in selected.iter().enumerate() {
        if let Some(config) = candidates[candidate]
            .logistic_config()
            .filter(|c| c.check().is_ok())
        {
            let open = blocks.iter_mut().find(|b| {
                b.configs.len() < BLOCK_WIDTH
                    && b.configs
                        .first()
                        .is_some_and(|c| c.shares_block_with(&config))
            });
            match open {
                Some(block) => {
                    block.slots.push(slot);
                    block.configs.push(config);
                }
                None => blocks.push(LogisticBlock {
                    slots: vec![slot],
                    configs: vec![config],
                }),
            }
            continue;
        }
        let Some(config) = candidates[candidate]
            .tree_config()
            .filter(|c| c.check().is_ok())
        else {
            alone.push(slot);
            continue;
        };
        let family = families.iter_mut().find(|f| {
            f.grown.config.criterion == config.criterion
                && f.grown.config.min_samples_leaf == config.min_samples_leaf
        });
        match family {
            Some(family) => {
                let grown = &mut family.grown.config;
                grown.max_depth = grown.max_depth.zip(config.max_depth).map(|(a, b)| a.max(b));
                grown.min_samples_split = grown.min_samples_split.min(config.min_samples_split);
                family.members.push((slot, config));
            }
            None => families.push(TreeFamily {
                grown: DecisionTree::new(config),
                members: vec![(slot, config)],
            }),
        }
    }
    let (blocks, small): (Vec<_>, Vec<_>) =
        blocks.into_iter().partition(|b| b.slots.len() >= MIN_BLOCK);
    alone.extend(small.into_iter().flat_map(|b| b.slots));
    Plan {
        families,
        blocks,
        alone,
    }
}

/// Compares two mean scores, ranking NaN strictly below every real score
/// (a candidate whose CV score is undefined must never win the search).
fn score_ordering(a: f64, b: f64) -> Ordering {
    match (a.is_nan(), b.is_nan()) {
        (true, true) => Ordering::Equal,
        (true, false) => Ordering::Less,
        (false, true) => Ordering::Greater,
        (false, false) => a.total_cmp(&b),
    }
}

/// Index (into `scores`) of the best candidate: highest non-NaN mean
/// score, ties broken toward the earlier entry for determinism.
fn best_index(scores: &[CandidateScore]) -> Result<usize> {
    scores
        .iter()
        .enumerate()
        .max_by(|(ia, a), (ib, b)| {
            score_ordering(a.mean_score, b.mean_score).then(ib.cmp(ia)) // earlier index wins ties
        })
        .map(|(i, _)| i)
        .ok_or_else(|| Error::EmptyData("candidate score list".to_string()))
}

/// Mean and population standard deviation of a fold-score vector.
fn mean_std(fold_scores: &[f64]) -> (f64, f64) {
    let n = fold_scores.len() as f64;
    let mean = fold_scores.iter().sum::<f64>() / n;
    let var = fold_scores.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / n;
    (mean, var.sqrt())
}

/// Cross-validated grid search over fully-configured classifier candidates.
///
/// # Examples
///
/// ```
/// use fairprep_ml::matrix::Matrix;
/// use fairprep_ml::model::{Classifier, DecisionTree, DecisionTreeConfig};
/// use fairprep_ml::selection::GridSearchCv;
///
/// let x = Matrix::from_rows(
///     &(0..40).map(|i| vec![f64::from(i % 2)]).collect::<Vec<_>>(),
/// ).unwrap();
/// let y: Vec<f64> = (0..40).map(|i| f64::from(i % 2)).collect();
/// let candidates: Vec<Box<dyn Classifier>> = vec![
///     Box::new(DecisionTree::new(DecisionTreeConfig { max_depth: Some(0), ..Default::default() })),
///     Box::new(DecisionTree::new(DecisionTreeConfig { max_depth: Some(2), ..Default::default() })),
/// ];
/// let outcome = GridSearchCv::new(5)
///     .search(&candidates, &x, &y, &vec![1.0; 40], 7)
///     .unwrap();
/// assert_eq!(outcome.best_candidate, 1); // depth 2 can learn the task
/// ```
#[derive(Debug, Clone, Copy)]
pub struct GridSearchCv {
    /// Number of folds (the paper uses 5).
    pub k: usize,
    /// Worker-thread budget for the candidate×fold fit jobs. `1` (the
    /// default) runs fully sequentially; any budget produces bit-identical
    /// results because fits derive all randomness from the search seed and
    /// results are collected in submission order.
    pub threads: usize,
}

impl Default for GridSearchCv {
    fn default() -> Self {
        GridSearchCv { k: 5, threads: 1 }
    }
}

impl GridSearchCv {
    /// Creates a sequential grid search with `k` folds.
    #[must_use]
    pub fn new(k: usize) -> Self {
        GridSearchCv { k, threads: 1 }
    }

    /// Sets the worker-thread budget for fit jobs.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Scores one candidate by k-fold cross-validation. Folds are derived
    /// from `seed`, so every candidate sees identical folds.
    pub fn score_candidate(
        &self,
        candidate: &dyn Classifier,
        x: &Matrix,
        y: &[f64],
        weights: &[f64],
        seed: u64,
    ) -> Result<(f64, f64, Vec<f64>)> {
        let cache = FoldCache::build(x, y, weights, self.k, seed)?;
        let fold_scores = (0..cache.len())
            .map(|fold| cache.score_fold(candidate, fold, seed))
            .collect::<Result<Vec<f64>>>()?;
        let (mean, std) = mean_std(&fold_scores);
        Ok((mean, std, fold_scores))
    }

    /// Runs the full search: CV-scores every candidate, picks the best mean
    /// accuracy (ties break to the earlier candidate for determinism; NaN
    /// ranks below everything), and refits the winner on all of
    /// `(x, y, weights)`.
    pub fn search(
        &self,
        candidates: &[Box<dyn Classifier>],
        x: &Matrix,
        y: &[f64],
        weights: &[f64],
        seed: u64,
    ) -> Result<GridSearchOutcome> {
        self.search_traced(candidates, x, y, weights, seed, &Tracer::disabled())
    }

    /// Like [`GridSearchCv::search`], recording a `tune` span and fold
    /// counters on `tracer`. The hot fit jobs never touch the tracer, so
    /// structure and counters are identical at every thread budget (and
    /// a disabled tracer adds no allocation to the search).
    pub fn search_traced(
        &self,
        candidates: &[Box<dyn Classifier>],
        x: &Matrix,
        y: &[f64],
        weights: &[f64],
        seed: u64,
        tracer: &Tracer,
    ) -> Result<GridSearchOutcome> {
        if candidates.is_empty() {
            return Err(Error::EmptyData("grid-search candidate list".to_string()));
        }
        let _tune = tracer.span(Stage::Tune);
        let cache = FoldCache::build(x, y, weights, self.k, seed)?;
        let scores = score_candidates_on_cache(
            candidates,
            &cache,
            &candidate_indices(candidates),
            seed,
            self.threads,
            tracer,
        )?;
        let best = best_index(&scores)?;
        let best_candidate = scores[best].candidate;
        let best_model = candidates[best_candidate].fit(x, y, weights, seed)?;
        Ok(GridSearchOutcome {
            best_model,
            best_candidate,
            best_description: candidates[best_candidate].describe(),
            scores,
        })
    }
}

/// All candidate indices, in order.
fn candidate_indices(candidates: &[Box<dyn Classifier>]) -> Vec<usize> {
    (0..candidates.len()).collect()
}

/// Scores the selected candidates against a shared fold cache, fanning the
/// fit jobs across `threads` workers. Results are grouped back per
/// candidate in `selected` order; the first candidate×fold error (in that
/// order) aborts the search, matching the sequential path.
fn score_candidates_on_cache(
    candidates: &[Box<dyn Classifier>],
    cache: &FoldCache,
    selected: &[usize],
    seed: u64,
    threads: usize,
    tracer: &Tracer,
) -> Result<Vec<CandidateScore>> {
    let k = cache.len();
    let evaluations = selected.len() * k;
    // Counters are recorded up front from the candidate×fold plan — a pure
    // function of (candidates, k) — so the hot fold jobs below stay
    // tracer-free and the recorded values cannot depend on the thread
    // budget. Every evaluation after the first pass over the k folds
    // reuses a cached fold.
    tracer.add(Counter::FoldsEvaluated, evaluations as u64);
    tracer.add(Counter::FoldCacheHits, evaluations.saturating_sub(k) as u64);
    candidate_fold_scores(candidates, cache, selected, seed, threads)
        .into_iter()
        .zip(selected)
        .map(|(fold_scores, &candidate)| {
            let fold_scores = fold_scores?;
            let (mean_score, std_score) = mean_std(&fold_scores);
            Ok(CandidateScore {
                candidate,
                description: candidates[candidate].describe(),
                mean_score,
                std_score,
                fold_scores,
            })
        })
        .collect()
}

/// Each selected candidate's fold scores, in `selected` order; a
/// candidate's `Err` is its first failing fold's error. Tree families and
/// logistic blocks run as one job per (family or block, fold) and every
/// other candidate as one job per (candidate, fold); the scores are
/// scattered back into candidate×fold order, so the result does not
/// depend on the plan or the thread budget.
fn candidate_fold_scores(
    candidates: &[Box<dyn Classifier>],
    cache: &FoldCache,
    selected: &[usize],
    seed: u64,
    threads: usize,
) -> Vec<Result<Vec<f64>>> {
    let k = cache.len();
    let plan = plan_fits(candidates, selected);
    // Family and block jobs first: they are the largest, so idle workers
    // pick up the small ones at the end.
    let jobs: Vec<(FitJob<'_>, usize)> = plan
        .families
        .iter()
        .map(FitJob::Family)
        .chain(plan.blocks.iter().map(FitJob::Block))
        .chain(plan.alone.iter().copied().map(FitJob::Candidate))
        .flat_map(|job| (0..k).map(move |fold| (job, fold)))
        .collect();
    // Every job scores its candidates on one fold and each candidate's
    // jobs are queued in fold order, so pushing the scores in submission
    // order leaves each candidate's list in fold order.
    let mut per_candidate: Vec<Vec<Result<f64>>> =
        selected.iter().map(|_| Vec::with_capacity(k)).collect();
    let scored = parallel_map(jobs, threads, |(job, fold)| match job {
        FitJob::Candidate(slot) => vec![(
            slot,
            cache.score_fold(candidates[selected[slot]].as_ref(), fold, seed),
        )],
        FitJob::Family(family) => family
            .members
            .iter()
            .map(|&(slot, _)| slot)
            .zip(cache.score_family_fold(family, fold))
            .collect(),
        FitJob::Block(block) => block
            .slots
            .iter()
            .copied()
            .zip(cache.score_block_fold(block, fold, seed))
            .collect(),
    });
    for (slot, score) in scored.into_iter().flatten() {
        per_candidate[slot].push(score);
    }
    per_candidate
        .into_iter()
        .map(|folds| folds.into_iter().collect())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{LogisticRegressionSgd, Penalty, SplitCriterion};
    use crate::selection::{decision_tree_grid, logistic_regression_grid};

    /// y = 1 iff x0 > 0.5; one candidate can learn it (depth 2), one cannot
    /// (depth 0 → a single base-rate leaf).
    fn data() -> (Matrix, Vec<f64>, Vec<f64>) {
        let rows: Vec<Vec<f64>> = (0..40).map(|i| vec![f64::from(i % 2)]).collect();
        let y: Vec<f64> = (0..40).map(|i| f64::from(i % 2)).collect();
        let w = vec![1.0; 40];
        (Matrix::from_rows(&rows).unwrap(), y, w)
    }

    fn candidates() -> Vec<Box<dyn Classifier>> {
        vec![
            Box::new(DecisionTree::new(DecisionTreeConfig {
                max_depth: Some(0),
                ..Default::default()
            })),
            Box::new(DecisionTree::new(DecisionTreeConfig {
                max_depth: Some(2),
                ..Default::default()
            })),
        ]
    }

    #[test]
    fn search_picks_the_learnable_candidate() {
        let (x, y, w) = data();
        let outcome = GridSearchCv::new(5)
            .search(&candidates(), &x, &y, &w, 3)
            .unwrap();
        assert_eq!(outcome.best_candidate, 1);
        assert!(outcome.scores[1].mean_score > outcome.scores[0].mean_score);
        // The refit model is perfect on the training data.
        let preds = outcome.best_model.predict(&x).unwrap();
        assert_eq!(preds, y);
    }

    #[test]
    fn fold_scores_quantify_variability() {
        let (x, y, w) = data();
        let outcome = GridSearchCv::new(4)
            .search(&candidates(), &x, &y, &w, 3)
            .unwrap();
        for s in &outcome.scores {
            assert_eq!(s.fold_scores.len(), 4);
            assert!(s.std_score >= 0.0);
            assert!(s.mean_score >= 0.0 && s.mean_score <= 1.0);
        }
        // Perfect candidate has zero variance.
        assert!(outcome.scores[1].std_score < 1e-12);
    }

    #[test]
    fn search_is_seed_deterministic() {
        let (x, y, w) = data();
        let gs = GridSearchCv::default();
        let a = gs.search(&candidates(), &x, &y, &w, 9).unwrap();
        let b = gs.search(&candidates(), &x, &y, &w, 9).unwrap();
        assert_eq!(a.best_candidate, b.best_candidate);
        for (sa, sb) in a.scores.iter().zip(&b.scores) {
            assert_eq!(sa.fold_scores, sb.fold_scores);
        }
    }

    /// Mirror of `runner::tests::parallel_matches_sequential` at the CV
    /// level: a 2-, 4- and 8-thread search must each be bit-identical to
    /// the sequential one on the paper's logistic grid.
    #[test]
    fn parallel_search_is_bit_identical_to_sequential() {
        // German-shaped synthetic problem: 80 rows, 5 features, a noisy
        // linear target so candidates genuinely differ.
        let rows: Vec<Vec<f64>> = (0..80)
            .map(|i| {
                let i = f64::from(i);
                vec![
                    (i * 0.37).sin(),
                    (i * 0.11).cos(),
                    (i % 7.0) / 7.0,
                    (i * 1.7).sin() * (i * 0.05).cos(),
                    i / 80.0,
                ]
            })
            .collect();
        let y: Vec<f64> = rows
            .iter()
            .map(|r| f64::from(r[0] + 2.0 * r[2] - r[4] > 0.4))
            .collect();
        let x = Matrix::from_rows(&rows).unwrap();
        let w = vec![1.0; y.len()];
        let grid = logistic_regression_grid();

        let sequential = GridSearchCv::new(5).search(&grid, &x, &y, &w, 11).unwrap();
        let pa = sequential.best_model.predict_proba(&x).unwrap();
        for threads in [2, 4, 8] {
            let parallel = GridSearchCv::new(5)
                .with_threads(threads)
                .search(&grid, &x, &y, &w, 11)
                .unwrap();

            assert_eq!(sequential.best_candidate, parallel.best_candidate);
            assert_eq!(sequential.best_description, parallel.best_description);
            assert_eq!(sequential.scores.len(), parallel.scores.len());
            for (a, b) in sequential.scores.iter().zip(&parallel.scores) {
                assert_eq!(a.candidate, b.candidate);
                assert_eq!(
                    a.fold_scores, b.fold_scores,
                    "candidate {} at {threads} threads",
                    a.candidate
                );
                assert!(a.mean_score.to_bits() == b.mean_score.to_bits());
                assert!(a.std_score.to_bits() == b.std_score.to_bits());
            }
            // And the refit winners predict identically.
            let pb = parallel.best_model.predict_proba(&x).unwrap();
            assert_eq!(pa, pb, "{threads} threads");
        }
    }

    #[test]
    fn empty_candidates_rejected() {
        let (x, y, w) = data();
        assert!(GridSearchCv::default().search(&[], &x, &y, &w, 0).is_err());
    }

    #[test]
    fn too_few_rows_for_folds_rejected() {
        let x = Matrix::from_rows(&[vec![1.0], vec![0.0]]).unwrap();
        let y = vec![1.0, 0.0];
        let w = vec![1.0, 1.0];
        assert!(GridSearchCv::new(5)
            .search(&candidates(), &x, &y, &w, 0)
            .is_err());
    }

    #[test]
    fn tie_breaks_to_earlier_candidate() {
        let (x, y, w) = data();
        // Two identical candidates: the first must win.
        let same: Vec<Box<dyn Classifier>> = vec![
            Box::new(DecisionTree::default()),
            Box::new(DecisionTree::default()),
        ];
        let outcome = GridSearchCv::default()
            .search(&same, &x, &y, &w, 1)
            .unwrap();
        assert_eq!(outcome.best_candidate, 0);
    }

    fn synthetic_score(candidate: usize, mean_score: f64) -> CandidateScore {
        CandidateScore {
            candidate,
            description: format!("candidate-{candidate}"),
            mean_score,
            std_score: 0.0,
            fold_scores: vec![mean_score],
        }
    }

    /// Regression test: a NaN mean score must rank below every real score.
    /// The old `partial_cmp(..).unwrap_or(Equal)` treated NaN as a tie, so
    /// a late NaN candidate could beat a real one.
    #[test]
    fn nan_scores_never_win() {
        let scores = vec![
            synthetic_score(0, 0.4),
            synthetic_score(1, f64::NAN),
            synthetic_score(2, 0.7),
            synthetic_score(3, f64::NAN),
        ];
        assert_eq!(best_index(&scores).unwrap(), 2);

        // NaN after the best real score must not "tie" its way past it.
        let scores = vec![synthetic_score(0, 0.9), synthetic_score(1, f64::NAN)];
        assert_eq!(best_index(&scores).unwrap(), 0);
        let scores = vec![synthetic_score(0, f64::NAN), synthetic_score(1, 0.1)];
        assert_eq!(best_index(&scores).unwrap(), 1);

        // All-NaN degenerates to the earliest candidate.
        let scores = vec![synthetic_score(0, f64::NAN), synthetic_score(1, f64::NAN)];
        assert_eq!(best_index(&scores).unwrap(), 0);
    }

    #[test]
    fn traced_search_records_span_and_counters() {
        let (x, y, w) = data();
        let t = Tracer::enabled();
        GridSearchCv::new(5)
            .search_traced(&candidates(), &x, &y, &w, 3, &t)
            .unwrap();
        // 2 candidates × 5 folds; all but the first pass over the folds
        // hit the shared cache.
        assert_eq!(t.counter(Counter::FoldsEvaluated), 10);
        assert_eq!(t.counter(Counter::FoldCacheHits), 5);
        let events = t.span_events();
        assert!(events.iter().any(|e| e.enter && e.stage == Stage::Tune));
        assert!(fairprep_trace::validate_span_events(&events).is_ok());
    }

    #[test]
    fn traced_counters_are_thread_invariant() {
        let (x, y, w) = data();
        let run = |threads| {
            let t = Tracer::enabled();
            GridSearchCv::new(5)
                .with_threads(threads)
                .search_traced(&candidates(), &x, &y, &w, 3, &t)
                .unwrap();
            (
                t.counter(Counter::FoldsEvaluated),
                t.counter(Counter::FoldCacheHits),
                t.span_events().len(),
            )
        };
        assert_eq!(run(1), run(8));
    }

    #[test]
    fn fold_cache_len_matches_k() {
        let (x, y, w) = data();
        let cache = FoldCache::build(&x, &y, &w, 5, 3).unwrap();
        assert_eq!(cache.len(), 5);
        assert!(!cache.is_empty());
    }

    const SEED: u64 = 29;

    /// 150 rows whose features repeat few values, labels that trees fit
    /// only partly, and reweighing-style weights (one per group × label
    /// cell), so the grid's configurations grow many different trees.
    fn tree_data() -> (Matrix, Vec<f64>, Vec<f64>) {
        let cell_weights = [0.8125, 1.3, 0.95, 1.0714285714285714];
        let (mut rows, mut y, mut w) = (Vec::new(), Vec::new(), Vec::new());
        for i in 0..150_u32 {
            let (a, b, c) = (i % 7, (i * 5 + 3) % 11, (i * 13) % 4);
            rows.push(vec![f64::from(a), f64::from(b) * 0.5, f64::from(c) - 1.5]);
            let label = u32::from(a + b % 5 > 4 + c) ^ u32::from(i % 9 == 0);
            y.push(f64::from(label));
            w.push(cell_weights[(2 * ((i / 3) % 2) + label) as usize]);
        }
        (Matrix::from_rows(&rows).unwrap(), y, w)
    }

    /// 120 rows of 24 features at scales 1 to 16, three of them weakly
    /// informative, and a noisy target, so that every penalty and strength
    /// of the paper's grid scores differently; reweighing-style weights.
    fn logistic_data() -> (Matrix, Vec<f64>, Vec<f64>) {
        let cell_weights = [0.8125, 1.3, 0.95, 1.0714285714285714];
        let (mut rows, mut y, mut w) = (Vec::new(), Vec::new(), Vec::new());
        for i in 0..120_u32 {
            let row: Vec<f64> = (0..24_u32)
                .map(|j| {
                    let scale = f64::from(1 << (j % 5));
                    (f64::from(i * (j + 3) + j * j) * 0.618_034).sin() * scale
                })
                .collect();
            let noise = (f64::from(i) * std::f64::consts::E).cos() * 0.6;
            let label = u32::from(0.2 * (row[0] + 0.5 * row[1] - 0.3 * row[2]) + noise > 0.1);
            y.push(f64::from(label));
            w.push(cell_weights[(2 * (i % 2) + label) as usize]);
            rows.push(row);
        }
        (Matrix::from_rows(&rows).unwrap(), y, w)
    }

    fn tree(
        criterion: SplitCriterion,
        max_depth: Option<usize>,
        min_samples_leaf: usize,
        min_samples_split: usize,
    ) -> Box<dyn Classifier> {
        Box::new(DecisionTree::new(DecisionTreeConfig {
            criterion,
            max_depth,
            min_samples_leaf,
            min_samples_split,
        }))
    }

    fn lr(config: LogisticRegressionConfig) -> Box<dyn Classifier> {
        Box::new(LogisticRegressionSgd::new(config))
    }

    fn lr_penalty(penalty: Penalty, alpha: f64) -> Box<dyn Classifier> {
        lr(LogisticRegressionConfig {
            penalty,
            alpha,
            ..LogisticRegressionConfig::default()
        })
    }

    /// Position of the rejected tree in [`mixed_candidates`].
    const REJECTED: usize = 3;
    /// Position of the rejected logistic model in [`mixed_candidates`].
    const REJECTED_LR: usize = 13;
    /// Position of the logistic model with a NaN `power_t`.
    const REJECTED_POWER_T: usize = 18;

    /// Trees from two families with a tree that `fit_tree` rejects
    /// (`min_samples_split: 1`) inside the first, and logistic models: two
    /// blocks of three (positions 0, 12, 14 without an `l1` term; 7, 15, 17
    /// with one), two that share a block too small to pay off (8, 16 at
    /// another `eta0`), three that share no block (another `max_epochs`,
    /// no intercept, another `power_t`), and two that `fit` rejects:
    /// `alpha: -1.0` beside the first block, and a NaN `power_t` last.
    fn mixed_candidates() -> Vec<Box<dyn Classifier>> {
        use SplitCriterion::{Entropy, Gini};
        let base = LogisticRegressionConfig::default;
        vec![
            Box::new(LogisticRegressionSgd::default()),
            tree(Gini, Some(3), 2, 5),
            tree(Entropy, Some(5), 1, 2),
            tree(Gini, Some(2), 2, 1),
            tree(Gini, None, 2, 10),
            tree(Gini, Some(10), 2, 2),
            tree(Entropy, Some(1), 1, 5),
            lr_penalty(Penalty::L1, 1e-3),
            lr(LogisticRegressionConfig {
                eta0: 0.05,
                ..base()
            }),
            lr(LogisticRegressionConfig {
                max_epochs: 5,
                ..base()
            }),
            lr(LogisticRegressionConfig {
                fit_intercept: false,
                ..base()
            }),
            lr(LogisticRegressionConfig {
                power_t: 0.5,
                ..base()
            }),
            lr_penalty(Penalty::None, 0.0),
            lr_penalty(Penalty::L2, -1.0),
            // `l1 = 0`: no `l1` term, so it joins the first block.
            lr_penalty(Penalty::ElasticNet { l1_ratio: 0.0 }, 5e-3),
            lr_penalty(Penalty::ElasticNet { l1_ratio: 0.5 }, 1e-3),
            lr(LogisticRegressionConfig {
                eta0: 0.05,
                alpha: 1e-3,
                ..base()
            }),
            lr_penalty(Penalty::L1, 5e-5),
            lr(LogisticRegressionConfig {
                power_t: f64::NAN,
                ..base()
            }),
        ]
    }

    /// Each candidate's fold scores from `score_candidate`: one fit per
    /// candidate and fold.
    fn scored_alone(
        candidates: &[Box<dyn Classifier>],
        (x, y, w): &(Matrix, Vec<f64>, Vec<f64>),
    ) -> Vec<Result<Vec<f64>>> {
        candidates
            .iter()
            .map(|c| {
                GridSearchCv::new(5)
                    .score_candidate(c.as_ref(), x, y, w, SEED)
                    .map(|(_, _, folds)| folds)
            })
            .collect()
    }

    fn bits(scores: &[f64]) -> Vec<u64> {
        scores.iter().map(|s| s.to_bits()).collect()
    }

    fn assert_scored_as_alone(scores: &[CandidateScore], alone: &[Result<Vec<f64>>]) {
        for s in scores {
            let want = alone[s.candidate].as_ref().unwrap();
            assert_eq!(
                bits(&s.fold_scores),
                bits(want),
                "candidate {}",
                s.candidate
            );
        }
    }

    /// Both searches, at 1 and 4 threads, score the paper's tree grid
    /// bit for bit as one fit per candidate and fold does, and count
    /// candidate×fold evaluations as before.
    #[test]
    fn tree_grid_scores_match_single_candidate_fits() {
        let data = tree_data();
        let (x, y, w) = &data;
        let grid = decision_tree_grid();
        let alone = scored_alone(&grid, &data);
        let mut distinct: Vec<Vec<u64>> = alone.iter().map(|f| bits(f.as_ref().unwrap())).collect();
        distinct.sort_unstable();
        distinct.dedup();
        assert!(
            distinct.len() > 10,
            "only {} distinct fold-score vectors",
            distinct.len()
        );
        for threads in [1, 4] {
            let t = Tracer::enabled();
            let full = GridSearchCv::new(5)
                .with_threads(threads)
                .search_traced(&grid, x, y, w, SEED, &t)
                .unwrap();
            assert_eq!(full.scores.len(), 72);
            assert_eq!(t.counter(Counter::FoldsEvaluated), 360);
            assert_eq!(t.counter(Counter::FoldCacheHits), 355);
            assert_scored_as_alone(&full.scores, &alone);
            let sampled = RandomizedSearchCv::new(5, 20)
                .with_threads(threads)
                .search(&grid, x, y, w, SEED)
                .unwrap();
            assert_eq!(sampled.scores.len(), 20);
            assert_scored_as_alone(&sampled.scores, &alone);
        }
    }

    /// Both searches, at 1 and 4 threads, score the paper's logistic grid
    /// bit for bit as one fit per candidate and fold does, and count
    /// candidate×fold evaluations as before.
    #[test]
    fn logistic_grid_scores_match_single_candidate_fits() {
        let data = logistic_data();
        let (x, y, w) = &data;
        let grid = logistic_regression_grid();
        let plan = plan_fits(&grid, &candidate_indices(&grid));
        let blocks: Vec<&[usize]> = plan.blocks.iter().map(|b| b.slots.as_slice()).collect();
        assert_eq!(blocks, [&[0, 1, 2, 3][..], &[4, 5, 6, 7], &[8, 9, 10, 11]]);
        let alone = scored_alone(&grid, &data);
        let mut distinct: Vec<Vec<u64>> = alone.iter().map(|f| bits(f.as_ref().unwrap())).collect();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), 12, "candidates that score alike");
        for threads in [1, 4] {
            let t = Tracer::enabled();
            let full = GridSearchCv::new(5)
                .with_threads(threads)
                .search_traced(&grid, x, y, w, SEED, &t)
                .unwrap();
            assert_eq!(full.scores.len(), 12);
            assert_eq!(t.counter(Counter::FoldsEvaluated), 60);
            assert_eq!(t.counter(Counter::FoldCacheHits), 55);
            assert_scored_as_alone(&full.scores, &alone);
            let sampled = RandomizedSearchCv::new(5, 7)
                .with_threads(threads)
                .search(&grid, x, y, w, SEED)
                .unwrap();
            assert_eq!(sampled.scores.len(), 7);
            assert_scored_as_alone(&sampled.scores, &alone);
        }
    }

    /// On a mixed list the tree `fit_tree` rejects and the logistic model
    /// `fit` rejects fail with their own errors, while the rest of their
    /// family or block scores as if fitted alone.
    #[test]
    fn rejected_candidates_fail_alone_and_spare_their_families_and_blocks() {
        let data = tree_data();
        let (x, y, w) = &data;
        let mixed = mixed_candidates();
        let alone = scored_alone(&mixed, &data);
        let rejected = alone[REJECTED].clone().unwrap_err();
        assert!(matches!(rejected, Error::InvalidParameter { .. }));
        let rejected_lr = alone[REJECTED_LR].clone().unwrap_err();
        assert!(matches!(
            rejected_lr,
            Error::InvalidParameter { name: "alpha", .. }
        ));
        let rejected_power_t = alone[REJECTED_POWER_T].clone().unwrap_err();
        assert!(matches!(
            rejected_power_t,
            Error::InvalidParameter {
                name: "power_t",
                ..
            }
        ));
        let plan = plan_fits(&mixed, &candidate_indices(&mixed));
        let blocks: Vec<&[usize]> = plan.blocks.iter().map(|b| b.slots.as_slice()).collect();
        assert_eq!(blocks, [&[0, 12, 14][..], &[7, 15, 17]]);
        let mut lone = plan.alone.clone();
        lone.sort_unstable();
        assert_eq!(lone, [3, 8, 9, 10, 11, 13, 16, 18]);
        let cache = FoldCache::build(x, y, w, 5, SEED).unwrap();
        // Every candidate, and a sorted subset as RandomizedSearchCv samples.
        for selected in [
            candidate_indices(&mixed),
            vec![1, 3, 6, 7, 8, 12, 13, 15, 16, 17, 18],
        ] {
            for threads in [1, 4] {
                let got = candidate_fold_scores(&mixed, &cache, &selected, SEED, threads);
                for (got, &c) in got.iter().zip(&selected) {
                    match (got, &alone[c]) {
                        (Ok(a), Ok(b)) => assert_eq!(bits(a), bits(b), "candidate {c}"),
                        (Err(a), Err(b)) => assert_eq!(a, b, "candidate {c}"),
                        (a, b) => panic!("candidate {c}: {a:?} against {b:?} alone"),
                    }
                }
            }
        }

        let valid: Vec<Box<dyn Classifier>> = mixed_candidates()
            .into_iter()
            .enumerate()
            .filter_map(|(c, candidate)| {
                (![REJECTED, REJECTED_LR, REJECTED_POWER_T].contains(&c)).then_some(candidate)
            })
            .collect();
        let valid_alone = scored_alone(&valid, &data);
        for threads in [1, 4] {
            let searches = [
                GridSearchCv::new(5)
                    .with_threads(threads)
                    .search(&mixed, x, y, w, SEED),
                RandomizedSearchCv::new(5, mixed.len())
                    .with_threads(threads)
                    .search(&mixed, x, y, w, SEED),
            ];
            // The first rejected candidate in list order fails the search.
            for outcome in searches {
                match outcome {
                    Err(e) => assert_eq!(e, rejected),
                    Ok(_) => panic!("the rejected tree did not fail the search"),
                }
            }
            let without_tree: Vec<Box<dyn Classifier>> = mixed_candidates()
                .into_iter()
                .enumerate()
                .filter_map(|(c, candidate)| (c != REJECTED).then_some(candidate))
                .collect();
            match GridSearchCv::new(5)
                .with_threads(threads)
                .search(&without_tree, x, y, w, SEED)
            {
                Err(e) => assert_eq!(e, rejected_lr),
                Ok(_) => panic!("the rejected logistic model did not fail the search"),
            }
            let only_power_t: Vec<Box<dyn Classifier>> = mixed_candidates()
                .into_iter()
                .enumerate()
                .filter_map(|(c, candidate)| {
                    (![REJECTED, REJECTED_LR].contains(&c)).then_some(candidate)
                })
                .collect();
            match GridSearchCv::new(5)
                .with_threads(threads)
                .search(&only_power_t, x, y, w, SEED)
            {
                Err(e) => assert_eq!(e, rejected_power_t),
                Ok(_) => panic!("the NaN power_t did not fail the search"),
            }
            let full = GridSearchCv::new(5)
                .with_threads(threads)
                .search(&valid, x, y, w, SEED)
                .unwrap();
            assert_scored_as_alone(&full.scores, &valid_alone);
            let sampled = RandomizedSearchCv::new(5, 4)
                .with_threads(threads)
                .search(&valid, x, y, w, SEED)
                .unwrap();
            assert_scored_as_alone(&sampled.scores, &valid_alone);
        }
    }
}

/// Randomized hyperparameter search: cross-validates a seeded random subset
/// of the candidate list instead of the full grid — the standard budget
/// lever when a grid is large (e.g. the 72-candidate decision-tree grid).
#[derive(Debug, Clone, Copy)]
pub struct RandomizedSearchCv {
    /// Number of folds.
    pub k: usize,
    /// Number of candidates to sample (without replacement).
    pub n_iter: usize,
    /// Worker-thread budget for fit jobs (see [`GridSearchCv::threads`]).
    pub threads: usize,
}

impl RandomizedSearchCv {
    /// Creates a sequential randomized search with `k` folds and `n_iter`
    /// sampled candidates.
    #[must_use]
    pub fn new(k: usize, n_iter: usize) -> Self {
        RandomizedSearchCv {
            k,
            n_iter,
            threads: 1,
        }
    }

    /// Sets the worker-thread budget for fit jobs.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Samples `n_iter` candidates (seeded, without replacement), scores
    /// them against a shared fold cache, and refits the winner. The
    /// outcome's candidate indices refer to the ORIGINAL candidate list.
    pub fn search(
        &self,
        candidates: &[Box<dyn Classifier>],
        x: &Matrix,
        y: &[f64],
        weights: &[f64],
        seed: u64,
    ) -> Result<GridSearchOutcome> {
        self.search_traced(candidates, x, y, weights, seed, &Tracer::disabled())
    }

    /// Like [`RandomizedSearchCv::search`], recording a `tune` span plus
    /// fold counters and the number of grid points the sampling budget
    /// pruned away.
    pub fn search_traced(
        &self,
        candidates: &[Box<dyn Classifier>],
        x: &Matrix,
        y: &[f64],
        weights: &[f64],
        seed: u64,
        tracer: &Tracer,
    ) -> Result<GridSearchOutcome> {
        if candidates.is_empty() {
            return Err(Error::EmptyData(
                "randomized-search candidate list".to_string(),
            ));
        }
        let _tune = tracer.span(Stage::Tune);
        use rand::seq::SliceRandom;
        let mut order: Vec<usize> = (0..candidates.len()).collect();
        let mut rng = fairprep_data::rng::component_rng(seed, "randomized_search");
        order.shuffle(&mut rng);
        order.truncate(self.n_iter.clamp(1, candidates.len()));
        order.sort_unstable(); // deterministic scoring order
        tracer.add(
            Counter::CandidatesPruned,
            (candidates.len() - order.len()) as u64,
        );

        let cache = FoldCache::build(x, y, weights, self.k, seed)?;
        let scores =
            score_candidates_on_cache(candidates, &cache, &order, seed, self.threads, tracer)?;
        let best = best_index(&scores)?;
        let best_candidate = scores[best].candidate;
        let best_model = candidates[best_candidate].fit(x, y, weights, seed)?;
        Ok(GridSearchOutcome {
            best_model,
            best_candidate,
            best_description: candidates[best_candidate].describe(),
            scores,
        })
    }
}

#[cfg(test)]
mod randomized_tests {
    use super::*;
    use crate::model::{DecisionTree, DecisionTreeConfig};
    use crate::selection::decision_tree_grid;

    fn data() -> (Matrix, Vec<f64>, Vec<f64>) {
        let rows: Vec<Vec<f64>> = (0..60).map(|i| vec![f64::from(i % 2)]).collect();
        let y: Vec<f64> = (0..60).map(|i| f64::from(i % 2)).collect();
        (Matrix::from_rows(&rows).unwrap(), y, vec![1.0; 60])
    }

    #[test]
    fn samples_the_requested_budget() {
        let (x, y, w) = data();
        let candidates = decision_tree_grid();
        let outcome = RandomizedSearchCv::new(3, 10)
            .search(&candidates, &x, &y, &w, 5)
            .unwrap();
        assert_eq!(outcome.scores.len(), 10);
        assert!(outcome.best_candidate < candidates.len());
        // Every scored index is unique (sampling without replacement).
        let mut seen: Vec<usize> = outcome.scores.iter().map(|s| s.candidate).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 10);
    }

    #[test]
    fn oversized_budget_clamps_to_full_grid() {
        let (x, y, w) = data();
        let candidates: Vec<Box<dyn Classifier>> = vec![
            Box::new(DecisionTree::new(DecisionTreeConfig {
                max_depth: Some(0),
                ..Default::default()
            })),
            Box::new(DecisionTree::default()),
        ];
        let outcome = RandomizedSearchCv::new(3, 99)
            .search(&candidates, &x, &y, &w, 1)
            .unwrap();
        assert_eq!(outcome.scores.len(), 2);
        assert_eq!(outcome.best_candidate, 1); // only the unbounded tree learns
    }

    #[test]
    fn seeded_sampling_is_deterministic() {
        let (x, y, w) = data();
        let candidates = decision_tree_grid();
        let search = RandomizedSearchCv::new(3, 8);
        let a = search.search(&candidates, &x, &y, &w, 7).unwrap();
        let b = search.search(&candidates, &x, &y, &w, 7).unwrap();
        let ixs = |o: &GridSearchOutcome| o.scores.iter().map(|s| s.candidate).collect::<Vec<_>>();
        assert_eq!(ixs(&a), ixs(&b));
        let c = search.search(&candidates, &x, &y, &w, 8).unwrap();
        assert_ne!(ixs(&a), ixs(&c));
    }

    #[test]
    fn parallel_randomized_search_matches_sequential() {
        let (x, y, w) = data();
        let candidates = decision_tree_grid();
        let a = RandomizedSearchCv::new(3, 8)
            .search(&candidates, &x, &y, &w, 7)
            .unwrap();
        let b = RandomizedSearchCv::new(3, 8)
            .with_threads(4)
            .search(&candidates, &x, &y, &w, 7)
            .unwrap();
        assert_eq!(a.best_candidate, b.best_candidate);
        for (sa, sb) in a.scores.iter().zip(&b.scores) {
            assert_eq!(sa.candidate, sb.candidate);
            assert_eq!(sa.fold_scores, sb.fold_scores);
        }
    }

    #[test]
    fn empty_candidates_rejected() {
        let (x, y, w) = data();
        assert!(RandomizedSearchCv::new(3, 4)
            .search(&[], &x, &y, &w, 0)
            .is_err());
    }

    #[test]
    fn traced_randomized_search_counts_pruned_candidates() {
        let (x, y, w) = data();
        let candidates = decision_tree_grid();
        let t = Tracer::enabled();
        RandomizedSearchCv::new(3, 8)
            .search_traced(&candidates, &x, &y, &w, 7, &t)
            .unwrap();
        assert_eq!(
            t.counter(Counter::CandidatesPruned) as usize,
            candidates.len() - 8
        );
        assert_eq!(t.counter(Counter::FoldsEvaluated), 24); // 8 sampled × 3 folds
    }
}
