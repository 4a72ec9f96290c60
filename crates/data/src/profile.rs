//! Deterministic dataset profiles and stage-to-stage drift measures.
//!
//! A [`DatasetProfile`] is a compact, byte-stable sketch of one dataset
//! snapshot: per-column missingness, numeric moments with fixed-rank
//! quantile summaries, categorical cardinality with top-k counts, and the
//! protected-group × label contingency table. Profiles are computed from
//! exact passes over sorted copies — cheap at FairPrep's dataset scale —
//! and contain no timing, pointer, or thread-count artifacts, so the same
//! dataset always profiles to the same bytes (the same invariant
//! `RunManifest::canonical` maintains for the control-flow trace).
//!
//! [`dataset_drift`] diffs two snapshots of the *same logical data* at
//! adjacent lifecycle stages: per-column missingness deltas, a population
//! stability index (PSI) over the baseline's decile bins, and shifts of
//! the group balance and per-group base rates. Threshold-crossing drifts
//! (see the `*_WARN_THRESHOLD` constants) are rendered as structured
//! warnings for the run manifest.

use crate::column::Column;
use crate::dataset::BinaryLabelDataset;

/// PSI at or above this value is flagged as a drift warning. 0.2 is the
/// conventional "significant population shift" cut-off.
pub const PSI_WARN_THRESHOLD: f64 = 0.2;

/// Absolute base-rate change (overall or per group) that triggers a warning.
pub const BASE_RATE_WARN_THRESHOLD: f64 = 0.05;

/// Absolute change of the privileged-group share that triggers a warning.
pub const GROUP_BALANCE_WARN_THRESHOLD: f64 = 0.05;

/// Absolute *increase* of a column's missingness rate that triggers a
/// warning (decreases are expected — imputers exist to cause them).
pub const MISSINGNESS_WARN_THRESHOLD: f64 = 0.05;

/// Number of quantile points in a numeric profile (0th, 10th, …, 100th
/// percentile), and therefore `QUANTILE_POINTS - 1` PSI deciles.
pub const QUANTILE_POINTS: usize = 11;

/// Number of most-frequent categories retained per categorical column.
pub const TOP_K: usize = 5;

/// The profile of one column.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnProfile {
    /// Moments and quantiles of a numeric column.
    Numeric {
        /// Non-missing observations.
        count: u64,
        /// Missing observations.
        missing: u64,
        /// Arithmetic mean of the non-missing values (`NaN` when empty).
        mean: f64,
        /// Population standard deviation (`NaN` when empty).
        std_dev: f64,
        /// Minimum (`NaN` when empty).
        min: f64,
        /// Maximum (`NaN` when empty).
        max: f64,
        /// [`QUANTILE_POINTS`] evenly spaced quantiles (0th..100th
        /// percentile) over a sorted copy; empty when no values observed.
        quantiles: Vec<f64>,
    },
    /// Cardinality and top-k counts of a categorical column.
    Categorical {
        /// Non-missing observations.
        count: u64,
        /// Missing observations.
        missing: u64,
        /// Distinct observed categories.
        cardinality: u64,
        /// Up to [`TOP_K`] most frequent categories, ties broken by name.
        top: Vec<(String, u64)>,
    },
}

impl ColumnProfile {
    /// Missing observations of the column.
    #[must_use]
    pub fn missing(&self) -> u64 {
        match self {
            ColumnProfile::Numeric { missing, .. } | ColumnProfile::Categorical { missing, .. } => {
                *missing
            }
        }
    }

    /// Non-missing observations of the column.
    #[must_use]
    pub fn count(&self) -> u64 {
        match self {
            ColumnProfile::Numeric { count, .. } | ColumnProfile::Categorical { count, .. } => {
                *count
            }
        }
    }

    /// Fraction of observations that are missing (0 for an empty column).
    #[must_use]
    pub fn missing_rate(&self) -> f64 {
        let total = self.count() + self.missing();
        if total == 0 {
            0.0
        } else {
            self.missing() as f64 / total as f64
        }
    }
}

/// Protected-group × label contingency table of a snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupLabelTable {
    /// Privileged rows with the favorable label.
    pub privileged_favorable: u64,
    /// Privileged rows with the unfavorable label.
    pub privileged_unfavorable: u64,
    /// Unprivileged rows with the favorable label.
    pub unprivileged_favorable: u64,
    /// Unprivileged rows with the unfavorable label.
    pub unprivileged_unfavorable: u64,
}

impl GroupLabelTable {
    /// Total rows in the table.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.privileged_favorable
            + self.privileged_unfavorable
            + self.unprivileged_favorable
            + self.unprivileged_unfavorable
    }

    /// Fraction of rows in the privileged group (`NaN` when empty).
    #[must_use]
    pub fn privileged_share(&self) -> f64 {
        let n = self.total();
        if n == 0 {
            f64::NAN
        } else {
            (self.privileged_favorable + self.privileged_unfavorable) as f64 / n as f64
        }
    }

    /// Overall favorable-label rate (`NaN` when empty).
    #[must_use]
    pub fn base_rate(&self) -> f64 {
        let n = self.total();
        if n == 0 {
            f64::NAN
        } else {
            (self.privileged_favorable + self.unprivileged_favorable) as f64 / n as f64
        }
    }

    /// Favorable rate within the privileged group (`NaN` when empty).
    #[must_use]
    pub fn privileged_base_rate(&self) -> f64 {
        let n = self.privileged_favorable + self.privileged_unfavorable;
        if n == 0 {
            f64::NAN
        } else {
            self.privileged_favorable as f64 / n as f64
        }
    }

    /// Favorable rate within the unprivileged group (`NaN` when empty).
    #[must_use]
    pub fn unprivileged_base_rate(&self) -> f64 {
        let n = self.unprivileged_favorable + self.unprivileged_unfavorable;
        if n == 0 {
            f64::NAN
        } else {
            self.unprivileged_favorable as f64 / n as f64
        }
    }
}

/// The deterministic profile of one dataset snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetProfile {
    /// Number of rows.
    pub rows: u64,
    /// Per-column profiles, in frame column order.
    pub columns: Vec<(String, ColumnProfile)>,
    /// Protected-group × label contingency table.
    pub group_label: GroupLabelTable,
}

impl DatasetProfile {
    /// Profiles every column of `dataset` plus its group/label table.
    #[must_use]
    pub fn compute(dataset: &BinaryLabelDataset) -> DatasetProfile {
        let frame = dataset.frame();
        let columns = frame
            .column_names()
            .iter()
            .map(|name| {
                // audit: allow(expect, reason = "iterating the frame's own column names, so every lookup succeeds")
                let col = frame.column(name).expect("column exists");
                (name.clone(), profile_column(col))
            })
            .collect();

        let mut table = GroupLabelTable {
            privileged_favorable: 0,
            privileged_unfavorable: 0,
            unprivileged_favorable: 0,
            unprivileged_unfavorable: 0,
        };
        for (&label, &privileged) in dataset.labels().iter().zip(dataset.privileged_mask()) {
            let favorable = label >= 0.5;
            match (privileged, favorable) {
                (true, true) => table.privileged_favorable += 1,
                (true, false) => table.privileged_unfavorable += 1,
                (false, true) => table.unprivileged_favorable += 1,
                (false, false) => table.unprivileged_unfavorable += 1,
            }
        }

        DatasetProfile {
            rows: dataset.n_rows() as u64,
            columns,
            group_label: table,
        }
    }

    /// The profile of the named column, if present.
    #[must_use]
    pub fn column(&self, name: &str) -> Option<&ColumnProfile> {
        self.columns.iter().find(|(n, _)| n == name).map(|(_, p)| p)
    }
}

fn profile_column(column: &Column) -> ColumnProfile {
    match column {
        Column::Numeric(values) => {
            let missing = values.iter().filter(|v| v.is_none()).count() as u64;
            let mut xs: Vec<f64> = values.iter().flatten().copied().collect();
            xs.sort_by(f64::total_cmp);
            let count = xs.len() as u64;
            if xs.is_empty() {
                return ColumnProfile::Numeric {
                    count,
                    missing,
                    mean: f64::NAN,
                    std_dev: f64::NAN,
                    min: f64::NAN,
                    max: f64::NAN,
                    quantiles: Vec::new(),
                };
            }
            let n = xs.len() as f64;
            let mean = xs.iter().sum::<f64>() / n;
            let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
            let quantiles = (0..QUANTILE_POINTS)
                .map(|i| quantile_of_sorted(&xs, i as f64 / (QUANTILE_POINTS - 1) as f64))
                .collect();
            ColumnProfile::Numeric {
                count,
                missing,
                mean,
                std_dev: var.sqrt(),
                // audit: allow(index-literal, reason = "guarded by the is_empty early return above")
                min: xs[0],
                max: *xs.last().unwrap_or(&f64::NAN),
                quantiles,
            }
        }
        Column::Categorical(cat) => {
            let mut missing = 0u64;
            let mut counts = vec![0u64; cat.categories().len()];
            for code in cat.codes() {
                match code {
                    Some(c) => counts[*c as usize] += 1,
                    None => missing += 1,
                }
            }
            let count: u64 = counts.iter().sum();
            let cardinality = counts.iter().filter(|&&c| c > 0).count() as u64;
            let mut top: Vec<(String, u64)> = counts
                .iter()
                .enumerate()
                .filter(|(_, &c)| c > 0)
                .map(|(code, &c)| (cat.categories()[code].clone(), c))
                .collect();
            top.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
            top.truncate(TOP_K);
            ColumnProfile::Categorical {
                count,
                missing,
                cardinality,
                top,
            }
        }
    }
}

/// Linear-interpolation quantile of an already sorted, non-empty slice.
// audit: hot-path
fn quantile_of_sorted(sorted: &[f64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

/// Drift of one column between two snapshots.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnDrift {
    /// Column name.
    pub name: String,
    /// `current missing rate − baseline missing rate`.
    pub missing_delta: f64,
    /// Population stability index of the value distribution: decile bins
    /// from the baseline quantiles for numeric columns, category counts for
    /// categorical columns. 0 when either side is empty or the baseline has
    /// fewer than two distinct bins.
    pub psi: f64,
}

/// Drift between two adjacent dataset snapshots.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetDrift {
    /// `current rows − baseline rows`.
    pub row_delta: i64,
    /// Change of the privileged-group share.
    pub privileged_share_delta: f64,
    /// Change of the overall base rate.
    pub base_rate_delta: f64,
    /// Change of the privileged base rate.
    pub privileged_base_rate_delta: f64,
    /// Change of the unprivileged base rate.
    pub unprivileged_base_rate_delta: f64,
    /// Per-column drifts, for columns present in both snapshots, in
    /// baseline column order.
    pub columns: Vec<ColumnDrift>,
}

impl DatasetDrift {
    /// The column with the largest PSI, if any column drifted at all: a
    /// column counts only with a PSI above 0, and ties go to the
    /// lexicographically smaller name. The one worst-column rule of the
    /// workspace: the drift table and the manifest readers all call it.
    #[must_use]
    pub fn max_psi(&self) -> Option<&ColumnDrift> {
        self.columns
            .iter()
            .filter(|c| c.psi > 0.0)
            .max_by(|a, b| a.psi.total_cmp(&b.psi).then_with(|| b.name.cmp(&a.name)))
    }

    /// Renders the threshold-crossing drifts as structured warning strings
    /// for the run manifest, tagged with the stage transition `from → to`.
    /// `NaN` deltas (empty groups) never warn.
    #[must_use]
    pub fn warnings(&self, from: &str, to: &str) -> Vec<String> {
        let mut out = Vec::new();
        for col in &self.columns {
            if col.psi >= PSI_WARN_THRESHOLD {
                out.push(format!(
                    "drift {from}->{to}: column `{}` PSI {:.3} >= {PSI_WARN_THRESHOLD}",
                    col.name, col.psi
                ));
            }
            if col.missing_delta >= MISSINGNESS_WARN_THRESHOLD {
                out.push(format!(
                    "drift {from}->{to}: column `{}` missingness rose by {:.3}",
                    col.name, col.missing_delta
                ));
            }
        }
        if self.privileged_share_delta.abs() >= GROUP_BALANCE_WARN_THRESHOLD {
            out.push(format!(
                "drift {from}->{to}: privileged-group share shifted by {:+.3}",
                self.privileged_share_delta
            ));
        }
        for (what, delta) in [
            ("overall base rate", self.base_rate_delta),
            ("privileged base rate", self.privileged_base_rate_delta),
            ("unprivileged base rate", self.unprivileged_base_rate_delta),
        ] {
            if delta.abs() >= BASE_RATE_WARN_THRESHOLD {
                out.push(format!("drift {from}->{to}: {what} shifted by {delta:+.3}"));
            }
        }
        out
    }
}

/// Diffs two snapshots of the same logical data at adjacent lifecycle
/// stages. Both the datasets and their precomputed profiles are taken so
/// the PSI can bin the raw values into the *baseline's* decile edges.
#[must_use]
pub fn dataset_drift(
    baseline: &BinaryLabelDataset,
    baseline_profile: &DatasetProfile,
    current: &BinaryLabelDataset,
    current_profile: &DatasetProfile,
) -> DatasetDrift {
    let mut columns = Vec::new();
    for (name, base_col) in &baseline_profile.columns {
        let Some(cur_col) = current_profile.column(name) else {
            continue;
        };
        let psi = column_psi(name, base_col, baseline, current);
        columns.push(ColumnDrift {
            name: name.clone(),
            missing_delta: cur_col.missing_rate() - base_col.missing_rate(),
            psi,
        });
    }
    let base = &baseline_profile.group_label;
    let cur = &current_profile.group_label;
    DatasetDrift {
        row_delta: current_profile.rows as i64 - baseline_profile.rows as i64,
        privileged_share_delta: delta(base.privileged_share(), cur.privileged_share()),
        base_rate_delta: delta(base.base_rate(), cur.base_rate()),
        privileged_base_rate_delta: delta(base.privileged_base_rate(), cur.privileged_base_rate()),
        unprivileged_base_rate_delta: delta(
            base.unprivileged_base_rate(),
            cur.unprivileged_base_rate(),
        ),
        columns,
    }
}

/// `cur − base`, except `NaN` sides yield `NaN` (never a spurious drift).
fn delta(base: f64, cur: f64) -> f64 {
    cur - base
}

fn column_psi(
    name: &str,
    base_profile: &ColumnProfile,
    baseline: &BinaryLabelDataset,
    current: &BinaryLabelDataset,
) -> f64 {
    let (Ok(base_col), Ok(cur_col)) = (baseline.frame().column(name), current.frame().column(name))
    else {
        return 0.0;
    };
    match (base_profile, base_col, cur_col) {
        (
            ColumnProfile::Numeric { quantiles, .. },
            Column::Numeric(base_vals),
            Column::Numeric(cur_vals),
        ) => {
            let edges = psi_edges(quantiles);
            if edges.is_empty() {
                return 0.0;
            }
            let bins = edges.len() + 1;
            let bin_of = |x: f64| edges.iter().filter(|e| x > **e).count();
            let mut base_counts = vec![0u64; bins];
            for x in base_vals.iter().flatten() {
                base_counts[bin_of(*x)] += 1;
            }
            let mut cur_counts = vec![0u64; bins];
            for x in cur_vals.iter().flatten() {
                cur_counts[bin_of(*x)] += 1;
            }
            psi_from_counts(&base_counts, &cur_counts)
        }
        (
            ColumnProfile::Categorical { .. },
            Column::Categorical(base_cat),
            Column::Categorical(cur_cat),
        ) => {
            // Union of observed categories from both sides, sorted by name
            // for a deterministic bin order (PSI is order-invariant, but the
            // intermediate vectors should still be stable).
            let mut names: Vec<&str> = base_cat
                .categories()
                .iter()
                .chain(cur_cat.categories())
                .map(String::as_str)
                .collect();
            names.sort_unstable();
            names.dedup();
            let count_into = |cat: &crate::column::CategoricalData| -> Vec<u64> {
                let mut counts = vec![0u64; names.len()];
                for code in cat.codes().iter().flatten() {
                    if let Some(category) = cat.category_of(*code) {
                        if let Ok(ix) = names.binary_search(&category) {
                            counts[ix] += 1;
                        }
                    }
                }
                counts
            };
            psi_from_counts(&count_into(base_cat), &count_into(cur_cat))
        }
        _ => 0.0,
    }
}

/// The PSI bin edges of a numeric column: the interior decile edges of its
/// [`QUANTILE_POINTS`] profile quantiles, deduped by bit pattern, so a
/// constant column yields none (a single bin, PSI 0). A value `x` falls in
/// bin `edges.iter().filter(|e| x > **e).count()`. The lifecycle's
/// stage-to-stage PSI and the scoring service's live drift both bin by
/// these edges.
#[must_use]
pub fn psi_edges(quantiles: &[f64]) -> Vec<f64> {
    let mut edges = quantiles
        .get(1..QUANTILE_POINTS.saturating_sub(1))
        .unwrap_or(&[])
        .to_vec();
    edges.dedup_by(|a, b| a.to_bits() == b.to_bits());
    edges
}

/// PSI between two count vectors over the same bins, with Laplace
/// smoothing `(n_i + 0.5) / (N + 0.5 k)` so empty bins stay finite.
/// Returns 0 when either side has no observations or there are fewer than
/// two bins. Public so online consumers (e.g. a scoring service binning
/// live traffic against a sealed training profile) share the exact
/// smoothing the lifecycle profiler uses.
#[must_use]
pub fn psi_from_counts(base: &[u64], cur: &[u64]) -> f64 {
    psi_against_fractions(&smoothed_fractions(base), cur)
}

/// The Laplace-smoothed bin fractions `(n_i + 0.5) / (N + 0.5 k)` of a
/// count vector, or an empty vector when there are fewer than two bins
/// or no observations (the degenerate cases where PSI is defined as 0).
///
/// Baselines are fixed at seal time, so a consumer scoring live traffic
/// against a sealed training profile computes this **once per pipeline
/// at registry load** and hands the cached fractions to
/// [`psi_against_fractions`] on every scrape, instead of re-smoothing
/// the training histogram each time.
#[must_use]
pub fn smoothed_fractions(counts: &[u64]) -> Vec<f64> {
    let k = counts.len();
    if k < 2 {
        return Vec::new();
    }
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return Vec::new();
    }
    counts
        .iter()
        .map(|&n| (n as f64 + 0.5) / (total as f64 + 0.5 * k as f64))
        .collect()
}

/// PSI of a live count vector against pre-smoothed baseline fractions
/// (from [`smoothed_fractions`]). Returns 0 when the baseline is empty
/// or degenerate, the bin counts disagree, or the live side has no
/// observations. `psi_from_counts(base, cur)` is exactly
/// `psi_against_fractions(&smoothed_fractions(base), cur)` — same
/// smoothing, same operation order, bit-identical results.
#[must_use]
pub fn psi_against_fractions(base_fracs: &[f64], cur: &[u64]) -> f64 {
    let k = base_fracs.len();
    if k < 2 || cur.len() != k {
        return 0.0;
    }
    let cur_total: u64 = cur.iter().sum();
    if cur_total == 0 {
        return 0.0;
    }
    base_fracs
        .iter()
        .zip(cur)
        .map(|(&p, &c)| {
            let q = (c as f64 + 0.5) / (cur_total as f64 + 0.5 * k as f64);
            (q - p) * (q / p).ln()
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::ColumnKind;
    use crate::frame::DataFrame;
    use crate::schema::{ProtectedAttribute, Schema};

    fn dataset(scores: &[Option<f64>], groups: &[&str], labels: &[&str]) -> BinaryLabelDataset {
        let frame = DataFrame::new()
            .with_column("score", Column::from_optional_f64(scores.iter().copied()))
            .unwrap()
            .with_column("group", Column::from_strs(groups.iter().copied()))
            .unwrap()
            .with_column("y", Column::from_strs(labels.iter().copied()))
            .unwrap();
        let schema = Schema::new()
            .numeric_feature("score")
            .metadata("group", ColumnKind::Categorical)
            .label("y");
        BinaryLabelDataset::new(
            frame,
            schema,
            ProtectedAttribute::categorical("group", &["a"]),
            "good",
        )
        .unwrap()
    }

    #[test]
    fn numeric_profile_moments_and_quantiles() {
        let ds = dataset(
            &[Some(1.0), Some(2.0), Some(3.0), None],
            &["a", "a", "b", "b"],
            &["good", "bad", "good", "bad"],
        );
        let profile = DatasetProfile::compute(&ds);
        assert_eq!(profile.rows, 4);
        let ColumnProfile::Numeric {
            count,
            missing,
            mean,
            min,
            max,
            quantiles,
            ..
        } = profile.column("score").unwrap()
        else {
            panic!("score should profile as numeric");
        };
        assert_eq!((*count, *missing), (3, 1));
        assert!((mean - 2.0).abs() < 1e-12);
        assert_eq!((*min, *max), (1.0, 3.0));
        assert_eq!(quantiles.len(), QUANTILE_POINTS);
        assert_eq!(quantiles.first(), Some(&1.0));
        assert_eq!(quantiles.last(), Some(&3.0));
        // Median of [1, 2, 3].
        assert!((quantiles[QUANTILE_POINTS / 2] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn categorical_profile_top_k_is_deterministic() {
        let ds = dataset(
            &[Some(1.0); 6],
            &["a", "b", "a", "b", "a", "b"],
            &["good", "bad", "good", "bad", "good", "bad"],
        );
        let profile = DatasetProfile::compute(&ds);
        let ColumnProfile::Categorical {
            cardinality, top, ..
        } = profile.column("group").unwrap()
        else {
            panic!("group should profile as categorical");
        };
        assert_eq!(*cardinality, 2);
        // Equal counts: ties break by name.
        assert_eq!(top, &[("a".to_string(), 3), ("b".to_string(), 3)]);
    }

    #[test]
    fn group_label_table_counts() {
        let ds = dataset(
            &[Some(1.0); 4],
            &["a", "a", "b", "b"],
            &["good", "bad", "good", "good"],
        );
        let t = DatasetProfile::compute(&ds).group_label;
        assert_eq!(t.privileged_favorable, 1);
        assert_eq!(t.privileged_unfavorable, 1);
        assert_eq!(t.unprivileged_favorable, 2);
        assert_eq!(t.unprivileged_unfavorable, 0);
        assert!((t.privileged_share() - 0.5).abs() < 1e-12);
        assert!((t.base_rate() - 0.75).abs() < 1e-12);
        assert!((t.privileged_base_rate() - 0.5).abs() < 1e-12);
        assert!((t.unprivileged_base_rate() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn identical_snapshots_have_zero_drift() {
        let ds = dataset(
            &[Some(1.0), Some(2.0), Some(3.0), Some(4.0)],
            &["a", "a", "b", "b"],
            &["good", "bad", "good", "bad"],
        );
        let p = DatasetProfile::compute(&ds);
        let drift = dataset_drift(&ds, &p, &ds, &p);
        assert_eq!(drift.row_delta, 0);
        assert!(drift.columns.iter().all(|c| c.psi.abs() < 1e-12));
        assert!(drift.columns.iter().all(|c| c.missing_delta.abs() < 1e-12));
        assert!(drift.warnings("a", "b").is_empty());
        assert_eq!(drift.max_psi(), None);
    }

    #[test]
    fn max_psi_ties_break_to_lexicographically_smaller_name() {
        let column = |name: &str, psi: f64| ColumnDrift {
            name: name.to_string(),
            missing_delta: 0.0,
            psi,
        };
        let mut drift = DatasetDrift {
            row_delta: 0,
            privileged_share_delta: 0.0,
            base_rate_delta: 0.0,
            privileged_base_rate_delta: 0.0,
            unprivileged_base_rate_delta: 0.0,
            columns: vec![
                column("zeta", 0.3),
                column("alpha", 0.3),
                column("mid", 0.1),
            ],
        };
        assert_eq!(drift.max_psi().unwrap().name, "alpha");
        // A tie at 0 is no drift, and an unknown PSI (a manifest's `null`,
        // read back as NaN) never counts.
        drift.columns = vec![
            column("zeta", 0.0),
            column("alpha", 0.0),
            column("nan", f64::NAN),
        ];
        assert_eq!(drift.max_psi(), None);
    }

    #[test]
    fn shifted_distribution_has_positive_psi() {
        let base_scores: Vec<Option<f64>> = (0..40).map(|i| Some(f64::from(i))).collect();
        let cur_scores: Vec<Option<f64>> = (0..40).map(|i| Some(f64::from(i) + 30.0)).collect();
        let groups: Vec<&str> = (0..40)
            .map(|i| if i % 2 == 0 { "a" } else { "b" })
            .collect();
        let labels: Vec<&str> = (0..40)
            .map(|i| if i % 3 == 0 { "good" } else { "bad" })
            .collect();
        let base = dataset(&base_scores, &groups, &labels);
        let cur = dataset(&cur_scores, &groups, &labels);
        let drift = dataset_drift(
            &base,
            &DatasetProfile::compute(&base),
            &cur,
            &DatasetProfile::compute(&cur),
        );
        let score = drift.columns.iter().find(|c| c.name == "score").unwrap();
        assert!(
            score.psi >= PSI_WARN_THRESHOLD,
            "large shift should cross the PSI threshold, got {}",
            score.psi
        );
        let warnings = drift.warnings("raw", "shifted");
        assert!(warnings.iter().any(|w| w.contains("PSI")), "{warnings:?}");
    }

    #[test]
    fn constant_column_has_zero_psi() {
        let n = 20;
        let groups: Vec<&str> = (0..n).map(|i| if i % 2 == 0 { "a" } else { "b" }).collect();
        let labels: Vec<&str> = (0..n)
            .map(|i| if i % 2 == 0 { "good" } else { "bad" })
            .collect();
        let base = dataset(&vec![Some(7.0); n], &groups, &labels);
        let cur = dataset(&vec![Some(7.0); n], &groups, &labels);
        let drift = dataset_drift(
            &base,
            &DatasetProfile::compute(&base),
            &cur,
            &DatasetProfile::compute(&cur),
        );
        let score = drift.columns.iter().find(|c| c.name == "score").unwrap();
        assert_eq!(score.psi, 0.0);
    }

    #[test]
    fn categorical_psi_sees_new_categories() {
        let n = 30;
        let scores: Vec<Option<f64>> = vec![Some(1.0); n];
        let labels: Vec<&str> = (0..n)
            .map(|i| if i % 2 == 0 { "good" } else { "bad" })
            .collect();
        let base_groups: Vec<&str> = (0..n).map(|i| if i % 2 == 0 { "a" } else { "b" }).collect();
        // Current snapshot: "b" almost vanishes in favor of "a".
        let cur_groups: Vec<&str> = (0..n)
            .map(|i| if i % 10 == 0 { "b" } else { "a" })
            .collect();
        let base = dataset(&scores, &base_groups, &labels);
        let cur = dataset(&scores, &cur_groups, &labels);
        let drift = dataset_drift(
            &base,
            &DatasetProfile::compute(&base),
            &cur,
            &DatasetProfile::compute(&cur),
        );
        let group = drift.columns.iter().find(|c| c.name == "group").unwrap();
        assert!(group.psi > 0.0, "category shift should register, got 0");
    }

    #[test]
    fn base_rate_shift_warns() {
        let n = 20;
        let scores: Vec<Option<f64>> = vec![Some(1.0); n];
        let groups: Vec<&str> = (0..n).map(|i| if i % 2 == 0 { "a" } else { "b" }).collect();
        let base_labels: Vec<&str> = (0..n)
            .map(|i| if i % 2 == 0 { "good" } else { "bad" })
            .collect();
        let cur_labels: Vec<&str> = (0..n)
            .map(|i| if i % 4 == 0 { "good" } else { "bad" })
            .collect();
        let base = dataset(&scores, &groups, &base_labels);
        let cur = dataset(&scores, &groups, &cur_labels);
        let drift = dataset_drift(
            &base,
            &DatasetProfile::compute(&base),
            &cur,
            &DatasetProfile::compute(&cur),
        );
        assert!(drift.base_rate_delta < -BASE_RATE_WARN_THRESHOLD);
        let warnings = drift.warnings("train_split", "train_imputed");
        assert!(
            warnings.iter().any(|w| w.contains("base rate")),
            "{warnings:?}"
        );
    }

    #[test]
    fn missingness_increase_warns_but_decrease_does_not() {
        let n = 20;
        let groups: Vec<&str> = (0..n).map(|i| if i % 2 == 0 { "a" } else { "b" }).collect();
        let labels: Vec<&str> = (0..n)
            .map(|i| if i % 2 == 0 { "good" } else { "bad" })
            .collect();
        let complete: Vec<Option<f64>> = (0..n).map(|i| Some(i as f64)).collect();
        let holey: Vec<Option<f64>> = (0..n)
            .map(|i| if i % 3 == 0 { None } else { Some(i as f64) })
            .collect();
        let full = dataset(&complete, &groups, &labels);
        let sparse = dataset(&holey, &groups, &labels);
        let worse = dataset_drift(
            &full,
            &DatasetProfile::compute(&full),
            &sparse,
            &DatasetProfile::compute(&sparse),
        );
        assert!(worse
            .warnings("a", "b")
            .iter()
            .any(|w| w.contains("missingness")));
        // The imputation direction (missingness decreasing) must stay quiet.
        let better = dataset_drift(
            &sparse,
            &DatasetProfile::compute(&sparse),
            &full,
            &DatasetProfile::compute(&full),
        );
        assert!(!better
            .warnings("a", "b")
            .iter()
            .any(|w| w.contains("missingness")));
    }

    #[test]
    fn cached_baseline_fractions_reproduce_psi_bit_exactly() {
        let base = [40u64, 30, 20, 10, 0];
        let fracs = smoothed_fractions(&base);
        assert_eq!(fracs.len(), base.len());
        for cur in [
            [40u64, 30, 20, 10, 0],
            [0, 0, 0, 0, 100],
            [1, 1, 1, 1, 1],
            [7, 0, 0, 93, 0],
        ] {
            let direct = psi_from_counts(&base, &cur);
            let cached = psi_against_fractions(&fracs, &cur);
            assert_eq!(direct.to_bits(), cached.to_bits(), "{cur:?}");
        }
        // Degenerate shapes stay defined as zero.
        assert!(smoothed_fractions(&[5]).is_empty());
        assert!(smoothed_fractions(&[0, 0]).is_empty());
        assert_eq!(psi_against_fractions(&[], &[1, 2]), 0.0);
        assert_eq!(psi_against_fractions(&fracs, &[1, 2]), 0.0);
        assert_eq!(psi_against_fractions(&fracs, &[0, 0, 0, 0, 0]), 0.0);
    }
}
