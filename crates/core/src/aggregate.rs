//! Sweep aggregation: distributions of metrics across runs.
//!
//! §2.2 argues for evaluation techniques that "quantify the variability of
//! the estimated prediction error" rather than reporting single numbers.
//! [`SweepAggregator`] groups run results by a configuration key and
//! computes the mean / standard deviation / extrema of any test metric per
//! group — the machinery behind the per-panel summaries the figure
//! harnesses print.

use std::collections::BTreeMap;

use crate::results::RunResult;

/// Distribution summary of one metric within one configuration group.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDistribution {
    /// Number of finite observations.
    pub n: usize,
    /// Mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
}

impl MetricDistribution {
    /// Summarizes `values`, skipping every non-finite one; with none left,
    /// `n` is 0 and the other fields are NaN.
    #[must_use]
    pub fn from_values(values: &[f64]) -> MetricDistribution {
        let xs: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
        if xs.is_empty() {
            return MetricDistribution {
                n: 0,
                mean: f64::NAN,
                std: f64::NAN,
                min: f64::NAN,
                max: f64::NAN,
            };
        }
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        MetricDistribution {
            n: xs.len(),
            mean,
            std: var.sqrt(),
            min: xs.iter().copied().fold(f64::INFINITY, f64::min),
            max: xs.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        }
    }
}

/// Groups runs by a configuration key and aggregates chosen test metrics.
pub struct SweepAggregator {
    metrics: Vec<String>,
    groups: BTreeMap<String, Vec<BTreeMap<String, f64>>>,
}

impl SweepAggregator {
    /// Creates an aggregator tracking the given test metrics.
    #[must_use]
    pub fn new(metrics: &[&str]) -> Self {
        SweepAggregator {
            metrics: metrics.iter().map(ToString::to_string).collect(),
            groups: BTreeMap::new(),
        }
    }

    /// Adds a run under an explicit group key.
    pub fn add_with_key(&mut self, key: &str, result: &RunResult) {
        self.groups
            .entry(key.to_string())
            .or_default()
            .push(result.test_metrics());
    }

    /// Adds a run, keyed by its configuration metadata
    /// (`preprocessor|postprocessor|learner|missing_handler|scaler`) —
    /// runs differing only in seed land in the same group.
    pub fn add(&mut self, result: &RunResult) {
        let m = &result.metadata;
        let key = format!(
            "{}|{}|{}|{}|{}",
            m.preprocessor, m.postprocessor, m.candidates[m.selected], m.missing_handler, m.scaler
        );
        self.add_with_key(&key, result);
    }

    /// The group keys seen so far, in sorted order.
    #[must_use]
    pub fn keys(&self) -> Vec<&str> {
        self.groups.keys().map(String::as_str).collect()
    }

    /// Number of runs recorded under `key`.
    #[must_use]
    pub fn group_size(&self, key: &str) -> usize {
        self.groups.get(key).map_or(0, Vec::len)
    }

    /// Distribution of `metric` within `key`'s group, if both exist.
    #[must_use]
    pub fn distribution(&self, key: &str, metric: &str) -> Option<MetricDistribution> {
        let runs = self.groups.get(key)?;
        if !self.metrics.iter().any(|m| m == metric) {
            return None;
        }
        let values: Vec<f64> = runs
            .iter()
            .map(|m| m.get(metric).copied().unwrap_or(f64::NAN))
            .collect();
        Some(MetricDistribution::from_values(&values))
    }

    /// Full summary table: `(group key, metric, distribution)` for every
    /// tracked metric of every group.
    #[must_use]
    pub fn summary(&self) -> Vec<(String, String, MetricDistribution)> {
        let mut out = Vec::new();
        for key in self.groups.keys() {
            for metric in &self.metrics {
                if let Some(dist) = self.distribution(key, metric) {
                    out.push((key.clone(), metric.clone(), dist));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::Experiment;
    use crate::learners::DecisionTreeLearner;
    use fairprep_datasets::generate_german;
    use fairprep_fairness::preprocess::Reweighing;

    fn run(seed: u64, reweigh: bool) -> RunResult {
        let builder = Experiment::builder("german", generate_german(150, 1).unwrap())
            .seed(seed)
            .learner(DecisionTreeLearner { tuned: false });
        let builder = if reweigh {
            builder.preprocessor(Reweighing)
        } else {
            builder
        };
        builder.build().unwrap().run().unwrap()
    }

    #[test]
    fn from_values_skips_non_finite_values() {
        let d = MetricDistribution::from_values(&[1.0, 2.0, 3.0, f64::NAN, f64::INFINITY]);
        assert_eq!(d.n, 3);
        assert!((d.mean - 2.0).abs() < 1e-12);
        assert!((d.std - (2.0_f64 / 3.0).sqrt()).abs() < 1e-12);
        assert_eq!((d.min, d.max), (1.0, 3.0));
        let empty = MetricDistribution::from_values(&[f64::NAN]);
        assert_eq!(empty.n, 0);
        assert!(empty.mean.is_nan() && empty.std.is_nan());
        assert!(empty.min.is_nan() && empty.max.is_nan());
    }

    #[test]
    fn groups_by_configuration_not_seed() {
        let mut agg = SweepAggregator::new(&["overall_accuracy"]);
        agg.add(&run(1, false));
        agg.add(&run(2, false));
        agg.add(&run(1, true));
        assert_eq!(agg.keys().len(), 2);
        let keys = agg.keys();
        let baseline_key = keys.iter().find(|k| k.contains("no_intervention")).unwrap();
        assert_eq!(agg.group_size(baseline_key), 2);
    }

    #[test]
    fn distributions_are_sensible() {
        let mut agg = SweepAggregator::new(&["overall_accuracy", "disparate_impact"]);
        for seed in [1, 2, 3] {
            agg.add(&run(seed, false));
        }
        let key = agg.keys()[0].to_string();
        let d = agg.distribution(&key, "overall_accuracy").unwrap();
        assert_eq!(d.n, 3);
        assert!(d.min <= d.mean && d.mean <= d.max);
        assert!(d.std >= 0.0);
        // Untracked metric → None.
        assert!(agg.distribution(&key, "f1").is_none());
        // Unknown key → None.
        assert!(agg.distribution("nope", "overall_accuracy").is_none());
    }

    #[test]
    fn summary_covers_all_cells() {
        let mut agg = SweepAggregator::new(&["overall_accuracy", "disparate_impact"]);
        agg.add(&run(1, false));
        agg.add(&run(1, true));
        let summary = agg.summary();
        assert_eq!(summary.len(), 4); // 2 groups x 2 metrics
    }

    #[test]
    fn explicit_keys_override_metadata_grouping() {
        let mut agg = SweepAggregator::new(&["overall_accuracy"]);
        agg.add_with_key("custom", &run(1, false));
        agg.add_with_key("custom", &run(1, true));
        assert_eq!(agg.keys(), vec!["custom"]);
        assert_eq!(agg.group_size("custom"), 2);
    }
}

/// Runs the same experiment configuration across many seeds (fresh
/// train/validation/test resplits) and collects the metric distributions —
/// the §2.2 recommendation to quantify outcome variability instead of
/// reporting single numbers.
///
/// `build` constructs the experiment for a given seed (experiments are
/// consumed by `run`, so one must be built per seed).
pub fn repeated_evaluation(
    build: impl Fn(u64) -> fairprep_data::error::Result<crate::experiment::Experiment> + Send + Sync,
    seeds: &[u64],
    threads: usize,
) -> Vec<fairprep_data::error::Result<RunResult>> {
    repeated_evaluation_traced(build, seeds, threads, &fairprep_trace::Tracer::disabled())
}

/// Like [`repeated_evaluation`], additionally recording each per-seed
/// failure (`"job <index>: <error>"`) and the `jobs_failed` counter on
/// `tracer`. Only failures and counters are traced — concurrent runs
/// would interleave their span events, so no spans are opened here.
pub fn repeated_evaluation_traced(
    build: impl Fn(u64) -> fairprep_data::error::Result<crate::experiment::Experiment> + Send + Sync,
    seeds: &[u64],
    threads: usize,
    tracer: &fairprep_trace::Tracer,
) -> Vec<fairprep_data::error::Result<RunResult>> {
    let jobs: Vec<crate::runner::Job> = seeds
        .iter()
        .map(|&seed| {
            let exp = build(seed);
            Box::new(move || exp?.run()) as crate::runner::Job
        })
        .collect();
    crate::runner::run_parallel_traced(jobs, threads, tracer)
}

/// Summarizes one test metric across the successful runs of a repeated
/// evaluation.
#[must_use]
pub fn metric_across_runs(
    results: &[fairprep_data::error::Result<RunResult>],
    metric: &str,
) -> MetricDistribution {
    let values: Vec<f64> = results
        .iter()
        .filter_map(|r| r.as_ref().ok())
        .map(|r| r.test_metrics().get(metric).copied().unwrap_or(f64::NAN))
        .collect();
    MetricDistribution::from_values(&values)
}

#[cfg(test)]
mod repeated_tests {
    use super::*;
    use crate::experiment::Experiment;
    use crate::learners::DecisionTreeLearner;
    use fairprep_datasets::generate_german;

    #[test]
    fn repeated_evaluation_quantifies_variability() {
        let results = repeated_evaluation(
            |seed| {
                Experiment::builder("german", generate_german(200, 3)?)
                    .seed(seed)
                    .learner(DecisionTreeLearner { tuned: false })
                    .build()
            },
            &[1, 2, 3, 4, 5],
            3,
        );
        assert_eq!(results.len(), 5);
        assert!(results.iter().all(std::result::Result::is_ok));
        let acc = metric_across_runs(&results, "overall_accuracy");
        assert_eq!(acc.n, 5);
        assert!(acc.std > 0.0, "resplits must produce variability");
        assert!(acc.min >= 0.0 && acc.max <= 1.0);
    }

    #[test]
    fn build_failures_are_reported_per_seed() {
        let results = repeated_evaluation(
            |seed| {
                if seed == 2 {
                    Err(fairprep_data::error::Error::EmptyData("boom".to_string()))
                } else {
                    Ok(Experiment::builder("german", generate_german(150, 1)?)
                        .seed(seed)
                        .learner(DecisionTreeLearner { tuned: false })
                        .build()?)
                }
            },
            &[1, 2, 3],
            2,
        );
        assert!(results[0].is_ok());
        assert!(results[1].is_err());
        assert!(results[2].is_ok());
        // The aggregate simply skips the failed run.
        assert_eq!(metric_across_runs(&results, "overall_accuracy").n, 2);
    }
}
