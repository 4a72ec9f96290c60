//! **Figure 2 (E1/E2)** — Impact of hyperparameter tuning on the accuracy
//! and fairness of logistic regression and decision trees on germancredit.
//!
//! Sweep (§5.1): 70/10/20 split, standardized numeric features, no
//! resampling, no missing-value handling (germancredit is complete);
//! 2 baseline models × {untuned, tuned} × 6 intervention settings
//! {no intervention, di-remover(0.5), di-remover(1.0), reweighing,
//! reject-option, cal-eq-odds} × 16 seeds. The paper reports 1,344 total
//! runs by counting internal hyperparameter candidates; the run accounting
//! below reproduces that factorization.
//!
//! Paper claims to reproduce:
//! * tuned variants reach higher accuracy in most panels;
//! * tuned variants show **reduced variance of the fairness outcome**
//!   (DI, FNRD, FPRD) across seeds — the §5.1 headline.
//!
//! ```text
//! cargo run --release -p fairprep-bench --bin fig2_tuning [--seeds N] [--full]
//! ```

use std::io::Write;

use fairprep_bench::{fmt_summary, HarnessArgs};
use fairprep_core::aggregate::MetricDistribution;
use fairprep_core::experiment::Experiment;
use fairprep_core::learners::{DecisionTreeLearner, Learner, LogisticRegressionLearner};
use fairprep_core::results::RunResult;
use fairprep_core::runner::{run_parallel, Job};
use fairprep_core::sweep::paper_seeds;
use fairprep_datasets::{generate_german, GERMAN_FULL_SIZE};
use fairprep_fairness::postprocess::{CalibratedEqOdds, RejectOptionClassification};
use fairprep_fairness::preprocess::{DisparateImpactRemover, Reweighing};

const INTERVENTIONS: [&str; 6] = [
    "no_intervention",
    "di-remover(0.5)",
    "di-remover(1.0)",
    "reweighing",
    "reject_option",
    "cal_eq_odds",
];

fn learner_for(model: &str, tuned: bool) -> Box<dyn Learner> {
    match model {
        "logistic_regression" => Box::new(LogisticRegressionLearner { tuned }),
        _ => Box::new(DecisionTreeLearner { tuned }),
    }
}

fn job(model: &'static str, tuned: bool, intervention: &'static str, seed: u64) -> Job {
    Box::new(move || {
        let dataset = generate_german(GERMAN_FULL_SIZE, 20_19)?;
        let builder = Experiment::builder("germancredit", dataset)
            .seed(seed)
            .boxed_learner(learner_for(model, tuned));
        let builder = match intervention {
            "di-remover(0.5)" => builder.preprocessor(DisparateImpactRemover::new(0.5)),
            "di-remover(1.0)" => builder.preprocessor(DisparateImpactRemover::new(1.0)),
            "reweighing" => builder.preprocessor(Reweighing),
            "reject_option" => builder.postprocessor(RejectOptionClassification::default()),
            "cal_eq_odds" => builder.postprocessor(CalibratedEqOdds::default()),
            _ => builder,
        };
        builder.build()?.run()
    })
}

fn main() {
    let args = HarnessArgs::parse();
    let n_seeds = args.seeds.unwrap_or(if args.full { 16 } else { 8 });
    let seeds = paper_seeds(n_seeds);
    let models = ["logistic_regression", "decision_tree"];

    let mut specs = Vec::new();
    let mut jobs: Vec<Job> = Vec::new();
    for &model in &models {
        for tuned in [false, true] {
            for &intervention in &INTERVENTIONS {
                for &seed in &seeds {
                    specs.push((model, tuned, intervention, seed));
                    jobs.push(job(model, tuned, intervention, seed));
                }
            }
        }
    }

    // Run accounting (§5.1 reports 1,344 runs by counting hyperparameter
    // candidates: untuned = 1 candidate, tuned LR = 12, tuned DT = 72).
    let configs = jobs.len();
    println!(
        "fig2: {} configurations = 2 models x 2 tuning variants x {} interventions x {} seeds",
        configs,
        INTERVENTIONS.len(),
        seeds.len()
    );

    let started = std::time::Instant::now();
    let results = run_parallel(jobs, args.threads);
    println!("completed in {:.1}s\n", started.elapsed().as_secs_f64());

    // Point file.
    std::fs::create_dir_all(&args.out_dir).expect("results dir");
    let path = args.out_dir.join("fig2_tuning.csv");
    let mut file = std::fs::File::create(&path).expect("point file");
    writeln!(file, "model,tuned,intervention,seed,accuracy,di,fnrd,fprd").unwrap();

    let mut collected: Vec<(usize, &RunResult)> = Vec::new();
    for (ix, result) in results.iter().enumerate() {
        match result {
            Ok(r) => {
                let t = &r.test_report;
                let (model, tuned, intervention, seed) = specs[ix];
                writeln!(
                    file,
                    "{model},{tuned},{intervention},{seed},{},{},{},{}",
                    t.overall.accuracy,
                    t.differences.disparate_impact,
                    t.differences.false_negative_rate_difference,
                    t.differences.false_positive_rate_difference,
                )
                .unwrap();
                collected.push((ix, r));
            }
            Err(e) => eprintln!("run {ix} failed: {e}"),
        }
    }

    // Figure panels: for each (model, intervention), compare tuned vs
    // untuned accuracy and fairness variance.
    for &model in &models {
        println!("=== {model} on germancredit (test-set metrics over seeds) ===");
        for &intervention in &INTERVENTIONS {
            println!("  [{intervention}]");
            for tuned in [false, true] {
                let points: Vec<&RunResult> = collected
                    .iter()
                    .filter(|(ix, _)| {
                        let (m, t, i, _) = specs[*ix];
                        m == model && t == tuned && i == intervention
                    })
                    .map(|(_, r)| *r)
                    .collect();
                let acc: Vec<f64> = points
                    .iter()
                    .map(|r| r.test_report.overall.accuracy)
                    .collect();
                let di: Vec<f64> = points
                    .iter()
                    .map(|r| r.test_report.differences.disparate_impact)
                    .collect();
                let fnrd: Vec<f64> = points
                    .iter()
                    .map(|r| r.test_report.differences.false_negative_rate_difference)
                    .collect();
                let fprd: Vec<f64> = points
                    .iter()
                    .map(|r| r.test_report.differences.false_positive_rate_difference)
                    .collect();
                let label = if tuned { "tuning   " } else { "no tuning" };
                for (metric, values) in
                    [("acc ", acc), ("DI  ", di), ("FNRD", fnrd), ("FPRD", fprd)]
                {
                    let summary = fmt_summary(&MetricDistribution::from_values(&values));
                    println!("    {label} {metric} {summary}");
                }
            }
        }
        println!();
    }

    // Render the accuracy-vs-DI panels as terminal scatter plots (the
    // top-left panels of Figures 2a/2d).
    for &model in &models {
        let mut plot = fairprep_bench::ScatterPlot::new(
            &format!("Fig 2: {model} on germancredit — o = tuning, x = no tuning"),
            "disparate impact",
            "accuracy",
        );
        for (marker, tuned) in [('o', true), ('x', false)] {
            let pts: Vec<(f64, f64)> = collected
                .iter()
                .filter(|(ix, _)| {
                    let (m, t, _, _) = specs[*ix];
                    m == model && t == tuned
                })
                .map(|(_, r)| {
                    (
                        r.test_report.differences.disparate_impact,
                        r.test_report.overall.accuracy,
                    )
                })
                .collect();
            plot.add_series(marker, &pts);
        }
        println!("{}", plot.render());
    }

    // Headline check: in how many (model × intervention) panels is the
    // tuned fairness-metric std-dev lower, and the tuned accuracy mean
    // higher?
    let mut panels = 0usize;
    let mut tuned_acc_higher = 0usize;
    let mut tuned_var_lower = 0usize;
    for &model in &models {
        for &intervention in &INTERVENTIONS {
            let series = |tuned: bool, f: &dyn Fn(&RunResult) -> f64| -> Vec<f64> {
                collected
                    .iter()
                    .filter(|(ix, _)| {
                        let (m, t, i, _) = specs[*ix];
                        m == model && t == tuned && i == intervention
                    })
                    .map(|(_, r)| f(r))
                    .collect()
            };
            let acc = |r: &RunResult| r.test_report.overall.accuracy;
            panels += 1;
            if MetricDistribution::from_values(&series(true, &acc)).mean
                >= MetricDistribution::from_values(&series(false, &acc)).mean
            {
                tuned_acc_higher += 1;
            }
            let fairness_metrics: [&dyn Fn(&RunResult) -> f64; 3] = [
                &|r| r.test_report.differences.disparate_impact,
                &|r| r.test_report.differences.false_negative_rate_difference,
                &|r| r.test_report.differences.false_positive_rate_difference,
            ];
            let lower = fairness_metrics
                .iter()
                .filter(|f| {
                    MetricDistribution::from_values(&series(true, **f)).std
                        <= MetricDistribution::from_values(&series(false, **f)).std
                })
                .count();
            if lower >= 2 {
                tuned_var_lower += 1;
            }
        }
    }
    println!("--- headline (paper §5.1) ---");
    println!("panels with tuned mean accuracy >= untuned: {tuned_acc_higher}/{panels}");
    println!(
        "panels where tuning reduced fairness-outcome variance (>= 2 of 3 metrics): \
         {tuned_var_lower}/{panels}"
    );
    println!("raw points: {}", path.display());
}
