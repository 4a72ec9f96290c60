//! **E9 (extension)** — the full intervention zoo, benchmarked through the
//! framework on the COMPAS task.
//!
//! This is the study the FairPrep design exists to make cheap (§7 lists
//! "integrating additional fairness-enhancing interventions" as future
//! work): every pre-, in-, and post-processing intervention in the
//! workspace, swept over seeds with a tuned logistic-regression baseline,
//! reported as mean ± std of accuracy and the main fairness metrics, plus
//! an accuracy-vs-DI scatter. Demonstrates the accuracy/fairness trade-off
//! frontier across intervention stages.
//!
//! ```text
//! cargo run --release -p fairprep-bench --bin ext_interventions [--seeds N]
//! ```

use std::io::Write;

use fairprep_bench::{fmt_summary, HarnessArgs, ScatterPlot};
use fairprep_core::aggregate::MetricDistribution;
use fairprep_core::experiment::{Experiment, ExperimentBuilder};
use fairprep_core::learners::{InProcessLearner, LogisticRegressionLearner};
use fairprep_core::runner::{run_parallel, Job};
use fairprep_core::sweep::paper_seeds;
use fairprep_datasets::{generate_compas, CompasProtected};
use fairprep_fairness::inprocess::{
    AdversarialDebiasing, LearnedFairRepresentations, PrejudiceRemover,
};
use fairprep_fairness::postprocess::{
    CalibratedEqOdds, EqOddsPostprocessing, GroupThresholdOptimizer, RejectOptionClassification,
};
use fairprep_fairness::preprocess::{
    DisparateImpactRemover, Massaging, PreferentialSampling, Reweighing,
};

const INTERVENTIONS: [&str; 12] = [
    "baseline",
    "pre:reweighing",
    "pre:di-remover(1.0)",
    "pre:massaging",
    "pre:preferential-sampling",
    "in:adversarial",
    "in:prejudice-remover",
    "in:lfr",
    "post:reject-option",
    "post:cal-eq-odds",
    "post:eq-odds",
    "post:group-thresholds",
];

fn apply(builder: ExperimentBuilder, intervention: &str) -> ExperimentBuilder {
    match intervention {
        "pre:reweighing" => builder.preprocessor(Reweighing).tuned_lr(),
        "pre:di-remover(1.0)" => builder
            .preprocessor(DisparateImpactRemover::new(1.0))
            .tuned_lr(),
        "pre:massaging" => builder.preprocessor(Massaging).tuned_lr(),
        "pre:preferential-sampling" => builder.preprocessor(PreferentialSampling).tuned_lr(),
        "in:adversarial" => builder.learner(InProcessLearner::new(AdversarialDebiasing::default())),
        "in:prejudice-remover" => {
            builder.learner(InProcessLearner::new(PrejudiceRemover::default()))
        }
        "in:lfr" => builder.learner(InProcessLearner::new(LearnedFairRepresentations::default())),
        "post:reject-option" => builder
            .postprocessor(RejectOptionClassification::default())
            .tuned_lr(),
        "post:cal-eq-odds" => builder
            .postprocessor(CalibratedEqOdds::default())
            .tuned_lr(),
        "post:eq-odds" => builder
            .postprocessor(EqOddsPostprocessing::default())
            .tuned_lr(),
        "post:group-thresholds" => builder
            .postprocessor(GroupThresholdOptimizer::default())
            .tuned_lr(),
        _ => builder.tuned_lr(),
    }
}

/// Small extension trait to keep `apply` readable.
trait TunedLr {
    fn tuned_lr(self) -> ExperimentBuilder;
}
impl TunedLr for ExperimentBuilder {
    fn tuned_lr(self) -> ExperimentBuilder {
        self.learner(LogisticRegressionLearner { tuned: true })
    }
}

fn main() {
    let args = HarnessArgs::parse();
    let n_seeds = args.seeds.unwrap_or(if args.full { 10 } else { 5 });
    let seeds = paper_seeds(n_seeds);
    let n_rows = if args.full { 6167 } else { 3000 };

    let mut specs = Vec::new();
    let mut jobs: Vec<Job> = Vec::new();
    for &intervention in &INTERVENTIONS {
        for &seed in &seeds {
            specs.push((intervention, seed));
            jobs.push(Box::new(move || {
                let ds = generate_compas(n_rows, 1, CompasProtected::Race)?;
                apply(Experiment::builder("compas", ds).seed(seed), intervention)
                    .build()?
                    .run()
            }));
        }
    }
    println!(
        "ext: {} runs = {} interventions x {} seeds on compas(n={n_rows})",
        jobs.len(),
        INTERVENTIONS.len(),
        seeds.len()
    );
    let started = std::time::Instant::now();
    let results = run_parallel(jobs, args.threads);
    println!("completed in {:.1}s\n", started.elapsed().as_secs_f64());

    std::fs::create_dir_all(&args.out_dir).expect("results dir");
    let path = args.out_dir.join("ext_interventions.csv");
    let mut file = std::fs::File::create(&path).expect("point file");
    writeln!(file, "intervention,seed,accuracy,di,spd,eod,aod").unwrap();

    let mut points: Vec<(usize, f64, f64)> = Vec::new();
    for (ix, result) in results.iter().enumerate() {
        match result {
            Ok(r) => {
                let t = &r.test_report;
                let (intervention, seed) = specs[ix];
                writeln!(
                    file,
                    "{intervention},{seed},{},{},{},{},{}",
                    t.overall.accuracy,
                    t.differences.disparate_impact,
                    t.differences.statistical_parity_difference,
                    t.differences.equal_opportunity_difference,
                    t.differences.average_odds_difference,
                )
                .unwrap();
                points.push((ix, t.overall.accuracy, t.differences.disparate_impact));
            }
            Err(e) => eprintln!("run {ix} failed: {e}"),
        }
    }

    println!(
        "{:<28} {:<30} {:<30}",
        "intervention", "accuracy", "disparate impact"
    );
    for &intervention in &INTERVENTIONS {
        let acc: Vec<f64> = points
            .iter()
            .filter(|(ix, _, _)| specs[*ix].0 == intervention)
            .map(|&(_, a, _)| a)
            .collect();
        let di: Vec<f64> = points
            .iter()
            .filter(|(ix, _, _)| specs[*ix].0 == intervention)
            .map(|&(_, _, d)| d)
            .collect();
        println!(
            "{:<28} {:<30} {:<30}",
            intervention,
            fmt_summary(&MetricDistribution::from_values(&acc)),
            fmt_summary(&MetricDistribution::from_values(&di))
        );
    }

    // The trade-off frontier: baseline (o) vs all interventions (x).
    let mut plot = ScatterPlot::new(
        "E9: accuracy vs DI across the intervention zoo — o = baseline, x = intervened",
        "disparate impact",
        "accuracy",
    );
    let baseline_pts: Vec<(f64, f64)> = points
        .iter()
        .filter(|(ix, _, _)| specs[*ix].0 == "baseline")
        .map(|&(_, a, d)| (d, a))
        .collect();
    let other_pts: Vec<(f64, f64)> = points
        .iter()
        .filter(|(ix, _, _)| specs[*ix].0 != "baseline")
        .map(|&(_, a, d)| (d, a))
        .collect();
    plot.add_series('o', &baseline_pts);
    plot.add_series('x', &other_pts);
    println!("\n{}", plot.render());
    println!("raw points: {}", path.display());
}
