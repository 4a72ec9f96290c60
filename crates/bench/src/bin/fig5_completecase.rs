//! **Figure 5 (E6)** — Complete-case analysis vs. inclusion of incomplete
//! records (with model-based imputation) on the adult dataset.
//!
//! Sweep (§5.3): tuned {logistic regression, decision tree} × missing-value
//! strategies {complete-case, model-based imputation} × interventions
//! {no intervention, reweighing, di-remover} × seeds; accuracy vs.
//! disparate impact on the held-out test set.
//!
//! Paper claims to reproduce:
//! * including imputed records gives minimally higher overall accuracy;
//! * inclusion has **no significant positive or negative impact on
//!   disparate impact** — imputation does not degrade fairness.
//!
//! ```text
//! cargo run --release -p fairprep-bench --bin fig5_completecase [--seeds N] [--full]
//! ```

use std::io::Write;

use fairprep_bench::{fmt_summary, HarnessArgs};
use fairprep_core::aggregate::MetricDistribution;
use fairprep_core::experiment::Experiment;
use fairprep_core::learners::{DecisionTreeLearner, Learner, LogisticRegressionLearner};
use fairprep_core::runner::{run_parallel, Job};
use fairprep_core::sweep::paper_seeds;
use fairprep_datasets::{generate_adult, AdultProtected, ADULT_FULL_SIZE};
use fairprep_fairness::preprocess::{DisparateImpactRemover, Reweighing};
use fairprep_impute::{CompleteCaseAnalysis, ModelBasedImputer};

const INTERVENTIONS: [&str; 3] = ["no_intervention", "reweighing", "di-remover"];
const STRATEGIES: [&str; 2] = ["complete_case", "model_based"];

fn job(
    n_rows: usize,
    model: &'static str,
    strategy: &'static str,
    intervention: &'static str,
    seed: u64,
) -> Job {
    Box::new(move || {
        let dataset = generate_adult(n_rows, 20_19, AdultProtected::Race)?;
        let learner: Box<dyn Learner> = match model {
            "logistic_regression" => Box::new(LogisticRegressionLearner { tuned: true }),
            _ => Box::new(DecisionTreeLearner { tuned: true }),
        };
        let mut builder = Experiment::builder("adult", dataset)
            .seed(seed)
            .boxed_learner(learner);
        builder = match strategy {
            "complete_case" => builder.missing_value_handler(CompleteCaseAnalysis),
            _ => builder.missing_value_handler(ModelBasedImputer::default()),
        };
        let builder = match intervention {
            "reweighing" => builder.preprocessor(Reweighing),
            "di-remover" => builder.preprocessor(DisparateImpactRemover::new(1.0)),
            _ => builder,
        };
        builder.build()?.run()
    })
}

fn main() {
    let args = HarnessArgs::parse();
    let n_rows = if args.full { ADULT_FULL_SIZE } else { 4000 };
    let n_seeds = args.seeds.unwrap_or(if args.full { 8 } else { 4 });
    let seeds = paper_seeds(n_seeds);
    let models = ["logistic_regression", "decision_tree"];

    let mut specs = Vec::new();
    let mut jobs: Vec<Job> = Vec::new();
    for &model in &models {
        for &strategy in &STRATEGIES {
            for &intervention in &INTERVENTIONS {
                for &seed in &seeds {
                    specs.push((model, strategy, intervention, seed));
                    jobs.push(job(n_rows, model, strategy, intervention, seed));
                }
            }
        }
    }
    println!(
        "fig5: {} runs = 2 models x 2 strategies x 3 interventions x {} seeds on adult(n={}) \
         (paper: 530 runs across E5+E6)",
        jobs.len(),
        seeds.len(),
        n_rows
    );
    let started = std::time::Instant::now();
    let results = run_parallel(jobs, args.threads);
    println!("completed in {:.1}s\n", started.elapsed().as_secs_f64());

    std::fs::create_dir_all(&args.out_dir).expect("results dir");
    let path = args.out_dir.join("fig5_completecase.csv");
    let mut file = std::fs::File::create(&path).expect("point file");
    writeln!(file, "model,strategy,intervention,seed,accuracy,di").unwrap();

    let mut points: Vec<(usize, f64, f64)> = Vec::new();
    for (ix, result) in results.iter().enumerate() {
        match result {
            Ok(r) => {
                let (model, strategy, intervention, seed) = specs[ix];
                let acc = r.test_report.overall.accuracy;
                let di = r.test_report.differences.disparate_impact;
                writeln!(file, "{model},{strategy},{intervention},{seed},{acc},{di}").unwrap();
                points.push((ix, acc, di));
            }
            Err(e) => eprintln!("run {ix} failed: {e}"),
        }
    }

    for &model in &models {
        println!("=== {model} on adult ===");
        for &intervention in &INTERVENTIONS {
            println!("  [{intervention}]");
            for &strategy in &STRATEGIES {
                let mine: Vec<&(usize, f64, f64)> = points
                    .iter()
                    .filter(|(ix, _, _)| {
                        let (m, s, i, _) = specs[*ix];
                        m == model && s == strategy && i == intervention
                    })
                    .collect();
                let acc: Vec<f64> = mine.iter().map(|p| p.1).collect();
                let di: Vec<f64> = mine.iter().map(|p| p.2).collect();
                println!(
                    "    {strategy:<14} acc {}  DI {}",
                    fmt_summary(&MetricDistribution::from_values(&acc)),
                    fmt_summary(&MetricDistribution::from_values(&di)),
                );
            }
        }
        println!();
    }

    // Render the accuracy-vs-DI panels (Figure 5a/5b).
    for &model in &models {
        let mut plot = fairprep_bench::ScatterPlot::new(
            &format!("Fig 5: {model} on adult — o = complete case, x = datawig-style"),
            "disparate impact",
            "accuracy",
        );
        for (marker, strategy) in [('o', "complete_case"), ('x', "model_based")] {
            let pts: Vec<(f64, f64)> = points
                .iter()
                .filter(|(ix, _, _)| {
                    let (m, s, _, _) = specs[*ix];
                    m == model && s == strategy
                })
                .map(|&(_, acc, di)| (di, acc))
                .collect();
            plot.add_series(marker, &pts);
        }
        println!("{}", plot.render());
    }

    // Headline checks.
    let by_strategy = |strategy: &str, pick: usize| -> Vec<f64> {
        points
            .iter()
            .filter(|(ix, _, _)| specs[*ix].1 == strategy)
            .map(|p| if pick == 0 { p.1 } else { p.2 })
            .collect()
    };
    let cc_acc = MetricDistribution::from_values(&by_strategy("complete_case", 0));
    let mb_acc = MetricDistribution::from_values(&by_strategy("model_based", 0));
    let cc_di = MetricDistribution::from_values(&by_strategy("complete_case", 1));
    let mb_di = MetricDistribution::from_values(&by_strategy("model_based", 1));

    println!("--- headline (paper §5.3, Figure 5) ---");
    println!(
        "accuracy: complete-case {} vs imputed-inclusion {}",
        fmt_summary(&cc_acc),
        fmt_summary(&mb_acc)
    );
    println!(
        "disparate impact: complete-case {} vs imputed-inclusion {}",
        fmt_summary(&cc_di),
        fmt_summary(&mb_di)
    );
    println!(
        "DI mean shift from including imputed records: {:+.3} \
         (expected: small / not significant)",
        mb_di.mean - cc_di.mean
    );
    println!("raw points: {}", path.display());
}
