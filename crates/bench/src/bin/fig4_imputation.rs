//! **Figure 4 (E5)** — Impact of missing-value imputation on prediction
//! accuracy on the adult dataset.
//!
//! Sweep (§5.3): 70/10/20 split, standardized numeric features, tuned
//! {logistic regression, decision tree} × imputation strategies
//! {mode, model-based (Datawig substitute)} × interventions
//! {no intervention, reweighing, di-remover} × seeds. Accuracy is reported
//! **separately for originally-complete and originally-incomplete (imputed)
//! records** — the bookkeeping only FairPrep's lifecycle provides.
//!
//! Paper claims to reproduce:
//! * imputed records achieve high accuracy ("these records could not have
//!   been classified at all before imputation!");
//! * incomplete records are classified MORE accurately than complete ones
//!   (they contain more easy-to-classify negatives — our generator encodes
//!   the same missing-not-at-random structure);
//! * mode imputation ≈ model-based imputation (skewed attributes favor the
//!   mode).
//!
//! ```text
//! cargo run --release -p fairprep-bench --bin fig4_imputation [--seeds N] [--full]
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
use fairprep_impute::{MissingValueHandler, ModeImputer, ModelBasedImputer};

const INTERVENTIONS: [&str; 3] = ["no_intervention", "reweighing", "di-remover"];
const IMPUTERS: [&str; 2] = ["mode", "model_based"];

fn job(
    n_rows: usize,
    model: &'static str,
    imputer: &'static str,
    intervention: &'static str,
    seed: u64,
) -> Job {
    Box::new(move || {
        let dataset = generate_adult(n_rows, 20_19, AdultProtected::Race)?;
        let learner: Box<dyn Learner> = match model {
            "logistic_regression" => Box::new(LogisticRegressionLearner { tuned: true }),
            _ => Box::new(DecisionTreeLearner { tuned: true }),
        };
        let handler: Box<dyn MissingValueHandler> = match imputer {
            "mode" => Box::new(ModeImputer),
            _ => Box::new(ModelBasedImputer::default()),
        };
        let mut builder = Experiment::builder("adult", dataset)
            .seed(seed)
            .boxed_learner(learner);
        builder = match imputer {
            "mode" => builder.missing_value_handler(ModeImputer),
            _ => builder.missing_value_handler(ModelBasedImputer::default()),
        };
        let _ = handler; // handler choice encoded above; kept for clarity
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
    // The full adult size with tuned decision trees is heavy; the default
    // uses a smaller generator sample with the same statistical structure.
    let n_rows = if args.full { ADULT_FULL_SIZE } else { 4000 };
    let n_seeds = args.seeds.unwrap_or(if args.full { 8 } else { 4 });
    let seeds = paper_seeds(n_seeds);
    let models = ["logistic_regression", "decision_tree"];

    let mut specs = Vec::new();
    let mut jobs: Vec<Job> = Vec::new();
    for &model in &models {
        for &imputer in &IMPUTERS {
            for &intervention in &INTERVENTIONS {
                for &seed in &seeds {
                    specs.push((model, imputer, intervention, seed));
                    jobs.push(job(n_rows, model, imputer, intervention, seed));
                }
            }
        }
    }
    println!(
        "fig4: {} runs = 2 models x 2 imputers x 3 interventions x {} seeds on adult(n={})",
        jobs.len(),
        seeds.len(),
        n_rows
    );
    let started = std::time::Instant::now();
    let results = run_parallel(jobs, args.threads);
    println!("completed in {:.1}s\n", started.elapsed().as_secs_f64());

    std::fs::create_dir_all(&args.out_dir).expect("results dir");
    let path = args.out_dir.join("fig4_imputation.csv");
    let mut file = std::fs::File::create(&path).expect("point file");
    writeln!(
        file,
        "model,imputer,intervention,seed,acc_overall,acc_complete,acc_imputed,n_imputed"
    )
    .unwrap();

    struct Point {
        spec: usize,
        acc_complete: f64,
        acc_imputed: f64,
    }
    let mut points: Vec<Point> = Vec::new();
    for (ix, result) in results.iter().enumerate() {
        match result {
            Ok(r) => {
                let t = &r.test_report;
                let (model, imputer, intervention, seed) = specs[ix];
                let acc_complete = t.complete_records.as_ref().map_or(f64::NAN, |g| g.accuracy);
                let acc_imputed = t
                    .incomplete_records
                    .as_ref()
                    .map_or(f64::NAN, |g| g.accuracy);
                let n_imputed = t.incomplete_records.as_ref().map_or(0, |g| g.n_instances);
                writeln!(
                    file,
                    "{model},{imputer},{intervention},{seed},{},{acc_complete},{acc_imputed},{n_imputed}",
                    t.overall.accuracy
                )
                .unwrap();
                points.push(Point {
                    spec: ix,
                    acc_complete,
                    acc_imputed,
                });
            }
            Err(e) => eprintln!("run {ix} failed: {e}"),
        }
    }

    for &model in &models {
        println!("=== {model} on adult ===");
        for &intervention in &INTERVENTIONS {
            println!("  [{intervention}]");
            for &imputer in &IMPUTERS {
                let mine: Vec<&Point> = points
                    .iter()
                    .filter(|p| {
                        let (m, im, i, _) = specs[p.spec];
                        m == model && im == imputer && i == intervention
                    })
                    .collect();
                let complete: Vec<f64> = mine.iter().map(|p| p.acc_complete).collect();
                let imputed: Vec<f64> = mine.iter().map(|p| p.acc_imputed).collect();
                println!(
                    "    {imputer:<12} complete {}  imputed {}",
                    fmt_summary(&MetricDistribution::from_values(&complete)),
                    fmt_summary(&MetricDistribution::from_values(&imputed)),
                );
            }
        }
        println!();
    }

    // Render the paired accuracy scatter (Figure 4: x = model-based
    // ["datawig"] accuracy, y = mode accuracy; o = complete records,
    // x = imputed records). Points pair the two imputers of the same
    // (model, intervention, seed) configuration.
    for &model in &models {
        let mut plot = fairprep_bench::ScatterPlot::new(
            &format!("Fig 4: {model} on adult — o = complete records, x = imputed records"),
            "accuracy (model-based)",
            "accuracy (mode)",
        );
        let mut complete_pairs = Vec::new();
        let mut imputed_pairs = Vec::new();
        for &intervention in &INTERVENTIONS {
            for &seed in &seeds {
                let find = |imputer: &str| {
                    points.iter().find(|p| {
                        let (m, im, i, s) = specs[p.spec];
                        m == model && im == imputer && i == intervention && s == seed
                    })
                };
                if let (Some(mode), Some(mb)) = (find("mode"), find("model_based")) {
                    complete_pairs.push((mb.acc_complete, mode.acc_complete));
                    imputed_pairs.push((mb.acc_imputed, mode.acc_imputed));
                }
            }
        }
        plot.add_series('o', &complete_pairs);
        plot.add_series('x', &imputed_pairs);
        println!("{}", plot.render());
    }

    // Headline checks.
    let all_complete: Vec<f64> = points.iter().map(|p| p.acc_complete).collect();
    let all_imputed: Vec<f64> = points.iter().map(|p| p.acc_imputed).collect();
    let imputed_higher = points
        .iter()
        .filter(|p| p.acc_imputed.is_finite() && p.acc_imputed > p.acc_complete)
        .count();
    let mode_acc: Vec<f64> = points
        .iter()
        .filter(|p| specs[p.spec].1 == "mode")
        .map(|p| p.acc_imputed)
        .collect();
    let mb_acc: Vec<f64> = points
        .iter()
        .filter(|p| specs[p.spec].1 == "model_based")
        .map(|p| p.acc_imputed)
        .collect();

    println!("--- headline (paper §5.3, Figure 4) ---");
    println!(
        "imputed-record accuracy {} vs complete-record accuracy {}",
        fmt_summary(&MetricDistribution::from_values(&all_imputed)),
        fmt_summary(&MetricDistribution::from_values(&all_complete)),
    );
    println!(
        "runs where imputed records classify MORE accurately than complete: {imputed_higher}/{}",
        points.len()
    );
    println!(
        "mode vs model-based imputed accuracy: {:.3} vs {:.3} (|gap| {:.3} — expected small)",
        MetricDistribution::from_values(&mode_acc).mean,
        MetricDistribution::from_values(&mb_acc).mean,
        (MetricDistribution::from_values(&mode_acc).mean
            - MetricDistribution::from_values(&mb_acc).mean)
            .abs(),
    );
    println!("raw points: {}", path.display());
}
