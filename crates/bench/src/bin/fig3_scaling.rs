//! **Figure 3 (E3/E4)** — Impact of feature scaling on the ricci dataset.
//!
//! Sweep (§5.2): 70/10/20 split, hyperparameter-tuned {logistic regression,
//! decision tree} × {standard scaling, no scaling} × interventions
//! {no intervention, reweighing, di-remover} × seeds (the paper executes
//! 216 runs = 2 × 2 × 3 × 18 seeds).
//!
//! Paper claims to reproduce:
//! * logistic regression (SGD-trained) **often fails to learn** without
//!   feature scaling — accuracy below 50%, worse than random (Fig. 3a);
//! * decision trees are robust: scaled and unscaled points overlap
//!   (Fig. 3b).
//!
//! ```text
//! cargo run --release -p fairprep-bench --bin fig3_scaling [--seeds N]
//! ```

use std::io::Write;

use fairprep_bench::{fmt_summary, HarnessArgs};
use fairprep_core::aggregate::MetricDistribution;
use fairprep_core::experiment::Experiment;
use fairprep_core::learners::{DecisionTreeLearner, Learner, LogisticRegressionLearner};
use fairprep_core::runner::{run_parallel, Job};
use fairprep_core::sweep::paper_seeds;
use fairprep_datasets::{generate_ricci, RICCI_FULL_SIZE};
use fairprep_fairness::preprocess::{DisparateImpactRemover, Reweighing};
use fairprep_ml::transform::ScalerSpec;

const INTERVENTIONS: [&str; 3] = ["no_intervention", "reweighing", "di-remover"];

fn job(model: &'static str, scaled: bool, intervention: &'static str, seed: u64) -> Job {
    Box::new(move || {
        let dataset = generate_ricci(RICCI_FULL_SIZE, 20_19)?;
        let learner: Box<dyn Learner> = match model {
            "logistic_regression" => Box::new(LogisticRegressionLearner { tuned: true }),
            _ => Box::new(DecisionTreeLearner { tuned: true }),
        };
        let builder = Experiment::builder("ricci", dataset)
            .seed(seed)
            .scaler(if scaled {
                ScalerSpec::Standard
            } else {
                ScalerSpec::NoScaling
            })
            .boxed_learner(learner);
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
    let n_seeds = args.seeds.unwrap_or(if args.full { 18 } else { 12 });
    let seeds = paper_seeds(n_seeds);
    let models = ["logistic_regression", "decision_tree"];

    let mut specs = Vec::new();
    let mut jobs: Vec<Job> = Vec::new();
    for &model in &models {
        for scaled in [true, false] {
            for &intervention in &INTERVENTIONS {
                for &seed in &seeds {
                    specs.push((model, scaled, intervention, seed));
                    jobs.push(job(model, scaled, intervention, seed));
                }
            }
        }
    }
    println!(
        "fig3: {} runs = 2 models x 2 scaling variants x 3 interventions x {} seeds \
         (paper: 216)",
        jobs.len(),
        seeds.len()
    );
    let started = std::time::Instant::now();
    let results = run_parallel(jobs, args.threads);
    println!("completed in {:.1}s\n", started.elapsed().as_secs_f64());

    std::fs::create_dir_all(&args.out_dir).expect("results dir");
    let path = args.out_dir.join("fig3_scaling.csv");
    let mut file = std::fs::File::create(&path).expect("point file");
    writeln!(file, "model,scaled,intervention,seed,accuracy,di").unwrap();

    let mut points: Vec<(usize, f64, f64)> = Vec::new(); // (spec ix, acc, di)
    for (ix, result) in results.iter().enumerate() {
        match result {
            Ok(r) => {
                let (model, scaled, intervention, seed) = specs[ix];
                let acc = r.test_report.overall.accuracy;
                let di = r.test_report.differences.disparate_impact;
                writeln!(file, "{model},{scaled},{intervention},{seed},{acc},{di}").unwrap();
                points.push((ix, acc, di));
            }
            Err(e) => eprintln!("run {ix} failed: {e}"),
        }
    }

    for &model in &models {
        println!("=== {model} on ricci ===");
        for &intervention in &INTERVENTIONS {
            println!("  [{intervention}]");
            for scaled in [true, false] {
                let accs: Vec<f64> = points
                    .iter()
                    .filter(|(ix, _, _)| {
                        let (m, s, i, _) = specs[*ix];
                        m == model && s == scaled && i == intervention
                    })
                    .map(|&(_, acc, _)| acc)
                    .collect();
                let below_random = accs.iter().filter(|&&a| a < 0.5).count();
                let label = if scaled { "scaling   " } else { "no scaling" };
                println!(
                    "    {label} acc {}  (runs with acc < 0.5: {below_random}/{})",
                    fmt_summary(&MetricDistribution::from_values(&accs)),
                    accs.len()
                );
            }
        }
        println!();
    }

    // Render the figure panels as terminal scatter plots (accuracy vs DI,
    // like Figure 3 of the paper).
    for &model in &models {
        let mut plot = fairprep_bench::ScatterPlot::new(
            &format!("Fig 3: {model} on ricci — o = scaling, x = no scaling"),
            "disparate impact",
            "accuracy",
        );
        for (marker, scaled) in [('o', true), ('x', false)] {
            let pts: Vec<(f64, f64)> = points
                .iter()
                .filter(|(ix, _, _)| {
                    let (m, s, _, _) = specs[*ix];
                    m == model && s == scaled
                })
                .map(|&(_, acc, di)| (di, acc))
                .collect();
            plot.add_series(marker, &pts);
        }
        println!("{}", plot.render());
    }

    // Headline checks.
    let series = |model: &str, scaled: bool| -> Vec<f64> {
        points
            .iter()
            .filter(|(ix, _, _)| {
                let (m, s, _, _) = specs[*ix];
                m == model && s == scaled
            })
            .map(|&(_, acc, _)| acc)
            .collect()
    };
    let lr_unscaled = series("logistic_regression", false);
    let lr_scaled = series("logistic_regression", true);
    let dt_unscaled = series("decision_tree", false);
    let dt_scaled = series("decision_tree", true);
    let lr_failures = lr_unscaled.iter().filter(|&&a| a < 0.5).count();

    println!("--- headline (paper §5.2) ---");
    println!(
        "unscaled LR runs with accuracy < 50%: {lr_failures}/{} \
         (scaled LR mean acc {:.3} vs unscaled {:.3})",
        lr_unscaled.len(),
        MetricDistribution::from_values(&lr_scaled).mean,
        MetricDistribution::from_values(&lr_unscaled).mean,
    );
    println!(
        "decision-tree robustness: scaled mean acc {:.3} vs unscaled {:.3} (gap {:.3})",
        MetricDistribution::from_values(&dt_scaled).mean,
        MetricDistribution::from_values(&dt_unscaled).mean,
        (MetricDistribution::from_values(&dt_scaled).mean
            - MetricDistribution::from_values(&dt_unscaled).mean)
            .abs(),
    );
    println!("raw points: {}", path.display());
}
