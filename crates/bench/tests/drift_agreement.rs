//! Every reader of a run's `profile` section names the same worst-PSI
//! column for each stage transition: the drift table printed under
//! `--trace-summary`, `profile_report` reading the written manifest back,
//! and `DatasetDrift::max_psi` on the recorded diff.

use fairprep_bench::profile_report::parse_profile;
use fairprep_core::experiment::Experiment;
use fairprep_core::learners::LogisticRegressionLearner;
use fairprep_data::profile::DatasetDrift;
use fairprep_datasets::generate_payment;
use fairprep_fairness::preprocess::Reweighing;
use fairprep_impute::ModeImputer;
use fairprep_trace::Tracer;

/// The worst column's name, or `-` when nothing drifted (what the drift
/// table prints).
fn worst(drift: &DatasetDrift) -> String {
    drift
        .max_psi()
        .map_or_else(|| "-".to_string(), |c| c.name.clone())
}

/// `fairprep run --dataset payment --rows 300 --learner lr --missing mode
/// --preprocessor reweighing --seed 11 --profile` (2019 is the CLI's
/// generator seed). Reweighing changes only instance weights, so no
/// column drifts from `train_imputed` to `train_preprocessed`.
#[test]
fn every_reader_names_the_same_worst_psi_column() {
    let result = Experiment::builder("payment", generate_payment(300, 2019).unwrap())
        .seed(11)
        .missing_value_handler(ModeImputer)
        .preprocessor(Reweighing)
        .learner(LogisticRegressionLearner { tuned: false })
        .tracer(Tracer::enabled())
        .profile(true)
        .build()
        .unwrap()
        .run()
        .unwrap();
    let manifest = result.manifest.as_ref().unwrap();
    let profile = manifest.profile.as_ref().unwrap();
    let table = profile.drift_table();
    let report = parse_profile(&manifest.to_json()).unwrap();

    // A table row: transition, Δrows, max_psi, psi_column, rate deltas.
    let table_column = |transition: &str| {
        table
            .lines()
            .find_map(|line| {
                let mut cells = line.split_whitespace();
                (cells.next() == Some(transition)).then(|| cells.nth(2).map(str::to_string))
            })
            .flatten()
            .unwrap_or_else(|| panic!("no drift table row for {transition}:\n{table}"))
    };

    assert_eq!(report.diffs.len(), profile.diffs.len());
    assert_eq!(profile.diffs.len(), 3, "{table}");
    for (read, recorded) in report.diffs.iter().zip(&profile.diffs) {
        let transition = format!("{}->{}", recorded.from, recorded.to);
        assert_eq!(format!("{}->{}", read.from, read.to), transition);
        let column = worst(&recorded.drift);
        assert_eq!(worst(&read.drift), column, "{transition}: profile_report");
        assert_eq!(
            table_column(&transition),
            column,
            "{transition}: drift table"
        );
    }
    let preprocessed = &profile.diffs[2];
    assert_eq!(preprocessed.to, "train_preprocessed");
    assert_eq!(worst(&preprocessed.drift), "-", "{table}");
}
