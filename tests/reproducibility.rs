//! Integration tests for §2.5: reproducibility.
//!
//! "A major factor ... is to fix the seeds for pseudo-random number
//! generators throughout the evaluation run, and provide the fixed seed to
//! all components (data splitters, learning algorithms, feature
//! transformations)."

use std::collections::BTreeMap;

use fairprep::prelude::*;

fn maps_equal(a: &BTreeMap<String, f64>, b: &BTreeMap<String, f64>) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|((ka, va), (kb, vb))| ka == kb && ((va.is_nan() && vb.is_nan()) || va == vb))
}

fn full_pipeline_run(seed: u64) -> fairprep_core::results::RunResult {
    // Exercise every randomized component at once: resampling, learned
    // imputation, DI repair, SGD training, calibrated-eq-odds mixing.
    let dataset = generate_payment(800, 13).unwrap();
    Experiment::builder("payment", dataset)
        .seed(seed)
        .resampler(Bootstrap { fraction: 1.0 })
        .missing_value_handler(ModelBasedImputer::default())
        .preprocessor(DisparateImpactRemover::new(0.8))
        .learner(LogisticRegressionLearner { tuned: false })
        .postprocessor(CalibratedEqOdds::default())
        .build()
        .unwrap()
        .run()
        .unwrap()
}

#[test]
fn identical_seeds_give_bitwise_identical_runs() {
    let a = full_pipeline_run(42);
    let b = full_pipeline_run(42);
    assert!(maps_equal(&a.test_report.to_map(), &b.test_report.to_map()));
    for (ca, cb) in a.candidates.iter().zip(&b.candidates) {
        assert!(maps_equal(
            &ca.validation_report.to_map(),
            &cb.validation_report.to_map()
        ));
    }
    assert_eq!(a.metadata.selected, b.metadata.selected);
}

#[test]
fn different_seeds_give_different_runs() {
    let a = full_pipeline_run(1);
    let b = full_pipeline_run(2);
    assert!(!maps_equal(
        &a.test_report.to_map(),
        &b.test_report.to_map()
    ));
}

#[test]
fn seed_is_threaded_to_all_components_not_just_the_splitter() {
    // Two datasets with identical content; the only difference between runs
    // is the seed. If only the splitter were seeded, bootstrap/model
    // training would consume ambient randomness and repeated runs would
    // diverge — covered by `identical_seeds...`. Here we additionally check
    // that the *candidate* seeds differ per candidate: two identical
    // learners in one run may produce different models (independent
    // streams), which is the documented per-candidate seed derivation.
    let dataset = generate_german(300, 9).unwrap();
    let result = Experiment::builder("german", dataset)
        .seed(7)
        .learner(LogisticRegressionLearner { tuned: false })
        .learner(LogisticRegressionLearner { tuned: false })
        .build()
        .unwrap()
        .run()
        .unwrap();
    // Same learner, same data — but independent random streams. SGD
    // shuffling differs, so the validation metrics are extremely unlikely
    // to coincide bitwise on every metric.
    let a = result.candidates[0].validation_report.to_map();
    let b = result.candidates[1].validation_report.to_map();
    assert!(!maps_equal(&a, &b), "candidate seeds are not independent");
}

/// Golden-trace suite: the canonical run manifest of each golden
/// experiment must match the committed golden file byte-for-byte, at one
/// thread *and* at eight. Any change to the lifecycle that alters the
/// span structure, a counter, a component name, a partition size, or the
/// output-metric digest shows up here as a diff against
/// `tests/golden/*.json` (regenerate with
/// `cargo run --example golden_trace` when the change is intentional).
#[test]
fn golden_trace_manifests_are_byte_stable() {
    use fairprep::golden::{golden_canonical, GOLDEN_CASES};

    let goldens: [(&str, &str); 2] = [
        ("german-tuned", include_str!("golden/german_tuned.json")),
        ("payment-impute", include_str!("golden/payment_impute.json")),
    ];
    assert_eq!(goldens.len(), GOLDEN_CASES.len());

    for (case, golden) in goldens {
        let at_one = golden_canonical(case, 1).unwrap();
        let at_eight = golden_canonical(case, 8).unwrap();
        assert_eq!(
            at_one, at_eight,
            "case `{case}`: canonical manifest differs between 1 and 8 threads"
        );
        assert_eq!(
            at_one, golden,
            "case `{case}`: canonical manifest drifted from tests/golden/ \
             (regenerate with `cargo run --example golden_trace` if intentional)"
        );
        // The goldens run with profiling on, so the byte-equality above
        // also pins the profile section; make its presence explicit so a
        // regression that silently drops the section cannot pass.
        assert!(
            at_one.contains("\"profile\""),
            "case `{case}`: golden manifest lost its profile section"
        );
        assert!(at_one.contains("\"snapshots\""));
        assert!(at_one.contains("\"psi\""));
    }
}

/// The profile section alone (not just the whole manifest) is a pure
/// function of `(configuration, data, seed)`: snapshots, diffs, and the
/// drift table are identical at any thread budget.
#[test]
fn golden_profile_sections_are_thread_invariant() {
    use fairprep::golden::run_golden;
    let at_one = run_golden("payment-impute", 1).unwrap();
    let at_eight = run_golden("payment-impute", 8).unwrap();
    let p1 = at_one.manifest.as_ref().unwrap().profile.as_ref().unwrap();
    let p8 = at_eight
        .manifest
        .as_ref()
        .unwrap()
        .profile
        .as_ref()
        .unwrap();
    assert_eq!(p1, p8);
    // The drift table renders at least one PSI column and the per-group
    // base-rate columns.
    let table = p1.drift_table();
    assert!(table.contains("max_psi"), "{table}");
    assert!(table.contains("Δpriv_rate"), "{table}");
    assert!(table.contains("raw->train_split"), "{table}");
}

/// Consecutive runs of the same configuration serialize identically —
/// the canonical projection contains no timing, ordering, or allocation
/// artifacts.
#[test]
fn golden_trace_consecutive_runs_are_identical() {
    use fairprep::golden::golden_canonical;
    let first = golden_canonical("payment-impute", 2).unwrap();
    let second = golden_canonical("payment-impute", 2).unwrap();
    assert_eq!(first, second);
}

/// The full manifest embeds the canonical serialization as a literal
/// prefix; only the `timing` section may differ run to run.
#[test]
fn full_manifest_embeds_canonical_prefix() {
    use fairprep::golden::run_golden;
    let result = run_golden("german-tuned", 2).unwrap();
    let manifest = result.manifest.as_ref().unwrap();
    let canonical = manifest.canonical();
    let full = manifest.to_json();
    let prefix = canonical.trim_end().trim_end_matches('}').trim_end();
    assert!(
        full.starts_with(prefix),
        "canonical body must be a literal prefix of the full manifest"
    );
    assert!(full.contains("\"timing\""));
    assert!(!canonical.contains("\"timing\""));
    assert!(!canonical.contains("wall_ns"));
}

/// Bit pin for the learned imputer across commits: the sealed
/// `ModelBasedImputer` fitted at fixed seeds must keep its FNV-1a digest.
/// The adult sample exercises the one-vs-rest logistic path (workclass,
/// occupation and native-country are missing); the payment data, whose
/// numeric `age` is missing, exercises the ridge path. Any change to the
/// arithmetic or the visiting order of either SGD loop moves a digest;
/// update a constant only for an intended change of results.
#[test]
fn model_based_imputer_seal_digests_are_pinned() {
    use fairprep::core::journal::config_fingerprint;

    let cases = [
        (
            "adult",
            generate_adult(1_500, 5, AdultProtected::Race).unwrap(),
            "fnv1a64:fd7ac8796eb399ad",
        ),
        (
            "payment",
            generate_payment(800, 13).unwrap(),
            "fnv1a64:548fbef730bcdb0c",
        ),
    ];
    for (name, data, expected) in cases {
        let sealed = ModelBasedImputer::default()
            .fit(&data, 17)
            .unwrap()
            .seal()
            .unwrap()
            .to_json();
        assert_eq!(config_fingerprint(&sealed), expected, "{name}");
    }
}

#[test]
fn sweeps_are_reproducible_under_parallelism() {
    use fairprep_core::runner::{run_parallel, Job};
    let make_jobs = || -> Vec<Job> {
        (0..6)
            .map(|i| {
                Box::new(move || {
                    Experiment::builder("german", generate_german(150, 2)?)
                        .seed(100 + i)
                        .learner(DecisionTreeLearner { tuned: false })
                        .build()?
                        .run()
                }) as Job
            })
            .collect()
    };
    let serial = run_parallel(make_jobs(), 1);
    let parallel = run_parallel(make_jobs(), 4);
    for (a, b) in serial.iter().zip(&parallel) {
        let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
        assert!(maps_equal(&a.test_report.to_map(), &b.test_report.to_map()));
    }
}
