//! Sealed-pipeline round-trip properties.
//!
//! * For **every** dataset the repo ships, `run_sealed → save → load →
//!   score` is byte-for-byte identical to scoring with the in-process
//!   pipeline, and re-saving the loaded artifact reproduces the original
//!   file byte-for-byte (the canonical-JSON invariant).
//! * The invariant holds for arbitrary row subsets and batch sizes
//!   (1, 7, 4096), including NaN-bearing rows routed through an imputer
//!   and rows a complete-case handler drops.
//! * Corrupted or truncated artifacts fail with a typed [`Error::Seal`]
//!   and never panic, neither while loading nor while scoring what
//!   loaded.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::OnceLock;

use fairprep_core::experiment::Experiment;
use fairprep_core::learners::{DecisionTreeLearner, LogisticRegressionLearner};
use fairprep_core::seal::{ScoredRow, SealedPipeline};
use fairprep_data::dataset::BinaryLabelDataset;
use fairprep_data::error::Error;
use fairprep_datasets::{
    generate_adult, generate_compas, generate_german, generate_payment, generate_ricci,
    AdultProtected, CompasProtected,
};
use fairprep_fairness::postprocess::{EqOddsPostprocessing, RejectOptionClassification};
use fairprep_fairness::preprocess::{DisparateImpactRemover, Massaging, Reweighing};
use fairprep_impute::{ModeImputer, ModelBasedImputer};
use fairprep_ml::transform::ScalerSpec;
use fairprep_trace::json::{parse, Value};
use proptest::prelude::*;

/// Collapses scored rows into comparable bit patterns: `f64` equality is
/// not enough for a byte-for-byte claim (it conflates 0.0/-0.0 and can
/// never confirm NaN).
fn bit_rows(rows: &[ScoredRow]) -> Vec<(bool, Option<u64>, Option<u64>)> {
    rows.iter()
        .map(|r| {
            (
                r.privileged,
                r.score.map(f64::to_bits),
                r.decision.map(f64::to_bits),
            )
        })
        .collect()
}

fn roundtrip(label: &str, pipeline: &SealedPipeline, request: &BinaryLabelDataset) {
    let dir = std::env::temp_dir().join(format!("fairprep_seal_roundtrip_{label}"));
    let path = pipeline.save(&dir).unwrap();
    assert_eq!(
        path.file_name().unwrap().to_str().unwrap(),
        SealedPipeline::file_name(&pipeline.fingerprint)
    );
    let loaded = SealedPipeline::load(&path).unwrap();
    assert_eq!(loaded.fingerprint, pipeline.fingerprint);

    // Scoring through the reloaded chain is bit-identical.
    let direct = pipeline.score_frame(request.frame().clone()).unwrap();
    let replayed = loaded.score_frame(request.frame().clone()).unwrap();
    assert_eq!(direct.len(), request.n_rows());
    assert_eq!(bit_rows(&direct), bit_rows(&replayed), "{label} drifted");

    // Re-sealing the loaded artifact reproduces the file byte-for-byte.
    let original = std::fs::read_to_string(&path).unwrap();
    let resealed = loaded.to_value().unwrap().to_json();
    assert_eq!(original, resealed, "{label} canonical form not stable");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn every_dataset_roundtrips_byte_identically() {
    let adult = generate_adult(500, 5, AdultProtected::Sex).unwrap();
    let (_, sealed) = Experiment::builder("adult", adult.clone())
        .seed(11)
        .preprocessor(Reweighing)
        .learner(LogisticRegressionLearner { tuned: false })
        .build()
        .unwrap()
        .run_sealed()
        .unwrap();
    roundtrip("adult", &sealed, &adult);

    let german = generate_german(300, 6).unwrap();
    let (_, sealed) = Experiment::builder("germancredit", german.clone())
        .seed(12)
        .preprocessor(DisparateImpactRemover::new(0.5))
        .postprocessor(RejectOptionClassification::default())
        .learner(DecisionTreeLearner { tuned: false })
        .build()
        .unwrap()
        .run_sealed()
        .unwrap();
    roundtrip("german", &sealed, &german);

    let compas = generate_compas(400, 7, CompasProtected::Race).unwrap();
    let (_, sealed) = Experiment::builder("propublica-recidivism", compas.clone())
        .seed(13)
        .preprocessor(Massaging)
        .learner(LogisticRegressionLearner { tuned: false })
        .build()
        .unwrap()
        .run_sealed()
        .unwrap();
    roundtrip("compas", &sealed, &compas);

    let ricci = generate_ricci(150, 8).unwrap();
    let (_, sealed) = Experiment::builder("ricci", ricci.clone())
        .seed(14)
        .learner(DecisionTreeLearner { tuned: false })
        .build()
        .unwrap()
        .run_sealed()
        .unwrap();
    roundtrip("ricci", &sealed, &ricci);

    // Payment has real missingness: one pipeline imputes (NaN rows flow
    // through the model), one drops (NaN rows come back `dropped`). The
    // eq-odds postprocessor is randomized — its RNG seed must survive
    // sealing for the replay to stay bit-identical.
    let payment = generate_payment(600, 9).unwrap();
    let (_, sealed) = Experiment::builder("givemesomecredit", payment.clone())
        .seed(15)
        .missing_value_handler(ModeImputer)
        .postprocessor(EqOddsPostprocessing::default())
        .learner(LogisticRegressionLearner { tuned: false })
        .build()
        .unwrap()
        .run_sealed()
        .unwrap();
    roundtrip("payment_imputed", &sealed, &payment);

    let (_, sealed) = Experiment::builder("givemesomecredit", payment.clone())
        .seed(16)
        .learner(DecisionTreeLearner { tuned: false })
        .build()
        .unwrap()
        .run_sealed()
        .unwrap();
    let scored = sealed.score_frame(payment.frame().clone()).unwrap();
    assert!(
        scored.iter().any(ScoredRow::dropped),
        "complete-case pipeline should drop incomplete payment rows"
    );
    assert!(scored.iter().any(|r| !r.dropped()));
    roundtrip("payment_complete_case", &sealed, &payment);
}

/// A fitted german pipeline, its save→load replica, the request pool, and
/// the sealed artifact text — built once and shared across proptest cases.
struct Fixture {
    original: SealedPipeline,
    reloaded: SealedPipeline,
    pool: BinaryLabelDataset,
    artifact: String,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        // Payment + ModeImputer: the pool has NaN-bearing rows that must
        // survive imputation inside score_frame.
        let pool = generate_payment(400, 21).unwrap();
        let (_, original) = Experiment::builder("givemesomecredit", pool.clone())
            .seed(31)
            .missing_value_handler(ModeImputer)
            .preprocessor(Reweighing)
            .postprocessor(RejectOptionClassification::default())
            .learner(LogisticRegressionLearner { tuned: false })
            .build()
            .unwrap()
            .run_sealed()
            .unwrap();
        let dir = std::env::temp_dir().join("fairprep_seal_proptest_fixture");
        let path = original.save(&dir).unwrap();
        let artifact = std::fs::read_to_string(&path).unwrap();
        let reloaded = SealedPipeline::load(&path).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        Fixture {
            original,
            reloaded,
            pool,
            artifact,
        }
    })
}

/// A second sealed pipeline of other component kinds (model-based
/// imputer, repair, min-max scaling, tree, randomized eq-odds) beside the
/// fixture's, as artifact text, with the payment pool both score.
fn second_artifact() -> &'static str {
    static ARTIFACT: OnceLock<String> = OnceLock::new();
    ARTIFACT.get_or_init(|| {
        let (_, sealed) = Experiment::builder("givemesomecredit", fixture().pool.clone())
            .seed(32)
            .missing_value_handler(ModelBasedImputer::default())
            .preprocessor(DisparateImpactRemover::new(0.5))
            .scaler(ScalerSpec::MinMax)
            .postprocessor(EqOddsPostprocessing::default())
            .learner(DecisionTreeLearner { tuned: false })
            .build()
            .unwrap()
            .run_sealed()
            .unwrap();
        sealed.to_value().unwrap().to_json()
    })
}

/// The paths (child indices from the root) of every node of `v` that
/// `keep` accepts.
fn paths(
    v: &Value,
    at: &mut Vec<usize>,
    keep: &dyn Fn(&[usize], &Value) -> bool,
    out: &mut Vec<Vec<usize>>,
) {
    if keep(at, v) {
        out.push(at.clone());
    }
    let children: Vec<&Value> = match v {
        Value::Arr(items) => items.iter().collect(),
        Value::Obj(members) => members.iter().map(|(_, m)| m).collect(),
        _ => Vec::new(),
    };
    for (i, child) in children.into_iter().enumerate() {
        at.push(i);
        paths(child, at, keep, out);
        at.pop();
    }
}

fn node_mut<'a>(v: &'a mut Value, path: &[usize]) -> &'a mut Value {
    path.iter().fold(v, |node, &i| match node {
        Value::Arr(items) => &mut items[i],
        Value::Obj(members) => &mut members[i].1,
        _ => unreachable!("paths only descend into containers"),
    })
}

/// A float bit pattern: 16 hex digits.
fn is_bits(v: &Value) -> bool {
    matches!(v, Value::Str(s) if s.len() == 16 && s.bytes().all(|b| b.is_ascii_hexdigit()))
}

/// A count or seed: a shorter decimal string.
fn is_count(v: &Value) -> bool {
    matches!(v, Value::Str(s) if !s.is_empty() && s.len() < 16 && s.bytes().all(|b| b.is_ascii_digit()))
}

/// One structural edit of the artifact: `kind` picks the edit, `pick`
/// the node among those it applies to, `variant` its detail. Edits with
/// no node to apply to leave the artifact as it is.
fn edit(doc: &mut Value, kind: usize, pick: usize, variant: usize) {
    let keep = |path: &[usize], node: &Value| match kind {
        0 | 1 => !path.is_empty(),
        2 => is_bits(node),
        3 | 4 => matches!(node, Value::Arr(_)),
        _ => is_count(node),
    };
    let mut targets = Vec::new();
    paths(doc, &mut Vec::new(), &keep, &mut targets);
    let Some(path) = targets.get(pick % targets.len().max(1)) else {
        return;
    };
    match kind {
        // Delete the member or element.
        0 => {
            let (last, parent) = path.split_last().expect("not the root");
            match node_mut(doc, parent) {
                Value::Arr(items) => {
                    items.remove(*last);
                }
                Value::Obj(members) => {
                    members.remove(*last);
                }
                _ => unreachable!("a parent is a container"),
            }
        }
        // A value of another kind.
        1 => {
            *node_mut(doc, path) = [
                Value::Null,
                Value::Bool(true),
                Value::Num(-1.5),
                Value::Str("x".to_string()),
                Value::Arr(Vec::new()),
                Value::Obj(Vec::new()),
            ][variant % 6]
                .clone();
        }
        // One hex digit of a bit pattern changed to another.
        2 => {
            if let Value::Str(bits) = node_mut(doc, path) {
                const HEX: &[u8; 16] = b"0123456789abcdef";
                let at = variant % 16;
                let digit = HEX.iter().position(|&h| h == bits.as_bytes()[at]);
                let other = HEX[(digit.unwrap_or(0) + 1 + variant / 16) % 16];
                bits.replace_range(at..=at, std::str::from_utf8(&[other]).expect("ASCII"));
            }
        }
        // The array truncated, or its elements repeated.
        3 | 4 => {
            if let Value::Arr(items) = node_mut(doc, path) {
                if kind == 3 {
                    items.truncate(variant % (items.len() + 1));
                } else {
                    let copy = items.clone();
                    items.extend(copy);
                }
            }
        }
        // A count of 2^53.
        _ => *node_mut(doc, path) = Value::Str("9007199254740992".to_string()),
    }
}

/// Loads `doc` as a sealed pipeline and, when that succeeds, scores the
/// pool through it; fails the case if either panics.
fn load_and_score(doc: &Value) -> Result<(), TestCaseError> {
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        if let Ok(sealed) = SealedPipeline::from_value(doc) {
            let _ = sealed.score_frame(fixture().pool.frame().clone());
        }
    }));
    prop_assert!(outcome.is_ok(), "panicked on {}", doc.to_json());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Arbitrary row subsets (with repeats, any order) score identically
    /// through the original and the reloaded pipeline.
    #[test]
    fn arbitrary_subsets_score_identically(
        indices in proptest::collection::vec(0usize..400, 1..48)
    ) {
        let fx = fixture();
        let request = fx.pool.take(&indices);
        let direct = fx.original.score_frame(request.frame().clone()).unwrap();
        let replayed = fx.reloaded.score_frame(request.frame().clone()).unwrap();
        prop_assert_eq!(direct.len(), indices.len());
        prop_assert_eq!(bit_rows(&direct), bit_rows(&replayed));
    }

    /// Truncating the artifact anywhere yields a typed seal error — the
    /// loader never panics on torn files.
    #[test]
    fn truncated_artifacts_fail_typed(cut in 0usize..1000) {
        let fx = fixture();
        let cut = cut.min(fx.artifact.len().saturating_sub(1));
        let torn = &fx.artifact[..cut];
        let dir = std::env::temp_dir().join("fairprep_seal_torn");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("torn_{cut}.json"));
        std::fs::write(&path, torn).unwrap();
        let outcome = SealedPipeline::load(&path);
        std::fs::remove_file(&path).ok();
        match outcome {
            Err(Error::Seal(_)) => {}
            Err(other) => prop_assert!(false, "expected Error::Seal, got {other:?}"),
            Ok(_) => prop_assert!(false, "truncated artifact unsealed"),
        }
    }

}

proptest! {
    #![proptest_config(ProptestConfig { cases: 200, ..ProptestConfig::default() })]

    /// Up to three structural edits of either pipeline's artifact — a
    /// deleted member or element, a value of the wrong kind, a flipped hex
    /// digit in a bit pattern, a truncated or repeated array, a count of
    /// 2^53 — and then at most one flipped byte never panic: the loader
    /// refuses the artifact with a typed error, or what it loads scores
    /// the pool or refuses it with a typed error.
    #[test]
    fn corrupted_artifacts_never_panic(
        second in any::<bool>(),
        edits in proptest::collection::vec((0usize..6, any::<usize>(), 0usize..64), 0..=3),
        flip in proptest::option::of((0usize..8192, 1u8..255)),
    ) {
        let artifact = if second { second_artifact() } else { fixture().artifact.as_str() };
        let mut doc = parse(artifact).unwrap();
        for (kind, pick, variant) in edits {
            edit(&mut doc, kind, pick, variant);
        }
        let Some((pos, flip)) = flip else {
            return load_and_score(&doc);
        };
        let mut corrupted = doc.to_json().into_bytes();
        let pos = pos % corrupted.len();
        corrupted[pos] ^= flip;
        // Not all flips produce valid UTF-8 or JSON; both paths must stay typed.
        if let Some(doc) = String::from_utf8(corrupted).ok().and_then(|text| parse(&text).ok()) {
            load_and_score(&doc)?;
        }
    }
}

/// The fixed batch sizes the serving layer exercises: single-row, an odd
/// small batch, and a batch larger than any training partition.
#[test]
fn batch_sizes_1_7_4096_score_identically() {
    let fx = fixture();
    for &size in &[1usize, 7] {
        let indices: Vec<usize> = (0..size).map(|i| (i * 53) % 400).collect();
        let request = fx.pool.take(&indices);
        let direct = fx.original.score_frame(request.frame().clone()).unwrap();
        let replayed = fx.reloaded.score_frame(request.frame().clone()).unwrap();
        assert_eq!(direct.len(), size);
        assert_eq!(bit_rows(&direct), bit_rows(&replayed), "batch size {size}");
    }
    // 4096 rows drawn fresh from the generator (different seed than the
    // training pool), so the batch is larger than anything seen at fit
    // time and includes unseen NaN patterns.
    let big = generate_payment(4096, 77).unwrap();
    let direct = fx.original.score_frame(big.frame().clone()).unwrap();
    let replayed = fx.reloaded.score_frame(big.frame().clone()).unwrap();
    assert_eq!(direct.len(), 4096);
    assert_eq!(bit_rows(&direct), bit_rows(&replayed), "batch size 4096");
}

/// Artifacts from a future schema version are refused up front.
#[test]
fn version_skew_is_refused() {
    let fx = fixture();
    let bumped = fx
        .artifact
        .replacen("\"schema_version\":\"1\"", "\"schema_version\":\"2\"", 1);
    assert_ne!(bumped, fx.artifact, "version field not found in artifact");
    let value = fairprep_trace::json::parse(&bumped).unwrap();
    match SealedPipeline::from_value(&value) {
        Err(Error::Seal(msg)) => assert!(msg.contains("version"), "{msg}"),
        Err(other) => panic!("expected a version refusal, got {other:?}"),
        Ok(_) => panic!("a future schema version unsealed"),
    }
}
