//! Property-based tests (proptest) over the substrates' core invariants.

use proptest::prelude::*;

use fairprep::prelude::*;
use fairprep_data::split::k_fold_indices;
use fairprep_fairness::metrics::generalized_entropy_index;
use fairprep_ml::eval::{roc_auc, ConfusionMatrix};
use fairprep_ml::transform::scaler::FittedScaler;

fn toy_dataset(n: usize) -> BinaryLabelDataset {
    let frame = DataFrame::new()
        .with_column("x", Column::from_f64((0..n).map(|i| i as f64)))
        .unwrap()
        .with_column(
            "g",
            Column::from_strs((0..n).map(|i| if i % 3 == 0 { "a" } else { "b" })),
        )
        .unwrap()
        .with_column(
            "y",
            Column::from_strs((0..n).map(|i| if i % 2 == 0 { "p" } else { "n" })),
        )
        .unwrap();
    let schema = Schema::new()
        .numeric_feature("x")
        .metadata("g", ColumnKind::Categorical)
        .label("y");
    BinaryLabelDataset::new(
        frame,
        schema,
        ProtectedAttribute::categorical("g", &["a"]),
        "p",
    )
    .unwrap()
}

proptest! {
    /// Train/validation/test always partitions the rows: disjoint, complete.
    #[test]
    fn split_partitions_rows(n in 10usize..300, seed in any::<u64>()) {
        let ds = toy_dataset(n);
        let split = train_val_test_split(&ds, SplitSpec::paper_default(), seed).unwrap();
        let mut all: Vec<usize> = split.indices.train.iter()
            .chain(&split.indices.validation)
            .chain(&split.indices.test)
            .copied()
            .collect();
        all.sort_unstable();
        prop_assert_eq!(all, (0..n).collect::<Vec<_>>());
        prop_assert!(!split.indices.test.is_empty());
        prop_assert!(!split.indices.train.is_empty());
    }

    /// k-fold validation folds partition the rows; fold sizes differ by <= 1.
    #[test]
    fn kfold_partitions_rows(n in 5usize..200, k in 2usize..5, seed in any::<u64>()) {
        prop_assume!(n >= k);
        let folds = k_fold_indices(n, k, seed).unwrap();
        let mut val: Vec<usize> = folds.iter().flat_map(|(_, v)| v.clone()).collect();
        val.sort_unstable();
        prop_assert_eq!(val, (0..n).collect::<Vec<_>>());
        let sizes: Vec<usize> = folds.iter().map(|(_, v)| v.len()).collect();
        let min = *sizes.iter().min().unwrap();
        let max = *sizes.iter().max().unwrap();
        prop_assert!(max - min <= 1);
    }

    /// Scalers invert exactly (within float tolerance) on arbitrary values.
    #[test]
    fn scaler_roundtrips(
        values in prop::collection::vec(-1e6f64..1e6, 2..50),
        probe in -1e6f64..1e6,
    ) {
        for spec in [ScalerSpec::Standard, ScalerSpec::MinMax, ScalerSpec::NoScaling] {
            let fitted: FittedScaler = spec.fit(std::slice::from_ref(&values)).unwrap();
            let y = fitted.transform_value(0, probe).unwrap();
            let back = fitted.inverse_value(0, y).unwrap();
            // Constant columns legitimately collapse to the constant.
            let constant = values.iter().all(|v| v == &values[0]);
            if constant {
                prop_assert!((back - values[0]).abs() < 1e-6);
            } else {
                prop_assert!((back - probe).abs() < 1e-6 * probe.abs().max(1.0),
                    "{spec:?}: {probe} -> {y} -> {back}");
            }
        }
    }

    /// One-hot encodings of observed values sum to exactly 1.
    #[test]
    fn onehot_is_one_hot(
        cats in prop::collection::vec("[a-d]", 1..30),
        probe in "[a-f]",
    ) {
        let refs: Vec<&str> = cats.iter().map(String::as_str).collect();
        let col = Column::from_strs(refs);
        let enc = OneHotEncoder::fit(&col).unwrap();
        let e = enc.encode(Some(&probe));
        prop_assert_eq!(e.iter().filter(|&&v| v == 1.0).count(), 1);
        prop_assert_eq!(e.iter().filter(|&&v| v == 0.0).count(), e.len() - 1);
    }

    /// Reweighing always makes the weighted label distribution independent
    /// of the group, and preserves total mass.
    #[test]
    fn reweighing_independence(
        pattern in prop::collection::vec((any::<bool>(), any::<bool>()), 8..100),
    ) {
        // The Kamiran–Calders weights assume all four (group, label) cells
        // are occupied; with an empty cell, independence and mass
        // preservation do not hold (nothing carries the reweighed mass).
        let has = |g: bool, y: bool| pattern.iter().any(|&(pg, py)| pg == g && py == y);
        prop_assume!(has(true, true) && has(true, false));
        prop_assume!(has(false, true) && has(false, false));

        let frame = DataFrame::new()
            .with_column("x", Column::from_f64(pattern.iter().enumerate().map(|(i, _)| i as f64)))
            .unwrap()
            .with_column("g", Column::from_strs(pattern.iter().map(|&(g, _)| if g { "a" } else { "b" })))
            .unwrap()
            .with_column("y", Column::from_strs(pattern.iter().map(|&(_, y)| if y { "p" } else { "n" })))
            .unwrap();
        let schema = Schema::new()
            .numeric_feature("x")
            .metadata("g", ColumnKind::Categorical)
            .label("y");
        let ds = BinaryLabelDataset::new(
            frame, schema, ProtectedAttribute::categorical("g", &["a"]), "p",
        ).unwrap();
        let out = Reweighing.fit(&ds, 0).unwrap().transform_train(&ds).unwrap();

        let w = out.instance_weights();
        let total: f64 = w.iter().sum();
        prop_assert!((total - pattern.len() as f64).abs() < 1e-6);

        let rate = |g: bool| -> Option<f64> {
            let (pos, tot) = (0..out.n_rows())
                .filter(|&i| out.privileged_mask()[i] == g)
                .fold((0.0, 0.0), |(p, t), i| (p + w[i] * out.labels()[i], t + w[i]));
            if tot > 0.0 { Some(pos / tot) } else { None }
        };
        if let (Some(rp), Some(ru)) = (rate(true), rate(false)) {
            prop_assert!((rp - ru).abs() < 1e-9, "weighted rates {rp} vs {ru}");
        }
    }

    /// DI-remover preserves within-group rank order for any repair level.
    #[test]
    fn di_remover_preserves_ranks(
        values in prop::collection::vec(-1e3f64..1e3, 8..60),
        lambda in 0.0f64..=1.0,
    ) {
        let n = values.len();
        let frame = DataFrame::new()
            .with_column("v", Column::from_f64(values.iter().copied()))
            .unwrap()
            .with_column("g", Column::from_strs((0..n).map(|i| if i % 2 == 0 { "a" } else { "b" })))
            .unwrap()
            .with_column("y", Column::from_strs((0..n).map(|i| if i % 3 == 0 { "p" } else { "n" })))
            .unwrap();
        let schema = Schema::new()
            .numeric_feature("v")
            .metadata("g", ColumnKind::Categorical)
            .label("y");
        let ds = BinaryLabelDataset::new(
            frame, schema, ProtectedAttribute::categorical("g", &["a"]), "p",
        ).unwrap();
        let out = DisparateImpactRemover::new(lambda)
            .fit(&ds, 0).unwrap().transform_train(&ds).unwrap();
        let repaired: Vec<f64> = out.frame().column("v").unwrap()
            .as_numeric().unwrap().iter().map(|v| v.unwrap()).collect();
        for g in [true, false] {
            let idx: Vec<usize> = (0..n).filter(|&i| ds.privileged_mask()[i] == g).collect();
            for a in 0..idx.len() {
                for b in (a + 1)..idx.len() {
                    let (i, j) = (idx[a], idx[b]);
                    if values[i] < values[j] {
                        prop_assert!(repaired[i] <= repaired[j] + 1e-9);
                    }
                }
            }
        }
    }

    /// Confusion-matrix identities hold for arbitrary prediction patterns.
    #[test]
    fn confusion_matrix_identities(
        pairs in prop::collection::vec((any::<bool>(), any::<bool>()), 1..100),
    ) {
        let y: Vec<f64> = pairs.iter().map(|&(t, _)| f64::from(u8::from(t))).collect();
        let p: Vec<f64> = pairs.iter().map(|&(_, q)| f64::from(u8::from(q))).collect();
        let cm = ConfusionMatrix::compute(&y, &p, None).unwrap();
        prop_assert!((cm.total() - pairs.len() as f64).abs() < 1e-9);
        prop_assert!(cm.accuracy() >= 0.0 && cm.accuracy() <= 1.0);
        if cm.tp + cm.fn_ > 0.0 {
            prop_assert!((cm.tpr() + cm.fnr() - 1.0).abs() < 1e-9);
        }
        if cm.fp + cm.tn > 0.0 {
            prop_assert!((cm.fpr() + cm.tnr() - 1.0).abs() < 1e-9);
        }
        prop_assert!((cm.selection_rate() + (cm.fn_ + cm.tn) / cm.total() - 1.0).abs() < 1e-9);
    }

    /// GEI is non-negative and zero exactly for perfect predictions.
    #[test]
    fn gei_nonnegative(
        pairs in prop::collection::vec((any::<bool>(), any::<bool>()), 1..100),
    ) {
        let y: Vec<f64> = pairs.iter().map(|&(t, _)| f64::from(u8::from(t))).collect();
        let p: Vec<f64> = pairs.iter().map(|&(_, q)| f64::from(u8::from(q))).collect();
        let gei = generalized_entropy_index(&y, &p, 2.0);
        // All-wrong-negative edge (mean benefit 0) yields NaN; otherwise >= 0.
        if !gei.is_nan() {
            prop_assert!(gei >= -1e-12, "gei {gei}");
        }
        let perfect = generalized_entropy_index(&y, &y, 2.0);
        prop_assert!(perfect.abs() < 1e-12);
    }

    /// ROC-AUC stays within [0, 1] whenever defined.
    #[test]
    fn auc_bounded(
        labels in prop::collection::vec(any::<bool>(), 2..80),
        raw_scores in prop::collection::vec(0.0f64..1.0, 2..80),
    ) {
        let n = labels.len().min(raw_scores.len());
        let y: Vec<f64> = labels[..n].iter().map(|&b| f64::from(u8::from(b))).collect();
        let s = &raw_scores[..n];
        let auc = roc_auc(&y, s).unwrap();
        if !auc.is_nan() {
            prop_assert!((0.0..=1.0).contains(&auc), "auc {auc}");
        }
    }

    /// CSV write → read roundtrips every frame whose column names and
    /// categories `read_csv` returns as written. A column name with a line
    /// break or surrounding whitespace is refused with a CSV error at line 1
    /// before anything is written; a name equal to a missing token is fine.
    /// A frame holding a category with a line break or surrounding
    /// whitespace, or one equal to a missing token, is refused with a CSV
    /// error at the line of the first such cell.
    #[test]
    fn csv_roundtrip(
        names in ((0_usize..24, "[a-z ,\"\r\n?]{0,4}"), (0_usize..24, "[a-z ,\"\r\n?]{0,4}")),
        categories in prop::collection::vec((0_usize..24, "[a-z ,\"\r\n?]{0,8}"), 1..4),
        rows in prop::collection::vec(
            (proptest::option::of(-1e6f64..1e6), proptest::option::of(0_usize..3)),
            1..40,
        ),
    ) {
        use fairprep_data::csv::{read_csv, write_csv, DEFAULT_MISSING_TOKENS};
        use fairprep_data::error::Error;
        // About a quarter of the names and categories are missing tokens.
        let token_or = |(pick, s): (usize, String)| {
            DEFAULT_MISSING_TOKENS.get(pick).map_or(s, |t| (*t).to_string())
        };
        let (n, c) = (token_or(names.0), token_or(names.1));
        prop_assume!(n != c);
        let categories: Vec<String> = categories.into_iter().map(token_or).collect();
        let category = |c: &Option<usize>| c.map(|i| categories[i % categories.len()].as_str());
        let unreadable_name = |c: &str| c.contains(['\n', '\r']) || c.trim() != c;
        let unreadable = |c: &str| unreadable_name(c) || DEFAULT_MISSING_TOKENS.contains(&c);
        let name_refused = unreadable_name(&n) || unreadable_name(&c);
        let first_refused = rows.iter().position(|(_, c)| category(c).is_some_and(unreadable));
        let frame = DataFrame::new()
            .with_column(&n, Column::from_optional_f64(rows.iter().map(|(v, _)| *v)))
            .unwrap()
            .with_column(&c, Column::from_optional_strs(rows.iter().map(|(_, c)| category(c))))
            .unwrap();
        let mut buffer = Vec::new();
        let written = write_csv(&frame, &mut buffer);
        match (written, name_refused, first_refused) {
            (Err(Error::Csv { line: 1, .. }), true, _) => prop_assert!(
                buffer.is_empty(),
                "{} bytes written before refusing {:?} / {:?}",
                buffer.len(),
                n,
                c
            ),
            (Ok(()), false, None) => {
                let back = read_csv(
                    std::io::Cursor::new(buffer),
                    &[(n.as_str(), ColumnKind::Numeric), (c.as_str(), ColumnKind::Categorical)],
                    DEFAULT_MISSING_TOKENS,
                ).unwrap();
                prop_assert_eq!(back.n_rows(), frame.n_rows());
                for i in 0..frame.n_rows() {
                    prop_assert_eq!(back.value(i, &n).unwrap(), frame.value(i, &n).unwrap());
                    prop_assert_eq!(back.value(i, &c).unwrap(), frame.value(i, &c).unwrap());
                }
            }
            (Err(Error::Csv { line, .. }), false, Some(row)) => prop_assert_eq!(line, row + 2),
            (written, names_refused, refused) => prop_assert!(
                false,
                "write_csv gave {:?}; names {:?} / {:?} refused: {}; first unreadable row {:?}",
                written,
                n,
                c,
                names_refused,
                refused
            ),
        }
    }

    /// Mode/mean-mode imputation always produces a complete dataset and
    /// never alters observed cells.
    #[test]
    fn imputation_completes_without_touching_observed(
        cells in prop::collection::vec(proptest::option::of(-100f64..100.0), 8..60),
    ) {
        prop_assume!(cells.iter().any(Option::is_some));
        let n = cells.len();
        let frame = DataFrame::new()
            .with_column("v", Column::from_optional_f64(cells.iter().copied()))
            .unwrap()
            .with_column("g", Column::from_strs((0..n).map(|i| if i % 2 == 0 { "a" } else { "b" })))
            .unwrap()
            .with_column("y", Column::from_strs((0..n).map(|i| if i % 3 == 0 { "p" } else { "n" })))
            .unwrap();
        let schema = Schema::new()
            .numeric_feature("v")
            .metadata("g", ColumnKind::Categorical)
            .label("y");
        let ds = BinaryLabelDataset::new(
            frame, schema, ProtectedAttribute::categorical("g", &["a"]), "p",
        ).unwrap();
        for handler in [&ModeImputer as &dyn MissingValueHandler, &MeanModeImputer] {
            let out = handler.fit(&ds, 0).unwrap().handle_missing(&ds).unwrap();
            prop_assert_eq!(out.frame().missing_cells(), 0);
            for (i, cell) in cells.iter().enumerate() {
                if let Some(v) = cell {
                    prop_assert_eq!(
                        out.frame().value(i, "v").unwrap(),
                        Value::Numeric(*v)
                    );
                }
            }
        }
    }
}

/// Span-tree properties of traced lifecycle runs: for arbitrary component
/// stacks, the recorded span events form a well-formed tree (every stage
/// entered exactly once per occurrence, properly nested, no orphan
/// exits), the manifest's span structure mirrors the configured pipeline,
/// and the counters are mutually consistent.
mod span_tree_properties {
    use super::*;
    use fairprep::trace::{validate_span_events, Counter, Tracer};
    use fairprep_trace::SpanNode;

    fn child_names(node: &SpanNode) -> Vec<&str> {
        node.children.iter().map(|c| c.stage.as_str()).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(10))]

        #[test]
        fn traced_runs_record_wellformed_span_trees(
            missing in 0usize..3,
            with_pre in any::<bool>(),
            with_post in any::<bool>(),
            learners in prop::collection::vec(0usize..3, 1..3),
            seed in 0u64..10_000,
        ) {
            let n_rows = 160usize;
            let dataset = generate_payment(n_rows, 5).unwrap();
            let tracer = Tracer::enabled();
            let mut builder = Experiment::builder("payment", dataset)
                .seed(seed)
                .tracer(tracer.clone());
            builder = match missing {
                0 => builder.missing_value_handler(CompleteCaseAnalysis),
                1 => builder.missing_value_handler(ModeImputer),
                _ => builder.missing_value_handler(MeanModeImputer),
            };
            if with_pre {
                builder = builder.preprocessor(Reweighing);
            }
            if with_post {
                builder = builder.postprocessor(RejectOptionClassification::default());
            }
            let mut any_tuned = false;
            for &choice in &learners {
                builder = match choice {
                    0 => builder.learner(LogisticRegressionLearner { tuned: false }),
                    1 => builder.learner(DecisionTreeLearner { tuned: false }),
                    _ => {
                        any_tuned = true;
                        builder.learner(DecisionTreeLearner { tuned: true })
                    }
                };
            }
            let result = builder.build().unwrap().run().unwrap();

            // The raw event stream obeys stack discipline: every exit
            // matches the innermost open span and nothing is left open.
            let events = tracer.span_events();
            prop_assert!(validate_span_events(&events).is_ok(),
                "{:?}", validate_span_events(&events));
            prop_assert_eq!(events.iter().filter(|e| e.enter).count(), events.len() / 2);

            let manifest = result.manifest.as_ref().unwrap();

            // Root layout: split, one candidate per learner, select, evaluate.
            let roots: Vec<&str> = manifest.spans.iter().map(|s| s.stage.as_str()).collect();
            prop_assert_eq!(roots.first().copied(), Some("split"));
            prop_assert_eq!(roots.last().copied(), Some("evaluate"));
            prop_assert_eq!(
                roots.iter().filter(|s| **s == "candidate").count(),
                learners.len()
            );
            prop_assert_eq!(roots.iter().filter(|s| **s == "select").count(), 1);
            prop_assert_eq!(manifest.spans.len(), learners.len() + 3);

            // Every candidate runs the same stage sequence; postprocess
            // appears exactly when a postprocessor is configured.
            for (node, &choice) in manifest
                .spans
                .iter()
                .filter(|s| s.stage == "candidate")
                .zip(&learners)
            {
                let mut expected =
                    vec!["impute", "preprocess", "scale", "train"];
                if with_post {
                    expected.push("postprocess");
                }
                expected.push("evaluate");
                prop_assert_eq!(child_names(node), expected);
                // A cross-validated learner nests `tune` under `train`.
                let train = node
                    .children
                    .iter()
                    .find(|c| c.stage == "train")
                    .unwrap();
                prop_assert_eq!(child_names(train), if choice == 2 { vec!["tune"] } else { Vec::new() });
            }

            // Counter consistency.
            prop_assert_eq!(tracer.counter(Counter::RowsSeen), n_rows as u64);
            prop_assert_eq!(
                tracer.counter(Counter::CandidatesEvaluated),
                learners.len() as u64
            );
            prop_assert_eq!(tracer.counter(Counter::JobsFailed), 0);
            prop_assert!(manifest.failures.is_empty());
            // A record-removing handler never imputes, and vice versa.
            if missing == 0 {
                prop_assert_eq!(tracer.counter(Counter::CellsImputed), 0);
            } else {
                prop_assert_eq!(tracer.counter(Counter::RowsDropped), 0);
            }
            // Fold counters appear exactly when some learner cross-validates.
            if any_tuned {
                prop_assert!(tracer.counter(Counter::FoldsEvaluated) > 0);
            } else {
                prop_assert_eq!(tracer.counter(Counter::FoldsEvaluated), 0);
                prop_assert_eq!(tracer.counter(Counter::FoldCacheHits), 0);
            }
        }
    }
}
