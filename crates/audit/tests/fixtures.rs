//! Self-test: the audit must flag every known-bad fixture and honour
//! well-formed waivers. This is the executable specification of the lint
//! registry — if a lint regresses, this suite fails before CI ever runs
//! the audit on the real tree.

use std::path::Path;

use fairprep_audit::{audit, AuditReport};

fn fixture_report() -> AuditReport {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures");
    audit(&dir).expect("fixture tree must be readable")
}

fn count(report: &AuditReport, file: &str, lint: &str) -> usize {
    report
        .diagnostics
        .iter()
        .filter(|d| d.file == file && d.lint == lint)
        .count()
}

#[test]
fn fixtures_trip_every_layer() {
    let report = fixture_report();
    assert!(!report.is_clean(), "fixtures must produce violations");

    // L1: three leaking fits, two row-leaking vault accessors.
    assert_eq!(count(&report, "l1_isolation.rs", "fit-on-test"), 3);
    assert_eq!(count(&report, "l1_isolation.rs", "vault-row-leak"), 2);

    // L2: hash collections, ad-hoc thread, float comparisons, wall clock.
    assert!(count(&report, "l2_nondeterminism.rs", "hash-iter") >= 2);
    assert_eq!(count(&report, "l2_nondeterminism.rs", "thread-spawn"), 1);
    assert_eq!(count(&report, "l2_nondeterminism.rs", "float-eq"), 2);
    assert!(count(&report, "l2_nondeterminism.rs", "wall-clock") >= 1);

    // L3: one of each panic path, none from the #[cfg(test)] module.
    assert_eq!(count(&report, "l3_panics.rs", "index-literal"), 1);
    assert_eq!(count(&report, "l3_panics.rs", "unwrap"), 1);
    assert_eq!(count(&report, "l3_panics.rs", "expect"), 1);
    assert_eq!(count(&report, "l3_panics.rs", "panic"), 1);
}

/// The `wall-clock` lint has exactly one sanctioned reader: the tracer
/// crate, whose whole job is stamping stage spans from a monotonic
/// origin. The fixture under `crates/trace/` must audit clean of
/// `wall-clock` (while other lints still fire there), and the identical
/// `Instant` call in `l2_nondeterminism.rs` must stay flagged — the
/// carve-out is a single path prefix, not a lint deletion.
#[test]
fn wall_clock_carveout_for_trace_crate() {
    let report = fixture_report();
    let trace_fixture = "crates/trace/src/clock.rs";
    assert_eq!(count(&report, trace_fixture, "wall-clock"), 0);
    // The carve-out does not relax the rest of the pipeline lints.
    assert_eq!(count(&report, trace_fixture, "unwrap"), 1);
    // The lint itself still fires outside the carve-out.
    assert!(count(&report, "l2_nondeterminism.rs", "wall-clock") >= 1);
}

#[test]
fn waiver_fixtures_behave() {
    let report = fixture_report();
    // The reasonless waiver is itself flagged and suppresses nothing …
    assert_eq!(count(&report, "waivers.rs", "waiver-syntax"), 1);
    // … so exactly one unwrap survives: the justified one is silenced.
    assert_eq!(count(&report, "waivers.rs", "unwrap"), 1);
}

#[test]
fn taint_flow_fires_on_laundered_flows_only() {
    let report = fixture_report();
    // Three laundered flows: rebinding, vault accessor, provenance stamp.
    assert_eq!(count(&report, "flow_taint.rs", "test-taint-flow"), 3);
    // The clean_* functions (train flow, untainting rebind, predict-only
    // use, splitter call) must stay silent — in every lint family.
    let noise: Vec<_> = report
        .diagnostics
        .iter()
        .filter(|d| d.file == "flow_taint.rs" && d.lint != "test-taint-flow")
        .collect();
    assert!(noise.is_empty(), "unexpected extra findings: {noise:?}");
}

#[test]
fn guard_exhaustiveness_accepts_direct_and_transitive_guards() {
    let report = fixture_report();
    // Only `Unguarded::fit` lacks a path to guard_fit; the direct and
    // transitive guards pass, and the bodyless trait declaration is
    // skipped.
    assert_eq!(
        count(&report, "crates/ml/src/guard.rs", "missing-guard-fit"),
        1
    );
    let d = report
        .diagnostics
        .iter()
        .find(|d| d.lint == "missing-guard-fit")
        .expect("guard fixture must trip the lint");
    assert!(d.message.contains("Unguarded::fit"), "{}", d.message);
}

#[test]
fn parallel_closures_catch_shared_state_and_adhoc_reduction() {
    let report = fixture_report();
    // Captured accumulator, captured RefCell, captured &mut borrow.
    assert_eq!(count(&report, "conc_parallel.rs", "shared-mut-capture"), 3);
    // `.sum::<f64>()` and `.fold(0.0, …)` inside pool closures.
    assert_eq!(
        count(&report, "conc_parallel.rs", "nondeterministic-reduce"),
        2
    );
    // The per-item-state and kernel-call closures stay silent.
    assert_eq!(
        report
            .diagnostics
            .iter()
            .filter(|d| d.file == "conc_parallel.rs")
            .count(),
        5
    );
}

#[test]
fn kernel_file_and_hot_path_markers_reject_allocation() {
    let report = fixture_report();
    // Every non-test fn in a kernels.rs path is hot: four allocation
    // idioms in `bad_kernel`, none from `good_kernel` or the test module.
    assert_eq!(
        count(&report, "crates/ml/src/kernels.rs", "alloc-in-kernel"),
        4
    );
    // Elsewhere the lint is opt-in: the marked fn fires, its unmarked
    // twin (same body) does not.
    assert_eq!(count(&report, "hot_path.rs", "alloc-in-kernel"), 1);
}

/// The telemetry extension of `alloc-in-kernel`: a marked record
/// function that locks (`.lock()`) or allocates (`vec!`, `Box::new`) is
/// caught; the relaxed-atomic record and the unmarked locking twin are
/// not.
#[test]
fn hot_path_telemetry_record_fns_reject_locks_and_allocation() {
    let report = fixture_report();
    assert_eq!(
        count(&report, "hot_path_telemetry.rs", "alloc-in-kernel"),
        3
    );
    let messages: Vec<&str> = report
        .diagnostics
        .iter()
        .filter(|d| d.file == "hot_path_telemetry.rs" && d.lint == "alloc-in-kernel")
        .map(|d| d.message.as_str())
        .collect();
    assert!(
        messages.iter().any(|m| m.contains("`.lock()`")),
        "{messages:?}"
    );
    assert!(
        messages.iter().any(|m| m.contains("`vec![]`")),
        "{messages:?}"
    );
    assert!(
        messages.iter().any(|m| m.contains("`Box::new()`")),
        "{messages:?}"
    );
    // The unmarked twin locks with impunity: the lint stays opt-in.
    assert!(
        !messages
            .iter()
            .any(|m| m.contains("unmarked_record_may_lock")),
        "{messages:?}"
    );
}

#[test]
fn stale_waivers_are_reported_and_used_ones_are_not() {
    let report = fixture_report();
    assert_eq!(count(&report, "stale_waiver.rs", "stale-waiver"), 1);
    // The used waiver suppresses its unwrap and is not stale.
    assert_eq!(count(&report, "stale_waiver.rs", "unwrap"), 0);
    let d = report
        .diagnostics
        .iter()
        .find(|d| d.file == "stale_waiver.rs")
        .expect("stale waiver must be reported");
    assert!(d.message.contains("float-eq"), "{}", d.message);
}

/// Every `unsafe` line marked `BAD` in the fixture fires, on its own
/// line; the commented blocks, the documented `unsafe fn`, the comment run
/// across an attribute and the function-pointer type stay silent.
#[test]
fn unsafe_without_safety_comment_is_flagged() {
    let report = fixture_report();
    let fired: Vec<(u32, &str)> = report
        .diagnostics
        .iter()
        .filter(|d| d.file == "unsafe_safety.rs")
        .map(|d| (d.line, d.lint))
        .collect();
    let fixture = std::fs::read_to_string(
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("fixtures")
            .join("unsafe_safety.rs"),
    )
    .expect("fixture readable");
    let expected: Vec<(u32, &str)> = (1..)
        .zip(fixture.lines())
        .filter(|(_, l)| l.contains("unsafe") && l.contains("// BAD"))
        .map(|(n, _)| (n, "unsafe-safety-comment"))
        .collect();
    assert_eq!(expected.len(), 6);
    assert_eq!(fired, expected);
}

#[test]
fn lexer_edges_yield_exactly_one_real_violation() {
    let report = fixture_report();
    // Raw strings, byte strings, nested comments, and the lifetime in
    // `Option<&'static str>` are all opaque: only the real `.unwrap()`
    // at the bottom of the file fires, at its exact line.
    let edge: Vec<_> = report
        .diagnostics
        .iter()
        .filter(|d| d.file == "lexer_edges.rs")
        .collect();
    assert_eq!(edge.len(), 1, "{edge:?}");
    assert_eq!(edge[0].lint, "unwrap");
    let fixture = std::fs::read_to_string(
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("fixtures")
            .join("lexer_edges.rs"),
    )
    .expect("fixture readable");
    let expected_line = fixture
        .lines()
        .position(|l| l.contains("o.unwrap()"))
        .expect("fixture has the violation")
        + 1;
    assert_eq!(edge[0].line as usize, expected_line);
}

#[test]
fn diagnostics_carry_file_and_line() {
    let report = fixture_report();
    let d = report
        .diagnostics
        .iter()
        .find(|d| d.lint == "fit-on-test")
        .expect("fixture has fit-on-test violations");
    assert_eq!(d.file, "l1_isolation.rs");
    assert!(d.line > 0);
    assert!(d.message.contains("fit"));
}

#[test]
fn report_renders_summary_table() {
    let report = fixture_report();
    let mut buf = Vec::new();
    report.write_to(&mut buf).unwrap();
    let text = String::from_utf8(buf).unwrap();
    assert!(text.contains("fit-on-test"));
    assert!(text.contains("violation(s)"));
    assert!(text.contains("file(s) scanned"));
}
