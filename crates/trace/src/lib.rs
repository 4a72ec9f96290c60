//! Structured run observability for FairPrep: stage spans, typed
//! counters, and reproducible run manifests.
//!
//! The paper's central argument is that the *provenance* of a number —
//! seed, split, imputation strategy, tuning budget — determines what the
//! number means. This crate records that provenance natively:
//!
//! * [`Tracer`] — a cheap, clone-able handle threaded through the
//!   lifecycle. When disabled (the default) every call is a branch on an
//!   [`Option`] and performs **no heap allocation**; when enabled it
//!   records hierarchical stage spans against a monotonic clock, bumps
//!   atomic counters, and collects per-job failure strings.
//! * [`Stage`] / [`Counter`] / [`Gauge`] — the closed vocabulary of what
//!   can be recorded, so manifests are comparable across runs.
//! * [`RunManifest`] — a deterministic JSON artifact describing how a run
//!   was produced. Its [`RunManifest::canonical`] projection excludes
//!   every timing-dependent field and is byte-identical across repeated
//!   runs and across thread budgets; the timing section is segregated so
//!   tooling can diff the canonical part byte-for-byte.
//!
//! This crate is the **only** place in the workspace sanctioned to read
//! the monotonic clock ([`std::time::Instant`]); the static audit's
//! `wall-clock` lint carves out `crates/trace/` and fires everywhere
//! else. Span structure is only ever mutated from sequential sections of
//! the lifecycle, while parallel fold jobs touch atomic counters alone —
//! which is why the canonical manifest cannot observe the thread budget.

pub mod alert;
pub mod exposition;
pub mod fault;
pub mod json;
pub mod manifest;
pub mod profile;
pub mod telemetry;

pub use fault::{FaultArm, FaultKind, FaultPlan, INJECTED_PANIC, INJECTED_TRANSIENT};
pub use manifest::{ManifestConfig, RunManifest, SpanNode};
pub use profile::{
    DataProfile, FeatureSpaceRecord, PredictionRecord, ProfileDiffRecord, SnapshotRecord,
};

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// The closed set of lifecycle stages a span may be attached to.
///
/// `Candidate` groups the per-candidate phase-1 stages; `Select` is the
/// phase-2 choice; the top-level `Evaluate` span is the phase-3 sealed
/// test evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Stage {
    /// Train/validation/test partitioning of the raw data.
    Split,
    /// Phase-1 work for one candidate learner (parent of the rest).
    Candidate,
    /// Missing-value handler fit + application.
    Impute,
    /// Pre-processing fairness intervention fit + transform.
    Preprocess,
    /// Featurizer fit (scaler statistics, one-hot dictionaries).
    Scale,
    /// Hyperparameter search (cross-validated learners only).
    Tune,
    /// Model training.
    Train,
    /// Post-processing intervention fit on validation predictions.
    Postprocess,
    /// Metric computation (per-candidate reports or the sealed test).
    Evaluate,
    /// Phase-2 model selection over candidate reports.
    Select,
}

/// All stages, in a stable order (used by docs and tooling).
pub const STAGES: [Stage; 10] = [
    Stage::Split,
    Stage::Candidate,
    Stage::Impute,
    Stage::Preprocess,
    Stage::Scale,
    Stage::Tune,
    Stage::Train,
    Stage::Postprocess,
    Stage::Evaluate,
    Stage::Select,
];

impl Stage {
    /// Stable lowercase identifier used in manifests.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Split => "split",
            Stage::Candidate => "candidate",
            Stage::Impute => "impute",
            Stage::Preprocess => "preprocess",
            Stage::Scale => "scale",
            Stage::Tune => "tune",
            Stage::Train => "train",
            Stage::Postprocess => "postprocess",
            Stage::Evaluate => "evaluate",
            Stage::Select => "select",
        }
    }
}

/// Monotonic counters. All of them are functions of the experiment
/// configuration and the data alone — never of the thread budget — so
/// they belong to the canonical manifest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Counter {
    /// Rows in the raw dataset handed to the experiment.
    RowsSeen,
    /// Cells filled in by an imputing missing-value handler.
    CellsImputed,
    /// Rows removed by a record-dropping handler (complete-case).
    RowsDropped,
    /// (candidate, fold) evaluations performed by a cross-validated search.
    FoldsEvaluated,
    /// Fold materializations avoided by reusing the shared `FoldCache`.
    FoldCacheHits,
    /// Grid points skipped by a randomized search's sampling budget.
    CandidatesPruned,
    /// Candidate learners fitted by the lifecycle.
    CandidatesEvaluated,
    /// Runner jobs that returned an error (see the `failures` array).
    JobsFailed,
    /// Categorical values routed to the one-hot encoder's unseen slot at
    /// transform time (categories absent from the training dictionary).
    UnseenCategories,
    /// Job attempts re-run by the sweep's bounded retry policy after a
    /// transient failure (each retry of one job adds 1).
    JobsRetried,
}

/// All counters, in the stable order used by manifests.
pub const COUNTERS: [Counter; 10] = [
    Counter::RowsSeen,
    Counter::CellsImputed,
    Counter::RowsDropped,
    Counter::FoldsEvaluated,
    Counter::FoldCacheHits,
    Counter::CandidatesPruned,
    Counter::CandidatesEvaluated,
    Counter::JobsFailed,
    Counter::UnseenCategories,
    Counter::JobsRetried,
];

impl Counter {
    /// Stable snake_case identifier used in manifests.
    pub fn name(self) -> &'static str {
        match self {
            Counter::RowsSeen => "rows_seen",
            Counter::CellsImputed => "cells_imputed",
            Counter::RowsDropped => "rows_dropped",
            Counter::FoldsEvaluated => "folds_evaluated",
            Counter::FoldCacheHits => "fold_cache_hits",
            Counter::CandidatesPruned => "candidates_pruned",
            Counter::CandidatesEvaluated => "candidates_evaluated",
            Counter::JobsFailed => "jobs_failed",
            Counter::UnseenCategories => "unseen_categories",
            Counter::JobsRetried => "jobs_retried",
        }
    }

    fn slot(self) -> usize {
        match self {
            Counter::RowsSeen => 0,
            Counter::CellsImputed => 1,
            Counter::RowsDropped => 2,
            Counter::FoldsEvaluated => 3,
            Counter::FoldCacheHits => 4,
            Counter::CandidatesPruned => 5,
            Counter::CandidatesEvaluated => 6,
            Counter::JobsFailed => 7,
            Counter::UnseenCategories => 8,
            Counter::JobsRetried => 9,
        }
    }
}

/// Point-in-time gauges (last write wins). Deterministic like counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Gauge {
    /// Feature dimensionality after one-hot encoding and scaling.
    FeatureDims,
    /// Training rows after resampling and missing-value handling.
    TrainRows,
}

/// All gauges, in the stable order used by manifests.
pub const GAUGES: [Gauge; 2] = [Gauge::FeatureDims, Gauge::TrainRows];

impl Gauge {
    /// Stable snake_case identifier used in manifests.
    pub fn name(self) -> &'static str {
        match self {
            Gauge::FeatureDims => "feature_dims",
            Gauge::TrainRows => "train_rows",
        }
    }

    fn slot(self) -> usize {
        match self {
            Gauge::FeatureDims => 0,
            Gauge::TrainRows => 1,
        }
    }
}

/// One raw enter/exit record. Exposed so tests can assert structural
/// well-formedness independently of the manifest tree builder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanEvent {
    /// `true` for span entry, `false` for span exit.
    pub enter: bool,
    /// Which stage the event belongs to.
    pub stage: Stage,
    /// Monotonic nanoseconds since the tracer was created.
    pub wall_ns: u64,
    /// Process CPU nanoseconds at the event (0 where unsupported).
    pub cpu_ns: u64,
}

struct Inner {
    origin: Instant,
    events: Mutex<Vec<SpanEvent>>,
    failures: Mutex<Vec<String>>,
    warnings: Mutex<Vec<String>>,
    counters: [AtomicU64; COUNTERS.len()],
    gauges: [AtomicU64; GAUGES.len()],
}

/// Cheap clone-able tracing handle.
///
/// The default tracer is *disabled*: every method is a branch on a
/// [`None`] and allocates nothing, so components can take `&Tracer`
/// unconditionally without perturbing hot paths or benchmarks.
#[derive(Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<Inner>>,
    faults: Option<Arc<FaultArm>>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.is_enabled())
            .field("faults", &self.faults.is_some())
            .finish()
    }
}

impl Tracer {
    /// A tracer that records spans, counters, and failures.
    pub fn enabled() -> Self {
        Tracer {
            inner: Some(Arc::new(Inner {
                origin: Instant::now(),
                events: Mutex::new(Vec::new()),
                failures: Mutex::new(Vec::new()),
                warnings: Mutex::new(Vec::new()),
                counters: Default::default(),
                gauges: Default::default(),
            })),
            faults: None,
        }
    }

    /// A tracer that records nothing (same as [`Tracer::default`]).
    pub fn disabled() -> Self {
        Tracer {
            inner: None,
            faults: None,
        }
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Attaches a fault-injection arm: every subsequent [`Tracer::span`]
    /// on this handle (and its clones) consults the arm and panics where
    /// the plan fires. Recording state, if any, stays shared with the
    /// original handle. Fault arms work on disabled tracers too — sweeps
    /// run per-job tracers disabled, and injection must still reach them.
    #[must_use]
    pub fn with_faults(mut self, arm: FaultArm) -> Tracer {
        self.faults = Some(Arc::new(arm));
        self
    }

    /// Opens a stage span; the span closes when the returned guard drops.
    ///
    /// Spans must only be opened from sequential sections of the
    /// lifecycle (parallel jobs bump counters instead), which keeps the
    /// recorded tree structure independent of the thread budget.
    #[must_use = "the span closes when this guard is dropped"]
    pub fn span(&self, stage: Stage) -> SpanGuard<'_> {
        if let Some(arm) = &self.faults {
            arm.trip(stage);
        }
        if let Some(inner) = &self.inner {
            inner.push_event(true, stage);
        }
        SpanGuard {
            tracer: self,
            stage,
        }
    }

    /// Adds `n` to a counter. No-op (and allocation-free) when disabled.
    pub fn add(&self, counter: Counter, n: u64) {
        if let Some(inner) = &self.inner {
            if let Some(slot) = inner.counters.get(counter.slot()) {
                slot.fetch_add(n, Ordering::Relaxed);
            }
        }
    }

    /// Adds 1 to a counter.
    pub fn incr(&self, counter: Counter) {
        self.add(counter, 1);
    }

    /// Sets a gauge to `value` (last write wins).
    pub fn set_gauge(&self, gauge: Gauge, value: u64) {
        if let Some(inner) = &self.inner {
            if let Some(slot) = inner.gauges.get(gauge.slot()) {
                slot.store(value, Ordering::Relaxed);
            }
        }
    }

    /// Records a failure string (surfaced in the manifest's `failures`).
    pub fn record_failure(&self, message: String) {
        if let Some(inner) = &self.inner {
            inner
                .failures
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(message);
        }
    }

    /// Records a drift warning (surfaced, deduplicated, in the
    /// manifest's `warnings`). Warnings describe threshold-crossing but
    /// non-fatal data conditions; like spans, they must only be recorded
    /// from sequential sections of the lifecycle so their first-seen
    /// order is independent of the thread budget.
    pub fn record_warning(&self, message: String) {
        if let Some(inner) = &self.inner {
            inner
                .warnings
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(message);
        }
    }

    /// Current value of a counter (0 when disabled).
    pub fn counter(&self, counter: Counter) -> u64 {
        match &self.inner {
            Some(inner) => inner
                .counters
                .get(counter.slot())
                .map_or(0, |slot| slot.load(Ordering::Relaxed)),
            None => 0,
        }
    }

    /// Current value of a gauge (0 when disabled).
    pub fn gauge(&self, gauge: Gauge) -> u64 {
        match &self.inner {
            Some(inner) => inner
                .gauges
                .get(gauge.slot())
                .map_or(0, |slot| slot.load(Ordering::Relaxed)),
            None => 0,
        }
    }

    /// Snapshot of all failure strings recorded so far.
    pub fn failures(&self) -> Vec<String> {
        match &self.inner {
            Some(inner) => inner
                .failures
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .clone(),
            None => Vec::new(),
        }
    }

    /// Snapshot of all warning strings recorded so far.
    pub fn warnings(&self) -> Vec<String> {
        match &self.inner {
            Some(inner) => inner
                .warnings
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .clone(),
            None => Vec::new(),
        }
    }

    /// Snapshot of the raw span event stream recorded so far.
    pub fn span_events(&self) -> Vec<SpanEvent> {
        match &self.inner {
            Some(inner) => inner
                .events
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .clone(),
            None => Vec::new(),
        }
    }
}

impl Inner {
    fn push_event(&self, enter: bool, stage: Stage) {
        let wall_ns = u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let cpu_ns = process_cpu_ns();
        self.events
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(SpanEvent {
                enter,
                stage,
                wall_ns,
                cpu_ns,
            });
    }
}

/// RAII guard returned by [`Tracer::span`]; records the exit on drop.
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    stage: Stage,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(inner) = &self.tracer.inner {
            inner.push_event(false, self.stage);
        }
    }
}

/// Process CPU time in nanoseconds (user + system), read from
/// `/proc/self/stat`. Returns 0 on platforms without procfs — CPU
/// timings are best-effort and live outside the canonical manifest.
fn process_cpu_ns() -> u64 {
    #[cfg(target_os = "linux")]
    {
        if let Ok(stat) = std::fs::read_to_string("/proc/self/stat") {
            return parse_proc_stat_cpu_ns(&stat);
        }
    }
    0
}

/// Parses utime+stime (fields 14 and 15) out of a `/proc/<pid>/stat`
/// line, tolerating spaces and parentheses inside the comm field.
/// Assumes the near-universal 100 Hz clock tick.
fn parse_proc_stat_cpu_ns(stat: &str) -> u64 {
    const NS_PER_TICK: u64 = 10_000_000;
    // Everything after the last ')' is whitespace-separated, starting at
    // the state char (field 3); utime/stime are fields 14 and 15, i.e.
    // tokens 11 and 12 after the state.
    let Some(tail_at) = stat.rfind(')') else {
        return 0;
    };
    let tail = stat.get(tail_at + 1..).unwrap_or("");
    let mut ticks: u64 = 0;
    for (i, token) in tail.split_whitespace().enumerate() {
        if i == 11 || i == 12 {
            ticks = ticks.saturating_add(token.parse::<u64>().unwrap_or(0));
        }
        if i > 12 {
            break;
        }
    }
    ticks.saturating_mul(NS_PER_TICK)
}

/// Checks stack discipline over a raw event stream: every exit matches
/// the innermost open span, nothing is left open at the end, and the
/// wall-clock timestamps are non-decreasing (the stream came from one
/// monotonic clock read under one lock). Returns a description of the
/// first violation, if any.
pub fn validate_span_events(events: &[SpanEvent]) -> std::result::Result<(), String> {
    let mut stack: Vec<Stage> = Vec::new();
    let mut last_wall = 0u64;
    for (i, ev) in events.iter().enumerate() {
        if ev.wall_ns < last_wall {
            return Err(format!(
                "event {i}: wall clock went backwards ({} < {last_wall})",
                ev.wall_ns
            ));
        }
        last_wall = ev.wall_ns;
        if ev.enter {
            stack.push(ev.stage);
        } else {
            match stack.pop() {
                Some(open) if open == ev.stage => {}
                Some(open) => {
                    return Err(format!(
                        "event {i}: exit of {} while {} is innermost",
                        ev.stage.name(),
                        open.name()
                    ));
                }
                None => {
                    return Err(format!(
                        "event {i}: orphan exit of {} with no open span",
                        ev.stage.name()
                    ));
                }
            }
        }
    }
    if stack.is_empty() {
        Ok(())
    } else {
        let open: Vec<&str> = stack.iter().map(|s| s.name()).collect();
        Err(format!(
            "unclosed span(s) at end of run: {}",
            open.join(", ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::disabled();
        {
            let _guard = t.span(Stage::Split);
            t.incr(Counter::RowsSeen);
            t.set_gauge(Gauge::FeatureDims, 7);
            t.record_failure("nope".to_string());
        }
        assert!(!t.is_enabled());
        assert!(t.span_events().is_empty());
        assert_eq!(t.counter(Counter::RowsSeen), 0);
        assert_eq!(t.gauge(Gauge::FeatureDims), 0);
        assert!(t.failures().is_empty());
    }

    #[test]
    fn spans_nest_and_balance() {
        let t = Tracer::enabled();
        {
            let _outer = t.span(Stage::Candidate);
            {
                let _inner = t.span(Stage::Train);
            }
            let _sibling = t.span(Stage::Evaluate);
        }
        let events = t.span_events();
        assert_eq!(events.len(), 6);
        assert!(validate_span_events(&events).is_ok());
        let stages: Vec<(bool, Stage)> = events.iter().map(|e| (e.enter, e.stage)).collect();
        assert_eq!(
            stages,
            vec![
                (true, Stage::Candidate),
                (true, Stage::Train),
                (false, Stage::Train),
                (true, Stage::Evaluate),
                (false, Stage::Evaluate),
                (false, Stage::Candidate),
            ]
        );
    }

    #[test]
    fn wall_clock_is_monotone_over_events() {
        let t = Tracer::enabled();
        {
            let _a = t.span(Stage::Split);
        }
        {
            let _b = t.span(Stage::Select);
        }
        let events = t.span_events();
        for pair in events.windows(2) {
            if let [a, b] = pair {
                assert!(a.wall_ns <= b.wall_ns);
            }
        }
    }

    #[test]
    fn counters_accumulate_and_gauges_overwrite() {
        let t = Tracer::enabled();
        t.add(Counter::FoldsEvaluated, 10);
        t.incr(Counter::FoldsEvaluated);
        t.set_gauge(Gauge::TrainRows, 5);
        t.set_gauge(Gauge::TrainRows, 9);
        assert_eq!(t.counter(Counter::FoldsEvaluated), 11);
        assert_eq!(t.gauge(Gauge::TrainRows), 9);
    }

    #[test]
    fn clones_share_state() {
        let t = Tracer::enabled();
        let t2 = t.clone();
        t2.incr(Counter::JobsFailed);
        t2.record_failure("job 3: boom".to_string());
        assert_eq!(t.counter(Counter::JobsFailed), 1);
        assert_eq!(t.failures(), vec!["job 3: boom".to_string()]);
    }

    #[test]
    fn validator_rejects_orphan_and_mismatched_exits() {
        let ev = |enter, stage| SpanEvent {
            enter,
            stage,
            wall_ns: 0,
            cpu_ns: 0,
        };
        assert!(validate_span_events(&[ev(false, Stage::Train)]).is_err());
        assert!(
            validate_span_events(&[ev(true, Stage::Train), ev(false, Stage::Evaluate)]).is_err()
        );
        assert!(validate_span_events(&[ev(true, Stage::Train)]).is_err());
        assert!(validate_span_events(&[ev(true, Stage::Train), ev(false, Stage::Train)]).is_ok());
    }

    #[test]
    fn validator_reports_exit_without_enter_by_position() {
        let ev = |enter, stage, wall_ns| SpanEvent {
            enter,
            stage,
            wall_ns,
            cpu_ns: 0,
        };
        let err = validate_span_events(&[
            ev(true, Stage::Split, 1),
            ev(false, Stage::Split, 2),
            ev(false, Stage::Train, 3),
        ])
        .unwrap_err();
        assert!(err.contains("event 2"), "{err}");
        assert!(err.contains("orphan exit of train"), "{err}");
    }

    #[test]
    fn validator_names_every_unclosed_span() {
        let ev = |enter, stage, wall_ns| SpanEvent {
            enter,
            stage,
            wall_ns,
            cpu_ns: 0,
        };
        let err = validate_span_events(&[
            ev(true, Stage::Candidate, 1),
            ev(true, Stage::Train, 2),
            ev(false, Stage::Train, 3),
            ev(true, Stage::Evaluate, 4),
        ])
        .unwrap_err();
        assert!(err.contains("unclosed span(s)"), "{err}");
        assert!(err.contains("candidate"), "{err}");
        assert!(err.contains("evaluate"), "{err}");
        assert!(!err.contains("train,"), "closed span listed: {err}");
    }

    #[test]
    fn validator_rejects_out_of_order_timestamps() {
        let ev = |enter, stage, wall_ns| SpanEvent {
            enter,
            stage,
            wall_ns,
            cpu_ns: 0,
        };
        // Structurally balanced, but the exit predates the entry.
        let err = validate_span_events(&[ev(true, Stage::Split, 10), ev(false, Stage::Split, 4)])
            .unwrap_err();
        assert!(err.contains("wall clock went backwards"), "{err}");
        assert!(err.contains("event 1"), "{err}");
        // Equal timestamps are fine (coarse clocks may tie).
        assert!(
            validate_span_events(&[ev(true, Stage::Split, 5), ev(false, Stage::Split, 5)]).is_ok()
        );
    }

    #[test]
    fn warnings_accumulate_and_share_state_across_clones() {
        let t = Tracer::enabled();
        let t2 = t.clone();
        t2.record_warning("drift raw->split: base rate shifted".to_string());
        t.record_warning("second".to_string());
        assert_eq!(
            t.warnings(),
            vec![
                "drift raw->split: base rate shifted".to_string(),
                "second".to_string()
            ]
        );
        let disabled = Tracer::disabled();
        disabled.record_warning("dropped".to_string());
        assert!(disabled.warnings().is_empty());
    }

    #[test]
    fn proc_stat_parser_handles_hostile_comm_names() {
        // comm contains spaces and a closing paren; utime=250 stime=50.
        let line = "1234 (a) b) c) S 1 1 1 0 -1 4194560 100 0 0 0 250 50 0 0 20 0 1 0 100 0 0";
        assert_eq!(parse_proc_stat_cpu_ns(line), 300 * 10_000_000);
        assert_eq!(parse_proc_stat_cpu_ns("garbage"), 0);
    }
}
