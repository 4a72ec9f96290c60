//! The sealed-pipeline scoring service.
//!
//! `fairprep serve --registry DIR` loads every [`SealedPipeline`]
//! artifact in `DIR` and answers HTTP scoring requests against the
//! frozen chains — imputer, featurizer, scaler, model, post-processor —
//! exactly as they were fitted, with no framework re-entry:
//!
//! * `POST /predict/<fingerprint>` — scores `{"row": {...}}` or
//!   `{"rows": [{...}, ...]}` through the sealed chain and returns one
//!   prediction per input row (scores also as IEEE-754 bit patterns, so
//!   clients can assert bit-identical replay).
//! * `GET /healthz` — liveness and pipeline count.
//! * `GET /metrics` — per-pipeline request counts, a log₂ latency
//!   histogram with p50/p99, decision rates by protected group, and
//!   online PSI drift of the live traffic against the **sealed training
//!   profile** (the same smoothing and binning the lifecycle profiler
//!   uses) — each reported for the pipeline's *lifetime* and for rolling
//!   windows over the last 1k/10k observations, so a distribution shift
//!   after a million healthy requests still moves a number somewhere.
//!   The endpoint is content-negotiated: JSON by default, Prometheus
//!   text exposition (format 0.0.4) when the `Accept` header asks for
//!   `text/plain` or OpenMetrics.
//!
//! Telemetry is recorded through `fairprep_trace::telemetry`: per-worker
//! **sharded** counters and histograms plus lock-free ring windows, so
//! the request hot path performs only relaxed atomic arithmetic — no
//! locks, no allocation (enforced by the `// audit: hot-path` lint
//! markers). Shards merge at scrape time, and merges are commutative
//! sums, so `/metrics` totals are exact at any worker count. PSI
//! baselines are smoothed **once per pipeline at registry load** (see
//! [`smoothed_fractions`]) rather than on every scrape.
//!
//! With `--access-log PATH` the server also appends one JSONL access
//! record per (sampled) request — monotonic request id, worker index,
//! status, and read/handle/write span timings — rendered live by
//! `fairprep tail`.
//!
//! The server is dependency-free: `std::net` plus the repo's own
//! [`scoped_workers`] pool.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use fairprep_core::seal::{ScoredRow, SealedPipeline};
use fairprep_data::column::{Column, ColumnKind};
use fairprep_data::frame::DataFrame;
use fairprep_data::parallel::scoped_workers;
use fairprep_data::profile::{
    psi_against_fractions, smoothed_fractions, ColumnProfile, PSI_WARN_THRESHOLD, QUANTILE_POINTS,
};
use fairprep_data::schema::Role;
use fairprep_trace::alert::{
    is_firing, phase_name, AlertMetric, AlertSpec, AlertState, Transition,
};
use fairprep_trace::exposition::{Exposition, TEXT_CONTENT_TYPE};
use fairprep_trace::json::{obj, Value};
use fairprep_trace::telemetry::{
    log2_bucket, percentile_of_sorted, HistogramSnapshot, RingWindow, ShardedCounter,
    ShardedHistogram, HISTOGRAM_BUCKETS,
};

/// Largest accepted request body. Requests beyond this are refused with
/// `413` before any allocation proportional to the claimed length.
pub const MAX_BODY_BYTES: usize = 8 * 1024 * 1024;

/// Shards per sharded counter/histogram. Workers beyond this wrap
/// around; 16 covers every thread budget the serve CLI accepts without
/// paying unbounded per-pipeline memory.
const METRIC_SHARDS: usize = 16;

/// The rolling windows `/metrics` reports alongside lifetime totals:
/// (JSON key, Prometheus `window` label, capacity in observations).
const WINDOW_SPECS: [(&str, &str, usize); 2] =
    [("window_1k", "1k", 1_000), ("window_10k", "10k", 10_000)];

/// The rolling-window labels alert specs may name (the first is the
/// default window when a spec leaves it out).
pub const WINDOW_LABELS: [&str; WINDOW_SPECS.len()] = [WINDOW_SPECS[0].1, WINDOW_SPECS[1].1];

/// Upper bound on drift bins per tracked column: numeric columns use at
/// most `QUANTILE_POINTS - 2` interior decile edges (+1 bin) and
/// categorical columns top-k (+ other). A fixed stack buffer of this
/// size lets the alert path compute windowed PSI without allocating.
const MAX_ALERT_BINS: usize = 16;

/// Webhook delivery attempts per alert transition before giving up.
const WEBHOOK_ATTEMPTS: u32 = 3;

/// Backoff between webhook retries (scaled by the attempt number).
const WEBHOOK_BACKOFF_MS: u64 = 100;

/// `Content-Type` of every JSON response.
const JSON_CONTENT_TYPE: &str = "application/json";

// ---------------------------------------------------------------------------
// Online drift tracking
// ---------------------------------------------------------------------------

/// Decrements an aggregate cell without wrapping below zero. Eviction
/// decrements can race their matching increments; a monitoring tally
/// that is off by one beats one that wrapped to `u64::MAX`.
// audit: hot-path
fn saturating_decr(cell: &AtomicU64) {
    let _ = cell.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
        Some(v.saturating_sub(1))
    });
}

/// How one tracked column bins an observation.
#[derive(Debug)]
enum DriftBins {
    /// Numeric column binned by the training profile's interior decile
    /// edges (deduped by bit pattern, like the lifecycle profiler).
    Numeric { edges: Vec<f64> },
    /// Categorical column binned by the training profile's top-k
    /// categories plus one "other/unseen" bin.
    Categorical { cats: Vec<String> },
}

/// Per-column drift state: cached smoothed baseline fractions (computed
/// once at registry load), lifetime per-bin atomic counts, and one ring
/// of recent bin indices per rolling window.
#[derive(Debug)]
struct DriftTrack {
    name: String,
    bins: DriftBins,
    /// `smoothed_fractions` of the training baseline counts — fixed at
    /// seal time, so smoothed exactly once instead of on every scrape.
    base_fracs: Vec<f64>,
    live: Vec<AtomicU64>,
    rings: [RingWindow; WINDOW_SPECS.len()],
    /// Incremental per-window bin counts, maintained by eviction at
    /// record time so the alert path can read windowed PSI from plain
    /// atomics instead of walking ring slots.
    window_live: [Vec<AtomicU64>; WINDOW_SPECS.len()],
}

impl DriftTrack {
    /// Builds the baseline for one profiled column; `None` when the
    /// column carries no usable distribution (constant or empty).
    fn from_profile(name: &str, profile: &ColumnProfile) -> Option<DriftTrack> {
        let (bins, base) = match profile {
            ColumnProfile::Numeric {
                count, quantiles, ..
            } => {
                let mut edges: Vec<f64> = quantiles
                    .get(1..QUANTILE_POINTS.saturating_sub(1))
                    .unwrap_or(&[])
                    .to_vec();
                edges.dedup_by(|a, b| a.to_bits() == b.to_bits());
                if edges.is_empty() || *count == 0 {
                    return None;
                }
                let mut base = vec![0u64; edges.len() + 1];
                // Each inter-decile segment of the training distribution
                // holds one tenth of the observed mass; the remainder of
                // the integer division lands in the top bin with the max.
                let segments = (QUANTILE_POINTS - 1) as u64;
                for seg in 0..QUANTILE_POINTS - 1 {
                    let upper = quantiles[seg + 1];
                    let bin = edges.iter().filter(|e| upper > **e).count();
                    base[bin] += count / segments;
                }
                let top = edges.iter().filter(|e| quantiles[10] > **e).count();
                base[top] += count % segments;
                (DriftBins::Numeric { edges }, base)
            }
            ColumnProfile::Categorical { count, top, .. } => {
                if top.is_empty() || *count == 0 {
                    return None;
                }
                let cats: Vec<String> = top.iter().map(|(c, _)| c.clone()).collect();
                let mut base: Vec<u64> = top.iter().map(|(_, n)| *n).collect();
                let covered: u64 = base.iter().sum();
                base.push(count.saturating_sub(covered));
                (DriftBins::Categorical { cats }, base)
            }
        };
        let live = (0..base.len()).map(|_| AtomicU64::new(0)).collect();
        Some(
            DriftTrack {
                name: name.to_string(),
                bins: DriftBins::Numeric { edges: Vec::new() },
                base_fracs: smoothed_fractions(&base),
                window_live: std::array::from_fn(|_| {
                    (0..base.len()).map(|_| AtomicU64::new(0)).collect()
                }),
                live,
                rings: WINDOW_SPECS.map(|(_, _, cap)| RingWindow::new(cap)),
            }
            .with_bins(bins),
        )
    }

    fn with_bins(mut self, bins: DriftBins) -> DriftTrack {
        self.bins = bins;
        self
    }

    /// Records one observation's bin: a lifetime atomic bump plus one
    /// ring slot per window. Lock- and allocation-free.
    // audit: hot-path
    fn hit(&self, bin: usize) {
        if let Some(cell) = self.live.get(bin) {
            cell.fetch_add(1, Ordering::Relaxed);
        }
        for (ring, counts) in self.rings.iter().zip(&self.window_live) {
            if let Some(cell) = counts.get(bin) {
                cell.fetch_add(1, Ordering::Relaxed);
            }
            if let Some(evicted) = ring.record_evicting(bin as u64) {
                if let Some(cell) = counts.get(evicted as usize) {
                    saturating_decr(cell);
                }
            }
        }
    }

    /// Windowed PSI from the incremental bin counts, evaluated on the
    /// alert path. Lock- and allocation-free: the bin counts are copied
    /// into a fixed stack buffer (`MAX_ALERT_BINS` bounds every profile
    /// the registry can load).
    // audit: hot-path
    fn window_psi(&self, window_index: usize) -> Option<f64> {
        let counts = self.window_live.get(window_index)?;
        let mut buffer = [0u64; MAX_ALERT_BINS];
        let filled = buffer.get_mut(..counts.len())?;
        for (dst, src) in filled.iter_mut().zip(counts) {
            *dst = src.load(Ordering::Relaxed);
        }
        if filled.iter().all(|&n| n == 0) {
            return None;
        }
        Some(psi_against_fractions(&self.base_fracs, filled))
    }

    /// Folds the raw (pre-imputation) request column into the live
    /// counts; missing cells are skipped, exactly as the profiler skips
    /// them when computing the baseline. Lock- and allocation-free.
    // audit: hot-path
    fn observe(&self, column: &Column) {
        match (&self.bins, column) {
            (DriftBins::Numeric { edges }, Column::Numeric(vals)) => {
                for x in vals.iter().flatten() {
                    if x.is_nan() {
                        continue;
                    }
                    self.hit(edges.iter().filter(|e| *x > **e).count());
                }
            }
            (DriftBins::Categorical { cats }, Column::Categorical(data)) => {
                for code in data.codes().iter().flatten() {
                    let bin = data
                        .category_of(*code)
                        .and_then(|c| cats.iter().position(|k| k == c))
                        .unwrap_or(cats.len());
                    self.hit(bin);
                }
            }
            // A request column whose physical type disagrees with the
            // training profile never reaches here: row parsing is typed
            // by the sealed schema. Ignore defensively.
            _ => {}
        }
    }

    /// Lifetime + per-window observed counts and PSI, merged at scrape.
    fn snapshot(&self) -> DriftSnapshot {
        let lifetime: Vec<u64> = self
            .live
            .iter()
            .map(|cell| cell.load(Ordering::Relaxed))
            .collect();
        let windows = self.rings.each_ref().map(|ring| {
            let mut counts = vec![0u64; self.live.len()];
            for bin in ring.snapshot() {
                if let Some(cell) = counts.get_mut(bin as usize) {
                    *cell += 1;
                }
            }
            DriftWindow {
                observed: counts.iter().sum(),
                psi: psi_against_fractions(&self.base_fracs, &counts),
            }
        });
        DriftSnapshot {
            name: self.name.clone(),
            observed: lifetime.iter().sum(),
            psi: psi_against_fractions(&self.base_fracs, &lifetime),
            windows,
        }
    }
}

// ---------------------------------------------------------------------------
// Per-pipeline telemetry
// ---------------------------------------------------------------------------

/// The rolling-window rings of one pipeline: latencies (µs), decision
/// codes (`privileged*2 + favorable`), request outcomes (1 = refused),
/// and canary divergence flags over the last N observations.
///
/// Alongside the rings, incremental aggregates (decision counts, a
/// log₂ latency histogram, error and divergence tallies) are maintained
/// by eviction at record time: the alert evaluation path reads them as
/// plain atomics, so arming alerts adds no ring walks to the hot path.
#[derive(Debug)]
struct WindowRings {
    latency: RingWindow,
    decisions: RingWindow,
    outcomes: RingWindow,
    divergence: RingWindow,
    /// `decision_counts[privileged*2 + favorable]` over the window.
    decision_counts: [AtomicU64; 4],
    /// Log₂ latency buckets over the window (bucket-edge quantiles).
    latency_buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    /// Refused requests currently inside the outcome window.
    error_count: AtomicU64,
    /// Diverging shadow-scored rows currently inside the window.
    divergence_count: AtomicU64,
}

impl WindowRings {
    fn new(capacity: usize) -> WindowRings {
        WindowRings {
            latency: RingWindow::new(capacity),
            decisions: RingWindow::new(capacity),
            outcomes: RingWindow::new(capacity),
            divergence: RingWindow::new(capacity),
            decision_counts: std::array::from_fn(|_| AtomicU64::new(0)),
            latency_buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            error_count: AtomicU64::new(0),
            divergence_count: AtomicU64::new(0),
        }
    }

    // audit: hot-path
    fn record_latency(&self, elapsed_us: u64) {
        if let Some(bucket) = self.latency_buckets.get(log2_bucket(elapsed_us)) {
            bucket.fetch_add(1, Ordering::Relaxed);
        }
        if let Some(evicted) = self.latency.record_evicting(elapsed_us) {
            if let Some(bucket) = self.latency_buckets.get(log2_bucket(evicted)) {
                saturating_decr(bucket);
            }
        }
    }

    // audit: hot-path
    fn record_decision(&self, code: u64) {
        if let Some(cell) = self.decision_counts.get(code as usize) {
            cell.fetch_add(1, Ordering::Relaxed);
        }
        if let Some(evicted) = self.decisions.record_evicting(code) {
            if let Some(cell) = self.decision_counts.get(evicted as usize) {
                saturating_decr(cell);
            }
        }
    }

    // audit: hot-path
    fn record_outcome(&self, refused: bool) {
        if refused {
            self.error_count.fetch_add(1, Ordering::Relaxed);
        }
        if self.outcomes.record_evicting(u64::from(refused)) == Some(1) {
            saturating_decr(&self.error_count);
        }
    }

    // audit: hot-path
    fn record_divergence(&self, diverged: bool) {
        if diverged {
            self.divergence_count.fetch_add(1, Ordering::Relaxed);
        }
        if self.divergence.record_evicting(u64::from(diverged)) == Some(1) {
            saturating_decr(&self.divergence_count);
        }
    }

    /// Loads the incremental decision counts.
    // audit: hot-path
    fn decision_counts(&self) -> [u64; 4] {
        [
            self.decision_counts[0].load(Ordering::Relaxed),
            self.decision_counts[1].load(Ordering::Relaxed),
            self.decision_counts[2].load(Ordering::Relaxed),
            self.decision_counts[3].load(Ordering::Relaxed),
        ]
    }

    /// Bucket-edge latency quantile over the window's incremental
    /// histogram (`None` while the window is empty). Same bucket-edge
    /// semantics as the lifetime histogram, minus the max clamp — the
    /// window does not track its max.
    // audit: hot-path
    fn latency_quantile(&self, q: f64) -> Option<f64> {
        let mut count = 0u64;
        for bucket in &self.latency_buckets {
            count += bucket.load(Ordering::Relaxed);
        }
        if count == 0 {
            return None;
        }
        #[allow(clippy::cast_sign_loss, clippy::cast_precision_loss)]
        let target = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut seen = 0u64;
        for (i, bucket) in self.latency_buckets.iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            if seen >= target {
                #[allow(clippy::cast_precision_loss)]
                return Some((2u64 << i) as f64);
            }
        }
        None
    }

    /// The fraction of window observations in `numerator` over the
    /// ring's current fill (`None` while empty).
    // audit: hot-path
    fn window_fraction(ring: &RingWindow, numerator: &AtomicU64) -> Option<f64> {
        let filled = ring.recorded().min(ring.capacity() as u64);
        if filled == 0 {
            return None;
        }
        #[allow(clippy::cast_precision_loss)]
        Some(numerator.load(Ordering::Relaxed) as f64 / filled as f64)
    }
}

/// Sharded serving telemetry for one sealed pipeline. Every field is
/// recorded with relaxed atomics only — the record path takes no lock
/// and performs no allocation — and merged at scrape time.
#[derive(Debug)]
struct PipeTelemetry {
    requests: ShardedCounter,
    rows_scored: ShardedCounter,
    rows_dropped: ShardedCounter,
    errors: ShardedCounter,
    latency: ShardedHistogram,
    /// `decisions[privileged*2 + favorable]`.
    decisions: [ShardedCounter; 4],
    windows: [WindowRings; WINDOW_SPECS.len()],
    drift: Vec<DriftTrack>,
}

impl PipeTelemetry {
    fn new(sealed: &SealedPipeline) -> Self {
        let label = sealed.schema().label_name().ok().map(ToString::to_string);
        let drift = sealed
            .train_profile
            .columns
            .iter()
            .filter(|(name, _)| label.as_deref() != Some(name.as_str()))
            .filter_map(|(name, profile)| DriftTrack::from_profile(name, profile))
            .collect();
        PipeTelemetry {
            requests: ShardedCounter::new(METRIC_SHARDS),
            rows_scored: ShardedCounter::new(METRIC_SHARDS),
            rows_dropped: ShardedCounter::new(METRIC_SHARDS),
            errors: ShardedCounter::new(METRIC_SHARDS),
            latency: ShardedHistogram::new(METRIC_SHARDS),
            decisions: std::array::from_fn(|_| ShardedCounter::new(METRIC_SHARDS)),
            windows: WINDOW_SPECS.map(|(_, _, cap)| WindowRings::new(cap)),
            drift,
        }
    }

    /// Folds one scored batch into the counters, histogram, and rings.
    /// Lock- and allocation-free: the caller's worker index routes every
    /// increment onto a private shard.
    // audit: hot-path
    fn record_batch(&self, worker: usize, scored: &[ScoredRow], elapsed_us: u64) {
        self.requests.incr(worker);
        self.latency.record(worker, elapsed_us);
        for rings in &self.windows {
            rings.record_latency(elapsed_us);
            rings.record_outcome(false);
        }
        for row in scored {
            if row.dropped() {
                self.rows_dropped.incr(worker);
                continue;
            }
            self.rows_scored.incr(worker);
            let favorable = row.decision.is_some_and(|d| d >= 0.5);
            let code = usize::from(row.privileged) * 2 + usize::from(favorable);
            if let Some(counter) = self.decisions.get(code) {
                counter.incr(worker);
            }
            for rings in &self.windows {
                rings.record_decision(code as u64);
            }
        }
    }

    /// Folds one refused request into the lifetime error counter and
    /// each window's outcome ring. Lock- and allocation-free.
    // audit: hot-path
    fn record_error(&self, worker: usize) {
        self.errors.incr(worker);
        for rings in &self.windows {
            rings.record_outcome(true);
        }
    }

    /// Folds one shadow-scored row's divergence flag into each window.
    // audit: hot-path
    fn record_divergence(&self, diverged: bool) {
        for rings in &self.windows {
            rings.record_divergence(diverged);
        }
    }

    /// Merges every shard and ring into one plain snapshot.
    fn snapshot(&self) -> PipeSnapshot {
        let windows = self.windows.each_ref().map(|rings| {
            let mut latencies = rings.latency.snapshot();
            latencies.sort_unstable();
            let mut decisions = [0u64; 4];
            for code in rings.decisions.snapshot() {
                if let Some(cell) = decisions.get_mut(code as usize) {
                    *cell += 1;
                }
            }
            // An empty window has no latency distribution: report
            // `None` (JSON null, omitted Prometheus samples) instead of
            // a fake zero indistinguishable from zero-latency traffic.
            let percentile =
                |q: f64| (!latencies.is_empty()).then(|| percentile_of_sorted(&latencies, q));
            WindowSnapshot {
                requests: latencies.len() as u64,
                p50_us: percentile(0.50),
                p99_us: percentile(0.99),
                decisions,
                canary_sampled: rings
                    .divergence
                    .recorded()
                    .min(rings.divergence.capacity() as u64),
                canary_divergent: rings.divergence_count.load(Ordering::Relaxed),
            }
        });
        PipeSnapshot {
            requests: self.requests.total(),
            rows_scored: self.rows_scored.total(),
            rows_dropped: self.rows_dropped.total(),
            errors: self.errors.total(),
            latency: self.latency.snapshot(),
            decisions: self.decisions.each_ref().map(ShardedCounter::total),
            windows,
            drift: self.drift.iter().map(DriftTrack::snapshot).collect(),
            alerts: Vec::new(),
            canary_armed: false,
        }
    }
}

// ---------------------------------------------------------------------------
// Scrape-time snapshots and rendering
// ---------------------------------------------------------------------------

/// One rolling window's merged view.
struct WindowSnapshot {
    requests: u64,
    /// `None` while the window is empty (latency is then undefined).
    p50_us: Option<u64>,
    p99_us: Option<u64>,
    /// `decisions[privileged*2 + favorable]`.
    decisions: [u64; 4],
    /// Shadow-scored rows currently inside the window.
    canary_sampled: u64,
    /// How many of them diverged from the canary's decision.
    canary_divergent: u64,
}

/// One column's drift inside one rolling window.
struct DriftWindow {
    observed: u64,
    psi: f64,
}

/// One column's lifetime + windowed drift.
struct DriftSnapshot {
    name: String,
    observed: u64,
    psi: f64,
    windows: [DriftWindow; WINDOW_SPECS.len()],
}

/// A plain, merged view of one pipeline's telemetry; both the JSON and
/// the Prometheus renderer read from this, so the two views can never
/// disagree about the numbers.
struct PipeSnapshot {
    requests: u64,
    rows_scored: u64,
    rows_dropped: u64,
    errors: u64,
    latency: HistogramSnapshot,
    /// `decisions[privileged*2 + favorable]`.
    decisions: [u64; 4],
    windows: [WindowSnapshot; WINDOW_SPECS.len()],
    drift: Vec<DriftSnapshot>,
    /// Armed alerts and their current phases; empty without `--alerts`,
    /// in which case the rendered views are byte-identical to a server
    /// without the alerting engine.
    alerts: Vec<AlertSnapshot>,
    /// `true` when this pipeline's traffic is shadow-scored by a
    /// canary; gates the `canary` sections of both views.
    canary_armed: bool,
}

/// One armed alert's scrape-time view.
struct AlertSnapshot {
    name: String,
    metric: &'static str,
    column: Option<String>,
    window: String,
    phase: &'static str,
    firing: bool,
    /// The last evaluated metric value (`None` while undefined).
    value: Option<f64>,
    trip: f64,
    clear: f64,
    fired_total: u64,
    cleared_total: u64,
}

/// Favorable rate of one group, `None` when the group was never seen.
#[allow(clippy::cast_precision_loss)]
// audit: hot-path
fn rate_of(favorable: u64, unfavorable: u64) -> Option<f64> {
    let total = favorable + unfavorable;
    if total == 0 {
        None
    } else {
        Some(favorable as f64 / total as f64)
    }
}

/// Disparate impact of a 2×2 decision table (`None` when undefined).
#[allow(clippy::cast_precision_loss)]
// audit: hot-path
fn disparate_impact_of(decisions: &[u64; 4]) -> Option<f64> {
    let ut = decisions[0] + decisions[1];
    let pt = decisions[2] + decisions[3];
    if pt == 0 || ut == 0 || decisions[3] == 0 {
        None
    } else {
        Some((decisions[1] as f64 / ut as f64) / (decisions[3] as f64 / pt as f64))
    }
}

/// Favorable rate of one group, `Null` when the group was never seen.
fn rate_value(favorable: u64, unfavorable: u64) -> Value {
    rate_of(favorable, unfavorable).map_or(Value::Null, Value::Num)
}

/// Disparate impact of a 2×2 decision table (`Null` when undefined:
/// either group unseen, or the privileged group has no favorable
/// decisions to form the denominator rate).
fn disparate_impact_value(decisions: &[u64; 4]) -> Value {
    disparate_impact_of(decisions).map_or(Value::Null, Value::Num)
}

/// The canonical decisions object for a 2×2 table (lifetime and
/// windowed views share this shape).
fn decisions_value(decisions: &[u64; 4]) -> Value {
    obj(vec![
        ("privileged_favorable", Value::from_u64(decisions[3])),
        ("privileged_unfavorable", Value::from_u64(decisions[2])),
        ("unprivileged_favorable", Value::from_u64(decisions[1])),
        ("unprivileged_unfavorable", Value::from_u64(decisions[0])),
        ("privileged_rate", rate_value(decisions[3], decisions[2])),
        ("unprivileged_rate", rate_value(decisions[1], decisions[0])),
        ("disparate_impact", disparate_impact_value(decisions)),
    ])
}

impl PipeSnapshot {
    /// Canonical JSON `/metrics` fragment for this pipeline.
    fn to_value(&self) -> Value {
        let drift = |pick: &dyn Fn(&DriftSnapshot) -> (u64, f64)| {
            Value::Arr(
                self.drift
                    .iter()
                    .map(|d| {
                        let (observed, psi) = pick(d);
                        obj(vec![
                            ("column", Value::Str(d.name.clone())),
                            ("observed", Value::from_u64(observed)),
                            ("psi", Value::Num(psi)),
                            ("warn", Value::Bool(psi >= PSI_WARN_THRESHOLD)),
                        ])
                    })
                    .collect(),
            )
        };
        let mut members = vec![
            ("requests", Value::from_u64(self.requests)),
            ("rows_scored", Value::from_u64(self.rows_scored)),
            ("rows_dropped", Value::from_u64(self.rows_dropped)),
            ("errors", Value::from_u64(self.errors)),
            (
                "latency",
                obj(vec![
                    ("count", Value::from_u64(self.latency.count)),
                    ("max_us", Value::from_u64(self.latency.max)),
                    ("p50_us", Value::from_u64(self.latency.quantile(0.50))),
                    ("p99_us", Value::from_u64(self.latency.quantile(0.99))),
                ]),
            ),
            ("decisions", decisions_value(&self.decisions)),
            ("drift", drift(&|d| (d.observed, d.psi))),
        ];
        for (wi, (key, _, _)) in WINDOW_SPECS.iter().enumerate() {
            let window = &self.windows[wi];
            let mut window_members = vec![
                ("requests", Value::from_u64(window.requests)),
                (
                    "latency",
                    obj(vec![
                        ("p50_us", window.p50_us.map_or(Value::Null, Value::from_u64)),
                        ("p99_us", window.p99_us.map_or(Value::Null, Value::from_u64)),
                    ]),
                ),
                ("decisions", decisions_value(&window.decisions)),
                (
                    "drift",
                    drift(&|d| (d.windows[wi].observed, d.windows[wi].psi)),
                ),
            ];
            if self.canary_armed {
                #[allow(clippy::cast_precision_loss)]
                let rate = (window.canary_sampled > 0)
                    .then(|| window.canary_divergent as f64 / window.canary_sampled as f64);
                window_members.push((
                    "canary",
                    obj(vec![
                        ("sampled", Value::from_u64(window.canary_sampled)),
                        ("divergent", Value::from_u64(window.canary_divergent)),
                        ("divergence", rate.map_or(Value::Null, Value::Num)),
                    ]),
                ));
            }
            members.push((key, obj(window_members)));
        }
        if !self.alerts.is_empty() {
            members.push((
                "alerts",
                Value::Arr(self.alerts.iter().map(AlertSnapshot::to_value).collect()),
            ));
        }
        obj(members)
    }
}

impl AlertSnapshot {
    fn to_value(&self) -> Value {
        let mut members = vec![
            ("name", Value::Str(self.name.clone())),
            ("metric", Value::Str(self.metric.to_string())),
        ];
        if let Some(column) = &self.column {
            members.push(("column", Value::Str(column.clone())));
        }
        members.extend([
            ("window", Value::Str(self.window.clone())),
            ("state", Value::Str(self.phase.to_string())),
            ("value", self.value.map_or(Value::Null, Value::Num)),
            ("trip", Value::Num(self.trip)),
            ("clear", Value::Num(self.clear)),
            ("fired_total", Value::from_u64(self.fired_total)),
            ("cleared_total", Value::from_u64(self.cleared_total)),
        ]);
        obj(members)
    }
}

/// Renders every pipeline snapshot as one Prometheus 0.0.4 page.
/// Families group all pipelines' samples; undefined gauges (empty
/// windows, unseen groups) are omitted rather than faked as zero.
fn render_prometheus(snapshots: &[(&str, PipeSnapshot)]) -> String {
    let group_of = |code: usize| {
        if code >= 2 {
            "privileged"
        } else {
            "unprivileged"
        }
    };
    let decision_of = |code: usize| {
        if code % 2 == 1 {
            "favorable"
        } else {
            "unfavorable"
        }
    };
    let mut exp = Exposition::new();
    exp.family(
        "fairprep_pipelines",
        "gauge",
        "Sealed pipelines loaded in the registry.",
    );
    exp.sample_u64("fairprep_pipelines", &[], snapshots.len() as u64);
    for (name, help) in [
        ("fairprep_requests_total", "Predict requests scored."),
        ("fairprep_rows_scored_total", "Rows scored."),
        (
            "fairprep_rows_dropped_total",
            "Rows dropped by the sealed missing-value handler.",
        ),
        ("fairprep_errors_total", "Predict requests refused."),
    ] {
        exp.family(name, "counter", help);
        for (fp, snap) in snapshots {
            let value = match name {
                "fairprep_requests_total" => snap.requests,
                "fairprep_rows_scored_total" => snap.rows_scored,
                "fairprep_rows_dropped_total" => snap.rows_dropped,
                _ => snap.errors,
            };
            exp.sample_u64(name, &[("pipeline", fp)], value);
        }
    }
    exp.family(
        "fairprep_latency_us",
        "gauge",
        "Request latency quantiles in microseconds (lifetime: log2 bucket edges; windows: exact).",
    );
    for (fp, snap) in snapshots {
        if snap.latency.count > 0 {
            for (q, v) in [
                ("0.5", snap.latency.quantile(0.50)),
                ("0.99", snap.latency.quantile(0.99)),
            ] {
                exp.sample_u64(
                    "fairprep_latency_us",
                    &[("pipeline", fp), ("window", "lifetime"), ("quantile", q)],
                    v,
                );
            }
        }
        for (wi, (_, label, _)) in WINDOW_SPECS.iter().enumerate() {
            let window = &snap.windows[wi];
            // Empty windows have no latency distribution: omit the
            // samples rather than faking zeros.
            for (q, v) in [("0.5", window.p50_us), ("0.99", window.p99_us)] {
                if let Some(v) = v {
                    exp.sample_u64(
                        "fairprep_latency_us",
                        &[("pipeline", fp), ("window", label), ("quantile", q)],
                        v,
                    );
                }
            }
        }
    }
    exp.family(
        "fairprep_latency_log2_bucket",
        "counter",
        "Lifetime latency histogram: requests with latency in [2^exp, 2^(exp+1)) microseconds.",
    );
    for (fp, snap) in snapshots {
        for (i, count) in snap.latency.buckets.iter().enumerate() {
            if *count > 0 {
                let e = i.to_string();
                exp.sample_u64(
                    "fairprep_latency_log2_bucket",
                    &[("pipeline", fp), ("exp", &e)],
                    *count,
                );
            }
        }
    }
    exp.family(
        "fairprep_window_requests",
        "gauge",
        "Requests currently inside each rolling window.",
    );
    for (fp, snap) in snapshots {
        for (wi, (_, label, _)) in WINDOW_SPECS.iter().enumerate() {
            exp.sample_u64(
                "fairprep_window_requests",
                &[("pipeline", fp), ("window", label)],
                snap.windows[wi].requests,
            );
        }
    }
    exp.family(
        "fairprep_decisions_total",
        "counter",
        "Scored rows by protected group and decision.",
    );
    for (fp, snap) in snapshots {
        for (code, count) in snap.decisions.iter().enumerate() {
            exp.sample_u64(
                "fairprep_decisions_total",
                &[
                    ("pipeline", fp),
                    ("group", group_of(code)),
                    ("decision", decision_of(code)),
                ],
                *count,
            );
        }
    }
    exp.family(
        "fairprep_favorable_rate",
        "gauge",
        "Favorable-decision rate by protected group (omitted while a group is unseen).",
    );
    for (fp, snap) in snapshots {
        for (label, decisions) in std::iter::once(("lifetime", &snap.decisions)).chain(
            WINDOW_SPECS
                .iter()
                .enumerate()
                .map(|(wi, (_, label, _))| (*label, &snap.windows[wi].decisions)),
        ) {
            for (group, favorable, unfavorable) in [
                ("privileged", decisions[3], decisions[2]),
                ("unprivileged", decisions[1], decisions[0]),
            ] {
                if let Value::Num(rate) = rate_value(favorable, unfavorable) {
                    exp.sample_f64(
                        "fairprep_favorable_rate",
                        &[("pipeline", fp), ("group", group), ("window", label)],
                        rate,
                    );
                }
            }
        }
    }
    exp.family(
        "fairprep_disparate_impact",
        "gauge",
        "Unprivileged/privileged favorable-rate ratio (omitted while undefined).",
    );
    for (fp, snap) in snapshots {
        for (label, decisions) in std::iter::once(("lifetime", &snap.decisions)).chain(
            WINDOW_SPECS
                .iter()
                .enumerate()
                .map(|(wi, (_, label, _))| (*label, &snap.windows[wi].decisions)),
        ) {
            if let Value::Num(di) = disparate_impact_value(decisions) {
                exp.sample_f64(
                    "fairprep_disparate_impact",
                    &[("pipeline", fp), ("window", label)],
                    di,
                );
            }
        }
    }
    exp.family(
        "fairprep_drift_psi",
        "gauge",
        "Population stability index of live traffic vs the sealed training profile.",
    );
    for (fp, snap) in snapshots {
        for d in &snap.drift {
            exp.sample_f64(
                "fairprep_drift_psi",
                &[
                    ("pipeline", fp),
                    ("column", &d.name),
                    ("window", "lifetime"),
                ],
                d.psi,
            );
            for (wi, (_, label, _)) in WINDOW_SPECS.iter().enumerate() {
                exp.sample_f64(
                    "fairprep_drift_psi",
                    &[("pipeline", fp), ("column", &d.name), ("window", label)],
                    d.windows[wi].psi,
                );
            }
        }
    }
    exp.family(
        "fairprep_drift_warn",
        "gauge",
        "1 when a column's PSI crosses the warn threshold.",
    );
    for (fp, snap) in snapshots {
        for d in &snap.drift {
            exp.sample_u64(
                "fairprep_drift_warn",
                &[
                    ("pipeline", fp),
                    ("column", &d.name),
                    ("window", "lifetime"),
                ],
                u64::from(d.psi >= PSI_WARN_THRESHOLD),
            );
            for (wi, (_, label, _)) in WINDOW_SPECS.iter().enumerate() {
                exp.sample_u64(
                    "fairprep_drift_warn",
                    &[("pipeline", fp), ("column", &d.name), ("window", label)],
                    u64::from(d.windows[wi].psi >= PSI_WARN_THRESHOLD),
                );
            }
        }
    }
    // Alerting and canary families appear only when armed, so a server
    // run without `--alerts`/`--canary` scrapes byte-identically to one
    // that predates the alerting engine.
    if snapshots.iter().any(|(_, snap)| !snap.alerts.is_empty()) {
        exp.family(
            "fairprep_alert_active",
            "gauge",
            "1 while an armed alert is in the firing phase.",
        );
        for (fp, snap) in snapshots {
            for alert in &snap.alerts {
                exp.sample_u64(
                    "fairprep_alert_active",
                    &[
                        ("pipeline", fp),
                        ("alert", &alert.name),
                        ("metric", alert.metric),
                        ("window", &alert.window),
                    ],
                    u64::from(alert.firing),
                );
            }
        }
        exp.family(
            "fairprep_alert_transitions_total",
            "counter",
            "Alert transitions by edge (fired / cleared).",
        );
        for (fp, snap) in snapshots {
            for alert in &snap.alerts {
                for (edge, count) in [
                    ("fired", alert.fired_total),
                    ("cleared", alert.cleared_total),
                ] {
                    exp.sample_u64(
                        "fairprep_alert_transitions_total",
                        &[("pipeline", fp), ("alert", &alert.name), ("edge", edge)],
                        count,
                    );
                }
            }
        }
    }
    if snapshots.iter().any(|(_, snap)| snap.canary_armed) {
        exp.family(
            "fairprep_canary_divergence",
            "gauge",
            "Decision-divergence rate of shadow-scored traffic vs the canary pipeline.",
        );
        for (fp, snap) in snapshots {
            if !snap.canary_armed {
                continue;
            }
            for (wi, (_, label, _)) in WINDOW_SPECS.iter().enumerate() {
                let window = &snap.windows[wi];
                if window.canary_sampled == 0 {
                    continue;
                }
                #[allow(clippy::cast_precision_loss)]
                exp.sample_f64(
                    "fairprep_canary_divergence",
                    &[("pipeline", fp), ("window", label)],
                    window.canary_divergent as f64 / window.canary_sampled as f64,
                );
            }
        }
    }
    exp.finish()
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// One alert spec armed on one pipeline: the resolved window and drift
/// indices, the concurrent hysteresis state, and scrape-time tallies.
struct ArmedAlert {
    spec: AlertSpec,
    window_index: usize,
    /// Index into `PipeTelemetry::drift` for PSI alerts.
    drift_index: Option<usize>,
    state: AlertState,
    /// Bit pattern of the last evaluated value (`f64::NAN` bits while
    /// the metric is undefined).
    last_value_bits: AtomicU64,
    fired_total: AtomicU64,
    cleared_total: AtomicU64,
}

impl ArmedAlert {
    fn snapshot(&self) -> AlertSnapshot {
        let state = self.state.load();
        let value = f64::from_bits(self.last_value_bits.load(Ordering::Relaxed));
        AlertSnapshot {
            name: self.spec.name.clone(),
            metric: self.spec.metric.name(),
            column: self.spec.metric.column().map(ToString::to_string),
            window: self.spec.window.clone(),
            phase: phase_name(state),
            firing: is_firing(state),
            value: value.is_finite().then_some(value),
            trip: self.spec.trip,
            clear: self.spec.clear,
            fired_total: self.fired_total.load(Ordering::Relaxed),
            cleared_total: self.cleared_total.load(Ordering::Relaxed),
        }
    }
}

/// Evaluates one armed alert's metric from the incremental window
/// aggregates. Lock- and allocation-free — this runs once per armed
/// alert on every recorded request.
// audit: hot-path
fn alert_value(telemetry: &PipeTelemetry, armed: &ArmedAlert) -> Option<f64> {
    let rings = telemetry.windows.get(armed.window_index)?;
    match &armed.spec.metric {
        AlertMetric::DisparateImpact => disparate_impact_of(&rings.decision_counts()),
        AlertMetric::FavorableRateGap => {
            let d = rings.decision_counts();
            let privileged = rate_of(d[3], d[2])?;
            let unprivileged = rate_of(d[1], d[0])?;
            Some((privileged - unprivileged).abs())
        }
        AlertMetric::Psi { .. } => telemetry
            .drift
            .get(armed.drift_index?)?
            .window_psi(armed.window_index),
        AlertMetric::P99LatencyUs => rings.latency_quantile(0.99),
        AlertMetric::ErrorRate => WindowRings::window_fraction(&rings.outcomes, &rings.error_count),
        AlertMetric::CanaryDivergence => {
            WindowRings::window_fraction(&rings.divergence, &rings.divergence_count)
        }
    }
}

/// The canonical JSONL `alert` event (also the webhook payload body).
fn alert_event_value(
    fingerprint: &str,
    armed: &ArmedAlert,
    transition: Transition,
    value: Option<f64>,
) -> Value {
    let mut members = vec![
        ("event", Value::Str("alert".to_string())),
        ("name", Value::Str(armed.spec.name.clone())),
        ("pipeline", Value::Str(fingerprint.to_string())),
        ("metric", Value::Str(armed.spec.metric.name().to_string())),
    ];
    if let Some(column) = armed.spec.metric.column() {
        members.push(("column", Value::Str(column.to_string())));
    }
    members.extend([
        ("window", Value::Str(armed.spec.window.clone())),
        (
            "state",
            Value::Str(
                match transition {
                    Transition::Fired => "firing",
                    Transition::Cleared => "cleared",
                }
                .to_string(),
            ),
        ),
        ("value", value.map_or(Value::Null, Value::Num)),
        ("trip", Value::Num(armed.spec.trip)),
        ("clear", Value::Num(armed.spec.clear)),
    ]);
    obj(members)
}

/// Advances every armed alert of `entry` by one observation. The
/// per-observation work (metric read + CAS advance) is lock- and
/// allocation-free; only an actual transition — rare by construction —
/// takes the slow path that renders and emits the event.
fn evaluate_alerts(registry: &Registry, entry: &Entry, access_log: Option<&AccessLog>) {
    for armed in &entry.alerts {
        let value = alert_value(&entry.telemetry, armed);
        armed
            .last_value_bits
            .store(value.unwrap_or(f64::NAN).to_bits(), Ordering::Relaxed);
        let Some(transition) = armed.state.observe(&armed.spec, value) else {
            continue;
        };
        match transition {
            Transition::Fired => armed.fired_total.fetch_add(1, Ordering::Relaxed),
            Transition::Cleared => armed.cleared_total.fetch_add(1, Ordering::Relaxed),
        };
        let event = alert_event_value(&entry.sealed.fingerprint, armed, transition, value);
        if let Some(log) = access_log {
            log.append_event(&event);
        }
        if let Some(webhook) = &registry.webhook {
            webhook.send(event.to_json());
        }
    }
}

struct Entry {
    sealed: SealedPipeline,
    telemetry: PipeTelemetry,
    /// Armed alerts; empty without `--alerts`.
    alerts: Vec<ArmedAlert>,
}

/// Canary shadow-scoring configuration (`--canary FP --canary-sample R`).
struct CanaryConfig {
    /// Normalized fingerprint key of the shadow pipeline.
    key: String,
    /// Shadow-score every `sample_every`-th predict request.
    sample_every: u64,
    /// Running count of shadow-eligible requests (drives sampling).
    counter: AtomicU64,
}

/// Background webhook delivery: transitions enqueue their canonical
/// JSON payload on a channel drained by one sender thread, which POSTs
/// with bounded retry. Delivery never blocks the scoring path.
struct WebhookSender {
    tx: Option<std::sync::mpsc::Sender<String>>,
    join: Option<std::thread::JoinHandle<()>>,
}

impl WebhookSender {
    /// Validates `url` (plain `http://host:port/path` only — the server
    /// itself is dependency-free HTTP) and starts the sender thread.
    fn start(url: &str) -> Result<WebhookSender, String> {
        let rest = url
            .strip_prefix("http://")
            .ok_or_else(|| format!("--webhook must be an http:// URL, got {url}"))?;
        let (authority, path) = match rest.split_once('/') {
            Some((authority, path)) => (authority, format!("/{path}")),
            None => (rest, "/".to_string()),
        };
        if authority.is_empty() {
            return Err(format!("--webhook URL carries no host: {url}"));
        }
        let authority = authority.to_string();
        let (tx, rx) = std::sync::mpsc::channel::<String>();
        let join = std::thread::spawn(move || {
            for payload in rx {
                for attempt in 0..WEBHOOK_ATTEMPTS {
                    if post_webhook(&authority, &path, &payload).is_ok() {
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(
                        WEBHOOK_BACKOFF_MS * u64::from(attempt + 1),
                    ));
                }
            }
        });
        Ok(WebhookSender {
            tx: Some(tx),
            join: Some(join),
        })
    }

    fn send(&self, payload: String) {
        if let Some(tx) = &self.tx {
            let _ = tx.send(payload);
        }
    }
}

impl Drop for WebhookSender {
    fn drop(&mut self) {
        // Closing the channel ends the sender thread's loop; join so
        // in-flight deliveries finish before the registry goes away.
        drop(self.tx.take());
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

/// One bounded-timeout webhook POST. Any transport error or non-2xx
/// status is an `Err` so the sender loop retries.
fn post_webhook(authority: &str, path: &str, payload: &str) -> Result<(), String> {
    let mut stream = TcpStream::connect(authority).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .map_err(|e| e.to_string())?;
    stream
        .set_write_timeout(Some(Duration::from_secs(5)))
        .map_err(|e| e.to_string())?;
    let head = format!(
        "POST {path} HTTP/1.1\r\nHost: {authority}\r\nContent-Type: {JSON_CONTENT_TYPE}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        payload.len()
    );
    stream
        .write_all(head.as_bytes())
        .map_err(|e| e.to_string())?;
    stream
        .write_all(payload.as_bytes())
        .map_err(|e| e.to_string())?;
    let mut response = String::new();
    let _ = stream.read_to_string(&mut response);
    let status: u16 = response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| "webhook endpoint sent no status line".to_string())?;
    if (200..300).contains(&status) {
        Ok(())
    } else {
        Err(format!("webhook endpoint answered {status}"))
    }
}

/// All sealed pipelines the server answers for, keyed by the
/// filesystem-safe form of their config fingerprint (`:` → `-`; both
/// spellings are accepted in request paths).
pub struct Registry {
    entries: BTreeMap<String, Entry>,
    next_request_id: AtomicU64,
    fixed_latency_us: AtomicU64,
    canary: Option<CanaryConfig>,
    webhook: Option<WebhookSender>,
}

/// `:` is not filesystem- or URL-friendly, so artifacts and request
/// paths use `-` while the sealed record keeps the canonical `:` form.
fn normalize_fingerprint(fp: &str) -> String {
    fp.replace(':', "-")
}

impl Registry {
    /// Builds an empty registry (useful for in-process tests that add
    /// pipelines directly).
    #[must_use]
    pub fn new() -> Self {
        Registry {
            entries: BTreeMap::new(),
            next_request_id: AtomicU64::new(0),
            fixed_latency_us: AtomicU64::new(0),
            canary: None,
            webhook: None,
        }
    }

    /// Loads every `*.json` sealed-pipeline artifact in `dir`.
    pub fn open(dir: &Path) -> Result<Registry, String> {
        let mut registry = Registry::new();
        let listing =
            std::fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
        for item in listing {
            let path = item.map_err(|e| e.to_string())?.path();
            if path.extension().and_then(|e| e.to_str()) != Some("json") {
                continue;
            }
            let sealed = SealedPipeline::load(&path)
                .map_err(|e| format!("cannot load {}: {e}", path.display()))?;
            registry.insert(sealed);
        }
        Ok(registry)
    }

    /// Registers one pipeline; replaces any previous artifact with the
    /// same fingerprint.
    pub fn insert(&mut self, sealed: SealedPipeline) {
        let key = normalize_fingerprint(&sealed.fingerprint);
        let telemetry = PipeTelemetry::new(&sealed);
        self.entries.insert(
            key,
            Entry {
                sealed,
                telemetry,
                alerts: Vec::new(),
            },
        );
    }

    /// Arms every spec on every registered pipeline, resolving window
    /// labels and PSI columns up front so the hot path never fails.
    pub fn arm_alerts(&mut self, specs: &[AlertSpec]) -> Result<(), String> {
        for entry in self.entries.values_mut() {
            let mut armed = Vec::with_capacity(specs.len());
            for spec in specs {
                let window_index = WINDOW_LABELS
                    .iter()
                    .position(|label| *label == spec.window)
                    .ok_or_else(|| {
                        format!("alert '{}': unknown window '{}'", spec.name, spec.window)
                    })?;
                let drift_index = match spec.metric.column() {
                    None => None,
                    Some(column) => Some(
                        entry
                            .telemetry
                            .drift
                            .iter()
                            .position(|d| d.name == column)
                            .ok_or_else(|| {
                                let tracked: Vec<&str> = entry
                                    .telemetry
                                    .drift
                                    .iter()
                                    .map(|d| d.name.as_str())
                                    .collect();
                                format!(
                                    "alert '{}': pipeline {} tracks no drift for column \
                                     '{column}' (tracked: {})",
                                    spec.name,
                                    entry.sealed.fingerprint,
                                    tracked.join(", ")
                                )
                            })?,
                    ),
                };
                armed.push(ArmedAlert {
                    spec: spec.clone(),
                    window_index,
                    drift_index,
                    state: AlertState::new(),
                    last_value_bits: AtomicU64::new(f64::NAN.to_bits()),
                    fired_total: AtomicU64::new(0),
                    cleared_total: AtomicU64::new(0),
                });
            }
            entry.alerts = armed;
        }
        Ok(())
    }

    /// Arms canary shadow-scoring: every `1/sample_rate`-th predict
    /// request against any *other* pipeline is also scored through the
    /// pipeline with `fingerprint`, and per-row decision divergence is
    /// recorded into the serving pipeline's rolling windows.
    pub fn arm_canary(&mut self, fingerprint: &str, sample_rate: f64) -> Result<(), String> {
        let key = normalize_fingerprint(fingerprint);
        if !self.entries.contains_key(&key) {
            return Err(format!(
                "--canary: no pipeline with fingerprint {fingerprint} in the registry"
            ));
        }
        if !(sample_rate > 0.0 && sample_rate <= 1.0) {
            return Err(format!(
                "--canary-sample must be in (0, 1], got {sample_rate}"
            ));
        }
        #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
        let sample_every = (1.0 / sample_rate).round().max(1.0) as u64;
        self.canary = Some(CanaryConfig {
            key,
            sample_every,
            counter: AtomicU64::new(0),
        });
        Ok(())
    }

    /// Attaches a webhook URL; alert transitions POST their canonical
    /// JSON payload there with bounded retry, off the scoring path.
    pub fn set_webhook(&mut self, url: &str) -> Result<(), String> {
        self.webhook = Some(WebhookSender::start(url)?);
        Ok(())
    }

    /// Columns with usable drift baselines, unioned across pipelines —
    /// the names a PSI alert spec may reference.
    #[must_use]
    pub fn drift_columns(&self) -> Vec<String> {
        let mut columns: Vec<String> = Vec::new();
        for entry in self.entries.values() {
            for track in &entry.telemetry.drift {
                if !columns.contains(&track.name) {
                    columns.push(track.name.clone());
                }
            }
        }
        columns
    }

    /// Number of registered pipelines.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no pipeline is registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Canonical fingerprints of every registered pipeline.
    #[must_use]
    pub fn fingerprints(&self) -> Vec<&str> {
        self.entries
            .values()
            .map(|e| e.sealed.fingerprint.as_str())
            .collect()
    }

    fn get(&self, fingerprint: &str) -> Option<&Entry> {
        self.entries.get(&normalize_fingerprint(fingerprint))
    }

    /// Forces every recorded request latency to `us` (0 restores real
    /// timing). A determinism knob: the committed golden exposition
    /// fixture replays with a fixed latency so the scrape is
    /// byte-identical on any machine.
    pub fn set_fixed_latency_us(&self, us: u64) {
        self.fixed_latency_us.store(us, Ordering::Relaxed);
    }

    fn next_id(&self) -> u64 {
        self.next_request_id.fetch_add(1, Ordering::Relaxed)
    }

    fn snapshots(&self) -> Vec<(&str, PipeSnapshot)> {
        self.entries
            .values()
            .map(|e| {
                let mut snap = e.telemetry.snapshot();
                snap.alerts = e.alerts.iter().map(ArmedAlert::snapshot).collect();
                // The canary itself receives no shadow traffic; its
                // windows would only ever report zeros.
                snap.canary_armed = self
                    .canary
                    .as_ref()
                    .is_some_and(|c| c.key != normalize_fingerprint(&e.sealed.fingerprint));
                (e.sealed.fingerprint.as_str(), snap)
            })
            .collect()
    }

    /// The full `/metrics` document (JSON view).
    #[must_use]
    pub fn metrics_value(&self) -> Value {
        let pipelines = self
            .snapshots()
            .iter()
            .map(|(fp, snap)| (*fp, snap.to_value()))
            .collect();
        obj(vec![("pipelines", obj(pipelines))])
    }

    /// The full `/metrics` document (Prometheus text exposition).
    #[must_use]
    pub fn metrics_prometheus(&self) -> String {
        render_prometheus(&self.snapshots())
    }
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

// ---------------------------------------------------------------------------
// Request parsing and scoring
// ---------------------------------------------------------------------------

/// Builds the raw request frame for `sealed` from parsed JSON rows.
/// Every non-label schema column must be present typed as declared;
/// `null` (or an absent key) is a missing cell routed to the sealed
/// missing-value handler.
fn frame_from_rows(sealed: &SealedPipeline, rows: &[&Value]) -> Result<DataFrame, String> {
    let mut frame = DataFrame::new();
    for field in sealed.schema().fields() {
        if field.role == Role::Label {
            continue;
        }
        let column = match field.kind {
            ColumnKind::Numeric => {
                let mut values: Vec<Option<f64>> = Vec::with_capacity(rows.len());
                for row in rows {
                    values.push(match row.get(&field.name) {
                        None | Some(Value::Null) => None,
                        Some(Value::Num(n)) => Some(*n),
                        Some(_) => return Err(format!("column `{}` expects a number", field.name)),
                    });
                }
                Column::from_optional_f64(values)
            }
            ColumnKind::Categorical => {
                let mut values: Vec<Option<&str>> = Vec::with_capacity(rows.len());
                for row in rows {
                    values.push(match row.get(&field.name) {
                        None | Some(Value::Null) => None,
                        Some(Value::Str(s)) => Some(s.as_str()),
                        Some(_) => return Err(format!("column `{}` expects a string", field.name)),
                    });
                }
                Column::from_optional_strs(values)
            }
        };
        frame
            .add_column(&field.name, column)
            .map_err(|e| e.to_string())?;
    }
    Ok(frame)
}

/// Extracts the row objects from a predict request body: either
/// `{"row": {...}}` or `{"rows": [{...}, ...]}`.
fn rows_of_request(body: &Value) -> Result<Vec<&Value>, String> {
    if let Some(row) = body.get("row") {
        return Ok(vec![row]);
    }
    let rows = body
        .get("rows")
        .and_then(Value::as_array)
        .ok_or_else(|| "request must carry `row` (object) or `rows` (array)".to_string())?;
    if rows.is_empty() {
        return Err("`rows` must not be empty".to_string());
    }
    Ok(rows.iter().collect())
}

/// Renders one scored batch as the canonical response document. Scores
/// ride along as IEEE-754 bit patterns so clients can assert replay is
/// bit-identical, not merely close.
fn response_value(fingerprint: &str, scored: &[ScoredRow]) -> Value {
    let predictions = scored
        .iter()
        .map(|row| {
            obj(vec![
                ("privileged", Value::Bool(row.privileged)),
                ("dropped", Value::Bool(row.dropped())),
                ("score", row.score.map_or(Value::Null, Value::Num)),
                ("score_bits", row.score.map_or(Value::Null, Value::bits)),
                ("decision", row.decision.map_or(Value::Null, Value::Num)),
            ])
        })
        .collect();
    obj(vec![
        ("model", Value::Str(fingerprint.to_string())),
        ("n", Value::from_u64(scored.len() as u64)),
        ("predictions", Value::Arr(predictions)),
    ])
}

/// Shadow-scores a sampled request through the canary pipeline and
/// records per-row decision divergence into `entry`'s rolling windows.
/// A canary that cannot score the traffic at all (schema mismatch,
/// scoring error) counts every row as divergent — it demonstrably does
/// not reproduce the serving pipeline's behavior.
fn maybe_shadow_score(registry: &Registry, entry: &Entry, rows: &[&Value], scored: &[ScoredRow]) {
    let Some(canary) = &registry.canary else {
        return;
    };
    // The canary never shadows itself.
    if canary.key == normalize_fingerprint(&entry.sealed.fingerprint) {
        return;
    }
    if !canary
        .counter
        .fetch_add(1, Ordering::Relaxed)
        .is_multiple_of(canary.sample_every)
    {
        return;
    }
    let Some(shadow) = registry.entries.get(&canary.key) else {
        return;
    };
    let shadow_scored = frame_from_rows(&shadow.sealed, rows)
        .and_then(|frame| shadow.sealed.score_frame(frame).map_err(|e| e.to_string()));
    match shadow_scored {
        Ok(shadow_scored) => {
            for (primary, canary_row) in scored.iter().zip(&shadow_scored) {
                let primary_decision = primary.decision.map(|d| d >= 0.5);
                let canary_decision = canary_row.decision.map(|d| d >= 0.5);
                entry
                    .telemetry
                    .record_divergence(primary_decision != canary_decision);
            }
        }
        Err(_) => {
            for _ in scored {
                entry.telemetry.record_divergence(true);
            }
        }
    }
}

/// Scores one predict request against `entry`, updating its telemetry
/// on the calling worker's shards and advancing any armed alerts.
fn predict(
    registry: &Registry,
    entry: &Entry,
    worker: usize,
    body: &str,
    access_log: Option<&AccessLog>,
) -> Result<Value, String> {
    let started = Instant::now();
    let outcome = (|| {
        let parsed = fairprep_trace::json::parse(body).map_err(|e| format!("bad JSON: {e}"))?;
        let rows = rows_of_request(&parsed)?;
        let frame = frame_from_rows(&entry.sealed, &rows)?;
        // Drift is observed on the *raw* request rows, before the sealed
        // imputer touches them: the sealed training profile was computed
        // on raw training rows, so the two sides bin the same thing.
        for drift in &entry.telemetry.drift {
            if let Ok(column) = frame.column(&drift.name) {
                drift.observe(column);
            }
        }
        let scored = entry.sealed.score_frame(frame).map_err(|e| e.to_string())?;
        maybe_shadow_score(registry, entry, &rows, &scored);
        Ok(scored)
    })();
    let fixed = registry.fixed_latency_us.load(Ordering::Relaxed);
    let elapsed_us = if fixed > 0 {
        fixed
    } else {
        u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX)
    };
    let result = match outcome {
        Ok(scored) => {
            entry.telemetry.record_batch(worker, &scored, elapsed_us);
            Ok(response_value(&entry.sealed.fingerprint, &scored))
        }
        Err(message) => {
            entry.telemetry.record_error(worker);
            Err(message)
        }
    };
    evaluate_alerts(registry, entry, access_log);
    result
}

// ---------------------------------------------------------------------------
// Access log
// ---------------------------------------------------------------------------

/// A flushed JSONL access log: one `access` event per sampled request
/// carrying the monotonic request id, worker index, status, total
/// latency, and read/handle/write span timings. Rendered live by
/// `fairprep tail`.
#[derive(Debug)]
pub struct AccessLog {
    out: Mutex<std::io::BufWriter<std::fs::File>>,
    /// Record requests whose id is a multiple of this (1 = every
    /// request); derived from `--sample-rate`.
    sample_every: u64,
}

impl AccessLog {
    /// Creates (truncating) the log file. `sample_rate` must be in
    /// `(0, 1]`: 1.0 records every request, 0.01 every hundredth.
    pub fn create(path: &Path, sample_rate: f64) -> Result<AccessLog, String> {
        if !(sample_rate > 0.0 && sample_rate <= 1.0) {
            return Err(format!(
                "--sample-rate must be in (0, 1], got {sample_rate}"
            ));
        }
        let file = std::fs::File::create(path)
            .map_err(|e| format!("cannot create access log {}: {e}", path.display()))?;
        #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
        let sample_every = (1.0 / sample_rate).round().max(1.0) as u64;
        Ok(AccessLog {
            out: Mutex::new(std::io::BufWriter::new(file)),
            sample_every,
        })
    }

    /// Appends one access record if the request id is sampled.
    #[allow(clippy::too_many_arguments)]
    fn record(&self, span: &AccessSpan<'_>) {
        if !span.id.is_multiple_of(self.sample_every) {
            return;
        }
        let line = obj(vec![
            ("event", Value::Str("access".to_string())),
            ("id", Value::from_u64(span.id)),
            ("worker", Value::from_u64(span.worker as u64)),
            ("method", Value::Str(span.method.to_string())),
            ("path", Value::Str(span.path.to_string())),
            ("status", Value::from_u64(u64::from(span.status))),
            ("latency_us", Value::from_u64(span.latency_us)),
            ("read_us", Value::from_u64(span.read_us)),
            ("handle_us", Value::from_u64(span.handle_us)),
            ("write_us", Value::from_u64(span.write_us)),
        ])
        .to_json();
        let mut out = self.out.lock().unwrap_or_else(PoisonError::into_inner);
        let _ = writeln!(out, "{line}");
        let _ = out.flush();
    }

    /// Appends one structured event line unconditionally — alert
    /// transitions are never sampled away.
    fn append_event(&self, event: &Value) {
        let line = event.to_json();
        let mut out = self.out.lock().unwrap_or_else(PoisonError::into_inner);
        let _ = writeln!(out, "{line}");
        let _ = out.flush();
    }
}

/// One request's access-log fields.
struct AccessSpan<'a> {
    id: u64,
    worker: usize,
    method: &'a str,
    path: &'a str,
    status: u16,
    latency_us: u64,
    read_us: u64,
    handle_us: u64,
    write_us: u64,
}

// ---------------------------------------------------------------------------
// HTTP plumbing
// ---------------------------------------------------------------------------

/// One parsed HTTP request: method, path, `Accept` header, body.
struct Request {
    method: String,
    path: String,
    accept: String,
    body: String,
}

/// HTTP status codes the server emits.
fn status_text(code: u16) -> &'static str {
    match code {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        _ => "Internal Server Error",
    }
}

/// Reads one request off the stream. Returns `Err((status, message))`
/// on malformed input so the caller can answer with a typed error.
fn read_request(stream: &mut TcpStream) -> Result<Request, (u16, String)> {
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader
        .read_line(&mut line)
        .map_err(|e| (400, format!("unreadable request line: {e}")))?;
    let mut parts = line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| (400, "empty request line".to_string()))?
        .to_string();
    let path = parts
        .next()
        .ok_or_else(|| (400, "request line carries no path".to_string()))?
        .to_string();

    let mut content_length = 0usize;
    let mut accept = String::new();
    loop {
        let mut header = String::new();
        let n = reader
            .read_line(&mut header)
            .map_err(|e| (400, format!("unreadable header: {e}")))?;
        if n == 0 || header.trim().is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| (400, "malformed Content-Length".to_string()))?;
            } else if name.eq_ignore_ascii_case("accept") {
                accept = value.trim().to_string();
            }
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err((413, format!("body exceeds {MAX_BODY_BYTES} bytes")));
    }
    let mut raw = vec![0u8; content_length];
    reader
        .read_exact(&mut raw)
        .map_err(|e| (400, format!("truncated body: {e}")))?;
    let body = String::from_utf8(raw).map_err(|_| (400, "body is not valid UTF-8".to_string()))?;
    Ok(Request {
        method,
        path,
        accept,
        body,
    })
}

/// Writes one `Connection: close` response with the given content type.
fn write_response(stream: &mut TcpStream, code: u16, content_type: &str, body: &str) {
    let head = format!(
        "HTTP/1.1 {code} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        status_text(code),
        body.len()
    );
    // A peer that hung up mid-response is its own problem; the server
    // must not die for it.
    let _ = stream.write_all(head.as_bytes());
    let _ = stream.write_all(body.as_bytes());
    let _ = stream.flush();
}

fn error_body(message: &str) -> String {
    obj(vec![("error", Value::Str(message.to_string()))]).to_json()
}

/// `true` when the `Accept` header asks for the Prometheus text
/// exposition instead of the default JSON view.
fn wants_prometheus(accept: &str) -> bool {
    let accept = accept.to_ascii_lowercase();
    if accept.contains("application/json") {
        return false;
    }
    accept.contains("text/plain") || accept.contains("openmetrics")
}

fn micros_since(started: Instant) -> u64 {
    u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// Routes one connection. Every outcome is answered; nothing panics.
fn handle_connection(
    mut stream: TcpStream,
    registry: &Registry,
    worker: usize,
    access_log: Option<&AccessLog>,
) {
    let started = Instant::now();
    let id = registry.next_id();
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    let _ = stream.set_nonblocking(false);
    let request = read_request(&mut stream);
    let read_us = micros_since(started);
    match request {
        Ok(request) => {
            let handle_started = Instant::now();
            let (code, body, content_type) = route(&request, registry, worker, access_log);
            let handle_us = micros_since(handle_started);
            let write_started = Instant::now();
            write_response(&mut stream, code, content_type, &body);
            let write_us = micros_since(write_started);
            if let Some(log) = access_log {
                log.record(&AccessSpan {
                    id,
                    worker,
                    method: &request.method,
                    path: &request.path,
                    status: code,
                    latency_us: micros_since(started),
                    read_us,
                    handle_us,
                    write_us,
                });
            }
        }
        Err((code, message)) => {
            let write_started = Instant::now();
            write_response(&mut stream, code, JSON_CONTENT_TYPE, &error_body(&message));
            let write_us = micros_since(write_started);
            if let Some(log) = access_log {
                log.record(&AccessSpan {
                    id,
                    worker,
                    method: "-",
                    path: "-",
                    status: code,
                    latency_us: micros_since(started),
                    read_us,
                    handle_us: 0,
                    write_us,
                });
            }
        }
    }
}

/// Dispatches a parsed request to its endpoint. Returns status, body,
/// and the response content type.
fn route(
    request: &Request,
    registry: &Registry,
    worker: usize,
    access_log: Option<&AccessLog>,
) -> (u16, String, &'static str) {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => (
            200,
            obj(vec![
                ("status", Value::Str("ok".to_string())),
                ("pipelines", Value::from_u64(registry.len() as u64)),
            ])
            .to_json(),
            JSON_CONTENT_TYPE,
        ),
        ("GET", "/metrics") => {
            if wants_prometheus(&request.accept) {
                (200, registry.metrics_prometheus(), TEXT_CONTENT_TYPE)
            } else {
                (200, registry.metrics_value().to_json(), JSON_CONTENT_TYPE)
            }
        }
        (method, path) => {
            let Some(fingerprint) = path.strip_prefix("/predict/") else {
                return (404, error_body("no such endpoint"), JSON_CONTENT_TYPE);
            };
            if method != "POST" {
                return (405, error_body("predict requires POST"), JSON_CONTENT_TYPE);
            }
            let Some(entry) = registry.get(fingerprint) else {
                return (
                    404,
                    error_body("unknown pipeline fingerprint"),
                    JSON_CONTENT_TYPE,
                );
            };
            match predict(registry, entry, worker, &request.body, access_log) {
                Ok(value) => (200, value.to_json(), JSON_CONTENT_TYPE),
                Err(message) => (400, error_body(&message), JSON_CONTENT_TYPE),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------------

/// A bound scoring server. [`Server::serve_blocking`] runs the accept
/// loop on the calling thread's scope; [`ServerHandle::spawn`] wraps it
/// in a background thread for tests.
pub struct Server {
    listener: TcpListener,
    registry: Arc<Registry>,
    stop: Arc<AtomicBool>,
    access_log: Option<AccessLog>,
}

impl Server {
    /// Binds `127.0.0.1:port` (`port` 0 picks an ephemeral port).
    pub fn bind(registry: Registry, port: u16) -> Result<Server, String> {
        let listener = TcpListener::bind(("127.0.0.1", port))
            .map_err(|e| format!("cannot bind 127.0.0.1:{port}: {e}"))?;
        Ok(Server {
            listener,
            registry: Arc::new(registry),
            stop: Arc::new(AtomicBool::new(false)),
            access_log: None,
        })
    }

    /// Attaches a JSONL access log (`--access-log PATH`), sampling
    /// requests at `sample_rate` in `(0, 1]` (`--sample-rate`).
    pub fn with_access_log(mut self, path: &Path, sample_rate: f64) -> Result<Server, String> {
        self.access_log = Some(AccessLog::create(path, sample_rate)?);
        Ok(self)
    }

    /// The bound address (useful with an ephemeral port).
    pub fn local_addr(&self) -> Result<SocketAddr, String> {
        self.listener.local_addr().map_err(|e| e.to_string())
    }

    /// The shared pipelines and their telemetry.
    #[must_use]
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Flag that makes every worker exit its accept loop when set.
    #[must_use]
    pub fn stop_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.stop)
    }

    /// Runs `threads` accept workers until the stop flag is raised.
    ///
    /// The listener is switched to non-blocking and shared by every
    /// worker (`TcpListener::accept` takes `&self`); the kernel hands
    /// each incoming connection to exactly one of them, and the worker's
    /// index routes telemetry onto that worker's private metric shards.
    /// `WouldBlock` backs off briefly so an idle server stays cheap.
    pub fn serve_blocking(&self, threads: usize) -> Result<(), String> {
        self.listener
            .set_nonblocking(true)
            .map_err(|e| e.to_string())?;
        let registry = &self.registry;
        let stop = &self.stop;
        let listener = &self.listener;
        let access_log = self.access_log.as_ref();
        scoped_workers(threads.max(1), |worker| {
            while !stop.load(Ordering::Relaxed) {
                match listener.accept() {
                    Ok((stream, _peer)) => handle_connection(stream, registry, worker, access_log),
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    Err(_) => std::thread::sleep(Duration::from_millis(2)),
                }
            }
        });
        Ok(())
    }
}

/// A server running on a background thread; used by the golden replay
/// tests, the concurrency tests, and the serve benches.
pub struct ServerHandle {
    addr: SocketAddr,
    registry: Arc<Registry>,
    stop: Arc<AtomicBool>,
    join: Option<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// Binds an ephemeral (or fixed) port and serves in the background.
    pub fn spawn(registry: Registry, port: u16, threads: usize) -> Result<ServerHandle, String> {
        ServerHandle::spawn_configured(registry, port, threads, None, 1.0)
    }

    /// [`ServerHandle::spawn`] with an optional access log.
    pub fn spawn_configured(
        registry: Registry,
        port: u16,
        threads: usize,
        access_log: Option<&Path>,
        sample_rate: f64,
    ) -> Result<ServerHandle, String> {
        let mut server = Server::bind(registry, port)?;
        if let Some(path) = access_log {
            server = server.with_access_log(path, sample_rate)?;
        }
        let addr = server.local_addr()?;
        let stop = server.stop_flag();
        let registry = Arc::clone(&server.registry);
        let join = std::thread::spawn(move || {
            let _ = server.serve_blocking(threads);
        });
        Ok(ServerHandle {
            addr,
            registry,
            stop,
            join: Some(join),
        })
    }

    /// The bound address.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The served registry (live telemetry knobs included).
    #[must_use]
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Raises the stop flag and joins the serving thread.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Minimal blocking HTTP client for tests and benchmarks: sends one
/// request, returns `(status, body)`.
pub fn http_request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> Result<(u16, String), String> {
    http_request_accept(addr, method, path, body, None)
}

/// [`http_request`] with an explicit `Accept` header (e.g.
/// `text/plain` to scrape the Prometheus exposition).
pub fn http_request_accept(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
    accept: Option<&str>,
) -> Result<(u16, String), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(|e| e.to_string())?;
    let payload = body.unwrap_or("");
    let accept_header = accept.map_or(String::new(), |a| format!("Accept: {a}\r\n"));
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\n{accept_header}Content-Length: {}\r\nConnection: close\r\n\r\n",
        payload.len()
    );
    stream
        .write_all(head.as_bytes())
        .map_err(|e| e.to_string())?;
    stream
        .write_all(payload.as_bytes())
        .map_err(|e| e.to_string())?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw).map_err(|e| e.to_string())?;
    let (head, response_body) = raw
        .split_once("\r\n\r\n")
        .ok_or_else(|| "response carries no header/body separator".to_string())?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("unparseable status line in {head:?}"))?;
    Ok((status, response_body.to_string()))
}
