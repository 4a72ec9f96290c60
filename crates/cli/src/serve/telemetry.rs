//! The record path: per-pipeline sharded lifetime counters, the rolling
//! windows, and the counts kept beside each window's rings.
//!
//! Every window keeps its counts incrementally, by eviction at record
//! time: decision counts, log₂ latency buckets, error and divergence
//! tallies, and per-column drift bin counts. The alert path reads them
//! on every request and the scrape reads the same cells, so the two can
//! never disagree. Only the window latency quantiles, which are exact,
//! still read the latency ring's slots.

use std::sync::atomic::{AtomicU64, Ordering};

use fairprep_core::seal::{ScoredRow, SealedPipeline};
use fairprep_data::column::Column;
use fairprep_data::profile::{
    psi_against_fractions, psi_edges, smoothed_fractions, ColumnProfile, QUANTILE_POINTS,
};
use fairprep_trace::telemetry::{
    log2_bucket, RingWindow, ShardedCounter, ShardedHistogram, HISTOGRAM_BUCKETS,
};

/// Shards per sharded counter/histogram. Workers beyond this wrap
/// around; 16 covers every thread budget the serve CLI accepts without
/// paying unbounded per-pipeline memory.
const METRIC_SHARDS: usize = 16;

/// The rolling windows `/metrics` reports alongside lifetime totals:
/// (JSON key, Prometheus `window` label, capacity in observations).
pub(super) const WINDOW_SPECS: [(&str, &str, usize); 2] =
    [("window_1k", "1k", 1_000), ("window_10k", "10k", 10_000)];

/// The scopes every pipeline reports: its lifetime, then each window.
pub(super) const SCOPES: usize = 1 + WINDOW_SPECS.len();

/// Upper bound on drift bins per tracked column: numeric columns use at
/// most `QUANTILE_POINTS - 2` interior decile edges (+1 bin) and
/// categorical columns top-k (+ other). A fixed stack buffer of this
/// size lets the alert path compute windowed PSI without allocating.
const MAX_ALERT_BINS: usize = 16;

/// Decrements an aggregate cell without wrapping below zero. Eviction
/// decrements can race their matching increments; a monitoring tally
/// that is off by one beats one that wrapped to `u64::MAX`.
// audit: hot-path
fn saturating_decr(cell: &AtomicU64) {
    let _ = cell.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
        Some(v.saturating_sub(1))
    });
}

/// Records `value` into `ring`, counting it in `counts[cell_of(value)]`
/// and uncounting whatever it evicted, so `counts` always tallies the
/// ring's contents.
// audit: hot-path
fn record_counted(
    ring: &RingWindow,
    counts: &[AtomicU64],
    value: u64,
    cell_of: impl Fn(u64) -> usize,
) {
    if let Some(cell) = counts.get(cell_of(value)) {
        cell.fetch_add(1, Ordering::Relaxed);
    }
    if let Some(evicted) = ring.record_evicting(value) {
        if let Some(cell) = counts.get(cell_of(evicted)) {
            saturating_decr(cell);
        }
    }
}

/// The cell of a decision code or drift bin: the one it names.
// audit: hot-path
fn own_cell(value: u64) -> usize {
    value as usize
}

/// A window of yes/no observations (refused requests, diverging
/// shadow-scored rows), with the number of set flags kept beside it.
#[derive(Debug)]
pub(super) struct Flags {
    ring: RingWindow,
    set: AtomicU64,
}

impl Flags {
    fn new(capacity: usize) -> Flags {
        Flags {
            ring: RingWindow::new(capacity),
            set: AtomicU64::new(0),
        }
    }

    // audit: hot-path
    fn record(&self, flag: bool) {
        if flag {
            self.set.fetch_add(1, Ordering::Relaxed);
        }
        if self.ring.record_evicting(u64::from(flag)) == Some(1) {
            saturating_decr(&self.set);
        }
    }

    /// `[observations, set flags]` inside the window.
    // audit: hot-path
    pub(super) fn counts(&self) -> [u64; 2] {
        let filled = self.ring.recorded().min(self.ring.capacity() as u64);
        [filled, self.set.load(Ordering::Relaxed)]
    }
}

/// The fraction of set flags in `Flags::counts` (`None` while empty).
// audit: hot-path
pub(super) fn flagged_rate([observations, set]: [u64; 2]) -> Option<f64> {
    #[allow(clippy::cast_precision_loss)]
    (observations > 0).then(|| set as f64 / observations as f64)
}

/// How one tracked column bins an observation.
#[derive(Debug)]
enum DriftBins {
    /// Numeric column binned by the training profile's [`psi_edges`], like
    /// the lifecycle profiler.
    Numeric { edges: Vec<f64> },
    /// Categorical column binned by the training profile's top-k
    /// categories plus one "other/unseen" bin.
    Categorical { cats: Vec<String> },
}

/// Per-column drift state: cached smoothed baseline fractions (computed
/// once at registry load), per-bin counts for every scope, and one ring
/// of recent bin indices per rolling window.
#[derive(Debug)]
pub(super) struct DriftTrack {
    pub(super) name: String,
    bins: DriftBins,
    /// `smoothed_fractions` of the training baseline counts — fixed at
    /// seal time, so smoothed exactly once instead of on every scrape.
    base_fracs: Vec<f64>,
    /// Per-bin counts: `counts[0]` over the lifetime, `counts[1 + w]`
    /// over window `w`, kept by eviction from `rings[w]`.
    counts: [Vec<AtomicU64>; SCOPES],
    rings: [RingWindow; WINDOW_SPECS.len()],
}

impl DriftTrack {
    /// Builds the baseline for one profiled column; `None` when the
    /// column carries no usable distribution (constant or empty).
    pub(super) fn from_profile(name: &str, profile: &ColumnProfile) -> Option<DriftTrack> {
        let (bins, base) = match profile {
            ColumnProfile::Numeric {
                count, quantiles, ..
            } => {
                let edges = psi_edges(quantiles);
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
        Some(DriftTrack {
            name: name.to_string(),
            bins,
            base_fracs: smoothed_fractions(&base),
            counts: std::array::from_fn(|_| (0..base.len()).map(|_| AtomicU64::new(0)).collect()),
            rings: WINDOW_SPECS.map(|(_, _, cap)| RingWindow::new(cap)),
        })
    }

    /// Records one observation's bin: a lifetime count plus one ring
    /// slot per window. Lock- and allocation-free.
    // audit: hot-path
    fn hit(&self, bin: usize) {
        let [lifetime, windows @ ..] = &self.counts;
        if let Some(cell) = lifetime.get(bin) {
            cell.fetch_add(1, Ordering::Relaxed);
        }
        for (ring, counts) in self.rings.iter().zip(windows) {
            record_counted(ring, counts, bin as u64, own_cell);
        }
    }

    /// The observed total and PSI of one scope's bin counts, copied
    /// into the front of `buffer`; `None` when `buffer` is shorter than
    /// the track's bins. Lock- and allocation-free.
    // audit: hot-path
    fn measure(&self, scope: usize, buffer: &mut [u64]) -> Option<(u64, f64)> {
        let counts = self.counts.get(scope)?;
        let filled = buffer.get_mut(..counts.len())?;
        for (dst, src) in filled.iter_mut().zip(counts) {
            *dst = src.load(Ordering::Relaxed);
        }
        let observed = filled.iter().sum();
        Some((observed, psi_against_fractions(&self.base_fracs, filled)))
    }

    /// Windowed PSI for the alert path (`None` while the window is
    /// empty). Lock- and allocation-free: the bin counts are copied into
    /// a fixed stack buffer (`MAX_ALERT_BINS` bounds every profile the
    /// registry can load).
    // audit: hot-path
    pub(super) fn window_psi(&self, window: usize) -> Option<f64> {
        let (observed, psi) = self.measure(1 + window, &mut [0u64; MAX_ALERT_BINS])?;
        (observed > 0).then_some(psi)
    }

    /// `(observed, psi)` in every scope, read at scrape time.
    pub(super) fn scopes(&self) -> [(u64, f64); SCOPES] {
        let mut buffer = vec![0u64; self.counts[0].len()];
        std::array::from_fn(|scope| self.measure(scope, &mut buffer).unwrap_or_default())
    }

    /// Folds the raw (pre-imputation) request column into the counts;
    /// missing cells are skipped, exactly as the profiler skips them
    /// when computing the baseline. Lock- and allocation-free.
    // audit: hot-path
    pub(super) fn observe(&self, column: &Column) {
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
}

/// One rolling window of a pipeline: rings of latencies (µs), decision
/// codes (`privileged*2 + favorable`), refused requests and diverging
/// shadow-scored rows over the last N observations, each with its
/// counts kept by eviction at record time. The alert path reads those
/// counts as plain atomics, so arming alerts adds no ring walks to the
/// hot path.
#[derive(Debug)]
pub(super) struct Window {
    /// Latencies, read for the exact window quantiles.
    pub(super) latency: RingWindow,
    decisions: RingWindow,
    pub(super) outcomes: Flags,
    pub(super) divergence: Flags,
    /// `decision_counts[privileged*2 + favorable]` over the window.
    decision_counts: [AtomicU64; 4],
    /// Log₂ latency buckets over the window (bucket-edge quantiles).
    latency_buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

impl Window {
    fn new(capacity: usize) -> Window {
        Window {
            latency: RingWindow::new(capacity),
            decisions: RingWindow::new(capacity),
            outcomes: Flags::new(capacity),
            divergence: Flags::new(capacity),
            decision_counts: std::array::from_fn(|_| AtomicU64::new(0)),
            latency_buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    // audit: hot-path
    fn record_latency(&self, elapsed_us: u64) {
        record_counted(
            &self.latency,
            &self.latency_buckets,
            elapsed_us,
            log2_bucket,
        );
    }

    /// Loads the decision counts.
    // audit: hot-path
    pub(super) fn decision_counts(&self) -> [u64; 4] {
        self.decision_counts
            .each_ref()
            .map(|cell| cell.load(Ordering::Relaxed))
    }

    /// Bucket-edge latency quantile over the window's log₂ histogram
    /// (`None` while the window is empty). Same bucket-edge semantics as
    /// the lifetime histogram, minus the max clamp — the window does not
    /// track its max.
    // audit: hot-path
    pub(super) fn latency_quantile(&self, q: f64) -> Option<f64> {
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
}

/// Sharded serving telemetry for one sealed pipeline. Every field is
/// recorded with relaxed atomics only — the record path takes no lock
/// and performs no allocation — and merged at scrape time.
#[derive(Debug)]
pub(super) struct PipeTelemetry {
    pub(super) requests: ShardedCounter,
    pub(super) rows_scored: ShardedCounter,
    pub(super) rows_dropped: ShardedCounter,
    pub(super) errors: ShardedCounter,
    pub(super) latency: ShardedHistogram,
    /// `decisions[privileged*2 + favorable]`.
    pub(super) decisions: [ShardedCounter; 4],
    pub(super) windows: [Window; WINDOW_SPECS.len()],
    pub(super) drift: Vec<DriftTrack>,
}

impl PipeTelemetry {
    pub(super) fn new(sealed: &SealedPipeline) -> Self {
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
            windows: WINDOW_SPECS.map(|(_, _, cap)| Window::new(cap)),
            drift,
        }
    }

    /// Folds one scored batch into the counters, histogram, and rings.
    /// Lock- and allocation-free: the caller's worker index routes every
    /// increment onto a private shard.
    // audit: hot-path
    pub(super) fn record_batch(&self, worker: usize, scored: &[ScoredRow], elapsed_us: u64) {
        self.requests.incr(worker);
        self.latency.record(worker, elapsed_us);
        for window in &self.windows {
            window.record_latency(elapsed_us);
            window.outcomes.record(false);
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
            for window in &self.windows {
                record_counted(
                    &window.decisions,
                    &window.decision_counts,
                    code as u64,
                    own_cell,
                );
            }
        }
    }

    /// Folds one refused request into the lifetime error counter and
    /// each window's outcome ring. Lock- and allocation-free.
    // audit: hot-path
    pub(super) fn record_error(&self, worker: usize) {
        self.errors.incr(worker);
        for window in &self.windows {
            window.outcomes.record(true);
        }
    }

    /// Folds one shadow-scored row's divergence flag into each window.
    // audit: hot-path
    pub(super) fn record_divergence(&self, diverged: bool) {
        for window in &self.windows {
            window.divergence.record(diverged);
        }
    }
}

/// Favorable rate of one group, `None` when the group was never seen.
#[allow(clippy::cast_precision_loss)]
// audit: hot-path
pub(super) fn rate_of(favorable: u64, unfavorable: u64) -> Option<f64> {
    let total = favorable + unfavorable;
    (total > 0).then(|| favorable as f64 / total as f64)
}

/// Disparate impact of a 2×2 decision table (`None` when undefined:
/// either group unseen, or the privileged group has no favorable
/// decisions to form the denominator rate).
#[allow(clippy::cast_precision_loss)]
// audit: hot-path
pub(super) fn disparate_impact_of(decisions: &[u64; 4]) -> Option<f64> {
    let ut = decisions[0] + decisions[1];
    let pt = decisions[2] + decisions[3];
    if pt == 0 || ut == 0 || decisions[3] == 0 {
        None
    } else {
        Some((decisions[1] as f64 / ut as f64) / (decisions[3] as f64 / pt as f64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Counts `ring`'s recorded slots into `cells` cells by `cell_of`.
    fn recount(ring: &RingWindow, cells: usize, cell_of: impl Fn(u64) -> usize) -> Vec<u64> {
        let mut counts = vec![0; cells];
        for value in ring.snapshot() {
            counts[cell_of(value)] += 1;
        }
        counts
    }

    fn load(cells: &[AtomicU64]) -> Vec<u64> {
        cells.iter().map(|c| c.load(Ordering::Relaxed)).collect()
    }

    /// Eight writers racing through every ring's first lap must leave
    /// each window's counts equal to a recount of its ring's slots: the
    /// alerts and the scrape both read those counts.
    #[test]
    fn window_counts_equal_a_recount_of_their_rings() {
        let profile = ColumnProfile::Categorical {
            count: 600,
            missing: 0,
            cardinality: 6,
            top: (0..5).map(|c| (format!("c{c}"), 100)).collect(),
        };
        for round in 0..20 {
            let windows = WINDOW_SPECS.map(|(_, _, capacity)| Window::new(capacity));
            let track = DriftTrack::from_profile("column", &profile).unwrap();
            let bins = track.counts[0].len() as u64;
            let start = std::sync::Barrier::new(8);
            std::thread::scope(|scope| {
                for thread in 0..8u64 {
                    let (windows, track, start) = (&windows, &track, &start);
                    scope.spawn(move || {
                        start.wait();
                        for i in 0..20_000u64 {
                            let v = (i * 8 + thread).wrapping_mul(2_654_435_761) >> 7;
                            for window in windows {
                                window.record_latency(v % 5_000);
                                record_counted(
                                    &window.decisions,
                                    &window.decision_counts,
                                    v % 4,
                                    own_cell,
                                );
                                window.outcomes.record(v % 7 == 0);
                                window.divergence.record(v % 5 == 0);
                            }
                            track.hit((v % bins) as usize);
                        }
                    });
                }
            });
            for window in &windows {
                let flags = |flags: &Flags| {
                    (
                        flags.set.load(Ordering::Relaxed),
                        recount(&flags.ring, 2, own_cell)[1],
                    )
                };
                let (errors, refused) = flags(&window.outcomes);
                let (divergent, diverged) = flags(&window.divergence);
                assert_eq!(
                    (
                        load(&window.decision_counts),
                        load(&window.latency_buckets),
                        errors,
                        divergent,
                    ),
                    (
                        recount(&window.decisions, 4, own_cell),
                        recount(&window.latency, HISTOGRAM_BUCKETS, log2_bucket),
                        refused,
                        diverged,
                    ),
                    "round {round}: window of {} drifted from its rings",
                    window.latency.capacity()
                );
            }
            for (w, ring) in track.rings.iter().enumerate() {
                assert_eq!(
                    load(&track.counts[1 + w]),
                    recount(ring, bins as usize, own_cell),
                    "round {round}: drift window {w} drifted from its ring"
                );
            }
        }
    }
}
