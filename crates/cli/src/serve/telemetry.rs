//! The record path: per-pipeline sharded lifetime counters, the rolling
//! windows, and the counts kept beside each window's rings.
//!
//! Every window keeps its counts incrementally, by eviction at record
//! time: decision counts, log₂ latency buckets, error and divergence
//! tallies, and per-column drift bin counts. The alert path reads them
//! on every request and the scrape reads the same cells, so the two can
//! never disagree. Only the window latency quantiles, which are exact,
//! still read the latency ring's slots.
//!
//! A batch's drift bins and decision codes are recorded per chunk, not
//! per cell: the chunk is binned into a stack buffer, its bins are
//! tallied in stack arrays, and each count cell then takes one
//! `fetch_add` for what the chunk adds and one saturating subtract for
//! what it evicts from a ring. The adds land before the chunk enters
//! the ring and the subtracts after, and the ring's slot swap is
//! acquire-release, so the writer that evicts a value sees that value's
//! count added: no writer ever uncounts a value whose count has not
//! landed, and once writers quiesce every window's counts equal a
//! recount of its ring.

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
/// categorical columns top-k (+ other), which unsealing bounds to
/// `TOP_K` categories. A fixed stack buffer of this
/// size lets the alert path compute windowed PSI, and the record path
/// tally a chunk's bins, without allocating.
const MAX_ALERT_BINS: usize = 16;

/// Observations recorded per chunk: the stack buffer a batch's drift
/// bins and decision codes are gathered in. Both fit a byte (at most
/// `MAX_ALERT_BINS` bins, 4 codes), so a single-row request zeroes 256
/// bytes per tracked column rather than 2 KiB.
const CHUNK: usize = 256;

/// Request dictionary entries whose drift bin is resolved once per
/// request; a categorical code past them resolves per cell.
const DICTIONARY_BINS: usize = 256;

/// Subtracts `n` from an aggregate cell without wrapping below zero.
/// The ring's acquire-release swap orders every eviction after its
/// value's increment, so this should never clamp; if it ever did, a
/// monitoring tally that is off beats one that wrapped to `u64::MAX`.
// audit: hot-path
fn saturating_sub(cell: &AtomicU64, n: u64) {
    let _ = cell.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
        Some(v.saturating_sub(n))
    });
}

/// How many of `values` fall in each of `CELLS` cells under `cell_of`
/// (values past the last cell are not counted).
// audit: hot-path
fn tally<T: Copy + Into<u64>, const CELLS: usize>(
    values: &[T],
    cell_of: impl Fn(u64) -> usize,
) -> [u64; CELLS] {
    let mut counts = [0; CELLS];
    for &value in values {
        if let Some(n) = counts.get_mut(cell_of(value.into())) {
            *n += 1;
        }
    }
    counts
}

/// Adds `added[c]` onto `counts[c]`: one `fetch_add` per non-empty cell.
// audit: hot-path
fn add_tally(counts: &[AtomicU64], added: &[u64]) {
    for (cell, &n) in counts.iter().zip(added) {
        if n > 0 {
            cell.fetch_add(n, Ordering::Relaxed);
        }
    }
}

/// Records `values` into `ring`, keeping `counts[cell_of(v)]` a tally of
/// the ring's contents: `added` (the values' own tally) before they
/// enter the ring, what they displace after.
// audit: hot-path
fn record_tallied<T: Copy + Into<u64>, const CELLS: usize>(
    ring: &RingWindow,
    counts: &[AtomicU64],
    values: &[T],
    added: &[u64; CELLS],
    cell_of: impl Fn(u64) -> usize,
) {
    add_tally(counts, added);
    let mut evicted = [0u64; CELLS];
    ring.record_all_evicting(values, |old| {
        if let Some(n) = evicted.get_mut(cell_of(old)) {
            *n += 1;
        }
    });
    for (cell, &n) in counts.iter().zip(&evicted) {
        if n > 0 {
            saturating_sub(cell, n);
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
            saturating_sub(&self.set, 1);
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

    /// Records one chunk of observations' bins: a lifetime count plus
    /// one ring run per window, counted per bin. Lock- and
    /// allocation-free.
    // audit: hot-path
    fn record_chunk(&self, bins: &[u8]) {
        let added = tally::<_, MAX_ALERT_BINS>(bins, own_cell);
        let [lifetime, windows @ ..] = &self.counts;
        add_tally(lifetime, &added);
        for (ring, counts) in self.rings.iter().zip(windows) {
            record_tallied(ring, counts, bins, &added, own_cell);
        }
    }

    /// Records `bins` in order, [`CHUNK`] at a time through a stack
    /// buffer. Lock- and allocation-free.
    // audit: hot-path
    fn record_bins(&self, bins: impl Iterator<Item = u8>) {
        let mut chunk = [0u8; CHUNK];
        let mut filled = 0;
        for bin in bins {
            if let Some(slot) = chunk.get_mut(filled) {
                *slot = bin;
                filled += 1;
            }
            if filled == CHUNK {
                self.record_chunk(&chunk);
                filled = 0;
            }
        }
        if let Some(rest) = chunk.get(..filled).filter(|rest| !rest.is_empty()) {
            self.record_chunk(rest);
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
    /// when computing the baseline. A categorical column's bins are
    /// resolved once per dictionary entry. Lock- and allocation-free.
    // audit: hot-path
    pub(super) fn observe(&self, column: &Column) {
        match (&self.bins, column) {
            (DriftBins::Numeric { edges }, Column::Numeric(vals)) => {
                self.record_bins(
                    vals.iter()
                        .flatten()
                        .filter(|x| !x.is_nan())
                        .map(|x| edges.iter().filter(|e| *x > **e).count() as u8),
                );
            }
            (DriftBins::Categorical { cats }, Column::Categorical(data)) => {
                let bin_of = |category: Option<&str>| {
                    category
                        .and_then(|c| cats.iter().position(|k| k == c))
                        .unwrap_or(cats.len()) as u8
                };
                let mut entry_bins = [0u8; DICTIONARY_BINS];
                for (bin, category) in entry_bins.iter_mut().zip(data.categories()) {
                    *bin = bin_of(Some(category));
                }
                self.record_bins(data.codes().iter().flatten().map(|&code| {
                    entry_bins
                        .get(code as usize)
                        .copied()
                        .unwrap_or_else(|| bin_of(data.category_of(code)))
                }));
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
        let elapsed = [elapsed_us];
        let added = tally::<_, HISTOGRAM_BUCKETS>(&elapsed, log2_bucket);
        record_tallied(
            &self.latency,
            &self.latency_buckets,
            &elapsed,
            &added,
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

    /// Folds one scored batch into the counters, histogram, and rings:
    /// its decision codes are counted and recorded [`CHUNK`] rows at a
    /// time. Lock- and allocation-free: the caller's worker index routes
    /// every increment onto a private shard.
    // audit: hot-path
    pub(super) fn record_batch(&self, worker: usize, scored: &[ScoredRow], elapsed_us: u64) {
        self.requests.incr(worker);
        self.latency.record(worker, elapsed_us);
        for window in &self.windows {
            window.record_latency(elapsed_us);
            window.outcomes.record(false);
        }
        let mut codes = [0u8; CHUNK];
        for rows in scored.chunks(CHUNK) {
            let mut decided = 0;
            for (code, row) in codes.iter_mut().zip(rows.iter().filter(|r| !r.dropped())) {
                let favorable = row.decision.is_some_and(|d| d >= 0.5);
                *code = u8::from(row.privileged) * 2 + u8::from(favorable);
                decided += 1;
            }
            let codes = codes.get(..decided).unwrap_or_default();
            let dropped = (rows.len() - decided) as u64;
            if dropped > 0 {
                self.rows_dropped.add(worker, dropped);
            }
            if decided > 0 {
                self.rows_scored.add(worker, decided as u64);
            }
            let added = tally::<_, 4>(codes, own_cell);
            for (counter, &n) in self.decisions.iter().zip(&added) {
                if n > 0 {
                    counter.add(worker, n);
                }
            }
            for window in &self.windows {
                record_tallied(
                    &window.decisions,
                    &window.decision_counts,
                    codes,
                    &added,
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

    fn telemetry(drift: Vec<DriftTrack>) -> PipeTelemetry {
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

    /// A categorical profile of top categories `c0`..`c4` (bins 0–4)
    /// plus the other bin (5).
    fn categorical() -> ColumnProfile {
        ColumnProfile::Categorical {
            count: 600,
            missing: 0,
            cardinality: 6,
            top: (0..5).map(|c| (format!("c{c}"), 100)).collect(),
        }
    }

    /// Batch lengths the writers cycle through: single rows, a chunk
    /// and a half, and batches longer than the 1k ring. Batches longer
    /// than `WIDE` rows open with `WIDE` distinct categories, so their
    /// later dictionary entries resolve their bins per cell.
    const BATCHES: [usize; 6] = [1, 3, 17, 384, 1_024, 1_500];
    const WIDE: usize = DICTIONARY_BINS + 44;

    /// Single-row requests each writer sends after each of its 24
    /// batches: about 20,000 a round, so 8 writers lap the 10k rings of
    /// latencies, outcomes and divergence flags 16 times a round.
    const SINGLES: u64 = 834;

    /// Eight writers racing whole batches (both shorter and longer than
    /// the 1k ring) and single-row requests through many laps of every
    /// ring must leave each window's counts equal to a recount of its
    /// ring's slots: the alerts and the scrape both read those counts.
    #[test]
    fn window_counts_equal_a_recount_of_their_rings() {
        let numeric = ColumnProfile::Numeric {
            count: 1_000,
            missing: 0,
            mean: 5.0,
            std_dev: 3.0,
            min: 0.0,
            max: 10.0,
            quantiles: (0..QUANTILE_POINTS).map(|q| q as f64).collect(),
        };
        let names: Vec<String> = (0..8).map(|c| format!("c{c}")).collect();
        let wide: Vec<String> = (0..WIDE).map(|w| format!("w{w}")).collect();
        let row = |v: u64| {
            let score = (v % 12 < 11).then(|| (v % 12) as f64 / 10.0);
            ScoredRow {
                privileged: v.is_multiple_of(2),
                score,
                decision: score.map(|s| f64::from(u8::from(s >= 0.5))),
            }
        };
        for round in 0..20 {
            let tracks = vec![
                DriftTrack::from_profile("categorical", &categorical()).unwrap(),
                DriftTrack::from_profile("numeric", &numeric).unwrap(),
            ];
            let telemetry = telemetry(tracks);
            let start = std::sync::Barrier::new(8);
            std::thread::scope(|scope| {
                for thread in 0..8u64 {
                    let (telemetry, start, names, wide) = (&telemetry, &start, &names, &wide);
                    scope.spawn(move || {
                        start.wait();
                        let worker = thread as usize;
                        let mut i = thread << 40;
                        let mut hash = |m: u64| {
                            i += 1;
                            (i.wrapping_mul(2_654_435_761) >> 7) % m
                        };
                        for b in 0..24usize {
                            let len = BATCHES[(b + worker) % BATCHES.len()];
                            let rows: Vec<ScoredRow> =
                                (0..len).map(|_| row(hash(1 << 20))).collect();
                            let cells: Vec<Option<&str>> = (0..len)
                                .map(|r| match wide.get(r).filter(|_| len > WIDE) {
                                    Some(filler) => Some(filler.as_str()),
                                    None => names.get(hash(9) as usize).map(String::as_str),
                                })
                                .collect();
                            let numbers: Vec<Option<f64>> = (0..len)
                                .map(|_| (hash(7) > 0).then(|| hash(1_200) as f64 / 100.0))
                                .collect();
                            telemetry.drift[0].observe(&Column::from_optional_strs(cells));
                            telemetry.drift[1].observe(&Column::from_optional_f64(numbers));
                            telemetry.record_batch(worker, &rows, hash(5_000));
                            for _ in 0..SINGLES {
                                let v = hash(1 << 20);
                                telemetry.record_batch(worker, &[row(v)], v % 5_000);
                                if v.is_multiple_of(7) {
                                    telemetry.record_error(worker);
                                }
                                telemetry.record_divergence(v.is_multiple_of(5));
                            }
                        }
                    });
                }
            });
            for window in &telemetry.windows {
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
            for track in &telemetry.drift {
                let bins = track.counts[0].len();
                for (w, ring) in track.rings.iter().enumerate() {
                    assert_eq!(
                        load(&track.counts[1 + w]),
                        recount(ring, bins, own_cell),
                        "round {round}: {} window {w} drifted from its ring",
                        track.name
                    );
                }
                assert_eq!(
                    load(&track.counts[0]).iter().sum::<u64>(),
                    track.rings[0].recorded(),
                    "round {round}: {} lifetime count",
                    track.name
                );
            }
            let decided: u64 = telemetry.decisions.iter().map(ShardedCounter::total).sum();
            assert_eq!(decided, telemetry.rows_scored.total());
            assert_eq!(decided, telemetry.windows[0].decisions.recorded());
        }
    }

    /// Dictionary entries past the per-request table resolve their bins
    /// per cell, into the bins the table would give them.
    #[test]
    fn entries_past_the_dictionary_table_bin_per_cell() {
        let track = DriftTrack::from_profile("categorical", &categorical()).unwrap();
        let fillers: Vec<String> = (0..DICTIONARY_BINS).map(|w| format!("w{w}")).collect();
        let cells = fillers.iter().map(|f| Some(f.as_str())).chain([
            Some("c4"),
            Some("c0"),
            None,
            Some("c9"),
            Some("c4"),
        ]);
        track.observe(&Column::from_optional_strs(cells));
        // The fillers and `c9` count as other; the missing cell counts nowhere.
        let other = DICTIONARY_BINS as u64 + 1;
        assert_eq!(load(&track.counts[0]), [1, 0, 0, 0, 2, other]);
    }
}
