//! Dependency-free hot-path telemetry: sharded counters and histograms,
//! rolling-window ring buffers, and a JSONL progress sink.
//!
//! The scoring service answers requests from a fixed pool of worker
//! threads and must measure itself without slowing itself down. Every
//! primitive here therefore obeys one contract on its **record path**
//! (enforced by the `alloc-in-kernel` audit lint via `// audit: hot-path`
//! markers): no locks, no allocation, no syscalls — only atomic
//! arithmetic on pre-allocated state, relaxed except for the ring's
//! acquire-release slot swap. All merging, sorting, and formatting
//! happens at *scrape* time, which is rare and cold.
//!
//! * [`ShardedCounter`] / [`ShardedHistogram`] — one cache-line-padded
//!   shard per worker slot, so concurrent recorders never contend on a
//!   cache line. Totals are the sum over shards; because counter merges
//!   are associative and commutative, the merged value is identical at
//!   any thread count (the shard-merge property test in
//!   `crates/trace/tests/telemetry.rs` pins this at 1 vs 8 workers).
//! * [`RingWindow`] — a fixed-capacity overwrite ring holding the last
//!   `capacity` recorded values. Snapshots answer "what happened in the
//!   last 1k/10k requests" — rolling-window quantiles, decision rates,
//!   and PSI — while lifetime counters answer "what happened ever".
//! * [`ProgressSink`] — a flushed JSONL event stream (sweep heartbeats
//!   with ETA) rendered live by `fairprep tail`. This sits on the *job*
//!   path, not the request path, so it may lock and allocate.
//!
//! This crate is the sanctioned home of the monotonic clock, which is
//! why the ETA arithmetic lives here and not in the sweep engine.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

use crate::json::{obj, Value};

/// Number of log₂ histogram buckets; bucket `i` counts values in
/// `[2^i, 2^(i+1))`, which for microseconds spans 1 µs to ~18 minutes.
pub const HISTOGRAM_BUCKETS: usize = 31;

/// One atomic on its own cache line: adjacent shards never false-share.
#[repr(align(64))]
#[derive(Debug, Default)]
struct PadCell(AtomicU64);

// ---------------------------------------------------------------------------
// ShardedCounter
// ---------------------------------------------------------------------------

/// A monotone counter split into per-worker shards.
///
/// [`ShardedCounter::add`] touches only the caller's shard with one
/// relaxed `fetch_add` — no lock, no allocation, no shared cache line —
/// and [`ShardedCounter::total`] merges at scrape time. The merge is a
/// plain sum, so totals are exact and independent of how work was
/// distributed over workers.
#[derive(Debug)]
pub struct ShardedCounter {
    shards: Box<[PadCell]>,
}

impl ShardedCounter {
    /// A counter with `shards` slots (clamped to at least 1). Size it to
    /// the worker-pool width; extra workers wrap around with `%`.
    #[must_use]
    pub fn new(shards: usize) -> ShardedCounter {
        ShardedCounter {
            shards: (0..shards.max(1)).map(|_| PadCell::default()).collect(),
        }
    }

    /// Adds `n` on `worker`'s shard. Lock- and allocation-free.
    // audit: hot-path
    pub fn add(&self, worker: usize, n: u64) {
        if let Some(shard) = self.shards.get(worker % self.shards.len()) {
            shard.0.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds 1 on `worker`'s shard. Lock- and allocation-free.
    // audit: hot-path
    pub fn incr(&self, worker: usize) {
        self.add(worker, 1);
    }

    /// The merged total over all shards.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }
}

// ---------------------------------------------------------------------------
// ShardedHistogram
// ---------------------------------------------------------------------------

/// One worker's histogram shard, padded to its own cache-line run.
#[repr(align(64))]
#[derive(Debug)]
struct HistShard {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    max: AtomicU64,
}

impl HistShard {
    fn new() -> HistShard {
        HistShard {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

/// A log₂ histogram split into per-worker shards, merged only at
/// scrape time into a [`HistogramSnapshot`].
#[derive(Debug)]
pub struct ShardedHistogram {
    shards: Box<[HistShard]>,
}

/// The log₂ bucket index of a value: `floor(log2(max(value, 1)))`,
/// clamped to the top bucket.
#[must_use]
pub fn log2_bucket(value: u64) -> usize {
    (63 - u64::leading_zeros(value.max(1)) as usize).min(HISTOGRAM_BUCKETS - 1)
}

impl ShardedHistogram {
    /// A histogram with `shards` slots (clamped to at least 1).
    #[must_use]
    pub fn new(shards: usize) -> ShardedHistogram {
        ShardedHistogram {
            shards: (0..shards.max(1)).map(|_| HistShard::new()).collect(),
        }
    }

    /// Records one value on `worker`'s shard: a bucket `fetch_add`, a
    /// count `fetch_add`, and a `fetch_max` — lock- and allocation-free.
    // audit: hot-path
    pub fn record(&self, worker: usize, value: u64) {
        let idx = log2_bucket(value);
        if let Some(shard) = self.shards.get(worker % self.shards.len()) {
            if let Some(bucket) = shard.buckets.get(idx) {
                bucket.fetch_add(1, Ordering::Relaxed);
            }
            shard.count.fetch_add(1, Ordering::Relaxed);
            shard.max.fetch_max(value, Ordering::Relaxed);
        }
    }

    /// Merges every shard into one plain snapshot.
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut out = HistogramSnapshot {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            max: 0,
        };
        for shard in self.shards.iter() {
            for (dst, src) in out.buckets.iter_mut().zip(shard.buckets.iter()) {
                *dst += src.load(Ordering::Relaxed);
            }
            out.count += shard.count.load(Ordering::Relaxed);
            out.max = out.max.max(shard.max.load(Ordering::Relaxed));
        }
        out
    }
}

/// A merged, immutable view of a [`ShardedHistogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Bucket `i` counts values in `[2^i, 2^(i+1))`.
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    /// Total recorded values.
    pub count: u64,
    /// Largest recorded value.
    pub max: u64,
}

impl HistogramSnapshot {
    /// Upper bucket edge below which at least `q` of the recorded values
    /// fall, clamped to the observed maximum; 0 when nothing was
    /// recorded. (Bucket-edge semantics, matching the log₂ resolution.)
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        #[allow(clippy::cast_sign_loss, clippy::cast_precision_loss)]
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= target {
                return (2u64 << i).min(self.max.max(1));
            }
        }
        self.max
    }
}

// ---------------------------------------------------------------------------
// RingWindow
// ---------------------------------------------------------------------------

/// A fixed-capacity overwrite ring: the last `capacity` recorded values,
/// plus a lifetime sequence counter.
///
/// [`RingWindow::record_all_evicting`], the one write path, claims a run
/// of slots with one relaxed `fetch_add` on the sequence and swaps each
/// value in with an acquire-release `swap` — lock- and allocation-free,
/// never blocking, never growing. Under concurrent
/// recording a snapshot may interleave writers' values, but every slot
/// holds either a recorded value or the never-written sentinel, which
/// snapshots and evictions skip; the golden-fixture tests drive the
/// server sequentially, where the window contents are exact.
#[derive(Debug)]
pub struct RingWindow {
    slots: Box<[AtomicU64]>,
    seq: AtomicU64,
}

/// The content of a slot nothing has been recorded into. Recorded values
/// are clamped one below it, so a latency that saturated to `u64::MAX`
/// still counts as recorded.
const EMPTY_SLOT: u64 = u64::MAX;

impl RingWindow {
    /// A ring holding the last `capacity` values (clamped to at least 1).
    #[must_use]
    pub fn new(capacity: usize) -> RingWindow {
        RingWindow {
            slots: (0..capacity.max(1))
                .map(|_| AtomicU64::new(EMPTY_SLOT))
                .collect(),
            seq: AtomicU64::new(0),
        }
    }

    /// The window size.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Records one value, overwriting the oldest once full, and returns
    /// the value it displaced, if the slot held one: the one-value case
    /// of [`RingWindow::record_all_evicting`]. `u64::MAX` is stored as
    /// `u64::MAX - 1`. Lock- and allocation-free.
    // audit: hot-path
    pub fn record_evicting(&self, value: u64) -> Option<u64> {
        let mut displaced = None;
        self.record_all_evicting(std::slice::from_ref(&value), |old| displaced = Some(old));
        displaced
    }

    /// Records `values` in order, overwriting the oldest once full, and
    /// passes every recorded value they displace to `evicted`. Values
    /// of any type that widens to `u64` are accepted, so a caller can
    /// gather small codes in a byte buffer. The
    /// values claim consecutive slots with one relaxed `fetch_add` on the
    /// sequence; each slot is then swapped. A batch longer than the ring
    /// displaces its own first values, which `evicted` sees too. This is
    /// what lets callers maintain incremental aggregates (bucket counts,
    /// tallies) over exactly the window contents without ever walking
    /// the slots. Lock- and allocation-free.
    ///
    /// The swap is acquire-release: whatever a writer stored before
    /// recording a value (say, the value's count) happens before the
    /// work of the writer that later displaces it, on weakly ordered
    /// CPUs too.
    ///
    /// Eviction is decided by the slot's content, not by the sequence
    /// number: while the ring fills, a writer one lap ahead can reach a
    /// slot before that slot's first-lap writer does, and only the
    /// content tells which of the two displaced a recorded value.
    // audit: hot-path
    pub fn record_all_evicting<T: Copy + Into<u64>>(
        &self,
        values: &[T],
        mut evicted: impl FnMut(u64),
    ) {
        let first = self.seq.fetch_add(values.len() as u64, Ordering::Relaxed);
        let len = self.slots.len() as u64;
        for (seq, &value) in (first..).zip(values) {
            if let Some(slot) = self.slots.get((seq % len) as usize) {
                let old = slot.swap(value.into().min(EMPTY_SLOT - 1), Ordering::AcqRel);
                if old != EMPTY_SLOT {
                    evicted(old);
                }
            }
        }
    }

    /// Lifetime number of recorded values (not capped by capacity).
    #[must_use]
    pub fn recorded(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
    }

    /// The values currently in the window (up to `capacity`, unordered).
    #[must_use]
    pub fn snapshot(&self) -> Vec<u64> {
        self.slots
            .iter()
            .map(|s| s.load(Ordering::Relaxed))
            .filter(|&v| v != EMPTY_SLOT)
            .collect()
    }
}

/// The index of the nearest-rank `q` quantile among `len > 0` sorted
/// values.
fn nearest_rank(len: usize, q: f64) -> usize {
    #[allow(clippy::cast_sign_loss, clippy::cast_precision_loss)]
    let rank = ((q * len as f64).ceil() as usize).clamp(1, len);
    rank - 1
}

/// The exact nearest-rank p50 and p99 of `values`, found by selection
/// rather than a sort: p99 first, then p50 among the values below it.
/// Reorders `values`; `None` when empty.
#[must_use]
pub fn p50_p99(values: &mut [u64]) -> Option<[u64; 2]> {
    if values.is_empty() {
        return None;
    }
    let (lo, hi) = (
        nearest_rank(values.len(), 0.50),
        nearest_rank(values.len(), 0.99),
    );
    let (below, &mut p99, _) = values.select_nth_unstable(hi);
    let p50 = if lo < hi {
        *below.select_nth_unstable(lo).1
    } else {
        p99
    };
    Some([p50, p99])
}

// ---------------------------------------------------------------------------
// ProgressSink
// ---------------------------------------------------------------------------

/// A flushed JSONL progress stream for long-running sweeps.
///
/// Each finished job appends one `heartbeat` line carrying the running
/// done/failed/retried tallies and an ETA extrapolated from the elapsed
/// wall time; [`ProgressSink::finish`] appends a terminal `done` line
/// that tells `fairprep tail` to stop following. Lines are flushed
/// immediately so a tailing process (or a post-mortem after a kill)
/// always sees every completed job.
#[derive(Debug)]
pub struct ProgressSink {
    out: Mutex<std::io::BufWriter<std::fs::File>>,
    started: Instant,
    total: u64,
    done: AtomicU64,
    failed: AtomicU64,
    retried: AtomicU64,
}

impl ProgressSink {
    /// Creates (truncating) the progress file and writes the `start`
    /// event announcing `total` jobs.
    pub fn create(path: &Path, total: u64) -> Result<ProgressSink, String> {
        let file = std::fs::File::create(path)
            .map_err(|e| format!("cannot create progress file {}: {e}", path.display()))?;
        let sink = ProgressSink {
            out: Mutex::new(std::io::BufWriter::new(file)),
            started: Instant::now(),
            total,
            done: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            retried: AtomicU64::new(0),
        };
        sink.write_line(&obj(vec![
            ("event", Value::Str("start".to_string())),
            ("total", Value::from_u64(total)),
        ]));
        Ok(sink)
    }

    fn elapsed_ms(&self) -> u64 {
        u64::try_from(self.started.elapsed().as_millis()).unwrap_or(u64::MAX)
    }

    fn write_line(&self, value: &Value) {
        use std::io::Write as _;
        let mut out = self.out.lock().unwrap_or_else(PoisonError::into_inner);
        let _ = writeln!(out, "{}", value.to_json());
        let _ = out.flush();
    }

    /// Records one finished job (executed or journal-restored) and
    /// appends its heartbeat line.
    pub fn job_finished(&self, seed: u64, ok: bool, retries: u32, reused: bool) {
        let done = self.done.fetch_add(1, Ordering::Relaxed) + 1;
        let failed = if ok {
            self.failed.load(Ordering::Relaxed)
        } else {
            self.failed.fetch_add(1, Ordering::Relaxed) + 1
        };
        let retried = if retries == 0 {
            self.retried.load(Ordering::Relaxed)
        } else {
            self.retried
                .fetch_add(u64::from(retries), Ordering::Relaxed)
                + u64::from(retries)
        };
        let elapsed_ms = self.elapsed_ms();
        let mut members = vec![
            ("event", Value::Str("heartbeat".to_string())),
            ("seed", Value::from_u64(seed)),
            ("ok", Value::Bool(ok)),
            ("reused", Value::Bool(reused)),
            ("done", Value::from_u64(done)),
            ("failed", Value::from_u64(failed)),
            ("retried", Value::from_u64(retried)),
            ("total", Value::from_u64(self.total)),
            ("elapsed_ms", Value::from_u64(elapsed_ms)),
        ];
        if done > 0 && self.total > done {
            let eta_ms = elapsed_ms.saturating_mul(self.total - done) / done;
            members.push(("eta_ms", Value::from_u64(eta_ms)));
        }
        self.write_line(&obj(members));
    }

    /// Appends the terminal `done` event with the final tallies.
    pub fn finish(&self) {
        self.write_line(&obj(vec![
            ("event", Value::Str("done".to_string())),
            ("done", Value::from_u64(self.done.load(Ordering::Relaxed))),
            (
                "failed",
                Value::from_u64(self.failed.load(Ordering::Relaxed)),
            ),
            (
                "retried",
                Value::from_u64(self.retried.load(Ordering::Relaxed)),
            ),
            ("total", Value::from_u64(self.total)),
            ("elapsed_ms", Value::from_u64(self.elapsed_ms())),
        ]));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Exact percentile of a sorted slice (nearest-rank); 0 when empty:
    /// the sort the scrape used to read, kept as `p50_p99`'s oracle.
    fn percentile_of_sorted(sorted: &[u64], q: f64) -> u64 {
        if sorted.is_empty() {
            return 0;
        }
        sorted[nearest_rank(sorted.len(), q)]
    }

    #[test]
    fn counter_merges_across_shards() {
        let c = ShardedCounter::new(4);
        c.add(0, 3);
        c.add(1, 4);
        c.add(7, 5); // wraps onto shard 3
        c.incr(2);
        assert_eq!(c.total(), 13);
    }

    #[test]
    fn zero_shards_clamp_to_one() {
        let c = ShardedCounter::new(0);
        c.incr(9);
        assert_eq!(c.total(), 1);
        let h = ShardedHistogram::new(0);
        h.record(5, 100);
        assert_eq!(h.snapshot().count, 1);
        let r = RingWindow::new(0);
        assert_eq!(r.record_evicting(7), None);
        assert_eq!(r.snapshot(), vec![7]);
    }

    #[test]
    fn histogram_buckets_match_log2() {
        assert_eq!(log2_bucket(0), 0);
        assert_eq!(log2_bucket(1), 0);
        assert_eq!(log2_bucket(2), 1);
        assert_eq!(log2_bucket(3), 1);
        assert_eq!(log2_bucket(1000), 9);
        assert_eq!(log2_bucket(u64::MAX), HISTOGRAM_BUCKETS - 1);
    }

    #[test]
    fn histogram_quantiles_have_bucket_edge_semantics() {
        let h = ShardedHistogram::new(2);
        for _ in 0..99 {
            h.record(0, 1000); // bucket 9: edge 2<<9 = 1024
        }
        h.record(1, 4000); // bucket 11
        let snap = h.snapshot();
        assert_eq!(snap.count, 100);
        assert_eq!(snap.max, 4000);
        assert_eq!(snap.quantile(0.50), 1024);
        assert_eq!(snap.quantile(0.99), 1024);
        assert_eq!(snap.quantile(1.0), 4000);
        let empty = ShardedHistogram::new(1).snapshot();
        assert_eq!(empty.quantile(0.5), 0);
    }

    #[test]
    fn ring_overwrites_oldest() {
        let r = RingWindow::new(3);
        r.record_all_evicting(&[1u64, 2, 3, 4, 5], |_| {});
        assert_eq!(r.recorded(), 5);
        assert_eq!(r.capacity(), 3);
        let mut snap = r.snapshot();
        snap.sort_unstable();
        assert_eq!(snap, vec![3, 4, 5]);
    }

    #[test]
    fn ring_snapshot_before_full_returns_only_recorded() {
        let r = RingWindow::new(10);
        r.record_all_evicting(&[42u64, 7], |_| {});
        assert_eq!(r.snapshot(), vec![42, 7]);
    }

    #[test]
    fn saturated_values_stay_recorded() {
        let r = RingWindow::new(1);
        assert_eq!(r.record_evicting(u64::MAX), None);
        assert_eq!(r.snapshot(), vec![u64::MAX - 1]);
        assert_eq!(r.record_evicting(3), Some(u64::MAX - 1));
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let xs: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_of_sorted(&xs, 0.50), 50);
        assert_eq!(percentile_of_sorted(&xs, 0.99), 99);
        assert_eq!(percentile_of_sorted(&xs, 1.0), 100);
        assert_eq!(percentile_of_sorted(&[], 0.5), 0);
    }

    #[test]
    fn selected_quantiles_equal_the_sorted_ones() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for len in [1usize, 2, 3, 1_000, 10_000] {
            for distinct in [1u64, 7, 1_000_000] {
                let values: Vec<u64> = (0..len)
                    .map(|_| {
                        state = state
                            .wrapping_mul(6_364_136_223_846_793_005)
                            .wrapping_add(1_442_695_040_888_963_407);
                        (state >> 33) % distinct
                    })
                    .collect();
                let mut sorted = values.clone();
                sorted.sort_unstable();
                let expected = [0.50, 0.99].map(|q| percentile_of_sorted(&sorted, q));
                let mut selected = values;
                assert_eq!(
                    p50_p99(&mut selected),
                    Some(expected),
                    "{len} values, {distinct} distinct"
                );
            }
        }
        assert_eq!(p50_p99(&mut []), None);
    }

    #[test]
    fn progress_sink_writes_start_heartbeats_and_done() {
        let dir = std::env::temp_dir().join(format!("fairprep-progress-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("progress.jsonl");
        let sink = ProgressSink::create(&path, 3).unwrap();
        sink.job_finished(11, true, 0, false);
        sink.job_finished(22, false, 2, false);
        sink.job_finished(33, true, 0, true);
        sink.finish();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<crate::json::Value> = text
            .lines()
            .map(|l| crate::json::parse(l).unwrap())
            .collect();
        assert_eq!(lines.len(), 5);
        assert_eq!(lines[0].get("event").and_then(Value::as_str), Some("start"));
        assert_eq!(lines[1].get("done").and_then(Value::as_u64_any), Some(1));
        assert_eq!(lines[2].get("failed").and_then(Value::as_u64_any), Some(1));
        assert_eq!(lines[2].get("retried").and_then(Value::as_u64_any), Some(2));
        assert_eq!(lines[3].get("reused"), Some(&Value::Bool(true)));
        let done = &lines[4];
        assert_eq!(done.get("event").and_then(Value::as_str), Some("done"));
        assert_eq!(done.get("done").and_then(Value::as_u64_any), Some(3));
        assert_eq!(done.get("failed").and_then(Value::as_u64_any), Some(1));
        assert_eq!(done.get("total").and_then(Value::as_u64_any), Some(3));
        // Only non-final heartbeats carry an ETA.
        assert!(lines[1].get("eta_ms").is_some());
        assert!(lines[3].get("eta_ms").is_none());
        std::fs::remove_dir_all(&dir).ok();
    }
}
