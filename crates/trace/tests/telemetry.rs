//! Property tests for the sharded telemetry primitives: merged shard
//! totals must be exactly the sequential totals at every worker count —
//! sharding is a performance layout, never an accuracy trade — and ring
//! windows must retain exactly the last `capacity` observations under
//! sequential load and exactly the right count under concurrent load.

use fairprep_trace::telemetry::{
    log2_bucket, RingWindow, ShardedCounter, ShardedHistogram, HISTOGRAM_BUCKETS,
};

/// Deterministic per-thread operation stream (an LCG; no external rand).
fn lcg_next(state: u64) -> u64 {
    state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407)
}

fn thread_stream(thread: usize, ops: usize) -> Vec<u64> {
    let mut state = 0x9E3779B97F4A7C15u64.wrapping_add(thread as u64);
    (0..ops)
        .map(|_| {
            state = lcg_next(state);
            state
        })
        .collect()
}

/// The core shard-merge property: run the same deterministic operation
/// streams on 1 thread and on 8 threads (each thread using its own
/// worker index, i.e. its own shards) and demand the merged counter
/// total and histogram snapshot equal the sequentially computed truth.
#[test]
fn shard_merged_totals_equal_sequential_totals_at_1_and_8_threads() {
    const OPS: usize = 20_000;
    for threads in [1usize, 8] {
        let streams: Vec<Vec<u64>> = (0..threads).map(|t| thread_stream(t, OPS)).collect();

        // Sequential ground truth.
        let mut expected_total = 0u64;
        let mut expected_buckets = [0u64; HISTOGRAM_BUCKETS];
        let mut expected_max = 0u64;
        for stream in &streams {
            for &raw in stream {
                let amount = raw % 7;
                let latency = raw % 1_000_000;
                expected_total += amount;
                expected_buckets[log2_bucket(latency)] += 1;
                expected_max = expected_max.max(latency);
            }
        }

        // Concurrent run: one worker index per thread.
        let counter = ShardedCounter::new(16);
        let histogram = ShardedHistogram::new(16);
        std::thread::scope(|scope| {
            for (t, stream) in streams.iter().enumerate() {
                let counter = &counter;
                let histogram = &histogram;
                scope.spawn(move || {
                    for &raw in stream {
                        counter.add(t, raw % 7);
                        histogram.record(t, raw % 1_000_000);
                    }
                });
            }
        });

        assert_eq!(counter.total(), expected_total, "threads={threads}");
        let snap = histogram.snapshot();
        assert_eq!(snap.count, (threads * OPS) as u64, "threads={threads}");
        assert_eq!(snap.max, expected_max, "threads={threads}");
        assert_eq!(snap.buckets, expected_buckets, "threads={threads}");
    }
}

/// Worker indices beyond the shard count wrap around instead of
/// dropping samples: 64 logical workers on 16 shards lose nothing.
#[test]
fn worker_indices_beyond_shard_count_wrap_without_loss() {
    let counter = ShardedCounter::new(16);
    std::thread::scope(|scope| {
        for worker in 0..64usize {
            let counter = &counter;
            scope.spawn(move || {
                for _ in 0..1_000 {
                    counter.incr(worker);
                }
            });
        }
    });
    assert_eq!(counter.total(), 64_000);
}

/// Sequential ring recording keeps exactly the last `capacity` values
/// (the rolling-window contract the fairness monitors depend on).
#[test]
fn ring_window_retains_exactly_the_last_capacity_values() {
    let ring = RingWindow::new(100);
    for v in 0..250u64 {
        ring.record_evicting(v);
    }
    assert_eq!(ring.recorded(), 250);
    let mut snapshot = ring.snapshot();
    snapshot.sort_unstable();
    let expected: Vec<u64> = (150..250).collect();
    assert_eq!(snapshot, expected);
}

/// Concurrent ring recording never loses a slot: the lifetime sequence
/// counter equals the number of records, and a full ring snapshot
/// always returns `capacity` values drawn from the recorded set.
#[test]
fn ring_window_concurrent_records_fill_every_slot() {
    let ring = RingWindow::new(256);
    std::thread::scope(|scope| {
        for t in 0..8usize {
            let ring = &ring;
            scope.spawn(move || {
                for i in 0..5_000u64 {
                    ring.record_evicting(t as u64 * 10_000 + i);
                }
            });
        }
    });
    assert_eq!(ring.recorded(), 40_000);
    let snapshot = ring.snapshot();
    assert_eq!(snapshot.len(), 256);
    for v in snapshot {
        let (t, i) = (v / 10_000, v % 10_000);
        assert!(t < 8 && i < 5_000, "impossible ring value {v}");
    }
}

// ---------------------------------------------------------------------------
// Property tests (proptest shim)
// ---------------------------------------------------------------------------

use fairprep_trace::json::{parse, Value};
use fairprep_trace::telemetry::ProgressSink;
use proptest::prelude::*;

/// A unique scratch file per property-test case.
fn scratch_path(stem: &str) -> std::path::PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "fairprep_{stem}_{}_{}.jsonl",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Wrap-around: after `k > capacity` sequential records the window
    /// holds exactly the last `capacity` values, no more, no less.
    #[test]
    fn ring_window_wraparound_keeps_exactly_the_last_capacity_values(
        capacity in 1usize..96,
        extra in 1usize..200,
    ) {
        let ring = RingWindow::new(capacity);
        let k = capacity + extra;
        for v in 0..k as u64 {
            ring.record_evicting(v);
        }
        prop_assert_eq!(ring.recorded(), k as u64);
        let mut snapshot = ring.snapshot();
        snapshot.sort_unstable();
        let expected: Vec<u64> = ((k - capacity) as u64..k as u64).collect();
        prop_assert_eq!(snapshot, expected);
    }

    /// `record_evicting` reports exactly the displaced value: nothing
    /// while the ring fills, then the value recorded `capacity` steps
    /// earlier — the invariant the serve layer's incremental window
    /// aggregates (bucket counts, error tallies) rest on.
    #[test]
    fn record_evicting_returns_exactly_the_displaced_values(
        capacity in 1usize..64,
        n in 1usize..200,
    ) {
        let ring = RingWindow::new(capacity);
        for v in 0..n as u64 {
            let evicted = ring.record_evicting(v);
            if (v as usize) < capacity {
                prop_assert_eq!(evicted, None);
            } else {
                prop_assert_eq!(evicted, Some(v - capacity as u64));
            }
        }
    }

    /// `record_all_evicting` over a sequence cut into batches of any
    /// size, some longer than the ring, records and reports exactly what
    /// recording the values one at a time does.
    #[test]
    fn batched_records_evict_like_single_records(
        capacity in 1usize..64,
        batches in prop::collection::vec(0usize..150, 1..12),
    ) {
        let (single, batched) = (RingWindow::new(capacity), RingWindow::new(capacity));
        let mut next = 0u64;
        for len in batches {
            let values: Vec<u64> = (next..next + len as u64).collect();
            next += len as u64;
            let expected: Vec<u64> = values.iter().filter_map(|&v| single.record_evicting(v)).collect();
            let mut evicted = Vec::new();
            batched.record_all_evicting(&values, |old| evicted.push(old));
            prop_assert_eq!(evicted, expected);
        }
        prop_assert_eq!(batched.recorded(), single.recorded());
        prop_assert_eq!(batched.snapshot(), single.snapshot());
    }

    /// Tally consistency: every heartbeat satisfies
    /// `failed <= done <= total`, and after all jobs finish the final
    /// `done` equals `total` with `failed` equal to the number of
    /// failing jobs — the contract `fairprep tail` renders from.
    #[test]
    fn progress_sink_tallies_are_consistent(
        oks in prop::collection::vec(any::<bool>(), 1..40),
    ) {
        let path = scratch_path("progress_prop");
        let sink = ProgressSink::create(&path, oks.len() as u64).unwrap();
        for (i, ok) in oks.iter().enumerate() {
            sink.job_finished(i as u64, *ok, 0, false);
        }
        sink.finish();

        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let total = oks.len() as u64;
        let expected_failed = oks.iter().filter(|ok| !**ok).count() as u64;
        let mut last = None;
        for line in text.lines() {
            let event = parse(line).unwrap();
            if event.get("event").and_then(Value::as_str) == Some("start") {
                continue;
            }
            let field = |key: &str| event.get(key).and_then(Value::as_u64_any).unwrap_or(0);
            let (done, failed) = (field("done"), field("failed"));
            prop_assert!(failed <= done, "failed {failed} > done {done}: {line}");
            prop_assert!(done <= total, "done {done} > total {total}: {line}");
            prop_assert_eq!(field("total"), total);
            last = Some((done, failed));
        }
        prop_assert_eq!(last, Some((total, expected_failed)));
    }
}
