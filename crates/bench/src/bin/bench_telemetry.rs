//! **Telemetry record-path cost** — the claim the unified telemetry layer
//! makes about its hot path, measured: one `ShardedCounter::add` costs
//! less than 2× a bare `AtomicU64::fetch_add`, so the sharding layout
//! (modulo worker routing + cache-padded shard) is nearly free. The
//! sharded histogram and ring-window record costs ride along for context
//! (they perform 3 and 2 atomic operations respectively, so they are
//! compared against their own atomic floors, not the single-op one).
//!
//! What telemetry costs a served request end to end is measured by
//! perfbench's `serve_mixed` workload, which serves with telemetry and
//! four alerts armed.
//!
//! Writes `results/BENCH_telemetry.json`; like every other harness, the
//! JSON records `available_cores` and `build_profile` so provenance is
//! never ambiguous. The 2× budget is checked on the written file by
//! [`fairprep_bench::check::telemetry`].
//!
//! ```text
//! cargo run --release -p fairprep-bench --bin bench_telemetry [-- --full --out DIR]
//! ```

use std::fmt::Write as _;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use fairprep_bench::HarnessArgs;
use fairprep_data::parallel::available_threads;
use fairprep_trace::telemetry::{RingWindow, ShardedCounter, ShardedHistogram};

/// Best-of-N ns/op for one recording closure.
fn best_ns_per_op(ops: u64, rounds: usize, mut body: impl FnMut(u64)) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..rounds {
        let started = Instant::now();
        for i in 0..ops {
            body(black_box(i));
        }
        let ns = started.elapsed().as_nanos() as f64 / ops as f64;
        best = best.min(ns);
    }
    best
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = HarnessArgs::parse();
    let cores = available_threads();
    let profile = fairprep_bench::build_profile();
    let (ops, rounds) = if args.full {
        (20_000_000u64, 5usize)
    } else {
        (1_000_000, 3)
    };

    eprintln!("record path ({ops} ops, best of {rounds})...");
    let bare = AtomicU64::new(0);
    let bare_ns = best_ns_per_op(ops, rounds, |i| {
        bare.fetch_add(i & 1, Ordering::Relaxed);
    });
    let counter = ShardedCounter::new(16);
    let counter_ns = best_ns_per_op(ops, rounds, |i| {
        counter.add(i as usize & 7, i & 1);
    });
    let histogram = ShardedHistogram::new(16);
    let histogram_ns = best_ns_per_op(ops, rounds, |i| {
        histogram.record(i as usize & 7, i | 1);
    });
    let ring = RingWindow::new(1_000);
    let ring_ns = best_ns_per_op(ops, rounds, |i| {
        ring.record(i);
    });
    black_box((
        bare.load(Ordering::Relaxed),
        counter.total(),
        ring.recorded(),
    ));
    let counter_overhead = counter_ns / bare_ns;
    eprintln!(
        "  bare atomic {bare_ns:.2} ns/op | sharded counter {counter_ns:.2} ns/op \
         ({counter_overhead:.2}x) | histogram {histogram_ns:.2} ns/op | ring {ring_ns:.2} ns/op"
    );

    let mut json = String::new();
    let _ = write!(
        json,
        "{{\n  \"bench\": \"telemetry\",\n  \"available_cores\": {cores},\n  \
         \"build_profile\": \"{profile}\",\n  \"quick\": {},\n  \"record_path\": {{\n    \
         \"ops\": {ops},\n    \"bare_atomic_ns_per_op\": {bare_ns:.3},\n    \
         \"sharded_counter_ns_per_op\": {counter_ns:.3},\n    \
         \"sharded_histogram_ns_per_op\": {histogram_ns:.3},\n    \
         \"ring_window_ns_per_op\": {ring_ns:.3},\n    \
         \"counter_overhead_ratio\": {counter_overhead:.3},\n    \
         \"budget_ratio\": 2.0\n  }}\n}}\n",
        !args.full
    );
    std::fs::create_dir_all(&args.out_dir)?;
    let out = args.out_dir.join("BENCH_telemetry.json");
    std::fs::write(&out, &json)?;
    fairprep_bench::check::telemetry(&std::fs::read_to_string(&out)?, false)
        .map_err(|e| format!("{}: {e}", out.display()))?;
    println!("wrote {}", out.display());
    Ok(())
}
