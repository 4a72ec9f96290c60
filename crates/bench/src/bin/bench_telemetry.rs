//! **Telemetry overhead proof** — the two claims the unified telemetry
//! layer makes about its hot path, measured:
//!
//! 1. **Record path**: one `ShardedCounter::add` costs less than 2× a
//!    bare `AtomicU64::fetch_add` — the sharding layout (modulo worker
//!    routing + cache-padded shard) is nearly free. The sharded
//!    histogram and ring-window record costs ride along for context
//!    (they perform 3 and 2 atomic operations respectively, so they are
//!    compared against their own atomic floors, not the single-op one).
//! 2. **End to end**: serving throughput with full telemetry recording
//!    (counters, histogram, rings, per-column drift) is within 5% of
//!    the same server with recording disabled (the
//!    `Registry::set_recording(false)` knob scores requests but touches
//!    no telemetry state) — and stays within the same 5% budget with a
//!    representative alert set armed (disparate impact, p99 latency,
//!    error rate, and one windowed PSI alert evaluated per request).
//!
//! Writes `results/BENCH_telemetry.json`; like every other harness, the
//! JSON records `available_cores` and `build_profile` so provenance is
//! never ambiguous.
//!
//! ```text
//! cargo run --release -p fairprep-bench --bin bench_telemetry [-- --full --out DIR]
//! ```

use std::fmt::Write as _;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use fairprep_bench::HarnessArgs;
use fairprep_cli::golden::{golden_bodies, golden_pipeline};
use fairprep_cli::serve::{http_request, Registry, ServerHandle};
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

/// One throughput measurement: `clients` threads each sending
/// `per_client` single-row predict requests; returns requests/second.
fn serve_rps(
    addr: std::net::SocketAddr,
    path: &str,
    body: &str,
    clients: usize,
    per_client: usize,
) -> f64 {
    let started = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..clients {
            scope.spawn(|| {
                for _ in 0..per_client {
                    let (status, _) =
                        http_request(addr, "POST", path, Some(body)).expect("request");
                    assert_eq!(status, 200);
                }
            });
        }
    });
    (clients * per_client) as f64 / started.elapsed().as_secs_f64()
}

fn main() {
    let args = HarnessArgs::parse();
    let cores = available_threads();
    let profile = fairprep_bench::build_profile();
    let (ops, rounds, clients, per_client) = if args.full {
        (20_000_000u64, 5usize, 4usize, 400usize)
    } else {
        (1_000_000, 3, 2, 50)
    };

    // ---- Phase 1: record-path micro-costs -------------------------------
    eprintln!("phase 1: record path ({ops} ops, best of {rounds})...");
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
    assert!(
        counter_overhead < 2.0,
        "sharded counter record overhead {counter_overhead:.2}x >= 2x bare increment"
    );

    // ---- Phase 2: instrumented vs uninstrumented serving ----------------
    eprintln!(
        "phase 2: serve throughput ({clients} clients x {per_client} requests, best of 3)..."
    );
    eprintln!("fitting and sealing the german golden pipeline...");
    let sealed = golden_pipeline("german").expect("golden pipeline");
    let path = format!("/predict/{}", sealed.fingerprint.replace(':', "-"));
    let body = golden_bodies("german").expect("golden bodies").remove(0);
    let mut registry = Registry::new();
    registry.insert(sealed);
    let server = ServerHandle::spawn(registry, 0, cores.max(2)).expect("spawn server");
    let addr = server.addr();
    let _ = http_request(addr, "POST", &path, Some(&body)).expect("warmup");

    let mut instrumented_rps = 0.0f64;
    let mut uninstrumented_rps = 0.0f64;
    for round in 0..3 {
        server.registry().set_recording(true);
        let on = serve_rps(addr, &path, &body, clients, per_client);
        server.registry().set_recording(false);
        let off = serve_rps(addr, &path, &body, clients, per_client);
        eprintln!("  round {round}: instrumented {on:.0} req/s, uninstrumented {off:.0} req/s");
        instrumented_rps = instrumented_rps.max(on);
        uninstrumented_rps = uninstrumented_rps.max(off);
    }
    server.stop();
    let overhead_pct = (uninstrumented_rps - instrumented_rps) / uninstrumented_rps * 100.0;
    eprintln!(
        "  best: instrumented {instrumented_rps:.0} req/s vs uninstrumented \
         {uninstrumented_rps:.0} req/s ({overhead_pct:+.2}% overhead)"
    );
    assert!(
        overhead_pct < 5.0,
        "instrumented serving lost {overhead_pct:.2}% throughput (budget: 5%)"
    );

    // ---- Phase 3: serving with a representative alert set armed ---------
    eprintln!("phase 3: serve throughput with alerts armed (best of 3)...");
    let sealed = golden_pipeline("german").expect("golden pipeline");
    let mut registry = Registry::new();
    registry.insert(sealed);
    let psi_column = registry
        .drift_columns()
        .into_iter()
        .next()
        .expect("drift column");
    let spec_text = format!(
        r#"[{{"name": "di-floor", "metric": "disparate_impact", "window": "1k",
             "trip": 0.05, "clear": 0.1, "for": 1000000}},
           {{"name": "latency-p99", "metric": "p99_latency_us", "window": "1k",
             "trip": 1e12, "for": 1000000}},
           {{"name": "error-burst", "metric": "error_rate", "window": "1k",
             "trip": 0.5, "clear": 0.25, "for": 1000000}},
           {{"name": "drift", "metric": "psi", "column": "{psi_column}",
             "window": "1k", "trip": 1e12, "for": 1000000}}]"#
    );
    let specs = fairprep_trace::alert::parse_specs(&spec_text, &fairprep_cli::serve::WINDOW_LABELS)
        .expect("alert specs");
    registry.arm_alerts(&specs).expect("arm alerts");
    let server = ServerHandle::spawn(registry, 0, cores.max(2)).expect("spawn server");
    let addr = server.addr();
    let _ = http_request(addr, "POST", &path, Some(&body)).expect("warmup");
    let mut alerts_armed_rps = 0.0f64;
    for round in 0..3 {
        let rps = serve_rps(addr, &path, &body, clients, per_client);
        eprintln!("  round {round}: alerts armed {rps:.0} req/s");
        alerts_armed_rps = alerts_armed_rps.max(rps);
    }
    server.stop();
    let alerts_overhead_pct = (uninstrumented_rps - alerts_armed_rps) / uninstrumented_rps * 100.0;
    eprintln!(
        "  best: alerts armed {alerts_armed_rps:.0} req/s vs uninstrumented \
         {uninstrumented_rps:.0} req/s ({alerts_overhead_pct:+.2}% overhead)"
    );
    assert!(
        alerts_overhead_pct < 5.0,
        "alert-armed serving lost {alerts_overhead_pct:.2}% throughput (budget: 5%)"
    );

    // ---- JSON ------------------------------------------------------------
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
         \"budget_ratio\": 2.0\n  }},\n  \"serve\": {{\n    \
         \"clients\": {clients},\n    \"requests_per_client\": {per_client},\n    \
         \"instrumented_rps\": {instrumented_rps:.1},\n    \
         \"uninstrumented_rps\": {uninstrumented_rps:.1},\n    \
         \"overhead_pct\": {overhead_pct:.3},\n    \
         \"alerts_armed_rps\": {alerts_armed_rps:.1},\n    \
         \"alerts_overhead_pct\": {alerts_overhead_pct:.3},\n    \"budget_pct\": 5.0\n  }}\n}}\n",
        !args.full
    );
    std::fs::create_dir_all(&args.out_dir).expect("results dir");
    let out = args.out_dir.join("BENCH_telemetry.json");
    std::fs::write(&out, &json).expect("write BENCH_telemetry.json");
    println!("wrote {}", out.display());
}
