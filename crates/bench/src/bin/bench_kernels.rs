//! **Kernel and out-of-core ingest baseline** — honest microbenchmarks of
//! the explicit-width kernels and the chunked CSV data path.
//!
//! Two claims are measured, never asserted:
//!
//! 1. **Kernel speedups.** Each kernel is timed against the plain loop it
//!    replaced: the frozen-tree `dot` against its scalar specification
//!    `dot_ref`, and the `gather` and `Matrix::take_rows` copies against
//!    collecting through iterators and per-row `Vec`s.
//! 2. **Ingest memory.** A counting global allocator records the peak
//!    allocation delta of materialized `read_csv` (grows with row count)
//!    versus streaming `read_csv_chunked` into a bounded sink (grows with
//!    chunk size). The CSV text itself is pre-allocated outside the
//!    measured region.
//!
//! The harness is honest about its provenance: the JSON records
//! `available_cores` and `build_profile` — kernel speedups here are
//! width/ILP effects and remain valid on one core, but a debug build's
//! numbers are meaningless.
//!
//! ```text
//! cargo run --release -p fairprep-bench --bin bench_kernels [--full]
//! ```
//!
//! Quick mode (default) runs the 32k-row scale for CI smoke tests; `--full`
//! adds the 1M- and 10M-row scales and writes
//! `results/BENCH_kernels.json`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::io::Cursor;
use std::io::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use fairprep_bench::HarnessArgs;
use fairprep_data::chunked::{read_csv_chunked, ChunkStats};
use fairprep_data::column::ColumnKind;
use fairprep_data::csv::{read_csv, DEFAULT_MISSING_TOKENS};
use fairprep_data::parallel::available_threads;
use fairprep_ml::kernels::{dot, dot_ref, gather};
use fairprep_ml::matrix::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Thin wrapper over the system allocator that tracks current and peak
/// live bytes, so ingest benchmarks can report peak *allocation deltas*
/// instead of sticky process-level VmHWM.
struct CountingAllocator;

static CURRENT: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn track_add(bytes: usize) {
    let now = CURRENT.fetch_add(bytes, Ordering::SeqCst) + bytes;
    PEAK.fetch_max(now, Ordering::SeqCst);
}

fn track_sub(bytes: usize) {
    CURRENT.fetch_sub(bytes, Ordering::SeqCst);
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            track_add(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        track_sub(layout.size());
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            track_add(layout.size());
        }
        ptr
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new_ptr = System.realloc(ptr, layout, new_size);
        if !new_ptr.is_null() {
            track_sub(layout.size());
            track_add(new_size);
        }
        new_ptr
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Resets the peak to the current live total and returns that baseline.
fn reset_peak() -> usize {
    let current = CURRENT.load(Ordering::SeqCst);
    PEAK.store(current, Ordering::SeqCst);
    current
}

/// Peak live bytes above `baseline` since the last [`reset_peak`].
fn peak_delta(baseline: usize) -> usize {
    PEAK.load(Ordering::SeqCst).saturating_sub(baseline)
}

/// Median wall-clock seconds of `reps` runs of `f`.
fn median_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let start = Instant::now();
        f();
        samples.push(start.elapsed().as_secs_f64());
    }
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

struct KernelResult {
    name: &'static str,
    baseline: &'static str,
    median_secs: f64,
    speedup: f64,
}

/// Times the kernel suite at vector length `n`.
fn bench_kernels(n: usize, rng: &mut StdRng) -> Vec<KernelResult> {
    let a: Vec<f64> = (0..n).map(|_| rng.random::<f64>() * 2.0 - 1.0).collect();
    let b: Vec<f64> = (0..n).map(|_| rng.random::<f64>() * 2.0 - 1.0).collect();
    let reps = (20_000_000 / n.max(1)).clamp(3, 100);

    let mut results = Vec::new();
    let mut push = |name, baseline, secs: f64, base_secs: f64| {
        results.push(KernelResult {
            name,
            baseline,
            median_secs: secs,
            speedup: base_secs / secs,
        });
    };

    // Reduction: the scalar specification of the same frozen tree.
    let ref_secs = median_secs(reps, || {
        std::hint::black_box(dot_ref(std::hint::black_box(&a), &b));
    });
    let dot_secs = median_secs(reps, || {
        std::hint::black_box(dot(std::hint::black_box(&a), &b));
    });
    push("dot", "dot_ref", dot_secs, ref_secs);

    // Gather: strided index pattern, iterator collection as baseline.
    let idx: Vec<usize> = (0..n).map(|i| (i * 7919) % n.max(1)).collect();
    let gather_ref_secs = median_secs(reps, || {
        let out: Vec<f64> = idx.iter().map(|&i| a[i]).collect();
        std::hint::black_box(&out);
    });
    let gather_secs = median_secs(reps, || {
        let mut out = vec![0.0; idx.len()];
        gather(&a, &idx, &mut out);
        std::hint::black_box(&out);
    });
    push("gather", "gather_ref", gather_secs, gather_ref_secs);

    // Row gather through Matrix: the seed collected each row into its own
    // Vec before flattening; the kernelized path copies slices directly.
    let cols = 16.min(n.max(1));
    let mrows = n / cols;
    let m =
        Matrix::from_vec(mrows, cols, a[..mrows * cols].to_vec()).expect("consistent dimensions");
    let row_idx: Vec<usize> = (0..mrows).map(|i| (i * 31) % mrows.max(1)).collect();
    let take_reps = reps.min(30);
    let take_ref_secs = median_secs(take_reps, || {
        let rows: Vec<Vec<f64>> = row_idx.iter().map(|&i| m.row(i).to_vec()).collect();
        let flat: Vec<f64> = rows.into_iter().flatten().collect();
        std::hint::black_box(&flat);
    });
    let take_secs = median_secs(take_reps, || {
        std::hint::black_box(m.take_rows(&row_idx));
    });
    push("take_rows", "take_rows_ref", take_secs, take_ref_secs);

    results
}

/// Renders a deterministic synthetic CSV with `rows` data rows: two
/// numeric columns (one with ~2% missing), two categoricals, a binary
/// label — the shape of the paper's tabular workloads.
fn render_csv(rows: usize, rng: &mut StdRng) -> String {
    let jobs = [
        "clerk", "teacher", "nurse", "cook", "driver", "farmer", "scribe", "smith",
    ];
    let mut text = String::with_capacity(rows * 40 + 64);
    text.push_str("age,score,job,group,label\n");
    for _ in 0..rows {
        let age: u32 = rng.random_range(18..90);
        if rng.random::<f64>() < 0.02 {
            text.push('?');
        } else {
            let _ = write!(text, "{age}");
        }
        let score = rng.random_range(300..850);
        let job = jobs[rng.random_range(0..jobs.len())];
        let group = if rng.random::<bool>() { "a" } else { "b" };
        let label = if rng.random::<bool>() { "yes" } else { "no" };
        let _ = writeln!(text, ",{score},{job},{group},{label}");
    }
    text
}

const CSV_KINDS: [(&str, ColumnKind); 5] = [
    ("age", ColumnKind::Numeric),
    ("score", ColumnKind::Numeric),
    ("job", ColumnKind::Categorical),
    ("group", ColumnKind::Categorical),
    ("label", ColumnKind::Categorical),
];

struct IngestResult {
    materialized_peak_bytes: usize,
    materialized_secs: f64,
    streaming: Vec<(usize, usize, f64)>, // (chunk_rows, peak_bytes, secs)
}

/// Measures peak allocation of materialized vs streaming ingest. The CSV
/// text is allocated before measurement begins, so deltas only cover what
/// each reader retains.
fn bench_ingest(rows: usize, rng: &mut StdRng) -> Result<IngestResult, Box<dyn std::error::Error>> {
    let text = render_csv(rows, rng);

    let baseline = reset_peak();
    let start = Instant::now();
    let frame = read_csv(
        Cursor::new(text.as_str()),
        &CSV_KINDS,
        DEFAULT_MISSING_TOKENS,
    )?;
    let materialized_secs = start.elapsed().as_secs_f64();
    let materialized_peak_bytes = peak_delta(baseline);
    assert_eq!(frame.n_rows(), rows);
    drop(frame);

    let mut streaming = Vec::new();
    for chunk_rows in [256_usize, 4096, 65536] {
        let baseline = reset_peak();
        let start = Instant::now();
        let mut sink = ChunkStats::default();
        read_csv_chunked(
            Cursor::new(text.as_str()),
            &CSV_KINDS,
            DEFAULT_MISSING_TOKENS,
            chunk_rows,
            &mut sink,
        )?;
        let secs = start.elapsed().as_secs_f64();
        assert_eq!(sink.rows, rows as u64);
        streaming.push((chunk_rows, peak_delta(baseline), secs));
    }
    Ok(IngestResult {
        materialized_peak_bytes,
        materialized_secs,
        streaming,
    })
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = HarnessArgs::parse();
    let scales: &[usize] = if args.full {
        &[32_768, 1_000_000, 10_000_000]
    } else {
        &[32_768]
    };
    let cores = available_threads();
    let profile = fairprep_bench::build_profile();
    let mut rng = StdRng::seed_from_u64(46947);
    let mut json = String::from("{\n");
    let _ = write!(
        json,
        "  \"bench\": \"kernels\",\n  \"available_cores\": {cores},\n  \"build_profile\": \"{profile}\",\n  \"quick\": {},\n  \"scales\": [\n",
        !args.full
    );

    for (si, &rows) in scales.iter().enumerate() {
        println!("== scale: {rows} rows ==");
        let kernels = bench_kernels(rows, &mut rng);
        for k in &kernels {
            println!(
                "  {:<14} {:>12.6}s  x{:.2} vs {}",
                k.name, k.median_secs, k.speedup, k.baseline
            );
        }
        let ingest = bench_ingest(rows, &mut rng)?;
        println!(
            "  ingest materialized: peak {:>12} B  {:.3}s",
            ingest.materialized_peak_bytes, ingest.materialized_secs
        );
        for (chunk_rows, peak, secs) in &ingest.streaming {
            println!("  ingest chunk={chunk_rows:<6}: peak {peak:>12} B  {secs:.3}s");
        }

        let _ = write!(
            json,
            "    {{\n      \"rows\": {rows},\n      \"kernels\": [\n"
        );
        for (i, k) in kernels.iter().enumerate() {
            let comma = if i + 1 < kernels.len() { "," } else { "" };
            let _ = writeln!(
                json,
                "        {{\"name\": \"{}\", \"median_secs\": {:.9}, \"baseline\": \"{}\", \"speedup\": {:.3}}}{comma}",
                k.name, k.median_secs, k.baseline, k.speedup
            );
        }
        let _ = write!(
            json,
            "      ],\n      \"ingest\": {{\n        \"materialized_peak_bytes\": {},\n        \"materialized_secs\": {:.6},\n        \"streaming\": [\n",
            ingest.materialized_peak_bytes, ingest.materialized_secs
        );
        for (i, (chunk_rows, peak, secs)) in ingest.streaming.iter().enumerate() {
            let comma = if i + 1 < ingest.streaming.len() {
                ","
            } else {
                ""
            };
            let _ = writeln!(
                json,
                "          {{\"chunk_rows\": {chunk_rows}, \"peak_bytes\": {peak}, \"secs\": {secs:.6}}}{comma}"
            );
        }
        let scale_comma = if si + 1 < scales.len() { "," } else { "" };
        let _ = write!(json, "        ]\n      }}\n    }}{scale_comma}\n");
    }
    json.push_str("  ]\n}\n");

    std::fs::create_dir_all(&args.out_dir)?;
    let path = args.out_dir.join("BENCH_kernels.json");
    let mut file = std::fs::File::create(&path)?;
    file.write_all(json.as_bytes())?;
    println!("baseline written : {}", path.display());
    Ok(())
}
