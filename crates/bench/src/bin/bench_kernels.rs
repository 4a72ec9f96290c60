//! **Kernel baseline** — honest microbenchmarks of the explicit-width
//! kernels.
//!
//! Each kernel is timed against the plain loop it replaced, and the
//! speedups are measured, never asserted: the frozen-tree `dot` against
//! its scalar specification `dot_ref`, and the `Matrix::take_rows` copy
//! against collecting per-row `Vec`s.
//!
//! The harness is honest about its provenance: the JSON records
//! `available_cores` and `build_profile` — kernel speedups here are
//! width/ILP effects and remain valid on one core, but a debug build's
//! numbers are meaningless. It checks the file it writes with
//! [`fairprep_bench::check::kernels`].
//!
//! ```text
//! cargo run --release -p fairprep-bench --bin bench_kernels [--full]
//! ```
//!
//! Quick mode (default) runs the 32k-row scale for CI smoke tests; `--full`
//! adds the 1M- and 10M-row scales and writes
//! `results/BENCH_kernels.json`.

use std::fmt::Write as _;
use std::time::Instant;

use fairprep_bench::HarnessArgs;
use fairprep_data::parallel::available_threads;
use fairprep_ml::kernels::{dot, dot_ref};
use fairprep_ml::matrix::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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
        let scale_comma = if si + 1 < scales.len() { "," } else { "" };
        let _ = write!(json, "      ]\n    }}{scale_comma}\n");
    }
    json.push_str("  ]\n}\n");

    std::fs::create_dir_all(&args.out_dir)?;
    let path = args.out_dir.join("BENCH_kernels.json");
    std::fs::write(&path, &json)?;
    fairprep_bench::check::kernels(&std::fs::read_to_string(&path)?, false)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("baseline written : {}", path.display());
    Ok(())
}
