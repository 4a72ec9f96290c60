//! End-to-end and per-layer benchmark of the FairPrep lifecycle sweeps
//! (paper Figs. 2 and 4) and of the scoring service.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fig2_german|fig4_adult|serve_mixed --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed`, and `metrics` (the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`). Earlier lines
//! carry details: check failures, generator lateness, predictions.
//!
//! Invoked as `perfbench serve ...`, the binary is the `fairprep` command
//! line itself (`fairprep_cli::app::run_main`); the serving workload
//! spawns it that way, so one build yields both the load generator and
//! the server it drives.

mod grid;
mod lifecycle;
mod replay;
mod serve;
mod spans;
mod stats;
mod sys;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use fairprep_trace::json::{obj, Value};

/// End-to-end metrics: (name, unit). Every workload reports all of them.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mb", "MiB"),
    ("batch_p50_ms", "ms"),
    ("scrape_p50_ms", "ms"),
];

/// Lifecycle layers timed by the replay: per-op mean self time.
pub const LIFECYCLE_LAYERS: [&str; 18] = [
    "data.ingest_ms",
    "data.split_ms",
    "data.resample_ms",
    "data.profile_ms",
    "impute.fit_ms",
    "impute.apply_ms",
    "fairness.pre_fit_ms",
    "fairness.pre_apply_ms",
    "fairness.post_fit_ms",
    "fairness.post_apply_ms",
    "fairness.metrics_ms",
    "ml.featurize_fit_ms",
    "ml.featurize_apply_ms",
    "ml.train_ms",
    "ml.predict_ms",
    "core.save_ms",
    "core.load_ms",
    spans::OP,
];

/// The sealed stages of a served request, timed per request class.
pub const SEALED_STAGES: [&str; 5] = [
    "impute.apply_ms",
    "fairness.pre_apply_ms",
    "ml.featurize_apply_ms",
    "ml.predict_ms",
    "fairness.post_apply_ms",
];

/// Request-path layers of the server, per request class.
pub const SERVE_LAYERS: [&str; 8] = [
    "serve.accept_wait_ms",
    "serve.read_ms",
    "serve.handle_ms",
    "serve.write_ms",
    "serve.parse_ms",
    "serve.frame_ms",
    "serve.score_ms",
    "serve.handle_other_ms",
];

/// Every per-layer metric with its unit, in output order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = LIFECYCLE_LAYERS
        .iter()
        .map(|n| (n.to_string(), "ms"))
        .collect();
    for (name, unit) in [
        ("impute.cells", "count"),
        ("ml.cv_fits", "count"),
        ("ml.fold_cache_hits", "count"),
        ("core.sealed_kb", "KiB"),
    ] {
        out.push((name.to_string(), unit));
    }
    for class in ["row", "batch"] {
        for layer in SERVE_LAYERS.iter().chain(&SEALED_STAGES) {
            out.push((format!("{layer}.{class}"), "ms"));
        }
    }
    for (name, unit) in [
        ("serve.render_json_ms", "ms"),
        ("serve.render_prom_ms", "ms"),
        ("trace.op_ms.untraced", "ms"),
        ("trace.op_ms.replay", "ms"),
        ("trace.coverage", "ratio"),
        ("trace.overhead_pct", "%"),
    ] {
        out.push((name.to_string(), unit));
    }
    out
}

/// What one run measured.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<String, f64>,
}

impl Outcome {
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }
}

/// Settings shared by every workload.
pub struct Run {
    pub seed: u64,
    pub seconds: f64,
    /// Scratch directory inside the checkout, removed at exit.
    pub work: PathBuf,
    pub cores: usize,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    print_digests: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut print_digests = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--print-digests" {
            print_digests = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?;
            }
            "--trace" => trace = value == "1",
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        print_digests,
    })
}

fn run(args: &Args) -> Result<Outcome, String> {
    let work =
        PathBuf::from(".perfbench").join(format!("{}-{}", args.workload, std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("creating {}: {e}", work.display()))?;
    let run = Run {
        seed: args.seed,
        seconds: args.seconds,
        work: work.clone(),
        cores: std::thread::available_parallelism().map_or(1, usize::from),
    };
    println!(
        "workload {} seed {} seconds {} trace {} cores {}",
        args.workload, args.seed, args.seconds, args.trace, run.cores
    );
    let outcome = match (args.workload.as_str(), args.print_digests) {
        ("fig2_german" | "fig4_adult", true) => lifecycle::print_digests(&args.workload, &run),
        ("fig2_german", false) => lifecycle::fig2(&run, args.trace),
        ("fig4_adult", false) => lifecycle::fig4(&run, args.trace),
        ("serve_mixed", false) => serve::serve_mixed(&run, args.trace),
        (other, _) => Err(format!("unknown workload {other}")),
    };
    let _ = std::fs::remove_dir_all(&work);
    outcome
}

fn result_line(outcome: &Outcome, trace: bool) -> Result<String, String> {
    let names: Vec<(String, &str)> = if trace {
        per_layer()
    } else {
        END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), *u))
            .collect()
    };
    let mut metrics = Vec::new();
    for (name, unit) in &names {
        let value = outcome.metrics.get(name).copied().unwrap_or(0.0);
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite"));
        }
        metrics.push((
            name.as_str(),
            obj(vec![
                ("value", Value::Num(value)),
                ("unit", Value::Str(unit.to_string())),
            ]),
        ));
    }
    let correct = outcome.failed == 0 && outcome.attempted > 0;
    Ok(format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        outcome.attempted,
        outcome.failed,
        obj(metrics).to_json()
    ))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().collect();
    if argv.get(1).map(String::as_str) == Some("serve") {
        return fairprep_cli::app::run_main();
    }
    let outcome = parse_args(&argv[1..]).and_then(|args| {
        let outcome = run(&args)?;
        result_line(&outcome, args.trace)
    });
    match outcome {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists in `BENCHMARK.json` are the ones this binary
    /// prints, with the same units.
    #[test]
    fn benchmark_json_lists_the_printed_metrics() {
        let doc = fairprep_trace::json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Value::as_array)
                .unwrap()
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Value::as_str).unwrap().to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(listed("end_to_end"), e2e);
        let layers: Vec<(String, String)> = per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(listed("per_layer"), layers);
    }

    #[test]
    fn result_line_has_whole_counts_and_every_metric() {
        let mut outcome = Outcome {
            attempted: 3,
            failed: 1,
            ..Outcome::default()
        };
        outcome.set("batch_p50_ms", 1.25);
        let line = result_line(&outcome, false).unwrap();
        assert!(line.starts_with("{\"correct\":false,\"attempted\":3,\"failed\":1,"));
        let doc = fairprep_trace::json::parse(&line).unwrap();
        let metrics = doc.get("metrics").and_then(Value::as_object).unwrap();
        assert_eq!(metrics.len(), END_TO_END.len());
    }
}
