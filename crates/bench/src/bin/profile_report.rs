//! Drift report over profiled run manifests written by `fairprep run
//! --profile --trace`.
//!
//! ```text
//! cargo run --release -p fairprep-bench --bin profile_report -- out/*.json
//! ```
//!
//! Prints each manifest's per-stage drift entries and warnings and, when
//! several manifests are given, the worst-case drift per stage transition
//! across the whole sweep (which seed and which column produced it).

use fairprep_bench::profile_report::{
    aggregate_drift, parse_profile, render_aggregate, ProfileReport,
};

fn main() -> std::process::ExitCode {
    let paths: Vec<String> = std::env::args().skip(1).collect();
    if paths.is_empty() {
        eprintln!("usage: profile_report <manifest.json>...");
        return std::process::ExitCode::FAILURE;
    }

    let mut reports: Vec<ProfileReport> = Vec::new();
    for path in &paths {
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("error: cannot read {path}: {e}");
                return std::process::ExitCode::FAILURE;
            }
        };
        let report = match parse_profile(&text) {
            Ok(report) => report,
            Err(e) => {
                eprintln!("error: {path}: {e}");
                return std::process::ExitCode::FAILURE;
            }
        };
        println!(
            "=== {path} ({}, seed {}) ===",
            report.experiment, report.seed
        );
        for d in &report.diffs {
            let (psi, column) = d
                .drift
                .max_psi()
                .map_or((0.0, "-"), |c| (c.psi, c.name.as_str()));
            println!(
                "{:<36} Δrows {:>6}  max PSI {psi:.3} ({column})  Δbase {:+.3}",
                format!("{}->{}", d.from, d.to),
                d.drift.row_delta,
                d.drift.base_rate_delta,
            );
        }
        if !report.warnings.is_empty() {
            println!("warnings ({}):", report.warnings.len());
            for w in &report.warnings {
                println!("  - {w}");
            }
        }
        println!();
        reports.push(report);
    }

    if reports.len() > 1 {
        println!(
            "=== worst-case drift per transition ({} runs) ===",
            reports.len()
        );
        print!("{}", render_aggregate(&aggregate_drift(&reports)));
    }
    std::process::ExitCode::SUCCESS
}
