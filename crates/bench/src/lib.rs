//! Shared machinery for the figure-reproduction harnesses.
//!
//! Each binary in `src/bin/` regenerates one figure of the paper's
//! evaluation (see DESIGN.md's experiment index): it executes the same
//! sweep structure, prints the same series the paper plots, and writes the
//! raw points to `results/` for external plotting.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod plot;
pub mod profile_report;
pub mod trace_report;

use std::path::PathBuf;

use fairprep_core::aggregate::MetricDistribution;

pub use plot::ScatterPlot;

/// Command-line options shared by all harnesses.
#[derive(Debug, Clone)]
pub struct HarnessArgs {
    /// Use the paper's full dataset sizes and seed counts (slow).
    pub full: bool,
    /// Seed count override.
    pub seeds: Option<usize>,
    /// Worker threads.
    pub threads: usize,
    /// Output directory for CSV point files.
    pub out_dir: PathBuf,
}

impl HarnessArgs {
    /// Parses `--full`, `--seeds N`, `--threads N`, `--out DIR` from
    /// `std::env::args`.
    #[must_use]
    pub fn parse() -> Self {
        let mut args = HarnessArgs {
            full: false,
            seeds: None,
            threads: fairprep_data::parallel::available_threads(),
            out_dir: PathBuf::from("results"),
        };
        let mut iter = std::env::args().skip(1);
        while let Some(arg) = iter.next() {
            match arg.as_str() {
                "--full" => args.full = true,
                "--seeds" => {
                    args.seeds = iter.next().and_then(|v| v.parse().ok());
                }
                "--threads" => {
                    if let Some(t) = iter.next().and_then(|v| v.parse().ok()) {
                        args.threads = t;
                    }
                }
                "--out" => {
                    if let Some(dir) = iter.next() {
                        args.out_dir = PathBuf::from(dir);
                    }
                }
                other => eprintln!("ignoring unknown argument {other}"),
            }
        }
        args
    }
}

/// Formats a summary as `mean ± std [min, max] (n)`.
#[must_use]
pub fn fmt_summary(s: &MetricDistribution) -> String {
    format!(
        "{:.3} ± {:.3} [{:.3}, {:.3}] (n={})",
        s.mean, s.std, s.min, s.max, s.n
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_summary_is_readable() {
        let s = MetricDistribution::from_values(&[0.5, 0.7]);
        assert!(fmt_summary(&s).contains("0.600"));
    }
}
