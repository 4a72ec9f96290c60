//! Drift aggregation across profiled run manifests.
//!
//! `fairprep run --profile --trace out/seed-N.json` embeds a `profile`
//! section (per-stage dataset snapshots plus adjacent-stage diffs) in
//! every manifest it writes. This module reads the diffs back into the
//! manifest's own [`ProfileDiffRecord`]s with the [`fairprep_trace::json`]
//! reader and aggregates the drift across a whole sweep: worst-case PSI
//! per stage transition, the column that caused it, base-rate shift
//! ranges, and every drift warning the runs recorded — the "did any
//! seed's pipeline mangle the data" view next to the sweep's metric
//! tables. A transition's worst column is
//! [`DatasetDrift::max_psi`](fairprep_data::profile::DatasetDrift::max_psi),
//! the rule the run's own drift table uses.

use fairprep_data::profile::{ColumnDrift, DatasetDrift};
use fairprep_trace::json::{parse, Value};
use fairprep_trace::ProfileDiffRecord;

/// The profile section of one manifest, read back for aggregation.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileReport {
    /// Experiment name.
    pub experiment: String,
    /// Master seed of the run.
    pub seed: u64,
    /// One record per adjacent-snapshot diff, in lifecycle order.
    pub diffs: Vec<ProfileDiffRecord>,
    /// Drift warnings the run recorded.
    pub warnings: Vec<String>,
}

/// A number of a diff record; the writer's `null` (a non-finite value)
/// reads back as NaN.
fn number(value: Option<&Value>) -> f64 {
    value.and_then(Value::as_f64).unwrap_or(f64::NAN)
}

fn string(value: Option<&Value>) -> String {
    value.and_then(Value::as_str).unwrap_or("?").to_string()
}

/// Reads one entry of the section's `diffs` array.
fn parse_diff(diff: &Value) -> ProfileDiffRecord {
    let columns = diff
        .get("columns")
        .and_then(Value::as_object)
        .unwrap_or(&[])
        .iter()
        .map(|(name, col)| ColumnDrift {
            name: name.clone(),
            missing_delta: number(col.get("missing_delta")),
            psi: number(col.get("psi")),
        })
        .collect();
    ProfileDiffRecord {
        from: string(diff.get("from")),
        to: string(diff.get("to")),
        drift: DatasetDrift {
            row_delta: diff.get("row_delta").and_then(Value::as_f64).unwrap_or(0.0) as i64,
            privileged_share_delta: number(diff.get("privileged_share_delta")),
            base_rate_delta: number(diff.get("base_rate_delta")),
            privileged_base_rate_delta: number(diff.get("privileged_base_rate_delta")),
            unprivileged_base_rate_delta: number(diff.get("unprivileged_base_rate_delta")),
            columns,
        },
    }
}

/// Parses the JSON text of a run manifest written with `--profile` into a
/// [`ProfileReport`]. Errors when the manifest has no `profile` section.
pub fn parse_profile(text: &str) -> Result<ProfileReport, String> {
    let root = parse(text)?;
    let profile = root
        .get("profile")
        .ok_or_else(|| "manifest has no `profile` section (run with --profile)".to_string())?;
    let diffs = profile
        .get("diffs")
        .and_then(Value::as_array)
        .map(|diffs| diffs.iter().map(parse_diff).collect())
        .unwrap_or_default();
    let warnings = root
        .get("warnings")
        .and_then(Value::as_array)
        .map(|entries| {
            entries
                .iter()
                .filter_map(|v| v.as_str().map(ToString::to_string))
                .collect()
        })
        .unwrap_or_default();
    Ok(ProfileReport {
        experiment: string(root.get("experiment")),
        seed: root.get("seed").and_then(Value::as_u64).unwrap_or(0),
        diffs,
        warnings,
    })
}

/// Worst-case drift per stage transition across many reports: for every
/// `from->to` pair (first-seen order) the maximum PSI (with the column
/// and seed that produced it) and the extreme base-rate deltas.
#[derive(Debug, Clone, PartialEq)]
pub struct AggregateDrift {
    /// `from->to` transition label.
    pub transition: String,
    /// Number of runs that recorded the transition.
    pub runs: usize,
    /// Largest PSI any run saw on the transition.
    pub worst_psi: f64,
    /// Column behind `worst_psi`.
    pub worst_psi_column: String,
    /// Seed of the run behind `worst_psi`.
    pub worst_psi_seed: u64,
    /// Largest absolute overall base-rate shift any run saw.
    pub worst_base_rate_delta: f64,
}

/// Aggregates drift across reports, keyed by transition in first-seen
/// order.
#[must_use]
pub fn aggregate_drift(reports: &[ProfileReport]) -> Vec<AggregateDrift> {
    let mut out: Vec<AggregateDrift> = Vec::new();
    for report in reports {
        for diff in &report.diffs {
            let label = format!("{}->{}", diff.from, diff.to);
            let slot = match out.iter_mut().find(|a| a.transition == label) {
                Some(slot) => slot,
                None => {
                    out.push(AggregateDrift {
                        transition: label,
                        runs: 0,
                        worst_psi: f64::NEG_INFINITY,
                        worst_psi_column: String::new(),
                        worst_psi_seed: 0,
                        worst_base_rate_delta: 0.0,
                    });
                    out.last_mut().expect("just pushed")
                }
            };
            slot.runs += 1;
            // A run where nothing drifted counts as PSI 0 with no column.
            let (psi, column) = diff
                .drift
                .max_psi()
                .map_or((0.0, ""), |c| (c.psi, c.name.as_str()));
            if psi > slot.worst_psi {
                slot.worst_psi = psi;
                slot.worst_psi_column = column.to_string();
                slot.worst_psi_seed = report.seed;
            }
            if diff.drift.base_rate_delta.abs() > slot.worst_base_rate_delta.abs() {
                slot.worst_base_rate_delta = diff.drift.base_rate_delta;
            }
        }
    }
    out
}

/// Renders the aggregate drift as an aligned table.
#[must_use]
pub fn render_aggregate(aggregates: &[AggregateDrift]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<36} {:>5} {:>9} {:<16} {:>10} {:>13}\n",
        "transition", "runs", "worst_psi", "psi_column", "psi_seed", "worst_Δbase"
    ));
    for a in aggregates {
        out.push_str(&format!(
            "{:<36} {:>5} {:>9.3} {:<16} {:>10} {:>+13.3}\n",
            a.transition,
            a.runs,
            a.worst_psi,
            if a.worst_psi_column.is_empty() {
                "-"
            } else {
                &a.worst_psi_column
            },
            a.worst_psi_seed,
            a.worst_base_rate_delta,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manifest(seed: u64, psi: f64, base_delta: f64) -> String {
        format!(
            r#"{{
  "experiment": "payment",
  "seed": {seed},
  "profile": {{
    "snapshots": [],
    "diffs": [
      {{
        "from": "raw",
        "to": "train_split",
        "row_delta": -90,
        "base_rate_delta": {base_delta},
        "privileged_base_rate_delta": 0.01,
        "unprivileged_base_rate_delta": -0.02,
        "columns": {{
          "age": {{"missing_delta": 0.0, "psi": {psi}}},
          "job": {{"missing_delta": 0.0, "psi": 0.01}}
        }}
      }}
    ]
  }},
  "warnings": ["drift raw->train_split: column `age` PSI 0.300 >= 0.2"]
}}"#
        )
    }

    #[test]
    fn parses_profile_section() {
        let report = parse_profile(&manifest(7, 0.3, 0.06)).unwrap();
        assert_eq!(report.experiment, "payment");
        assert_eq!(report.seed, 7);
        assert_eq!(report.diffs.len(), 1);
        let d = &report.diffs[0];
        assert_eq!(d.from, "raw");
        assert_eq!(d.drift.row_delta, -90);
        let worst = d.drift.max_psi().unwrap();
        assert!((worst.psi - 0.3).abs() < 1e-12);
        assert_eq!(worst.name, "age");
        assert_eq!(report.warnings.len(), 1);
    }

    #[test]
    fn missing_profile_section_is_an_error() {
        let err = parse_profile(r#"{"experiment": "x", "seed": 1}"#).unwrap_err();
        assert!(err.contains("--profile"), "{err}");
    }

    #[test]
    fn aggregate_tracks_the_worst_run() {
        let reports = vec![
            parse_profile(&manifest(1, 0.10, 0.02)).unwrap(),
            parse_profile(&manifest(2, 0.45, -0.08)).unwrap(),
            parse_profile(&manifest(3, 0.20, 0.01)).unwrap(),
        ];
        let agg = aggregate_drift(&reports);
        assert_eq!(agg.len(), 1);
        assert_eq!(agg[0].transition, "raw->train_split");
        assert_eq!(agg[0].runs, 3);
        assert!((agg[0].worst_psi - 0.45).abs() < 1e-12);
        assert_eq!(agg[0].worst_psi_seed, 2);
        assert!((agg[0].worst_base_rate_delta - (-0.08)).abs() < 1e-12);
        let table = render_aggregate(&agg);
        assert!(table.contains("worst_psi"), "{table}");
        assert!(table.contains("age"), "{table}");
    }
}
