//! Schema and sanity checks for the microbenchmark baselines,
//! `BENCH_kernels.json` and `BENCH_telemetry.json`.
//!
//! Each harness checks the file it has just written, so a CI run checks
//! fresh output. A tier-1 test checks the committed copies under
//! `results/` with `committed` set, which adds what a baseline must also
//! be: a release build and, for telemetry, a full run.

use fairprep_trace::json::{self, Value};

/// Checks the text of a `BENCH_kernels.json`: at least one scale, each
/// with `rows >= 1`, the `dot` and `take_rows` rows, and a positive
/// `median_secs` and `speedup` on every row.
pub fn kernels(text: &str, committed: bool) -> Result<(), String> {
    let doc = header(text, "kernels", committed)?;
    let scales = array(&doc, "scales")?;
    if scales.is_empty() {
        return Err("at least one scale is required".to_string());
    }
    for scale in scales {
        let rows = number(scale, "rows")?;
        if rows < 1.0 {
            return Err(format!("a scale has {rows} rows"));
        }
        let kernels = array(scale, "kernels")?;
        for required in ["dot", "take_rows"] {
            if !kernels
                .iter()
                .any(|k| k.get("name").and_then(Value::as_str) == Some(required))
            {
                return Err(format!("scale {rows}: missing kernel {required}"));
            }
        }
        for kernel in kernels {
            for key in ["median_secs", "speedup"] {
                positive(kernel, key).map_err(|e| format!("scale {rows}: {e}"))?;
            }
        }
    }
    Ok(())
}

/// Checks the text of a `BENCH_telemetry.json`: at least a million
/// recorded ops, four positive ns/op figures, and a sharded-counter
/// overhead under the 2× budget. A committed file must be a full run.
pub fn telemetry(text: &str, committed: bool) -> Result<(), String> {
    let doc = header(text, "telemetry", committed)?;
    if committed && doc.get("quick").and_then(Value::as_bool) != Some(false) {
        return Err("a committed baseline must come from a full run".to_string());
    }
    let record = doc
        .get("record_path")
        .ok_or_else(|| "missing record_path".to_string())?;
    let ops = number(record, "ops")?;
    if ops < 1_000_000.0 {
        return Err(format!("record_path.ops is {ops}, below 1,000,000"));
    }
    for key in [
        "bare_atomic_ns_per_op",
        "sharded_counter_ns_per_op",
        "sharded_histogram_ns_per_op",
        "ring_window_ns_per_op",
    ] {
        positive(record, key)?;
    }
    let budget = number(record, "budget_ratio")?;
    if budget != 2.0 {
        return Err(format!("budget_ratio is {budget}, not 2.0"));
    }
    let overhead = number(record, "counter_overhead_ratio")?;
    if overhead >= budget {
        return Err(format!(
            "record overhead {overhead}x is over the {budget}x budget"
        ));
    }
    Ok(())
}

/// Parses `text` and checks what every baseline records: its `bench`
/// name, `available_cores` (an integer >= 1) and `build_profile` (debug
/// or release, and release when committed).
fn header(text: &str, bench: &str, committed: bool) -> Result<Value, String> {
    let doc = json::parse(text)?;
    let name = doc.get("bench").and_then(Value::as_str);
    if name != Some(bench) {
        return Err(format!("bench is {name:?}, expected {bench:?}"));
    }
    match doc.get("available_cores").and_then(Value::as_u64) {
        Some(cores) if cores >= 1 => {}
        _ => return Err("available_cores must be an integer >= 1".to_string()),
    }
    match doc.get("build_profile").and_then(Value::as_str) {
        Some("release") => Ok(doc),
        Some("debug") if committed => {
            Err("committed baselines must come from release builds".to_string())
        }
        Some("debug") => Ok(doc),
        other => Err(format!(
            "build_profile {other:?} is neither debug nor release"
        )),
    }
}

fn number(value: &Value, key: &str) -> Result<f64, String> {
    value
        .get(key)
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("missing number {key}"))
}

fn positive(value: &Value, key: &str) -> Result<(), String> {
    let v = number(value, key)?;
    if v > 0.0 {
        Ok(())
    } else {
        Err(format!("{key} is {v}, not positive"))
    }
}

fn array<'a>(value: &'a Value, key: &str) -> Result<&'a [Value], String> {
    value
        .get(key)
        .and_then(Value::as_array)
        .ok_or_else(|| format!("missing array {key}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    const KERNELS: &str = r#"{"bench": "kernels", "available_cores": 2,
        "build_profile": "release", "quick": true, "scales": [{"rows": 32768, "kernels": [
        {"name": "dot", "median_secs": 0.5, "baseline": "dot_ref", "speedup": 2.6},
        {"name": "take_rows", "median_secs": 0.5, "baseline": "take_rows_ref", "speedup": 9.1}
        ]}]}"#;

    const TELEMETRY: &str = r#"{"bench": "telemetry", "available_cores": 2,
        "build_profile": "release", "quick": false, "record_path": {"ops": 20000000,
        "bare_atomic_ns_per_op": 11.9, "sharded_counter_ns_per_op": 9.2,
        "sharded_histogram_ns_per_op": 29.7, "ring_window_ns_per_op": 16.6,
        "counter_overhead_ratio": 0.775, "budget_ratio": 2.0}}"#;

    #[test]
    fn committed_baselines_pass() {
        kernels(include_str!("../../../results/BENCH_kernels.json"), true).unwrap();
        telemetry(include_str!("../../../results/BENCH_telemetry.json"), true).unwrap();
    }

    type Edit = (&'static str, &'static str, bool);

    /// Applies each `(from, to, committed)` edit to `valid` and expects
    /// `check` to reject the result; an edit that only a committed file
    /// may not carry must still pass the fresh check.
    fn rejects(check: fn(&str, bool) -> Result<(), String>, valid: &str, edits: &[Edit]) {
        check(valid, true).unwrap();
        for &(from, to, committed) in edits {
            let broken = valid.replacen(from, to, 1);
            assert_ne!(broken, valid, "{from} not found");
            assert!(check(&broken, committed).is_err(), "{to} was accepted");
            if committed {
                check(&broken, false).unwrap();
            }
        }
    }

    #[test]
    fn kernels_rejects_each_violation() {
        rejects(
            kernels,
            KERNELS,
            &[
                (r#""kernels""#, r#""telemetry""#, false),
                (r#"cores": 2"#, r#"cores": 0"#, false),
                (r#"cores": 2"#, r#"cores": 1.5"#, false),
                (r#""release""#, r#""fast""#, false),
                (r#""release""#, r#""debug""#, true),
                (r#"[{"rows"#, r#"[], "x": [{"rows"#, false),
                ("32768", "0", false),
                (r#""take_rows""#, r#""gather""#, false),
                ("2.6", "0", false),
                ("0.5", "-1", false),
            ],
        );
    }

    #[test]
    fn telemetry_rejects_each_violation() {
        rejects(
            telemetry,
            TELEMETRY,
            &[
                (r#""telemetry""#, r#""kernels""#, false),
                (r#""release""#, r#""debug""#, true),
                ("false", "true", true),
                ("20000000", "999999", false),
                ("16.6", "0", false),
                ("0.775", "2.0", false),
                (r#"budget_ratio": 2.0"#, r#"budget_ratio": 3.0"#, false),
            ],
        );
    }
}
