//! The fault-injection scenario of the `fairprep` binary: a sweep on
//! four threads whose `split` stage panics in about half the runs must
//! exit cleanly, record the failures in its manifest, and resume from
//! its own journal to the same manifest.

use std::path::Path;
use std::process::Command;

use fairprep_trace::json::{parse, Value};

const FAIRPREP: &str = env!("CARGO_BIN_EXE_fairprep");

/// Runs the faulted sweep against `journal`, writing its manifest to
/// `manifest`, and returns the manifest text.
fn faulted_sweep(journal: &Path, manifest: &Path) -> String {
    let output = Command::new(FAIRPREP)
        .args(["sweep", "--dataset", "german", "--rows", "150"])
        .args(["--learner", "dt", "--seeds", "6", "--threads", "4"])
        .args(["--inject-faults", "split:0.5:panic"])
        .arg("--resume")
        .arg(journal)
        .arg("--trace")
        .arg(manifest)
        .output()
        .unwrap();
    assert!(
        output.status.success(),
        "the faulted sweep failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    std::fs::read_to_string(manifest).unwrap()
}

/// The manifest without its `timing` section, the one part that may
/// differ between runs.
fn without_timing(text: &str) -> Value {
    match parse(text).unwrap() {
        Value::Obj(members) => {
            Value::Obj(members.into_iter().filter(|(k, _)| k != "timing").collect())
        }
        other => panic!("the manifest is not an object: {other:?}"),
    }
}

#[test]
fn faulted_sweep_exits_cleanly_records_failures_and_resumes_identically() {
    let dir = std::env::temp_dir().join(format!("fairprep_cli_faults_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let journal = dir.join("fault.journal.jsonl");

    let first = faulted_sweep(&journal, &dir.join("fault-manifest-1.json"));
    let failed = first
        .split("\"jobs_failed\": ")
        .nth(1)
        .and_then(|rest| rest.bytes().next());
    assert!(
        matches!(failed, Some(b'1'..=b'9')),
        "the manifest records no failed job: {first}"
    );
    assert!(first.contains("injected fault"), "{first}");

    let second = faulted_sweep(&journal, &dir.join("fault-manifest-2.json"));
    assert_eq!(
        without_timing(&first),
        without_timing(&second),
        "the resumed manifest differs from the original"
    );
    std::fs::remove_dir_all(&dir).ok();
}
