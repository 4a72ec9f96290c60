//! The `fairprep-audit` binary answers a hostile baseline file with its
//! documented exit code. It runs as a child process, because a stack
//! overflow aborts the whole process and no in-process test survives it.

use std::process::Command;

/// A baseline of 200,000 `[` must be rejected as malformed (exit 2), not
/// overflow the parser's stack (an abort, exit 134).
#[test]
fn deeply_nested_baseline_exits_2() {
    let dir = std::env::temp_dir().join(format!("fairprep_audit_deep_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let baseline = dir.join("deep.baseline.json");
    std::fs::write(&baseline, "[".repeat(200_000)).unwrap();
    let output = Command::new(env!("CARGO_BIN_EXE_fairprep-audit"))
        .arg("--root")
        .arg(&dir)
        .arg("--baseline")
        .arg(&baseline)
        .output()
        .unwrap();
    std::fs::remove_dir_all(&dir).ok();
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("malformed baseline"), "{stderr}");
}
