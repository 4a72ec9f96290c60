//! `fairprep generate` into a pipe whose reader stops early, as in
//! `fairprep generate --dataset adult | head -1`: the command stops
//! writing and exits 0 with nothing on stderr.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

const FAIRPREP: &str = env!("CARGO_BIN_EXE_fairprep");

#[test]
fn generate_stops_quietly_when_its_reader_closes_the_pipe() {
    // About 600 KB of CSV: far more than a pipe buffer holds, so the
    // writer is still writing when the pipe closes.
    let mut child = Command::new(FAIRPREP)
        .args(["generate", "--dataset", "adult", "--rows", "5000"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    let mut header = String::new();
    stdout.read_line(&mut header).unwrap();
    assert!(header.starts_with("age,"), "{header:?}");
    drop(stdout);
    let output = child.wait_with_output().unwrap();
    assert!(
        output.status.success(),
        "exit {:?}: {}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    assert!(
        output.stderr.is_empty(),
        "{}",
        String::from_utf8_lossy(&output.stderr)
    );
}
