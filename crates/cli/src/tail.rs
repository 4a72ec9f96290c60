//! `fairprep tail` — live rendering of the telemetry JSONL streams.
//!
//! All structured event logs the framework writes are line-oriented
//! JSON: sweep progress heartbeats (`sweep --progress PATH`), serve
//! access records (`serve --access-log PATH`), and alert transitions
//! (`serve --alerts SPECS`). `fairprep tail --file PATH` renders any of
//! these streams human-readably, following the file as it grows (200ms
//! polls) until the producer writes a terminal `done` event or the
//! process is killed; `--once` renders what is currently in the file
//! and exits, which is what scripts and CI use.
//!
//! Following is incremental: the reader seeks to the last consumed byte
//! offset and reads only what the producer appended since the previous
//! poll, so a long-running access log costs O(new bytes) per poll, not
//! O(file). If the file shrinks — truncation or rotation — the reader
//! prints a notice and restarts from offset 0 instead of stalling.
//!
//! Torn trailing lines — a producer killed mid-write — are never
//! rendered: only newline-terminated lines are consumed, exactly like
//! the sweep journal reader discards its torn tail.

use crate::args::Invocation;
use fairprep_trace::json::{parse, Value};
use std::io::{Read as _, Seek as _, SeekFrom, Write};
use std::path::Path;

/// Poll interval while following a growing file.
const POLL_MS: u64 = 200;

/// Renders one JSONL telemetry line for humans. Unknown events and
/// non-JSON lines pass through untouched, so the command never hides
/// information it does not understand.
fn render_line(line: &str) -> String {
    let Ok(value) = parse(line) else {
        return line.to_string();
    };
    let u = |key: &str| value.get(key).and_then(Value::as_u64_any).unwrap_or(0);
    let s = |key: &str| value.get(key).and_then(Value::as_str).unwrap_or("-");
    let secs = |ms: u64| format!("{:.1}s", ms as f64 / 1000.0);
    match value.get("event").and_then(Value::as_str) {
        Some("start") => format!("sweep started: {} job(s)", u("total")),
        Some("heartbeat") => {
            let ok = value.get("ok").and_then(Value::as_bool).unwrap_or(false);
            // `done` already counts every finished job, failures
            // included — adding `failed` on top would double-count.
            let mut line = format!(
                "[{}/{}] seed {} {}",
                u("done"),
                u("total"),
                u("seed"),
                if ok { "ok" } else { "FAILED" }
            );
            if value.get("reused").and_then(Value::as_bool) == Some(true) {
                line.push_str(" (reused)");
            }
            let retried = u("retried");
            if retried > 0 {
                line.push_str(&format!(" retried={retried}"));
            }
            line.push_str(&format!(" elapsed={}", secs(u("elapsed_ms"))));
            if let Some(eta) = value.get("eta_ms").and_then(Value::as_u64_any) {
                line.push_str(&format!(" eta={}", secs(eta)));
            }
            line
        }
        // `done` is total finished jobs; the ok-count is done - failed.
        Some("done") => format!(
            "sweep done: {} ok / {} failed / {} retried in {}",
            u("done").saturating_sub(u("failed")),
            u("failed"),
            u("retried"),
            secs(u("elapsed_ms"))
        ),
        Some("access") => format!(
            "#{} [worker {}] {} {} -> {} in {}us (read {}us, handle {}us, write {}us)",
            u("id"),
            u("worker"),
            s("method"),
            s("path"),
            u("status"),
            u("latency_us"),
            u("read_us"),
            u("handle_us"),
            u("write_us")
        ),
        Some("alert") => {
            let state = s("state");
            let mut line = format!(
                "ALERT {} {}: {}",
                s("name"),
                if state == "firing" { "FIRING" } else { state },
                s("metric")
            );
            if let Some(column) = value.get("column").and_then(Value::as_str) {
                line.push_str(&format!("({column})"));
            }
            line.push_str(&format!(" window={}", s("window")));
            match value.get("value").and_then(Value::as_f64) {
                Some(v) => line.push_str(&format!(" value={v:.4}")),
                None => line.push_str(" value=undefined"),
            }
            if let (Some(trip), Some(clear)) = (
                value.get("trip").and_then(Value::as_f64),
                value.get("clear").and_then(Value::as_f64),
            ) {
                line.push_str(&format!(" trip={trip:.4} clear={clear:.4}"));
            }
            line.push_str(&format!(" pipeline={}", s("pipeline")));
            line
        }
        _ => line.to_string(),
    }
}

/// `true` when the line is a terminal event — following stops here.
fn is_done_event(line: &str) -> bool {
    parse(line)
        .ok()
        .and_then(|v| {
            v.get("event")
                .and_then(|e| e.as_str().map(ToString::to_string))
        })
        .as_deref()
        == Some("done")
}

/// `fairprep tail --file PATH [--once]`.
pub fn cmd_tail(inv: &Invocation) -> Result<(), String> {
    let path = std::path::PathBuf::from(inv.require("file")?);
    let once = inv.flag("once");
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    tail_stream(&path, once, &mut out)
}

/// The tail loop, writing rendered lines to `out`. Incremental: tracks
/// the consumed byte offset and reads only appended bytes each poll;
/// a shrinking file (truncation/rotation) restarts from offset 0 with
/// a notice line instead of stalling forever.
fn tail_stream(path: &Path, once: bool, out: &mut dyn Write) -> Result<(), String> {
    let mut consumed: u64 = 0;
    // Bytes read from the file but not yet newline-terminated.
    let mut pending: Vec<u8> = Vec::new();
    loop {
        let mut file = match std::fs::File::open(path) {
            Ok(file) => file,
            Err(e) if once => return Err(format!("cannot read {}: {e}", path.display())),
            // Following a file the producer has not created yet: wait.
            Err(_) => {
                std::thread::sleep(std::time::Duration::from_millis(POLL_MS));
                continue;
            }
        };
        let len = file.metadata().map(|m| m.len()).unwrap_or(0);
        if len < consumed {
            let notice = format!(
                "tail: {} shrank ({consumed} -> {len} bytes); restarting from offset 0",
                path.display()
            );
            // A closed downstream pipe (`fairprep tail | head`) is a
            // normal way to stop following, not an error.
            if writeln!(out, "{notice}").is_err() {
                return Ok(());
            }
            consumed = 0;
            pending.clear();
        }
        if len > consumed && file.seek(SeekFrom::Start(consumed)).is_ok() {
            // Cap the read at the observed length so a racing writer
            // cannot make this poll read unboundedly.
            let mut fresh = Vec::new();
            match file.take(len - consumed).read_to_end(&mut fresh) {
                Ok(read) => {
                    consumed += read as u64;
                    pending.extend_from_slice(&fresh);
                }
                Err(e) if once => {
                    return Err(format!("cannot read {}: {e}", path.display()));
                }
                Err(_) => {}
            }
        }
        // Render complete lines; a torn tail stays pending for the
        // next poll.
        let complete = pending
            .iter()
            .rposition(|&b| b == b'\n')
            .map_or(0, |i| i + 1);
        let mut finished = false;
        let text = String::from_utf8_lossy(pending.get(..complete).unwrap_or(&[])).into_owned();
        for line in text.lines() {
            if line.trim().is_empty() {
                continue;
            }
            if writeln!(out, "{}", render_line(line)).is_err() {
                return Ok(());
            }
            if is_done_event(line) {
                finished = true;
            }
        }
        pending.drain(..complete);
        if once || finished {
            return Ok(());
        }
        std::thread::sleep(std::time::Duration::from_millis(POLL_MS));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_every_event_kind() {
        let heartbeat = r#"{"event":"heartbeat","seed":"7","ok":true,"reused":true,"done":"2","failed":"0","retried":"1","total":"4","elapsed_ms":"1500","eta_ms":"1500"}"#;
        let line = render_line(heartbeat);
        assert!(line.contains("[2/4]"), "{line}");
        assert!(line.contains("seed 7 ok (reused)"), "{line}");
        assert!(line.contains("retried=1"), "{line}");
        assert!(line.contains("elapsed=1.5s"), "{line}");
        assert!(line.contains("eta=1.5s"), "{line}");

        let start = render_line(r#"{"event":"start","total":"4"}"#);
        assert_eq!(start, "sweep started: 4 job(s)");

        // `done` counts all finished jobs (failures included): 4
        // finished with 1 failure means 3 ok.
        let done = render_line(
            r#"{"event":"done","done":"4","failed":"1","retried":"0","total":"4","elapsed_ms":"2000"}"#,
        );
        assert_eq!(done, "sweep done: 3 ok / 1 failed / 0 retried in 2.0s");

        let access = render_line(
            r#"{"event":"access","id":"12","worker":"3","method":"POST","path":"/predict/x","status":"200","latency_us":"850","read_us":"10","handle_us":"800","write_us":"40"}"#,
        );
        assert!(
            access.contains("#12 [worker 3] POST /predict/x -> 200"),
            "{access}"
        );

        // Non-JSON and unknown events pass through untouched.
        assert_eq!(render_line("not json"), "not json");
        assert_eq!(
            render_line(r#"{"event":"custom"}"#),
            r#"{"event":"custom"}"#
        );
    }

    /// Regression: a sweep with failures must not double-count them.
    /// `done` already includes failed jobs, so 3 finished of 4 renders
    /// `[3/4]` (not `[4/4]`), and the terminal line derives the
    /// ok-count as `done - failed`.
    #[test]
    fn failed_jobs_are_not_double_counted() {
        let heartbeat = render_line(
            r#"{"event":"heartbeat","seed":"9","ok":false,"done":"3","failed":"1","retried":"0","total":"4","elapsed_ms":"100"}"#,
        );
        assert!(heartbeat.contains("[3/4]"), "{heartbeat}");
        assert!(heartbeat.contains("seed 9 FAILED"), "{heartbeat}");

        let done = render_line(
            r#"{"event":"done","done":"16","failed":"3","retried":"2","total":"16","elapsed_ms":"500"}"#,
        );
        assert_eq!(done, "sweep done: 13 ok / 3 failed / 2 retried in 0.5s");
    }

    #[test]
    fn renders_alert_events_distinctly() {
        let firing = render_line(
            r#"{"event":"alert","name":"age-drift","pipeline":"fnv1a64:abc","metric":"psi","column":"age","window":"1k","state":"firing","value":0.3417,"trip":0.2,"clear":0.1}"#,
        );
        assert!(
            firing.starts_with("ALERT age-drift FIRING: psi(age)"),
            "{firing}"
        );
        assert!(firing.contains("window=1k"), "{firing}");
        assert!(firing.contains("value=0.3417"), "{firing}");
        assert!(firing.contains("trip=0.2000 clear=0.1000"), "{firing}");
        assert!(firing.contains("pipeline=fnv1a64:abc"), "{firing}");

        let cleared = render_line(
            r#"{"event":"alert","name":"di-floor","pipeline":"fnv1a64:abc","metric":"disparate_impact","window":"10k","state":"cleared","value":null,"trip":0.8,"clear":0.9}"#,
        );
        assert!(
            cleared.starts_with("ALERT di-floor cleared: disparate_impact"),
            "{cleared}"
        );
        assert!(cleared.contains("value=undefined"), "{cleared}");
    }

    #[test]
    fn done_event_is_terminal() {
        assert!(is_done_event(r#"{"event":"done","done":"1"}"#));
        assert!(!is_done_event(r#"{"event":"heartbeat"}"#));
        assert!(!is_done_event("garbage"));
    }

    #[test]
    fn once_mode_renders_current_content_and_skips_torn_tail() {
        let dir = std::env::temp_dir().join("fairprep_tail_once_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("progress.jsonl");
        std::fs::write(
            &path,
            "{\"event\":\"start\",\"total\":\"2\"}\n{\"event\":\"heartbeat\",\"seed\":\"1\",\"ok\":true,\"done\":\"1\",\"failed\":\"0\",\"retried\":\"0\",\"total\":\"2\",\"elapsed_ms\":\"10\"}\n{\"event\":\"torn",
        )
        .unwrap();
        let inv = crate::args::parse(&[
            "tail".to_string(),
            "--file".to_string(),
            path.display().to_string(),
            "--once".to_string(),
        ])
        .unwrap();
        cmd_tail(&inv).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn once_mode_requires_the_file() {
        let inv = crate::args::parse(&[
            "tail".to_string(),
            "--file".to_string(),
            "/nonexistent/fairprep-tail.jsonl".to_string(),
            "--once".to_string(),
        ])
        .unwrap();
        assert!(cmd_tail(&inv).is_err());
    }

    /// Follow mode reads appended bytes incrementally and, when the
    /// file shrinks underneath it (truncation/rotation), prints a
    /// notice and restarts from offset 0 instead of stalling.
    #[test]
    fn follow_mode_reads_incrementally_and_recovers_from_truncation() {
        let dir =
            std::env::temp_dir().join(format!("fairprep_tail_follow_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("progress.jsonl");
        std::fs::write(
            &path,
            "{\"event\":\"start\",\"total\":\"3\"}\n{\"event\":\"heartbeat\",\"seed\":\"1\",\"ok\":true,\"done\":\"1\",\"failed\":\"0\",\"retried\":\"0\",\"total\":\"3\",\"elapsed_ms\":\"10\"}\n",
        )
        .unwrap();

        let writer_path = path.clone();
        let writer = std::thread::spawn(move || {
            let settle = std::time::Duration::from_millis(3 * POLL_MS);
            // Let the tailer consume generation one…
            std::thread::sleep(settle);
            // …then rotate: the replacement is shorter than what was
            // already consumed, which must trigger the restart path.
            std::fs::write(&writer_path, "{\"event\":\"start\",\"total\":\"1\"}\n").unwrap();
            std::thread::sleep(settle);
            // Append the terminal event so the tailer exits.
            let mut file = std::fs::OpenOptions::new()
                .append(true)
                .open(&writer_path)
                .unwrap();
            writeln!(
                file,
                "{{\"event\":\"done\",\"done\":\"1\",\"failed\":\"0\",\"retried\":\"0\",\"total\":\"1\",\"elapsed_ms\":\"20\"}}"
            )
            .unwrap();
        });

        let mut rendered = Vec::new();
        tail_stream(&path, false, &mut rendered).unwrap();
        writer.join().unwrap();
        let rendered = String::from_utf8(rendered).unwrap();

        // Generation one, the shrink notice, generation two, then done.
        assert!(rendered.contains("sweep started: 3 job(s)"), "{rendered}");
        assert!(rendered.contains("[1/3] seed 1 ok"), "{rendered}");
        assert!(
            rendered.contains("shrank") && rendered.contains("restarting from offset 0"),
            "{rendered}"
        );
        assert!(rendered.contains("sweep started: 1 job(s)"), "{rendered}");
        assert!(
            rendered.contains("sweep done: 1 ok / 0 failed"),
            "{rendered}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
