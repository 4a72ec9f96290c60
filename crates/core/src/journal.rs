//! Seed-keyed sweep journals: crash-safe checkpoint/resume for sweeps.
//!
//! A 1,344-run sweep (§5.1) that dies at run 1,300 — machine reboot, OOM
//! kill, ctrl-C — must not cost 1,300 completed runs. The sweep engine
//! appends one JSON line per finished `(configuration, seed)` job to a
//! journal file, flushed as soon as the job completes; a restarted sweep
//! opens the same journal, skips every journaled pair, and reruns only
//! what is missing. Because every run's randomness derives from its seed,
//! the merged output is bit-identical to an uninterrupted sweep.
//!
//! Each line carries the metric values twice: once as ordinary JSON
//! numbers for human eyes, and once as hexadecimal IEEE-754 bit patterns
//! (`bits`), which are what resume restores — exact to the last bit,
//! including NaN metrics (undefined F1 on a degenerate split) that plain
//! JSON cannot represent.
//!
//! A torn final line (the process died mid-write) is detected and
//! discarded on open; the interrupted job simply reruns.

use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read as _, Write as _};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, PoisonError};

use fairprep_data::error::{Error, Result};
use fairprep_trace::json::{self, Value};

/// One journaled job outcome: a `(configuration, seed)` pair plus its
/// result (metrics on success, the failure string otherwise).
#[derive(Debug, Clone, PartialEq)]
pub struct JournalEntry {
    /// Configuration fingerprint (see [`config_fingerprint`]). Entries
    /// with a different fingerprint are ignored by `lookup`, so one
    /// journal file can safely accumulate several sweep configurations.
    pub config: String,
    /// The run seed.
    pub seed: u64,
    /// `true` when the run completed; `false` when it failed terminally.
    pub ok: bool,
    /// Retry attempts consumed before this outcome (0 = first try).
    pub retries: u32,
    /// Test metrics of a completed run, sorted by name. Empty on failure.
    pub metrics: Vec<(String, f64)>,
    /// The failure string of a failed run. Empty on success.
    pub error: String,
}

impl JournalEntry {
    /// Renders the entry as one canonical JSON line (no trailing
    /// newline). Key order and float formatting are fixed, so the same
    /// outcome always serializes to the same bytes.
    #[must_use]
    pub fn to_line(&self) -> String {
        let mut out = String::with_capacity(128);
        out.push_str("{\"config\": ");
        json::write_escaped(&self.config, &mut out);
        out.push_str(&format!(", \"seed\": {}", self.seed));
        out.push_str(&format!(", \"ok\": {}", self.ok));
        out.push_str(&format!(", \"retries\": {}", self.retries));
        out.push_str(", \"metrics\": {");
        for (i, (name, value)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            json::write_escaped(name, &mut out);
            out.push_str(": ");
            // Same rendering as manifest floats: shortest roundtrip for
            // finite values, null for non-finite (bits below are exact).
            if value.is_finite() {
                out.push_str(&format!("{value:?}"));
            } else {
                out.push_str("null");
            }
        }
        out.push_str("}, \"bits\": {");
        for (i, (name, value)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            json::write_escaped(name, &mut out);
            out.push_str(&format!(": \"{:016x}\"", value.to_bits()));
        }
        out.push_str("}, \"error\": ");
        json::write_escaped(&self.error, &mut out);
        out.push('}');
        out
    }

    /// Parses one journal line. Returns a descriptive error for torn or
    /// malformed lines (the journal reader discards those).
    pub fn from_line(line: &str) -> std::result::Result<JournalEntry, String> {
        let v = json::parse(line)?;
        let config = v
            .get("config")
            .and_then(Value::as_str)
            .ok_or("missing config")?
            .to_string();
        let seed = v
            .get("seed")
            .and_then(Value::as_u64)
            .ok_or("missing seed")?;
        let ok = v.get("ok").and_then(Value::as_bool).ok_or("missing ok")?;
        let retries = v
            .get("retries")
            .and_then(Value::as_u64)
            .ok_or("missing retries")?;
        let retries = u32::try_from(retries).map_err(|_| "retries out of range".to_string())?;
        let error = v
            .get("error")
            .and_then(Value::as_str)
            .ok_or("missing error")?
            .to_string();
        // The hex bit patterns are authoritative; the readable `metrics`
        // object is for humans and may have lost NaN/precision.
        let bits = v
            .get("bits")
            .and_then(Value::as_object)
            .ok_or("missing bits")?;
        let mut metrics = Vec::with_capacity(bits.len());
        for (name, value) in bits {
            let hex = value.as_str().ok_or("bits value not a string")?;
            let raw = u64::from_str_radix(hex, 16).map_err(|_| format!("bad bits {hex:?}"))?;
            metrics.push((name.clone(), f64::from_bits(raw)));
        }
        Ok(JournalEntry {
            config,
            seed,
            ok,
            retries,
            metrics,
            error,
        })
    }
}

/// An append-only sweep journal bound to one file.
///
/// Opening reads every valid line into memory (for `lookup`) and keeps
/// the file open for appends. Appends are single `write` calls of one
/// full line each and are flushed immediately, so a killed process can
/// tear at most the line it was writing.
pub struct SweepJournal {
    path: PathBuf,
    entries: Vec<JournalEntry>,
    discarded: usize,
    writer: Mutex<BufWriter<File>>,
}

impl std::fmt::Debug for SweepJournal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SweepJournal")
            .field("path", &self.path)
            .field("entries", &self.entries.len())
            .field("discarded", &self.discarded)
            .finish()
    }
}

impl SweepJournal {
    /// Opens (creating if absent) the journal at `path`. Unparseable
    /// lines — a torn tail from a killed process, or unrelated garbage —
    /// are counted in [`SweepJournal::discarded_lines`] and skipped; the
    /// corresponding jobs will simply rerun.
    pub fn open(path: &Path) -> Result<SweepJournal> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let mut file = OpenOptions::new()
            .create(true)
            .read(true)
            .append(true)
            .open(path)?;
        let mut text = String::new();
        file.read_to_string(&mut text)
            .map_err(|e| Error::Io(format!("{}: {e}", path.display())))?;
        // Repair a torn tail (process killed mid-write): terminate it now
        // so the next append starts on a fresh line instead of merging
        // with the fragment.
        if !text.is_empty() && !text.ends_with('\n') {
            file.write_all(b"\n")
                .map_err(|e| Error::Io(format!("{}: {e}", path.display())))?;
        }
        let mut entries = Vec::new();
        let mut discarded = 0usize;
        for line in text.lines() {
            if line.trim().is_empty() {
                continue;
            }
            match JournalEntry::from_line(line) {
                Ok(entry) => entries.push(entry),
                Err(_) => discarded += 1,
            }
        }
        Ok(SweepJournal {
            path: path.to_path_buf(),
            entries,
            discarded,
            writer: Mutex::new(BufWriter::new(file)),
        })
    }

    /// The journal's file path.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Number of valid entries read at open time.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when the journal held no valid entries at open time.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of unparseable lines discarded at open time.
    #[must_use]
    pub fn discarded_lines(&self) -> usize {
        self.discarded
    }

    /// The journaled outcome for a `(configuration, seed)` pair, if the
    /// journal held one at open time. The **last** matching entry wins,
    /// mirroring append order.
    #[must_use]
    pub fn lookup(&self, config: &str, seed: u64) -> Option<&JournalEntry> {
        self.entries
            .iter()
            .rev()
            .find(|e| e.seed == seed && e.config == config)
    }

    /// Appends one entry and flushes it to disk. Safe to call from
    /// concurrent sweep jobs; each entry lands as one intact line.
    pub fn append(&self, entry: &JournalEntry) -> Result<()> {
        let mut line = entry.to_line();
        line.push('\n');
        let mut writer = self.writer.lock().unwrap_or_else(PoisonError::into_inner);
        writer
            .write_all(line.as_bytes())
            .and_then(|()| writer.flush())
            .map_err(|e| Error::Io(format!("{}: {e}", self.path.display())))
    }
}

/// Fingerprints a sweep configuration descriptor (FNV-1a 64, same
/// rendering as the manifest's metric digest). Journals key entries by
/// this so a journal written for one configuration can never satisfy a
/// resume of a different one.
#[must_use]
pub fn config_fingerprint(descriptor: &str) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in descriptor.as_bytes() {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("fnv1a64:{hash:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(seed: u64) -> JournalEntry {
        JournalEntry {
            config: config_fingerprint("german|dt|none"),
            seed,
            ok: true,
            retries: 1,
            metrics: vec![
                ("accuracy".to_string(), 0.748_123_456_789_01),
                ("f1".to_string(), f64::NAN),
            ],
            error: String::new(),
        }
    }

    #[test]
    fn lines_roundtrip_bit_exactly_including_nan() {
        let e = entry(46947);
        let line = e.to_line();
        assert!(!line.contains('\n'));
        let back = JournalEntry::from_line(&line).unwrap();
        assert_eq!(back.config, e.config);
        assert_eq!(back.seed, e.seed);
        assert_eq!(back.retries, 1);
        assert_eq!(back.metrics.len(), 2);
        for ((na, va), (nb, vb)) in e.metrics.iter().zip(&back.metrics) {
            assert_eq!(na, nb);
            assert_eq!(va.to_bits(), vb.to_bits(), "{na} not bit-exact");
        }
        // The readable projection renders NaN as null but keeps it in bits.
        assert!(line.contains("\"f1\": null"));
        assert!(back.metrics[1].1.is_nan());
    }

    #[test]
    fn failed_entries_carry_the_error_string() {
        let e = JournalEntry {
            config: config_fingerprint("x"),
            seed: 3,
            ok: false,
            retries: 2,
            metrics: Vec::new(),
            error: "panic: injected fault: stage train, seed 3, attempt 2".to_string(),
        };
        let back = JournalEntry::from_line(&e.to_line()).unwrap();
        assert_eq!(back, e);
    }

    #[test]
    fn serialization_is_deterministic() {
        assert_eq!(entry(5).to_line(), entry(5).to_line());
    }

    #[test]
    fn open_append_reopen_lookup() {
        let dir = std::env::temp_dir().join(format!("fairprep-journal-{}", std::process::id()));
        let path = dir.join("sweep.journal.jsonl");
        let _ = std::fs::remove_file(&path);
        {
            let journal = SweepJournal::open(&path).unwrap();
            assert!(journal.is_empty());
            journal.append(&entry(1)).unwrap();
            journal.append(&entry(2)).unwrap();
        }
        let journal = SweepJournal::open(&path).unwrap();
        assert_eq!(journal.len(), 2);
        assert_eq!(journal.discarded_lines(), 0);
        let config = config_fingerprint("german|dt|none");
        assert!(journal.lookup(&config, 1).is_some());
        assert!(journal.lookup(&config, 9).is_none());
        // A different configuration never matches, even on the same seed.
        assert!(journal.lookup(&config_fingerprint("other"), 1).is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_is_discarded_not_fatal() {
        let dir = std::env::temp_dir().join(format!("fairprep-torn-{}", std::process::id()));
        let path = dir.join("sweep.journal.jsonl");
        let _ = std::fs::remove_file(&path);
        {
            let journal = SweepJournal::open(&path).unwrap();
            journal.append(&entry(1)).unwrap();
        }
        // Simulate a kill mid-write: append half a line.
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("{\"config\": \"fnv1a64:dead");
        std::fs::write(&path, text).unwrap();
        let journal = SweepJournal::open(&path).unwrap();
        assert_eq!(journal.len(), 1);
        assert_eq!(journal.discarded_lines(), 1);
        // Opening repaired the torn tail, so this append starts on a
        // fresh line instead of merging with the fragment.
        journal.append(&entry(2)).unwrap();
        drop(journal);
        let journal = SweepJournal::open(&path).unwrap();
        assert_eq!(journal.len(), 2);
        assert_eq!(journal.discarded_lines(), 1);
        let config = config_fingerprint("german|dt|none");
        assert!(journal.lookup(&config, 2).is_some());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fingerprints_differ_per_descriptor() {
        assert_ne!(config_fingerprint("a"), config_fingerprint("b"));
        assert!(config_fingerprint("a").starts_with("fnv1a64:"));
    }
}
