//! Count-based finding baselines: ratchet files that let CI fail only on
//! *new* findings.
//!
//! A baseline maps `"<file>:<lint>"` to the number of findings of that
//! lint accepted in that file. When gating, the first `n` findings for a
//! key (in line order — diagnostics are already sorted) are marked
//! `baselined`; any surplus is `new` and fails the build. Keys whose
//! count exceeds what the tree still produces are reported as *stale* so
//! the baseline can be ratcheted down.
//!
//! Meta lints (`waiver-syntax`, `stale-waiver`) are never baselined:
//! they police the suppression machinery itself, and grandfathering them
//! would let the waiver ledger rot silently.
//!
//! The on-disk format is a tiny, stable JSON document written with
//! sorted keys so diffs stay reviewable:
//!
//! ```json
//! {
//!   "schema_version": 1,
//!   "entries": {
//!     "crates/ml/src/x.rs:unwrap": 2
//!   }
//! }
//! ```

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use fairprep_trace::json::{self, Value};

use crate::lints::Diagnostic;

/// On-disk schema version for `audit.baseline.json`.
pub const SCHEMA_VERSION: u64 = 1;

/// Lints that may never be baselined.
#[must_use]
pub fn is_meta_lint(lint: &str) -> bool {
    matches!(lint, "waiver-syntax" | "stale-waiver")
}

/// A loaded (or freshly captured) finding baseline.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Baseline {
    /// `"<file>:<lint>"` → accepted finding count.
    pub entries: BTreeMap<String, usize>,
}

/// One diagnostic after baseline gating.
#[derive(Debug, Clone)]
pub struct GatedFinding {
    /// The underlying diagnostic.
    pub diagnostic: Diagnostic,
    /// `true` when this finding is covered by the baseline.
    pub baselined: bool,
}

/// The outcome of gating a diagnostic list against a baseline.
#[derive(Debug, Default)]
pub struct GatedReport {
    /// Every finding, in the input order, tagged new/baselined.
    pub findings: Vec<GatedFinding>,
    /// Baseline keys whose accepted count exceeds what the tree still
    /// produces (candidates for ratcheting the baseline down).
    pub stale_keys: Vec<String>,
}

impl GatedReport {
    /// Number of findings not covered by the baseline.
    #[must_use]
    pub fn new_count(&self) -> usize {
        self.findings.iter().filter(|f| !f.baselined).count()
    }

    /// Number of findings absorbed by the baseline.
    #[must_use]
    pub fn baselined_count(&self) -> usize {
        self.findings.len() - self.new_count()
    }
}

impl Baseline {
    /// Captures a baseline from a diagnostic list, skipping meta lints.
    #[must_use]
    pub fn capture(diags: &[Diagnostic]) -> Self {
        let mut entries: BTreeMap<String, usize> = BTreeMap::new();
        for d in diags {
            if is_meta_lint(d.lint) {
                continue;
            }
            *entries.entry(format!("{}:{}", d.file, d.lint)).or_insert(0) += 1;
        }
        Baseline { entries }
    }

    /// Loads a baseline file.
    ///
    /// # Errors
    /// Returns a message when the file is unreadable or malformed.
    pub fn load(path: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read baseline {}: {e}", path.display()))?;
        Self::parse(&text).map_err(|e| format!("malformed baseline {}: {e}", path.display()))
    }

    /// Parses the baseline JSON document.
    ///
    /// # Errors
    /// Returns a message describing the first syntax or schema problem.
    pub fn parse(text: &str) -> Result<Self, String> {
        let top = json::parse(text)?;
        if top.as_object().is_none() {
            return Err("top level must be an object".to_string());
        }
        let version = top.get("schema_version").ok_or("missing schema_version")?;
        if version.as_u64() != Some(SCHEMA_VERSION) {
            return Err(format!(
                "unsupported schema_version (want {SCHEMA_VERSION})"
            ));
        }
        let pairs = top
            .get("entries")
            .ok_or("missing entries")?
            .as_object()
            .ok_or("entries must be an object")?;
        let mut entries = BTreeMap::new();
        for (key, v) in pairs {
            let Value::Num(n) = v else {
                return Err(format!("entry `{key}` must be a number"));
            };
            if *n < 0.0 || n.fract() != 0.0 {
                return Err(format!("entry `{key}` must be a non-negative integer"));
            }
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            entries.insert(key.clone(), *n as usize);
        }
        Ok(Baseline { entries })
    }

    /// Serializes to the canonical sorted-key JSON document.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n  \"schema_version\": 1,\n  \"entries\": {");
        let mut first = true;
        for (key, count) in &self.entries {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str("\n    ");
            json::write_escaped(key, &mut out);
            let _ = write!(out, ": {count}");
        }
        if !self.entries.is_empty() {
            out.push('\n');
            out.push_str("  ");
        }
        out.push_str("}\n}\n");
        out
    }

    /// Splits `diags` into baselined and new findings. For each
    /// `file:lint` key the first `n` findings (input order) are
    /// absorbed; the rest are new.
    #[must_use]
    pub fn gate(&self, diags: &[Diagnostic]) -> GatedReport {
        let mut remaining: BTreeMap<&str, usize> =
            self.entries.iter().map(|(k, &v)| (k.as_str(), v)).collect();
        let mut findings = Vec::with_capacity(diags.len());
        for d in diags {
            let key = format!("{}:{}", d.file, d.lint);
            let baselined = !is_meta_lint(d.lint)
                && match remaining.get_mut(key.as_str()) {
                    Some(n) if *n > 0 => {
                        *n -= 1;
                        true
                    }
                    _ => false,
                };
            findings.push(GatedFinding {
                diagnostic: d.clone(),
                baselined,
            });
        }
        let stale_keys = remaining
            .into_iter()
            .filter(|&(_, n)| n > 0)
            .map(|(k, _)| k.to_string())
            .collect();
        GatedReport {
            findings,
            stale_keys,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag(file: &str, lint: &'static str, line: u32) -> Diagnostic {
        Diagnostic {
            lint,
            file: file.to_string(),
            line,
            message: String::new(),
        }
    }

    #[test]
    fn capture_and_roundtrip() {
        let diags = vec![
            diag("a.rs", "unwrap", 3),
            diag("a.rs", "unwrap", 9),
            diag("b.rs", "panic", 1),
            diag("b.rs", "waiver-syntax", 2), // meta: never baselined
        ];
        let base = Baseline::capture(&diags);
        assert_eq!(base.entries.get("a.rs:unwrap"), Some(&2));
        assert_eq!(base.entries.get("b.rs:panic"), Some(&1));
        assert!(!base.entries.contains_key("b.rs:waiver-syntax"));
        let parsed = Baseline::parse(&base.to_json()).expect("roundtrip");
        assert_eq!(parsed, base);
    }

    #[test]
    fn gate_absorbs_first_n_and_flags_surplus() {
        let mut base = Baseline::default();
        base.entries.insert("a.rs:unwrap".to_string(), 1);
        let diags = vec![diag("a.rs", "unwrap", 3), diag("a.rs", "unwrap", 9)];
        let gated = base.gate(&diags);
        assert_eq!(gated.baselined_count(), 1);
        assert_eq!(gated.new_count(), 1);
        assert!(gated.findings[0].baselined);
        assert!(!gated.findings[1].baselined);
        assert!(gated.stale_keys.is_empty());
    }

    #[test]
    fn gate_reports_stale_keys_and_never_absorbs_meta() {
        let mut base = Baseline::default();
        base.entries.insert("gone.rs:unwrap".to_string(), 2);
        base.entries.insert("a.rs:waiver-syntax".to_string(), 1);
        let diags = vec![diag("a.rs", "waiver-syntax", 2)];
        let gated = base.gate(&diags);
        assert_eq!(gated.new_count(), 1, "meta lints are never baselined");
        assert_eq!(
            gated.stale_keys,
            vec![
                "a.rs:waiver-syntax".to_string(),
                "gone.rs:unwrap".to_string()
            ]
        );
    }

    #[test]
    fn parse_rejects_bad_documents() {
        assert!(Baseline::parse("[]").is_err());
        assert!(Baseline::parse("{\"entries\": {}}").is_err());
        assert!(Baseline::parse("{\"schema_version\": 9, \"entries\": {}}").is_err());
        assert!(Baseline::parse("{\"schema_version\": 1, \"entries\": {\"k\": -1}}").is_err());
        assert!(Baseline::parse("{\"schema_version\": 1, \"entries\": {}} x").is_err());
        assert!(Baseline::parse(&"[".repeat(200_000)).is_err());
    }

    #[test]
    fn json_escape_handles_controls() {
        let mut base = Baseline::default();
        base.entries
            .insert("a\"b\\c\n\u{1}.rs:unwrap".to_string(), 1);
        let text = base.to_json();
        assert!(
            text.contains("\"a\\\"b\\\\c\\n\\u0001.rs:unwrap\": 1"),
            "{text}"
        );
        assert_eq!(Baseline::parse(&text).expect("roundtrip"), base);
    }
}
