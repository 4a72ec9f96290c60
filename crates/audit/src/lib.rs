//! # fairprep-audit
//!
//! A static analyzer that enforces the FairPrep lifecycle invariants
//! across the workspace source tree. Its only dependency is
//! `fairprep-trace`, whose JSON codec reads and writes the baseline file.
//! Three layers, all built on a small lossless lexer:
//!
//! 1. **Token lints** over the significant-token stream — L1 isolation
//!    (`fit-on-test`, `vault-row-leak`), L2 determinism (`hash-iter`,
//!    `thread-spawn`, `float-eq`, `wall-clock`), L3 panic hygiene
//!    (`unwrap`/`expect`/`panic`/`index-literal`, and
//!    `unsafe-safety-comment`).
//! 2. **Dataflow** over a brace-matched lightweight AST and workspace
//!    call graph — `test-taint-flow` (static provenance taint from
//!    test-split sources to fit sinks) and `missing-guard-fit`
//!    (every fit entry point must reach the runtime `guard_fit` assert).
//! 3. **Concurrency & hot paths** — `shared-mut-capture` and
//!    `nondeterministic-reduce` on closures handed to the worker pool,
//!    and `alloc-in-kernel` on the allocation-free kernel layer.
//!
//! Violations can be suppressed inline with
//! `// audit: allow(<lint>, reason = "…")`; a waiver without a reason is
//! itself an error, and a waiver that no longer suppresses anything is
//! reported as `stale-waiver`. Pre-existing findings can be ratcheted via
//! a committed `audit.baseline.json` (see [`baseline`]); only *new*
//! findings fail the run. Run as `cargo run -p fairprep-audit` from the
//! repo root, or `fairprep audit` via the CLI.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod baseline;
pub mod conc;
pub mod flow;
pub mod lexer;
pub mod lints;
pub mod parser;

use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

use baseline::{Baseline, GatedReport};
pub use lints::{classify, Diagnostic, FileAnalysis, FileScope, Lint, LINTS};
use parser::Workspace;

/// Directory names never descended into.
const SKIP_DIRS: &[&str] = &["target", "fixtures", ".git", ".github"];

/// Default baseline file name, resolved relative to the audit root.
pub const BASELINE_FILE: &str = "audit.baseline.json";

/// The outcome of auditing a tree.
#[derive(Debug)]
pub struct AuditReport {
    /// All surviving (unwaived) diagnostics, ordered by file then line.
    pub diagnostics: Vec<Diagnostic>,
    /// Number of `.rs` files checked.
    pub files_scanned: usize,
}

impl AuditReport {
    /// `true` when the tree satisfies every invariant.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Writes `file:line: [lint] message` diagnostics plus a per-lint
    /// summary table.
    ///
    /// # Errors
    /// Propagates failures of the underlying writer.
    pub fn write_to(&self, out: &mut dyn Write) -> std::io::Result<()> {
        for d in &self.diagnostics {
            writeln!(out, "{}:{}: [{}] {}", d.file, d.line, d.lint, d.message)?;
        }
        let counts = lints::tally(&self.diagnostics);
        writeln!(out, "\n{:<24} {:>6}  layer", "lint", "count")?;
        writeln!(out, "{:-<24} {:->6}  -----", "", "")?;
        for lint in LINTS {
            let n = counts.get(lint.id).copied().unwrap_or(0);
            writeln!(out, "{:<24} {:>6}  {}", lint.id, n, lint.layer)?;
        }
        writeln!(
            out,
            "\n{} file(s) scanned, {} violation(s)",
            self.files_scanned,
            self.diagnostics.len()
        )?;
        Ok(())
    }
}

/// Recursively collects `.rs` files under `root` in deterministic
/// (sorted-path) order, skipping [`SKIP_DIRS`].
fn collect_rs_files(root: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(root)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if SKIP_DIRS.contains(&name) {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Audits the tree rooted at `root` (typically the workspace root).
///
/// All files are lexed and parsed first so the dataflow layer sees the
/// complete cross-crate call graph (a `guard_fit` placed in a shared
/// validator in another file still counts), then every lint family runs
/// per file and waivers are applied last.
///
/// # Errors
/// Returns an error when the tree cannot be read.
pub fn audit(root: &Path) -> std::io::Result<AuditReport> {
    let mut files = Vec::new();
    collect_rs_files(root, &mut files)?;

    // Phase 1: read + analyze every file, build the workspace symbol table.
    let mut sources: Vec<(String, String)> = Vec::new();
    for path in &files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        if classify(&rel) == FileScope::Excluded {
            continue;
        }
        sources.push((rel, fs::read_to_string(path)?));
    }
    let analyses: Vec<FileAnalysis<'_>> = sources
        .iter()
        .map(|(rel, src)| FileAnalysis::new(rel, src))
        .collect();
    let mut workspace = Workspace::default();
    for a in &analyses {
        workspace.add_file(a.rel_path, &a.view(), &a.fns);
    }

    // Phase 2: run all three lint layers per file, then apply waivers.
    let mut diagnostics = Vec::new();
    for a in &analyses {
        let mut raw = Vec::new();
        lints::token_lints(a, &mut raw);
        conc::check(a, &mut raw);
        flow::check(a, &workspace, &mut raw);
        diagnostics.extend(lints::finish(a, raw));
    }
    diagnostics.sort_by(|a, b| (a.file.as_str(), a.line).cmp(&(b.file.as_str(), b.line)));
    Ok(AuditReport {
        diagnostics,
        files_scanned: analyses.len(),
    })
}

/// Renders the machine-readable JSON diagnostics document.
#[must_use]
pub fn render_json(report: &AuditReport, gated: &GatedReport) -> String {
    use std::fmt::Write as _;

    let escape = |s: &str| {
        let mut quoted = String::new();
        fairprep_trace::json::write_escaped(s, &mut quoted);
        quoted
    };

    let mut out = String::new();
    let _ = write!(
        out,
        "{{\n  \"schema_version\": 1,\n  \"files_scanned\": {},\n  \"findings\": [",
        report.files_scanned
    );
    let mut first = true;
    for f in &gated.findings {
        if !first {
            out.push(',');
        }
        first = false;
        let d = &f.diagnostic;
        let layer = LINTS
            .iter()
            .find(|l| l.id == d.lint)
            .map_or("?", |l| l.layer);
        let _ = write!(
            out,
            "\n    {{\"lint\": {}, \"layer\": {}, \"file\": {}, \"line\": {}, \
             \"status\": {}, \"message\": {}}}",
            escape(d.lint),
            escape(layer),
            escape(&d.file),
            d.line,
            escape(if f.baselined { "baselined" } else { "new" }),
            escape(&d.message)
        );
    }
    if !gated.findings.is_empty() {
        out.push_str("\n  ");
    }
    out.push(']');
    let _ = write!(
        out,
        ",\n  \"stale_baseline_keys\": [{}]",
        gated
            .stale_keys
            .iter()
            .map(|k| escape(k))
            .collect::<Vec<_>>()
            .join(", ")
    );
    let _ = write!(
        out,
        ",\n  \"summary\": {{\"total\": {}, \"new\": {}, \"baselined\": {}}}\n}}\n",
        gated.findings.len(),
        gated.new_count(),
        gated.baselined_count()
    );
    out
}

/// Entry point shared by the standalone binary and the `fairprep audit`
/// CLI subcommand. Interprets `args` (everything after the command name)
/// and returns the process exit code: `0` clean (no *new* findings),
/// `1` findings, `2` internal error (unreadable tree, malformed baseline,
/// bad arguments).
///
/// Flags: `--root <path>` (default `.`), `--list` (print the lint
/// registry), `--format text|json`, `--baseline <path>|none` (default:
/// `<root>/audit.baseline.json` when present), `--write-baseline <path>`
/// (capture the current findings and exit 0), `--deny-all` (accepted for
/// CI clarity; denying is already the default — there is no warn mode).
#[must_use]
pub fn run(args: &[String]) -> i32 {
    let mut root = PathBuf::from(".");
    let mut format = "text".to_string();
    let mut baseline_arg: Option<String> = None;
    let mut write_baseline: Option<PathBuf> = None;
    let mut i = 0usize;
    while i < args.len() {
        match args[i].as_str() {
            "--root" | "--format" | "--baseline" | "--write-baseline" => {
                let flag = args[i].as_str();
                let Some(value) = args.get(i + 1) else {
                    eprintln!("{flag} requires an argument");
                    return 2;
                };
                match flag {
                    "--root" => root = PathBuf::from(value),
                    "--format" => {
                        if value != "text" && value != "json" {
                            eprintln!("--format must be `text` or `json`, got `{value}`");
                            return 2;
                        }
                        format = value.clone();
                    }
                    "--baseline" => baseline_arg = Some(value.clone()),
                    _ => write_baseline = Some(PathBuf::from(value)),
                }
                i += 2;
            }
            "--deny-all" => i += 1,
            "--list" => {
                println!("{:<24} layer  rationale", "lint");
                for lint in LINTS {
                    println!("{:<24} {:<5}  {}", lint.id, lint.layer, lint.rationale);
                }
                return 0;
            }
            "--help" | "-h" => {
                println!(
                    "fairprep-audit: static lifecycle-invariant checker\n\n\
                     usage: fairprep-audit [--root <path>] [--format text|json]\n\
                     \x20                     [--baseline <path>|none] [--write-baseline <path>]\n\
                     \x20                     [--deny-all] [--list]\n\n\
                     exit codes: 0 = no new findings, 1 = new findings, 2 = internal error"
                );
                return 0;
            }
            other => {
                eprintln!("unknown argument: {other}");
                return 2;
            }
        }
    }

    let report = match audit(&root) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("audit failed to read {}: {e}", root.display());
            return 2;
        }
    };

    if let Some(path) = write_baseline {
        let base = Baseline::capture(&report.diagnostics);
        if let Err(e) = fs::write(&path, base.to_json()) {
            eprintln!("cannot write baseline {}: {e}", path.display());
            return 2;
        }
        println!(
            "wrote {} entr{} to {}",
            base.entries.len(),
            if base.entries.len() == 1 { "y" } else { "ies" },
            path.display()
        );
        return 0;
    }

    // Resolve the baseline: explicit path, explicit `none`, or the
    // default `<root>/audit.baseline.json` when it exists.
    let base = match baseline_arg.as_deref() {
        Some("none") => Baseline::default(),
        Some(path) => match Baseline::load(Path::new(path)) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("{e}");
                return 2;
            }
        },
        None => {
            let default_path = root.join(BASELINE_FILE);
            if default_path.is_file() {
                match Baseline::load(&default_path) {
                    Ok(b) => b,
                    Err(e) => {
                        eprintln!("{e}");
                        return 2;
                    }
                }
            } else {
                Baseline::default()
            }
        }
    };
    let gated = base.gate(&report.diagnostics);

    let mut stdout = std::io::stdout().lock();
    if format == "json" {
        if stdout
            .write_all(render_json(&report, &gated).as_bytes())
            .is_err()
        {
            return 2;
        }
    } else {
        let new_report = AuditReport {
            diagnostics: gated
                .findings
                .iter()
                .filter(|f| !f.baselined)
                .map(|f| f.diagnostic.clone())
                .collect(),
            files_scanned: report.files_scanned,
        };
        if new_report.write_to(&mut stdout).is_err() {
            return 2;
        }
        if gated.baselined_count() > 0 {
            let _ = writeln!(
                stdout,
                "({} pre-existing finding(s) absorbed by the baseline)",
                gated.baselined_count()
            );
        }
        for key in &gated.stale_keys {
            let _ = writeln!(
                stdout,
                "note: stale baseline entry `{key}` — the tree no longer produces it; ratchet the baseline down"
            );
        }
    }
    i32::from(gated.new_count() > 0)
}
