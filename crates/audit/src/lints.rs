//! The lint registry and per-file checking engine.
//!
//! Three layers of lifecycle invariants, named after the failure mode they
//! defend (see DESIGN.md "Static analysis & enforced invariants"):
//!
//! * **L1 isolation** — nothing fits on held-out data, and the vault never
//!   grows a row-level accessor.
//! * **L2 nondeterminism** — no iteration-order, scheduling, or wall-clock
//!   dependence in seeded code paths.
//! * **L3 panic hygiene** — library code returns `Result` instead of
//!   panicking, and every `unsafe` in it says why it is sound.
//!
//! Every lint honours the inline waiver comment
//! `// audit: allow(<lint>, reason = "…")`, which silences the lint on the
//! comment's own line and the following line, and the file-level form
//! `// audit: allow-file(<lint>, reason = "…")`. A waiver without a
//! non-empty `reason` is itself a fatal diagnostic (`waiver-syntax`) and
//! cannot be waived.

use std::collections::BTreeMap;

use crate::lexer::{tokenize, Token, TokenKind};
use crate::parser::View;

/// One lint rule: identifier, invariant layer, and rationale.
#[derive(Debug, Clone, Copy)]
pub struct Lint {
    /// Stable id used in diagnostics and waivers.
    pub id: &'static str,
    /// Invariant layer (`L1`, `L2`, `L3`).
    pub layer: &'static str,
    /// One-line rationale shown by `--list`.
    pub rationale: &'static str,
}

/// The full registry, in report order.
pub const LINTS: &[Lint] = &[
    Lint {
        id: "fit-on-test",
        layer: "L1",
        rationale: "no .fit()/.fit_transform() call may mention test/vault/holdout data \
                    outside the core lifecycle module",
    },
    Lint {
        id: "vault-row-leak",
        layer: "L1",
        rationale: "TestSetVault must not expose public row-level accessors",
    },
    Lint {
        id: "hash-iter",
        layer: "L2",
        rationale: "HashMap/HashSet iteration order is nondeterministic; seeded crates \
                    must use BTreeMap/BTreeSet",
    },
    Lint {
        id: "thread-spawn",
        layer: "L2",
        rationale: "ad-hoc threads break run reproducibility; use data::parallel",
    },
    Lint {
        id: "float-eq",
        layer: "L2",
        rationale: "direct f64/f32 ==/!= comparisons are brittle under reordering",
    },
    Lint {
        id: "wall-clock",
        layer: "L2",
        rationale: "Instant/SystemTime reads make library behaviour time-dependent",
    },
    Lint {
        id: "unwrap",
        layer: "L3",
        rationale: "library code must propagate errors, not panic",
    },
    Lint {
        id: "expect",
        layer: "L3",
        rationale: "library code must propagate errors, not panic",
    },
    Lint {
        id: "panic",
        layer: "L3",
        rationale: "library code must propagate errors, not panic",
    },
    Lint {
        id: "index-literal",
        layer: "L3",
        rationale: "slice indexing by literal panics on short inputs; use get() or \
                    destructuring",
    },
    Lint {
        id: "unsafe-safety-comment",
        layer: "L3",
        rationale: "every unsafe block, unsafe fn and unsafe impl in library code needs a \
                    `// SAFETY:` comment on the lines directly above saying why it is sound",
    },
    Lint {
        id: "test-taint-flow",
        layer: "L1",
        rationale: "static provenance taint: a value derived from a test-split source \
                    (split.test, vault accessors, Provenance::Test) must never flow into \
                    a fit/fit_transform sink, whatever it is renamed to along the way",
    },
    Lint {
        id: "missing-guard-fit",
        layer: "L1",
        rationale: "every fit entry point in ml/impute/fairness must call guard_fit \
                    (directly or through a shared validator) so the runtime taint check \
                    covers all entry points, executed by tests or not",
    },
    Lint {
        id: "shared-mut-capture",
        layer: "L2",
        rationale: "closures passed to parallel_map must not mutate captured state \
                    (assignment, &mut, RefCell/Mutex) — completion order is nondeterministic",
    },
    Lint {
        id: "nondeterministic-reduce",
        layer: "L2",
        rationale: "float accumulation inside parallel closures must go through the frozen \
                    fairprep_ml::kernels reduction trees, not ad-hoc iterator sum/fold",
    },
    Lint {
        id: "alloc-in-kernel",
        layer: "L4",
        rationale: "no Vec::new/to_vec/collect/format!/vec!/Box::new/.lock() inside \
                    fairprep_ml::kernels or `// audit: hot-path` regions (kernels and \
                    telemetry record paths) — the measured allocation-free and lock-free \
                    wins must not silently regress",
    },
    Lint {
        id: "waiver-syntax",
        layer: "meta",
        rationale: "every audit waiver must carry a non-empty reason",
    },
    Lint {
        id: "stale-waiver",
        layer: "meta",
        rationale: "a waiver whose lint no longer fires on its line is noise that hides \
                    real grandfathering; delete it",
    },
];

/// `true` when `id` names a registered lint.
#[must_use]
pub fn is_known_lint(id: &str) -> bool {
    LINTS.iter().any(|l| l.id == id)
}

/// What a file's path says about which lints apply to it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileScope {
    /// Shim crates and generated output: not ours to lint.
    Excluded,
    /// Binaries, benches, examples: isolation (L1) only — panics and
    /// wall-clock reads are fine at the edges.
    Binary,
    /// Library crates outside the seeded pipeline (datasets, facade):
    /// L1 + L3 + float-eq + wall-clock.
    Library,
    /// The seeded pipeline crates (data, ml, core, impute, fairness):
    /// everything, including hash-iter and thread-spawn.
    SeededLibrary,
    /// Integration-test trees: deliberately exercise failure paths, so no
    /// lints apply (waiver syntax is still checked).
    TestCode,
}

impl FileScope {
    pub(crate) fn lint_applies(self, lint: &str) -> bool {
        match self {
            FileScope::Excluded => false,
            FileScope::TestCode => matches!(lint, "waiver-syntax" | "stale-waiver"),
            // Binaries keep the isolation rules, and — because sweeps and
            // benches drive the parallel substrate directly — the
            // concurrency/allocation passes too.
            FileScope::Binary => matches!(
                lint,
                "fit-on-test"
                    | "vault-row-leak"
                    | "test-taint-flow"
                    | "shared-mut-capture"
                    | "nondeterministic-reduce"
                    | "alloc-in-kernel"
                    | "waiver-syntax"
                    | "stale-waiver"
            ),
            FileScope::Library => !matches!(lint, "hash-iter" | "thread-spawn"),
            FileScope::SeededLibrary => true,
        }
    }
}

/// Classifies a repo-relative path (forward slashes) into a scope.
#[must_use]
pub fn classify(rel_path: &str) -> FileScope {
    let p = rel_path;
    if p.starts_with("crates/rand/")
        || p.starts_with("crates/proptest/")
        || p.starts_with("target/")
    {
        return FileScope::Excluded;
    }
    if p.starts_with("crates/cli/")
        || p.starts_with("crates/bench/")
        || p.starts_with("crates/audit/")
        || p.starts_with("examples/")
        || p.contains("/examples/")
        || p.contains("/benches/")
    {
        return FileScope::Binary;
    }
    if p.starts_with("tests/") || p.contains("/tests/") {
        return FileScope::TestCode;
    }
    if p.starts_with("crates/data/")
        || p.starts_with("crates/ml/")
        || p.starts_with("crates/core/")
        || p.starts_with("crates/impute/")
        || p.starts_with("crates/fairness/")
        // The tracer is pipeline code too; its wall-clock carve-out is a
        // per-path exemption at the lint gate, not a scope relaxation.
        || p.starts_with("crates/trace/")
    {
        return FileScope::SeededLibrary;
    }
    if p.starts_with("crates/datasets/") || p.starts_with("src/") {
        return FileScope::Library;
    }
    // Unknown trees (e.g. the lint fixtures when rooted there) get the
    // strictest treatment.
    FileScope::SeededLibrary
}

/// One finding: which lint fired where.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Lint id (a member of [`LINTS`]).
    pub lint: &'static str,
    /// Repo-relative path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable explanation with the offending snippet.
    pub message: String,
}

/// A parsed `// audit: allow(…)` comment.
pub(crate) struct Waiver {
    pub(crate) lint: String,
    pub(crate) line: u32,
    pub(crate) file_level: bool,
    pub(crate) has_reason: bool,
}

/// Everything the three analyzer layers need to know about one file:
/// tokens, the significant-token view, test regions, parsed `fn` items,
/// and waivers. Built once per file, shared by the token, dataflow, and
/// concurrency passes.
pub struct FileAnalysis<'a> {
    /// Repo-relative path with forward slashes.
    pub rel_path: &'a str,
    /// The path-derived lint scope.
    pub scope: FileScope,
    /// The file's source text.
    pub source: &'a str,
    /// Lossless token stream.
    pub tokens: Vec<Token>,
    /// Indices of significant (non-trivia) tokens.
    pub sig: Vec<usize>,
    /// Per-significant-token `#[cfg(test)]` / `#[test]` region map.
    pub in_test: Vec<bool>,
    /// Parsed `fn` items (the lightweight AST).
    pub fns: Vec<crate::parser::FnItem>,
    /// Source lines carrying a `// audit: hot-path` marker.
    pub hot_path_markers: Vec<u32>,
    waivers: Vec<Waiver>,
    waiver_diags: Vec<Diagnostic>,
}

impl<'a> FileAnalysis<'a> {
    /// Lexes, parses, and extracts waivers from one file.
    #[must_use]
    pub fn new(rel_path: &'a str, source: &'a str) -> Self {
        let scope = classify(rel_path);
        let tokens = tokenize(source);
        let (waivers, waiver_diags, hot_path_markers) = parse_waivers(rel_path, &tokens, source);
        let sig: Vec<usize> = (0..tokens.len())
            .filter(|&i| {
                !matches!(
                    tokens[i].kind,
                    TokenKind::Whitespace | TokenKind::LineComment | TokenKind::BlockComment
                )
            })
            .collect();
        let in_test = test_regions(&tokens, &sig, source);
        let fns = {
            let view = View {
                source,
                tokens: &tokens,
                sig: &sig,
            };
            crate::parser::parse_fns(&view, &in_test)
        };
        FileAnalysis {
            rel_path,
            scope,
            source,
            tokens,
            sig,
            in_test,
            fns,
            hot_path_markers,
            waivers,
            waiver_diags,
        }
    }

    /// A significant-token cursor over this file.
    #[must_use]
    pub fn view(&self) -> View<'_> {
        View {
            source: self.source,
            tokens: &self.tokens,
            sig: &self.sig,
        }
    }

    pub(crate) fn ctx(&self) -> FileContext<'_> {
        FileContext {
            rel_path: self.rel_path,
            source: self.source,
            tokens: &self.tokens,
            sig: &self.sig,
            in_test: &self.in_test,
        }
    }
}

/// Runs the token-stream lint layer, appending raw (pre-waiver)
/// diagnostics to `raw`.
pub(crate) fn token_lints(analysis: &FileAnalysis<'_>, raw: &mut Vec<Diagnostic>) {
    let scope = analysis.scope;
    let rel_path = analysis.rel_path;
    let ctx = analysis.ctx();

    if scope.lint_applies("fit-on-test") && !rel_path.ends_with("core/src/lifecycle.rs") {
        check_fit_on_test(&ctx, raw);
    }
    if scope.lint_applies("vault-row-leak") {
        check_vault_row_leak(&ctx, raw);
    }
    if scope.lint_applies("hash-iter") {
        check_hash_iter(&ctx, raw);
    }
    if scope.lint_applies("thread-spawn") && !rel_path.ends_with("data/src/parallel.rs") {
        check_thread_spawn(&ctx, raw);
    }
    if scope.lint_applies("float-eq") {
        check_float_eq(&ctx, raw);
    }
    // `crates/trace/` is the one sanctioned clock owner: stage spans need
    // a monotonic origin (`Instant`), and everything it records from the
    // clock is segregated into the manifest's non-canonical `timing`
    // section. Every other library crate must route timing through a
    // `Tracer` handle instead of reading the clock itself.
    if scope.lint_applies("wall-clock") && !rel_path.starts_with("crates/trace/") {
        check_wall_clock(&ctx, raw);
    }
    if scope.lint_applies("unwrap") {
        check_method_call(&ctx, "unwrap", "unwrap", raw);
    }
    if scope.lint_applies("expect") {
        check_method_call(&ctx, "expect", "expect", raw);
    }
    if scope.lint_applies("panic") {
        check_panic(&ctx, raw);
    }
    if scope.lint_applies("index-literal") {
        check_index_literal(&ctx, raw);
    }
    if scope.lint_applies("unsafe-safety-comment") {
        check_unsafe_safety_comment(&ctx, raw);
    }
}

/// Applies waivers to the raw diagnostics of one file, tracks which
/// waivers actually suppressed something, reports the unused ones as
/// `stale-waiver`, and merges in the waiver-syntax diagnostics.
pub(crate) fn finish(analysis: &FileAnalysis<'_>, raw: Vec<Diagnostic>) -> Vec<Diagnostic> {
    let waivers = &analysis.waivers;
    let mut used = vec![false; waivers.len()];
    let mut diags = analysis.waiver_diags.clone();
    for d in raw {
        let mut waived = false;
        for (i, w) in waivers.iter().enumerate() {
            let covers = w.lint == d.lint
                && w.has_reason
                && (w.file_level || d.line == w.line || d.line == w.line + 1);
            if covers {
                used[i] = true;
                waived = true;
            }
        }
        if !waived {
            diags.push(d);
        }
    }
    if analysis.scope.lint_applies("stale-waiver") {
        let mut stale: Vec<Diagnostic> = Vec::new();
        for (i, w) in waivers.iter().enumerate() {
            // Only well-formed waivers are candidates: malformed ones are
            // already fatal `waiver-syntax` findings. Waivers for the
            // meta lints themselves are exempt (a `stale-waiver` waiver
            // being "unused" is the fixpoint, not a finding).
            if used[i] || !w.has_reason || w.lint == "stale-waiver" {
                continue;
            }
            stale.push(Diagnostic {
                lint: "stale-waiver",
                file: analysis.rel_path.to_string(),
                line: w.line,
                message: format!(
                    "waiver for `{}` no longer suppresses anything — the lint does not \
                     fire {}; delete the waiver to keep suppressions honest",
                    w.lint,
                    if w.file_level {
                        "anywhere in this file"
                    } else {
                        "on this line or the next"
                    }
                ),
            });
        }
        // A stale-waiver finding can itself be waived (e.g. a lint kept
        // for documentation while code is in flux) — with a reason.
        for d in stale {
            let waived = waivers.iter().any(|w| {
                w.lint == "stale-waiver"
                    && w.has_reason
                    && (w.file_level || d.line == w.line || d.line == w.line + 1)
            });
            if !waived {
                diags.push(d);
            }
        }
    }
    diags.sort_by_key(|d| (d.line, d.lint));
    diags
}

/// Lints one file in isolation. `rel_path` is repo-relative with forward
/// slashes. Workspace-level passes (`missing-guard-fit` reachability)
/// see only this file's functions; [`crate::audit`] runs them with the
/// full cross-crate call graph instead.
#[must_use]
pub fn check_file(rel_path: &str, source: &str) -> Vec<Diagnostic> {
    let analysis = FileAnalysis::new(rel_path, source);
    if analysis.scope == FileScope::Excluded {
        return Vec::new();
    }
    let mut workspace = crate::parser::Workspace::default();
    workspace.add_file(rel_path, &analysis.view(), &analysis.fns);
    let mut raw = Vec::new();
    token_lints(&analysis, &mut raw);
    crate::conc::check(&analysis, &mut raw);
    crate::flow::check(&analysis, &workspace, &mut raw);
    finish(&analysis, raw)
}

pub(crate) struct FileContext<'a> {
    rel_path: &'a str,
    source: &'a str,
    tokens: &'a [Token],
    sig: &'a [usize],
    in_test: &'a [bool],
}

impl FileContext<'_> {
    fn text(&self, s: usize) -> &str {
        self.tokens[self.sig[s]].text(self.source)
    }
    fn kind(&self, s: usize) -> TokenKind {
        self.tokens[self.sig[s]].kind
    }
    fn line(&self, s: usize) -> u32 {
        self.tokens[self.sig[s]].line
    }
    fn len(&self) -> usize {
        self.sig.len()
    }
    fn diag(&self, lint: &'static str, s: usize, message: String) -> Diagnostic {
        Diagnostic {
            lint,
            file: self.rel_path.to_string(),
            line: self.line(s),
            message,
        }
    }
}

/// Marks, for every *significant* token, whether it sits inside a
/// `#[cfg(test)]` / `#[test]` region (attribute through the end of the
/// annotated block or statement).
fn test_regions(tokens: &[Token], sig: &[usize], source: &str) -> Vec<bool> {
    let mut in_test = vec![false; sig.len()];
    let text = |s: usize| tokens[sig[s]].text(source);
    let mut s = 0usize;
    while s < sig.len() {
        if text(s) == "#" && s + 1 < sig.len() && text(s + 1) == "[" {
            // Scan the attribute's bracket group.
            let mut depth = 0usize;
            let mut end = s + 1;
            let mut idents: Vec<&str> = Vec::new();
            while end < sig.len() {
                match text(end) {
                    "[" => depth += 1,
                    "]" => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    t if tokens[sig[end]].kind == TokenKind::Ident => idents.push(t),
                    _ => {}
                }
                end += 1;
            }
            let is_test_attr = idents.contains(&"test") && !idents.contains(&"not");
            if is_test_attr {
                // The region runs to the end of the annotated item: the
                // first `{ … }` group (skipping further attributes), or a
                // terminating `;` for block-less items.
                let mut j = end + 1;
                let mut brace_depth = 0usize;
                let mut entered = false;
                while j < sig.len() {
                    match text(j) {
                        "{" => {
                            brace_depth += 1;
                            entered = true;
                        }
                        "}" => {
                            brace_depth = brace_depth.saturating_sub(1);
                            if entered && brace_depth == 0 {
                                break;
                            }
                        }
                        ";" if !entered => break,
                        _ => {}
                    }
                    j += 1;
                }
                for slot in in_test.iter_mut().take((j + 1).min(sig.len())).skip(s) {
                    *slot = true;
                }
                s = j + 1;
                continue;
            }
        }
        s += 1;
    }
    in_test
}

/// Extracts waivers from `// audit: …` comments, emitting `waiver-syntax`
/// diagnostics for malformed ones.
fn parse_waivers(
    rel_path: &str,
    tokens: &[Token],
    source: &str,
) -> (Vec<Waiver>, Vec<Diagnostic>, Vec<u32>) {
    let mut waivers = Vec::new();
    let mut diags = Vec::new();
    let mut hot_path_markers = Vec::new();
    for tok in tokens {
        if tok.kind != TokenKind::LineComment {
            continue;
        }
        let body = tok.text(source).trim_start_matches('/').trim();
        let Some(rest) = body.strip_prefix("audit:") else {
            continue;
        };
        let rest = rest.trim();
        // `// audit: hot-path` opts the next `fn` into `alloc-in-kernel`;
        // it is a marker, not a waiver.
        if rest == "hot-path" {
            hot_path_markers.push(tok.line);
            continue;
        }
        let (file_level, args) = if let Some(a) = rest.strip_prefix("allow-file(") {
            (true, a)
        } else if let Some(a) = rest.strip_prefix("allow(") {
            (false, a)
        } else {
            diags.push(Diagnostic {
                lint: "waiver-syntax",
                file: rel_path.to_string(),
                line: tok.line,
                message: format!("unrecognized audit directive: `{body}`"),
            });
            continue;
        };
        let Some(args) = args.strip_suffix(')') else {
            diags.push(Diagnostic {
                lint: "waiver-syntax",
                file: rel_path.to_string(),
                line: tok.line,
                message: "waiver is missing its closing parenthesis".to_string(),
            });
            continue;
        };
        let (lint, reason_part) = match args.split_once(',') {
            Some((l, r)) => (l.trim(), Some(r.trim())),
            None => (args.trim(), None),
        };
        if !is_known_lint(lint) {
            diags.push(Diagnostic {
                lint: "waiver-syntax",
                file: rel_path.to_string(),
                line: tok.line,
                message: format!("waiver names unknown lint `{lint}`"),
            });
            continue;
        }
        let has_reason = reason_part.is_some_and(|r| {
            r.strip_prefix("reason")
                .map(str::trim_start)
                .and_then(|r| r.strip_prefix('='))
                .map(str::trim)
                .is_some_and(|q| q.len() > 2 && q.starts_with('"') && q.ends_with('"'))
        });
        if !has_reason {
            diags.push(Diagnostic {
                lint: "waiver-syntax",
                file: rel_path.to_string(),
                line: tok.line,
                message: format!(
                    "waiver for `{lint}` lacks a non-empty `reason = \"…\"` — every \
                     suppression must say why the invariant is safe to relax here"
                ),
            });
        }
        waivers.push(Waiver {
            lint: lint.to_string(),
            line: tok.line,
            file_level,
            has_reason,
        });
    }
    (waivers, diags, hot_path_markers)
}

const HELDOUT_MARKERS: &[&str] = &["test", "vault", "holdout"];

fn mentions_heldout(ident: &str) -> bool {
    let lower = ident.to_ascii_lowercase();
    HELDOUT_MARKERS.iter().any(|m| lower.contains(m))
}

/// L1: a `.fit(…)`/`.fit_transform(…)` call whose receiver chain or
/// argument list names held-out data.
fn check_fit_on_test(ctx: &FileContext<'_>, out: &mut Vec<Diagnostic>) {
    for s in 0..ctx.len() {
        if ctx.in_test[s] || ctx.kind(s) != TokenKind::Ident {
            continue;
        }
        let name = ctx.text(s);
        if name != "fit" && name != "fit_transform" {
            continue;
        }
        if s + 1 >= ctx.len() || ctx.text(s + 1) != "(" {
            continue;
        }
        // Skip definitions (`fn fit(`), keep calls.
        if s > 0 && ctx.text(s - 1) == "fn" {
            continue;
        }
        let mut suspicious: Vec<String> = Vec::new();
        // Walk the receiver chain backwards: idents joined by `.`/`::`,
        // stepping over call parentheses (`vault.data().fit(…)`).
        let mut b = s;
        while b > 0 {
            let prev = b - 1;
            match ctx.text(prev) {
                "." | "::" => {
                    if prev == 0 {
                        break;
                    }
                    let mut r = prev - 1;
                    if ctx.text(r) == ")" {
                        // Step over one balanced call group.
                        let mut depth = 1usize;
                        while r > 0 && depth > 0 {
                            r -= 1;
                            match ctx.text(r) {
                                ")" => depth += 1,
                                "(" => depth -= 1,
                                _ => {}
                            }
                        }
                        if r == 0 {
                            break;
                        }
                        r -= 1;
                    }
                    if ctx.kind(r) == TokenKind::Ident {
                        if mentions_heldout(ctx.text(r)) {
                            suspicious.push(ctx.text(r).to_string());
                        }
                        b = r;
                    } else {
                        break;
                    }
                }
                _ => break,
            }
        }
        // Scan the argument list for held-out idents.
        let mut depth = 0usize;
        let mut j = s + 1;
        while j < ctx.len() {
            match ctx.text(j) {
                "(" => depth += 1,
                ")" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                t if ctx.kind(j) == TokenKind::Ident && mentions_heldout(t) => {
                    suspicious.push(t.to_string());
                }
                _ => {}
            }
            j += 1;
        }
        if !suspicious.is_empty() {
            suspicious.dedup();
            out.push(ctx.diag(
                "fit-on-test",
                s,
                format!(
                    "`{name}` call involves held-out data ({}) — fitting belongs to the \
                     training phase; only core/src/lifecycle.rs may touch sealed splits",
                    suspicious.join(", ")
                ),
            ));
        }
    }
}

/// Return-type idents/puncts that indicate per-row data escaping the vault.
const ROW_TYPES: &[&str] = &["Vec", "DataFrame", "BinaryLabelDataset", "Column", "Value"];

/// L1: a `pub fn` on `TestSetVault` returning row-level data.
fn check_vault_row_leak(ctx: &FileContext<'_>, out: &mut Vec<Diagnostic>) {
    for s in 0..ctx.len() {
        if ctx.text(s) != "impl" {
            continue;
        }
        // Find `TestSetVault` before the impl body opens.
        let mut body_open = None;
        let mut is_vault = false;
        for j in s + 1..ctx.len() {
            match ctx.text(j) {
                "{" => {
                    body_open = Some(j);
                    break;
                }
                "TestSetVault" => is_vault = true,
                _ => {}
            }
        }
        let Some(open) = body_open else { continue };
        if !is_vault {
            continue;
        }
        // Walk the impl body, looking for `pub fn` signatures.
        let mut depth = 0usize;
        let mut j = open;
        while j < ctx.len() {
            match ctx.text(j) {
                "{" => depth += 1,
                "}" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                "pub" if depth == 1 && !ctx.in_test[j] => {
                    // `pub(crate)`/`pub(super)` are restricted: fine.
                    if ctx.text(j + 1) == "(" {
                        j += 1;
                        continue;
                    }
                    // Find `fn name … -> RET {` within this signature.
                    let mut k = j + 1;
                    let mut fn_name = None;
                    while k < ctx.len() && !matches!(ctx.text(k), "{" | ";" | "}") {
                        if ctx.text(k) == "fn" && k + 1 < ctx.len() {
                            fn_name = Some(ctx.text(k + 1).to_string());
                        }
                        if ctx.text(k) == "->" {
                            let ret_start = k + 1;
                            let mut ret_end = ret_start;
                            while ret_end < ctx.len()
                                && !matches!(ctx.text(ret_end), "{" | ";" | "where")
                            {
                                ret_end += 1;
                            }
                            let leaky = (ret_start..ret_end).any(|r| {
                                let t = ctx.text(r);
                                (ctx.kind(r) == TokenKind::Ident && ROW_TYPES.contains(&t))
                                    || t == "["
                            });
                            if leaky {
                                let name = fn_name.unwrap_or_else(|| "?".to_string());
                                out.push(ctx.diag(
                                    "vault-row-leak",
                                    j,
                                    format!(
                                        "pub fn {name} on TestSetVault returns row-level data; \
                                         the vault may only expose aggregates (counts, rates)"
                                    ),
                                ));
                            }
                            break;
                        }
                        k += 1;
                    }
                }
                _ => {}
            }
            j += 1;
        }
    }
}

/// L2: `HashMap`/`HashSet` in a seeded crate.
fn check_hash_iter(ctx: &FileContext<'_>, out: &mut Vec<Diagnostic>) {
    for s in 0..ctx.len() {
        if ctx.in_test[s] || ctx.kind(s) != TokenKind::Ident {
            continue;
        }
        let t = ctx.text(s);
        if t == "HashMap" || t == "HashSet" {
            out.push(ctx.diag(
                "hash-iter",
                s,
                format!(
                    "`{t}` iteration order varies across runs and toolchains; use \
                     BTreeMap/BTreeSet in seeded crates"
                ),
            ));
        }
    }
}

/// L2: `thread::spawn` (or a builder `.spawn(`) outside data::parallel.
fn check_thread_spawn(ctx: &FileContext<'_>, out: &mut Vec<Diagnostic>) {
    for s in 0..ctx.len() {
        if ctx.in_test[s] || ctx.kind(s) != TokenKind::Ident || ctx.text(s) != "spawn" {
            continue;
        }
        if s + 1 >= ctx.len() || ctx.text(s + 1) != "(" {
            continue;
        }
        let preceded = s > 0 && matches!(ctx.text(s - 1), "." | "::");
        if preceded {
            out.push(
                ctx.diag(
                    "thread-spawn",
                    s,
                    "ad-hoc thread spawns break deterministic scheduling; route parallelism \
                 through fairprep_data::parallel"
                        .to_string(),
                ),
            );
        }
    }
}

/// L2: `==`/`!=` with a float literal operand.
fn check_float_eq(ctx: &FileContext<'_>, out: &mut Vec<Diagnostic>) {
    for s in 0..ctx.len() {
        if ctx.in_test[s] || ctx.kind(s) != TokenKind::Punct {
            continue;
        }
        let op = ctx.text(s);
        if op != "==" && op != "!=" {
            continue;
        }
        let prev_float = s > 0 && ctx.kind(s - 1) == TokenKind::Float;
        let next_float = s + 1 < ctx.len() && ctx.kind(s + 1) == TokenKind::Float;
        if prev_float || next_float {
            out.push(ctx.diag(
                "float-eq",
                s,
                format!(
                    "direct `{op}` against a float literal; use an epsilon comparison or \
                     waive with the exactness argument"
                ),
            ));
        }
    }
}

/// L2: `Instant`/`SystemTime` in library code.
fn check_wall_clock(ctx: &FileContext<'_>, out: &mut Vec<Diagnostic>) {
    for s in 0..ctx.len() {
        if ctx.in_test[s] || ctx.kind(s) != TokenKind::Ident {
            continue;
        }
        let t = ctx.text(s);
        if t == "Instant" || t == "SystemTime" {
            out.push(ctx.diag(
                "wall-clock",
                s,
                format!("`{t}` makes library behaviour depend on wall-clock time"),
            ));
        }
    }
}

/// L3: `.unwrap()` / `.expect(` method calls.
fn check_method_call(
    ctx: &FileContext<'_>,
    method: &str,
    lint: &'static str,
    out: &mut Vec<Diagnostic>,
) {
    for s in 0..ctx.len() {
        if ctx.in_test[s] || ctx.kind(s) != TokenKind::Ident || ctx.text(s) != method {
            continue;
        }
        let is_call = s + 1 < ctx.len() && ctx.text(s + 1) == "(";
        let is_method = s > 0 && ctx.text(s - 1) == ".";
        if is_call && is_method {
            out.push(ctx.diag(
                lint,
                s,
                format!("`.{method}(…)` in library code; propagate a Result instead"),
            ));
        }
    }
}

/// L3: `panic!(…)` (and not, say, an ident named `panic`).
fn check_panic(ctx: &FileContext<'_>, out: &mut Vec<Diagnostic>) {
    for s in 0..ctx.len() {
        if ctx.in_test[s] || ctx.kind(s) != TokenKind::Ident || ctx.text(s) != "panic" {
            continue;
        }
        if s + 1 < ctx.len() && ctx.text(s + 1) == "!" {
            out.push(ctx.diag(
                "panic",
                s,
                "`panic!` in library code; return an Error variant instead".to_string(),
            ));
        }
    }
}

/// L3: slice indexing by an integer literal (`xs[0]`).
fn check_index_literal(ctx: &FileContext<'_>, out: &mut Vec<Diagnostic>) {
    for s in 0..ctx.len() {
        if ctx.in_test[s] || ctx.text(s) != "[" {
            continue;
        }
        let indexes_value =
            s > 0 && (ctx.kind(s - 1) == TokenKind::Ident || matches!(ctx.text(s - 1), ")" | "]"));
        if !indexes_value {
            continue;
        }
        // Exclude `#[…]` attributes (the ident check above already does,
        // since `#` is a punct) and require exactly `[ <int> ]`.
        if s + 2 < ctx.len() && ctx.kind(s + 1) == TokenKind::Int && ctx.text(s + 2) == "]" {
            out.push(ctx.diag(
                "index-literal",
                s,
                format!(
                    "literal index `[{}]` panics when the slice is short; use get() or \
                     destructuring",
                    ctx.text(s + 1)
                ),
            ));
        }
    }
}

/// L3: an `unsafe` block, `unsafe fn` or `unsafe impl` without a
/// `// SAFETY:` comment, or a `# Safety` doc section, on the lines directly
/// above it. Test code is not exempt: an unsound block is undefined
/// behaviour wherever it runs.
fn check_unsafe_safety_comment(ctx: &FileContext<'_>, out: &mut Vec<Diagnostic>) {
    for s in 0..ctx.len() {
        if ctx.kind(s) != TokenKind::Ident || ctx.text(s) != "unsafe" {
            continue;
        }
        let next = |k: usize| (s + k < ctx.len()).then(|| ctx.text(s + k));
        // `unsafe fn(…)` without a name is a function-pointer type.
        let named_fn = |k: usize| {
            next(k) == Some("fn")
                && s + k + 1 < ctx.len()
                && ctx.kind(s + k + 1) == TokenKind::Ident
        };
        let what = match next(1) {
            Some("{") => "block",
            Some("impl") => "impl",
            Some("fn") if named_fn(1) => "fn",
            Some("extern") if named_fn(3) => "fn",
            _ => continue,
        };
        if !has_safety_comment_above(ctx, s) {
            out.push(ctx.diag(
                "unsafe-safety-comment",
                s,
                format!(
                    "`unsafe` {what} without a `// SAFETY:` comment on the lines directly \
                     above; state why the operation's requirements hold"
                ),
            ));
        }
    }
}

/// Whether the run of comment and attribute lines directly above the line
/// of significant token `s` holds a `SAFETY:` comment or a `# Safety` doc
/// section. Code before `s` on its own line is skipped; a blank line or
/// any other code ends the run.
fn has_safety_comment_above(ctx: &FileContext<'_>, s: usize) -> bool {
    let line = ctx.line(s);
    let mut t = ctx.sig[s];
    while t > 0 {
        t -= 1;
        let tok = ctx.tokens[t];
        let text = tok.text(ctx.source);
        match tok.kind {
            TokenKind::LineComment | TokenKind::BlockComment => {
                if text.contains("SAFETY:") || text.contains("# Safety") {
                    return true;
                }
            }
            TokenKind::Whitespace if text.matches('\n').count() > 1 => return false,
            TokenKind::Whitespace => {}
            _ if tok.line == line => {}
            // An attribute (`#[…]` or `#![…]`) between comment and item.
            TokenKind::Punct if text == "]" => match attribute_start(ctx, t) {
                Some(start) => t = start,
                None => return false,
            },
            _ => return false,
        }
    }
    false
}

/// The token index of the `#` opening the attribute whose closing `]` is
/// token `close`, or `None` when the brackets are not an attribute.
fn attribute_start(ctx: &FileContext<'_>, close: usize) -> Option<usize> {
    let mut s = ctx.sig.binary_search(&close).ok()?;
    let mut depth = 0usize;
    loop {
        match ctx.text(s) {
            "]" => depth += 1,
            "[" => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            _ => {}
        }
        s = s.checked_sub(1)?;
    }
    let hash = match ctx.text(s.checked_sub(1)?) {
        "#" => s - 1,
        "!" if ctx.text(s.checked_sub(2)?) == "#" => s - 2,
        _ => return None,
    };
    Some(ctx.sig[hash])
}

/// Per-lint totals for the summary table.
#[must_use]
pub fn tally(diags: &[Diagnostic]) -> BTreeMap<&'static str, usize> {
    let mut counts = BTreeMap::new();
    for d in diags {
        *counts.entry(d.lint).or_insert(0) += 1;
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint_ids(rel_path: &str, src: &str) -> Vec<&'static str> {
        let mut ids: Vec<&'static str> = check_file(rel_path, src).iter().map(|d| d.lint).collect();
        ids.dedup();
        ids
    }

    const SEEDED: &str = "crates/data/src/x.rs";

    #[test]
    fn fit_on_test_flags_receiver_and_args() {
        assert_eq!(
            lint_ids(SEEDED, "fn f() { model.fit(test_features, y); }"),
            vec!["fit-on-test"]
        );
        assert_eq!(
            lint_ids(SEEDED, "fn f() { vault.data().fit_transform(x); }"),
            vec!["fit-on-test"]
        );
        // Definitions and clean calls pass.
        assert!(lint_ids(SEEDED, "fn fit(x: &M) {}").is_empty());
        assert!(lint_ids(SEEDED, "fn f() { model.fit(train_x, y); }").is_empty());
        // The lifecycle module is the sanctioned owner of sealed data.
        assert!(lint_ids(
            "crates/core/src/lifecycle.rs",
            "fn f() { handler.fit(vault_view, 0); }"
        )
        .is_empty());
    }

    #[test]
    fn vault_row_leak_catches_pub_row_accessors() {
        let src = "impl TestSetVault {\n  pub fn rows(&self) -> Vec<f64> { vec![] }\n}";
        assert_eq!(
            lint_ids("crates/core/src/isolation.rs", src),
            vec!["vault-row-leak"]
        );
        // Aggregates and restricted visibility pass.
        let ok = "impl TestSetVault {\n  pub fn n_rows(&self) -> usize { 0 }\n  pub(crate) fn data(&self) -> &DataFrame { &self.d }\n}";
        assert!(lint_ids("crates/core/src/isolation.rs", ok).is_empty());
    }

    #[test]
    fn hash_iter_and_thread_spawn_scoped_to_seeded() {
        let src = "use std::collections::HashMap; fn f() { std::thread::spawn(|| {}); }";
        assert_eq!(lint_ids(SEEDED, src), vec!["hash-iter", "thread-spawn"]);
        // Other library crates may use them (nondeterminism only matters on
        // seeded paths).
        assert!(lint_ids("crates/datasets/src/x.rs", src).is_empty());
        // The sanctioned parallel module is exempt from thread-spawn.
        assert_eq!(
            lint_ids(
                "crates/data/src/parallel.rs",
                "fn f() { std::thread::spawn(|| {}); }"
            ),
            Vec::<&str>::new()
        );
    }

    #[test]
    fn float_eq_only_fires_on_float_literals() {
        assert_eq!(
            lint_ids(SEEDED, "fn f(x: f64) -> bool { x == 0.0 }"),
            vec!["float-eq"]
        );
        assert_eq!(
            lint_ids(SEEDED, "fn f(x: f64) -> bool { 1.5 != x }"),
            vec!["float-eq"]
        );
        assert!(lint_ids(SEEDED, "fn f(x: usize) -> bool { x == 0 }").is_empty());
    }

    #[test]
    fn l3_lints_fire_in_library_not_binary() {
        let src = "fn f(xs: &[u8]) { xs.first().unwrap(); o.expect(\"m\"); panic!(\"no\"); let _ = xs[0]; }";
        assert_eq!(
            lint_ids(SEEDED, src),
            vec!["expect", "index-literal", "panic", "unwrap"]
        );
        assert!(lint_ids("crates/cli/src/main.rs", src).is_empty());
    }

    #[test]
    fn unsafe_safety_comment_applies_to_library_scopes_only() {
        let src = "fn f(p: *const u8) -> u8 { unsafe { *p } }";
        assert_eq!(lint_ids(SEEDED, src), vec!["unsafe-safety-comment"]);
        assert_eq!(lint_ids("src/lib.rs", src), vec!["unsafe-safety-comment"]);
        // Binaries and benches (allocator shims, libc calls) are exempt.
        assert!(lint_ids("crates/bench/src/bin/fig2_tuning.rs", src).is_empty());
        assert!(lint_ids("perfbench/benches/sys.rs", src).is_empty());
        let commented = "fn f(p: &u8) -> u8 {\n    // SAFETY: from a reference.\n    unsafe { *std::ptr::from_ref(p) }\n}";
        assert!(lint_ids(SEEDED, commented).is_empty());
    }

    #[test]
    fn unwrap_or_and_field_access_are_not_flagged() {
        assert!(lint_ids(SEEDED, "fn f(o: Option<u8>) { o.unwrap_or(0); }").is_empty());
        assert!(lint_ids(SEEDED, "fn f(t: (u8, u8)) -> u8 { t.0 }").is_empty());
    }

    #[test]
    fn test_code_is_skipped() {
        let src = "#[cfg(test)]\nmod tests {\n  #[test]\n  fn t() { x.unwrap(); v[0]; }\n}";
        assert!(lint_ids(SEEDED, src).is_empty());
        let fn_src = "#[test]\nfn t() { x.unwrap(); }\nfn prod() { y.unwrap(); }";
        let diags = check_file(SEEDED, fn_src);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].line, 3);
    }

    #[test]
    fn cfg_not_test_is_production_code() {
        let src = "#[cfg(not(test))]\nfn prod() { x.unwrap(); }";
        assert_eq!(lint_ids(SEEDED, src), vec!["unwrap"]);
    }

    #[test]
    fn waivers_cover_same_and_next_line() {
        let same = "fn f() { x.unwrap(); } // audit: allow(unwrap, reason = \"demo\")";
        assert!(lint_ids(SEEDED, same).is_empty());
        let above = "// audit: allow(unwrap, reason = \"demo\")\nfn f() { x.unwrap(); }";
        assert!(lint_ids(SEEDED, above).is_empty());
        // Out of range: the violation survives AND the waiver is stale.
        let too_far = "// audit: allow(unwrap, reason = \"demo\")\n\nfn f() { x.unwrap(); }";
        assert_eq!(lint_ids(SEEDED, too_far), vec!["stale-waiver", "unwrap"]);
        // A waiver for lint A does not silence lint B — and is stale.
        let wrong = "// audit: allow(expect, reason = \"demo\")\nfn f() { x.unwrap(); }";
        assert_eq!(lint_ids(SEEDED, wrong), vec!["stale-waiver", "unwrap"]);
    }

    #[test]
    fn file_level_waiver_covers_whole_file() {
        let src = "// audit: allow-file(index-literal, reason = \"kernel code\")\nfn f(a: &[u8]) { a[0]; }\nfn g(b: &[u8]) { b[1]; }";
        assert!(lint_ids(SEEDED, src).is_empty());
    }

    #[test]
    fn waiver_without_reason_is_fatal_and_inert() {
        let src = "// audit: allow(unwrap)\nfn f() { x.unwrap(); }";
        let diags = check_file(SEEDED, src);
        let ids: Vec<_> = diags.iter().map(|d| d.lint).collect();
        assert!(ids.contains(&"waiver-syntax"));
        assert!(
            ids.contains(&"unwrap"),
            "reasonless waiver must not suppress"
        );
        // Unknown lint names are rejected too.
        let unknown = "// audit: allow(made-up, reason = \"x\")";
        assert_eq!(lint_ids(SEEDED, unknown), vec!["waiver-syntax"]);
    }

    #[test]
    fn wall_clock_flagged_in_library() {
        assert_eq!(
            lint_ids(SEEDED, "fn f() { let t = Instant::now(); }"),
            vec!["wall-clock"]
        );
        assert!(lint_ids("crates/cli/src/main.rs", "fn f() { Instant::now(); }").is_empty());
    }

    #[test]
    fn wall_clock_carveout_is_exactly_the_trace_crate() {
        // The sanctioned clock owner may read `Instant`...
        assert!(lint_ids("crates/trace/src/lib.rs", "fn f() { Instant::now(); }").is_empty());
        // ...but keeps every other pipeline lint.
        assert_eq!(
            lint_ids("crates/trace/src/lib.rs", "fn f() { x.unwrap(); }"),
            vec!["unwrap"]
        );
        assert_eq!(
            classify("crates/trace/src/lib.rs"),
            FileScope::SeededLibrary
        );
        // The carve-out does not leak to sibling pipeline crates.
        assert_eq!(
            lint_ids("crates/core/src/lifecycle.rs", "fn f() { Instant::now(); }"),
            vec!["wall-clock"]
        );
        // A look-alike path outside `crates/` gets no carve-out either.
        assert_eq!(
            lint_ids("src/trace/clock.rs", "fn f() { Instant::now(); }"),
            vec!["wall-clock"]
        );
    }

    #[test]
    fn strings_and_comments_never_fire() {
        let src = "fn f() { let s = \"x.unwrap() HashMap panic!\"; } // x.unwrap()";
        assert!(lint_ids(SEEDED, src).is_empty());
    }
}
