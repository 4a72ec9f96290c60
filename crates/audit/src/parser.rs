//! A brace-matched item/block parser over the lossless lexer.
//!
//! The flow-sensitive passes (provenance taint, guard exhaustiveness,
//! concurrency checks) need more structure than a raw token stream — which
//! function am I in, where does its body end, what does it call — but
//! emphatically not a full Rust grammar. This module produces a
//! *lightweight AST*: function items with their visibility, enclosing
//! `impl` type, and body token range, plus per-function call-site lists.
//! From those, [`Workspace`] builds a per-crate symbol table and an
//! intra-workspace call graph with memoized reachability queries (used by
//! the `missing-guard-fit` lint to accept guards placed in shared helpers
//! like `validate_training_inputs`).
//!
//! Everything operates on *significant* token indices (whitespace and
//! comments filtered out), the same view the token lints use, so line
//! accounting and waiver placement stay consistent across all three
//! analyzer layers.

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::{Token, TokenKind};

/// A read-only cursor over the significant tokens of one file.
#[derive(Clone, Copy)]
pub struct View<'a> {
    /// The file's full source text.
    pub source: &'a str,
    /// Every token of the file (lossless).
    pub tokens: &'a [Token],
    /// Indices into `tokens` of the significant (non-trivia) tokens.
    pub sig: &'a [usize],
}

impl<'a> View<'a> {
    /// Text of significant token `s`.
    #[must_use]
    pub fn text(&self, s: usize) -> &'a str {
        self.tokens[self.sig[s]].text(self.source)
    }

    /// Kind of significant token `s`.
    #[must_use]
    pub fn kind(&self, s: usize) -> TokenKind {
        self.tokens[self.sig[s]].kind
    }

    /// 1-based source line of significant token `s`.
    #[must_use]
    pub fn line(&self, s: usize) -> u32 {
        self.tokens[self.sig[s]].line
    }

    /// Number of significant tokens.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sig.len()
    }

    /// `true` when the file holds no significant tokens.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sig.is_empty()
    }

    /// Index of the token closing the group opened at `open` (which must
    /// hold `open_tok`). Returns `len()` when unbalanced — callers treat
    /// that as "rest of file", which degrades to noise, never a skip.
    #[must_use]
    pub fn matching(&self, open: usize, open_tok: &str, close_tok: &str) -> usize {
        let mut depth = 0usize;
        let mut s = open;
        while s < self.len() {
            let t = self.text(s);
            if t == open_tok {
                depth += 1;
            } else if t == close_tok {
                depth -= 1;
                if depth == 0 {
                    return s;
                }
            }
            s += 1;
        }
        self.len()
    }
}

/// One `fn` item (free function, inherent/trait-impl method, or trait
/// default method). Trait *declarations* without a body are represented
/// with `body: None` and skipped by every pass.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// The function's name (`fit`, `fit_transform`, …).
    pub name: String,
    /// `pub` without a visibility restriction (`pub(crate)` is `false`).
    pub is_pub: bool,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Significant-token index of the `fn` keyword.
    pub fn_sig: usize,
    /// Significant-token range `(open_brace, close_brace)` of the body.
    pub body: Option<(usize, usize)>,
    /// The `Self` type when the fn sits inside an `impl` block.
    pub impl_type: Option<String>,
    /// `true` when the fn sits inside a `#[cfg(test)]` / `#[test]` region.
    pub in_test: bool,
}

impl FnItem {
    /// `true` when this is a fit-family entry point for the
    /// `missing-guard-fit` exhaustiveness rule: trait-impl `fit` /
    /// `fit_transform` methods (never `pub` syntactically) plus every
    /// `pub fn fit*` (e.g. `fit_tree`, `fit_concrete`).
    #[must_use]
    pub fn is_fit_entry(&self) -> bool {
        self.name == "fit"
            || self.name == "fit_transform"
            || (self.is_pub && self.name.starts_with("fit"))
    }
}

/// Rust keywords that look like calls when followed by `(`.
const CALL_KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "return", "loop", "in", "let", "else", "move", "ref", "mut",
    "dyn", "impl", "fn", "pub", "use", "mod", "where", "unsafe", "async", "await", "break",
    "continue", "struct", "enum", "trait", "type", "const", "static", "as", "box",
];

/// Parses the `fn` items of a file. `in_test` is the per-significant-token
/// test-region map computed by the lint engine.
#[must_use]
pub fn parse_fns(view: &View<'_>, in_test: &[bool]) -> Vec<FnItem> {
    // Pass 1: impl regions with their Self type. The type is the last
    // identifier seen at angle-bracket depth zero before the body opens
    // (`impl Tr for Ty<T> {` -> `Ty`, `impl Ty {` -> `Ty`).
    let mut impls: Vec<(usize, usize, String)> = Vec::new();
    for s in 0..view.len() {
        if view.kind(s) != TokenKind::Ident || view.text(s) != "impl" {
            continue;
        }
        let mut angle = 0i32;
        let mut self_ty = String::new();
        let mut open = None;
        for j in s + 1..view.len() {
            let t = view.text(j);
            match t {
                "{" => {
                    open = Some(j);
                    break;
                }
                ";" => break, // `impl Trait for Ty;`-style oddity: no body
                _ => {}
            }
            // Count angle depth by character so `<<`, `>>`, `->` stay honest.
            if view.kind(j) == TokenKind::Punct {
                for c in t.chars() {
                    match c {
                        '<' => angle += 1,
                        '>' => angle = (angle - 1).max(0),
                        _ => {}
                    }
                }
                if t == "->" {
                    angle += 1; // undo the spurious `>` from the arrow
                }
            } else if view.kind(j) == TokenKind::Ident && angle == 0 && t != "for" {
                self_ty = t.to_string();
            }
        }
        if let Some(open) = open {
            let close = view.matching(open, "{", "}");
            impls.push((open, close, self_ty));
        }
    }

    // Pass 2: fn items.
    let mut fns = Vec::new();
    for s in 0..view.len() {
        if view.kind(s) != TokenKind::Ident || view.text(s) != "fn" {
            continue;
        }
        let Some(name_idx) = (s + 1 < view.len()).then_some(s + 1) else {
            continue;
        };
        if view.kind(name_idx) != TokenKind::Ident {
            continue; // `Fn(` trait sugar or macro fragment
        }
        let name = view.text(name_idx).trim_start_matches("r#").to_string();
        // Find the body `{` (or a terminating `;` for bodyless trait
        // declarations) at paren depth zero after the signature.
        let mut paren = 0usize;
        let mut body = None;
        for j in name_idx + 1..view.len() {
            match view.text(j) {
                "(" => paren += 1,
                ")" => paren = paren.saturating_sub(1),
                "{" if paren == 0 => {
                    body = Some((j, view.matching(j, "{", "}")));
                    break;
                }
                ";" if paren == 0 => break,
                _ => {}
            }
        }
        // Visibility: `pub fn` or `pub <qualifier> fn` where the qualifier
        // is `unsafe` / `const` / `async`. `pub(crate)` leaves a `)` before
        // `fn` and is deliberately not counted.
        let is_pub = (s > 0 && view.text(s - 1) == "pub")
            || (s > 1
                && matches!(view.text(s - 1), "unsafe" | "const" | "async" | "extern")
                && view.text(s - 2) == "pub");
        let impl_type = impls
            .iter()
            .filter(|(open, close, _)| *open < s && s < *close)
            .max_by_key(|(open, _, _)| *open)
            .map(|(_, _, ty)| ty.clone());
        fns.push(FnItem {
            name,
            is_pub,
            line: view.line(s),
            fn_sig: s,
            body,
            impl_type,
            in_test: in_test.get(s).copied().unwrap_or(false),
        });
    }
    fns
}

/// The callee names referenced in a body range: identifiers directly
/// followed by `(` (free calls, method calls, tuple-struct constructors),
/// excluding keywords and macro invocations (`name!(`).
#[must_use]
pub fn callees(view: &View<'_>, body: (usize, usize)) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for s in body.0 + 1..body.1 {
        if view.kind(s) != TokenKind::Ident {
            continue;
        }
        let t = view.text(s);
        if CALL_KEYWORDS.contains(&t) {
            continue;
        }
        if s + 1 < view.len() && view.text(s + 1) == "(" {
            out.insert(t.to_string());
        }
    }
    out
}

/// One function in the workspace-wide symbol table.
pub struct SymbolFn {
    /// Repo-relative path of the defining file.
    pub file: String,
    /// The parsed item.
    pub item: FnItem,
    /// Callee names referenced in the body.
    pub calls: BTreeSet<String>,
}

/// Per-crate symbol table plus the intra-workspace call graph.
///
/// Resolution is name-based: a call edge `f -> "fit"` connects to *every*
/// function named `fit` anywhere in the audited tree. For reachability
/// queries that is deliberately optimistic ("some callee of this name
/// reaches the guard"), which keeps trait dispatch — invisible to a
/// token-level parser — from producing false positives.
#[derive(Default)]
pub struct Workspace {
    /// All functions, in file-then-line order.
    pub fns: Vec<SymbolFn>,
    /// Name → indices into `fns`.
    pub by_name: BTreeMap<String, Vec<usize>>,
}

impl Workspace {
    /// Registers one file's functions.
    pub fn add_file(&mut self, file: &str, view: &View<'_>, fns: &[FnItem]) {
        for item in fns {
            let calls = item.body.map(|b| callees(view, b)).unwrap_or_default();
            let idx = self.fns.len();
            self.by_name.entry(item.name.clone()).or_default().push(idx);
            self.fns.push(SymbolFn {
                file: file.to_string(),
                item: item.clone(),
                calls,
            });
        }
    }

    /// `true` when `fns[idx]` calls `target` directly or through any chain
    /// of same-named workspace functions (memoized DFS; cycles resolve to
    /// `false` unless another path reaches the target).
    #[must_use]
    pub fn reaches(&self, idx: usize, target: &str) -> bool {
        let mut memo: BTreeMap<usize, bool> = BTreeMap::new();
        let mut visiting: BTreeSet<usize> = BTreeSet::new();
        self.reaches_inner(idx, target, &mut memo, &mut visiting)
    }

    fn reaches_inner(
        &self,
        idx: usize,
        target: &str,
        memo: &mut BTreeMap<usize, bool>,
        visiting: &mut BTreeSet<usize>,
    ) -> bool {
        if let Some(&hit) = memo.get(&idx) {
            return hit;
        }
        if !visiting.insert(idx) {
            return false; // cycle: this path never reaches the target
        }
        let f = &self.fns[idx];
        let hit = f.calls.contains(target)
            || f.calls.iter().any(|callee| {
                self.by_name.get(callee).is_some_and(|ids| {
                    ids.iter()
                        .any(|&id| id != idx && self.reaches_inner(id, target, memo, visiting))
                })
            });
        visiting.remove(&idx);
        memo.insert(idx, hit);
        hit
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::tokenize;

    fn with_view<R>(src: &str, f: impl FnOnce(&View<'_>) -> R) -> R {
        let tokens = tokenize(src);
        let sig: Vec<usize> = (0..tokens.len())
            .filter(|&i| {
                !matches!(
                    tokens[i].kind,
                    TokenKind::Whitespace | TokenKind::LineComment | TokenKind::BlockComment
                )
            })
            .collect();
        let view = View {
            source: src,
            tokens: &tokens,
            sig: &sig,
        };
        f(&view)
    }

    fn fns_of(src: &str) -> Vec<FnItem> {
        with_view(src, |view| {
            let in_test = vec![false; view.len()];
            parse_fns(view, &in_test)
        })
    }

    #[test]
    fn finds_free_and_impl_fns_with_visibility() {
        let src = "pub fn a() {}\nfn b() {}\npub(crate) fn c() {}\nimpl Foo { pub fn d(&self) {} fn e(&self) {} }";
        let fns = fns_of(src);
        let names: Vec<(&str, bool, Option<&str>)> = fns
            .iter()
            .map(|f| (f.name.as_str(), f.is_pub, f.impl_type.as_deref()))
            .collect();
        assert_eq!(
            names,
            vec![
                ("a", true, None),
                ("b", false, None),
                ("c", false, None),
                ("d", true, Some("Foo")),
                ("e", false, Some("Foo")),
            ]
        );
        assert!(fns.iter().all(|f| f.body.is_some()));
    }

    #[test]
    fn trait_impl_type_is_the_self_type() {
        let src = "impl Sink for Pair<'_, A, B> { fn chunk(&mut self) {} }\nimpl<T: Ord> Wrapper<T> { fn get(&self) {} }";
        let fns = fns_of(src);
        assert_eq!(fns[0].impl_type.as_deref(), Some("Pair"));
        assert_eq!(fns[1].impl_type.as_deref(), Some("Wrapper"));
    }

    #[test]
    fn bodyless_trait_declarations_have_no_body() {
        let src =
            "trait M { fn fit(&self, x: &X) -> R; fn fit_traced(&self) -> R { self.fit(0) } }";
        let fns = fns_of(src);
        assert_eq!(fns.len(), 2);
        assert!(fns[0].body.is_none());
        assert!(fns[1].body.is_some());
    }

    #[test]
    fn fit_entry_classification() {
        let src = "fn fit() {}\npub fn fit_tree() {}\nfn fit_helper() {}\npub fn other() {}";
        let entries: Vec<(&str, bool)> = fns_of(src)
            .iter()
            .map(|f| (f.name.as_str(), f.is_fit_entry()))
            .collect::<Vec<_>>()
            .into_iter()
            .map(|(n, e)| {
                (
                    match n {
                        "fit" => "fit",
                        "fit_tree" => "fit_tree",
                        "fit_helper" => "fit_helper",
                        _ => "other",
                    },
                    e,
                )
            })
            .collect();
        assert_eq!(
            entries,
            vec![
                ("fit", true),
                ("fit_tree", true),
                ("fit_helper", false),
                ("other", false),
            ]
        );
    }

    #[test]
    fn callees_exclude_keywords_and_macros() {
        let src = "fn f() { if cond() { helper(x); vec![1]; format!(\"x\"); obj.method(); } }";
        let fns = fns_of(src);
        let view_calls = with_view(src, |view| callees(view, fns[0].body.unwrap()));
        assert!(view_calls.contains("cond"));
        assert!(view_calls.contains("helper"));
        assert!(view_calls.contains("method"));
        assert!(!view_calls.contains("if"));
        assert!(!view_calls.contains("vec"));
        assert!(!view_calls.contains("format"));
    }

    #[test]
    fn reachability_is_transitive_and_cycle_safe() {
        let src = "fn a() { b(); }\nfn b() { c(); }\nfn c() { a(); guard_fit(p, \"c\"); }\nfn d() { d(); }";
        with_view(src, |view| {
            let in_test = vec![false; view.len()];
            let fns = parse_fns(view, &in_test);
            let mut ws = Workspace::default();
            ws.add_file("x.rs", view, &fns);
            assert!(ws.reaches(0, "guard_fit"), "a -> b -> c -> guard_fit");
            assert!(ws.reaches(2, "guard_fit"));
            assert!(!ws.reaches(3, "guard_fit"), "self-cycle never reaches");
        });
    }
}
