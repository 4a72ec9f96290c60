//! Layer-three analysis: concurrency/determinism and hot-path allocation.
//!
//! * **`shared-mut-capture`** — closures handed to `parallel_map` /
//!   `parallel_map_catching` run on a work-stealing pool; a captured
//!   `RefCell::borrow_mut`, `Mutex::lock`, `&mut` borrow, or assignment
//!   to a captured variable makes the observable result depend on
//!   scheduling order. Per-item state must live inside the closure.
//! * **`nondeterministic-reduce`** — float accumulation inside those
//!   closures (`.sum::<f64>()`, `.fold(0.0, …)`) bypasses the frozen
//!   4-accumulator kernels whose reduction tree is what makes sweep
//!   results bit-identical across thread counts.
//! * **`alloc-in-kernel`** — `fairprep_ml::kernels` and functions marked
//!   `// audit: hot-path` (the frame builder's row push, the profile's
//!   quantile and the telemetry record functions) are the allocation-
//!   and lock-free core that perfbench's workloads run on every row;
//!   `Vec::new`, `.to_vec()`, `.collect()`, `format!`, `vec!`,
//!   `Box::new`, and `.lock()` there would silently slow them down.

use crate::lexer::TokenKind;
use crate::lints::{Diagnostic, FileAnalysis};
use crate::parser::View;

/// Pool entry points whose closure arguments are order-sensitive.
/// `scoped_workers` is the scoring server's accept loop: its worker
/// closure runs concurrently on every thread, so the same captured-state
/// rules apply as for the work-stealing pools.
const POOL_FNS: &[&str] = &["parallel_map", "parallel_map_catching", "scoped_workers"];

/// How many lines above a `fn` keyword a `// audit: hot-path` marker may
/// sit (attributes and doc lines in between are common).
const HOT_PATH_REACH: u32 = 3;

/// Runs the concurrency and allocation lints over one analyzed file.
/// Appends raw (pre-waiver) diagnostics.
pub fn check(analysis: &FileAnalysis<'_>, raw: &mut Vec<Diagnostic>) {
    let conc = analysis.scope.lint_applies("shared-mut-capture");
    let reduce = analysis.scope.lint_applies("nondeterministic-reduce");
    if conc || reduce {
        check_parallel_closures(analysis, conc, reduce, raw);
    }
    if analysis.scope.lint_applies("alloc-in-kernel") {
        check_alloc_in_kernel(analysis, raw);
    }
}

/// The significant-token range `(start, end)` of the closure argument
/// inside a call's parens, plus the set of closure-local names (params;
/// `let`- and `for`-bound names are added by the caller's scan).
struct Closure {
    params: Vec<String>,
    body: (usize, usize),
}

/// Finds the first closure literal inside `(args_open, args_close)`.
fn find_closure(view: &View<'_>, args_open: usize, args_close: usize) -> Option<Closure> {
    let mut s = args_open + 1;
    while s < args_close {
        let t = view.text(s);
        let (params, body_start) = if t == "||" {
            (Vec::new(), s + 1)
        } else if t == "|" {
            // Closure params cannot nest pipes, so the parameter list
            // closes at the next bare `|`.
            let mut close_idx = s + 1;
            while close_idx < args_close && view.text(close_idx) != "|" {
                close_idx += 1;
            }
            let mut params = Vec::new();
            let mut p = s + 1;
            while p < close_idx {
                if view.kind(p) == TokenKind::Ident && view.text(p) != "mut" {
                    // First ident of each comma-separated pattern; skip
                    // type annotations after `:`.
                    params.push(view.text(p).to_string());
                    while p < close_idx && view.text(p) != "," {
                        p += 1;
                    }
                }
                p += 1;
            }
            (params, close_idx + 1)
        } else {
            s += 1;
            continue;
        };
        if body_start >= args_close {
            return None;
        }
        let body = if view.text(body_start) == "{" {
            let close = view.matching(body_start, "{", "}").min(args_close);
            (body_start, close)
        } else {
            // Expression body: runs to the first `,` or the call's `)` at
            // depth zero.
            let mut depth = 0i32;
            let mut e = body_start;
            while e < args_close {
                match view.text(e) {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" => depth -= 1,
                    "," if depth <= 0 => break,
                    _ => {}
                }
                e += 1;
            }
            (body_start, e)
        };
        return Some(Closure { params, body });
    }
    None
}

fn check_parallel_closures(
    analysis: &FileAnalysis<'_>,
    conc: bool,
    reduce: bool,
    raw: &mut Vec<Diagnostic>,
) {
    let view = analysis.view();
    for s in 0..view.len() {
        if analysis.in_test.get(s).copied().unwrap_or(false)
            || view.kind(s) != TokenKind::Ident
            || !POOL_FNS.contains(&view.text(s))
            || s + 1 >= view.len()
            || view.text(s + 1) != "("
        {
            continue;
        }
        let args_close = view.matching(s + 1, "(", ")");
        let Some(closure) = find_closure(&view, s + 1, args_close) else {
            continue;
        };
        let pool_fn = view.text(s);
        // Closure-local names: params plus `let`/`for` bindings inside
        // the body. Mutating these is per-item state — fine.
        let mut locals: Vec<String> = closure.params.clone();
        let (open, close) = closure.body;
        for j in open..close {
            if view.kind(j) == TokenKind::Ident
                && matches!(view.text(j), "let" | "for")
                && j + 1 < close
            {
                let mut n = j + 1;
                if view.text(n) == "mut" {
                    n += 1;
                }
                if n < close && view.kind(n) == TokenKind::Ident {
                    locals.push(view.text(n).to_string());
                }
            }
        }

        for j in open..close {
            let t = view.text(j);
            if conc && view.kind(j) == TokenKind::Ident {
                // `.borrow_mut(` / `.lock(`: interior mutability shared
                // across pool items.
                if matches!(t, "borrow_mut" | "lock")
                    && j >= 1
                    && view.text(j - 1) == "."
                    && j + 1 < close
                    && view.text(j + 1) == "("
                {
                    raw.push(diag(
                        analysis,
                        "shared-mut-capture",
                        view.line(j),
                        format!(
                            "`.{t}()` inside a `{pool_fn}` closure mutates state shared \
                             across pool items — results become scheduling-order \
                             dependent; keep per-item state local and merge in \
                             submission order"
                        ),
                    ));
                }
                // Assignment to a captured (non-local) variable.
                let is_plain_assign = j + 1 < close
                    && view.text(j + 1) == "="
                    && (j == open + 1 || matches!(view.text(j - 1), ";" | "{" | "}" | "*"));
                let is_compound_assign = j + 1 < close
                    && matches!(
                        view.text(j + 1),
                        "+=" | "-=" | "*=" | "/=" | "%=" | "|=" | "&=" | "^=" | "<<=" | ">>="
                    );
                if (is_plain_assign || is_compound_assign) && !locals.iter().any(|l| l == t) {
                    raw.push(diag(
                        analysis,
                        "shared-mut-capture",
                        view.line(j),
                        format!(
                            "assignment to captured `{t}` inside a `{pool_fn}` closure \
                             — captured accumulators race with work stealing; return \
                             per-item values and reduce outside the pool"
                        ),
                    ));
                }
            }
            // `&mut captured` borrow escaping into the closure body.
            if conc
                && t == "&"
                && j + 2 < close
                && view.text(j + 1) == "mut"
                && view.kind(j + 2) == TokenKind::Ident
                && !locals.iter().any(|l| l == view.text(j + 2))
                && view.text(j + 2) != "self"
            {
                raw.push(diag(
                    analysis,
                    "shared-mut-capture",
                    view.line(j),
                    format!(
                        "`&mut {}` borrowed inside a `{pool_fn}` closure captures \
                         shared mutable state — pool items must not alias a writer",
                        view.text(j + 2)
                    ),
                ));
            }
            if reduce && view.kind(j) == TokenKind::Ident {
                // `.sum::<f64>()` / `.product::<f32>()`.
                if matches!(t, "sum" | "product")
                    && j >= 1
                    && view.text(j - 1) == "."
                    && j + 4 < close
                    && view.text(j + 1) == "::"
                    && view.text(j + 2) == "<"
                    && matches!(view.text(j + 3), "f64" | "f32")
                {
                    raw.push(diag(
                        analysis,
                        "nondeterministic-reduce",
                        view.line(j),
                        format!(
                            "float `.{t}::<{}>()` inside a `{pool_fn}` closure bypasses \
                             the frozen 4-accumulator kernels — use \
                             `fairprep_ml::kernels::dot`-style fixed reduction trees \
                             so results stay bit-identical across thread counts",
                            view.text(j + 3)
                        ),
                    ));
                }
                // `.fold(0.0, …)` / `.reduce(…)` with a float seed.
                if matches!(t, "fold" | "reduce")
                    && j >= 1
                    && view.text(j - 1) == "."
                    && j + 2 < close
                    && view.text(j + 1) == "("
                    && view.kind(j + 2) == TokenKind::Float
                {
                    raw.push(diag(
                        analysis,
                        "nondeterministic-reduce",
                        view.line(j),
                        format!(
                            "float `.{t}()` accumulation inside a `{pool_fn}` closure \
                             — ad-hoc reduction order is not fixed; route the \
                             accumulation through the frozen kernels"
                        ),
                    ));
                }
            }
        }
    }
}

/// The allocation-free hot core: all of `fairprep_ml::kernels`, plus any
/// function opted in with a `// audit: hot-path` marker comment.
fn check_alloc_in_kernel(analysis: &FileAnalysis<'_>, raw: &mut Vec<Diagnostic>) {
    let view = analysis.view();
    let whole_file = analysis.rel_path.ends_with("ml/src/kernels.rs");
    for f in &analysis.fns {
        if f.in_test {
            continue;
        }
        let Some((open, close)) = f.body else {
            continue;
        };
        let marked = analysis
            .hot_path_markers
            .iter()
            .any(|&m| m < f.line && f.line - m <= HOT_PATH_REACH);
        if !whole_file && !marked {
            continue;
        }
        for j in open..close {
            if view.kind(j) != TokenKind::Ident {
                continue;
            }
            let t = view.text(j);
            let found: Option<&str> = if t == "Vec"
                && j + 2 < close
                && view.text(j + 1) == "::"
                && view.text(j + 2) == "new"
            {
                Some("Vec::new()")
            } else if t == "to_vec"
                && j >= 1
                && view.text(j - 1) == "."
                && j + 1 < close
                && view.text(j + 1) == "("
            {
                Some(".to_vec()")
            } else if t == "collect"
                && j >= 1
                && view.text(j - 1) == "."
                && j + 1 < close
                && matches!(view.text(j + 1), "(" | "::")
            {
                Some(".collect()")
            } else if t == "format" && j + 1 < close && view.text(j + 1) == "!" {
                Some("format!")
            } else if t == "vec" && j + 1 < close && view.text(j + 1) == "!" {
                Some("vec![]")
            } else if t == "Box"
                && j + 2 < close
                && view.text(j + 1) == "::"
                && view.text(j + 2) == "new"
            {
                Some("Box::new()")
            } else if t == "lock"
                && j >= 1
                && view.text(j - 1) == "."
                && j + 1 < close
                && view.text(j + 1) == "("
            {
                Some(".lock()")
            } else {
                None
            };
            if let Some(what) = found {
                raw.push(diag(
                    analysis,
                    "alloc-in-kernel",
                    view.line(j),
                    format!(
                        "`{what}` in hot-path fn `{}` — the kernel and telemetry \
                         record layers are allocation- and lock-free by \
                         construction (perfbench runs them on every row); \
                         take an output slice, reuse a caller-owned buffer, \
                         or record through relaxed atomics",
                        f.name
                    ),
                ));
            }
        }
    }
}

fn diag(analysis: &FileAnalysis<'_>, lint: &'static str, line: u32, message: String) -> Diagnostic {
    Diagnostic {
        lint,
        file: analysis.rel_path.to_string(),
        line,
        message,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_src(rel: &str, src: &str) -> Vec<Diagnostic> {
        let analysis = FileAnalysis::new(rel, src);
        let mut raw = Vec::new();
        check(&analysis, &mut raw);
        raw
    }

    #[test]
    fn captured_accumulator_and_borrow_mut_fire() {
        let src = "fn f(xs: &[f64]) {\n\
                   let mut total = 0.0;\n\
                   let log = RefCell::new(Vec::new());\n\
                   parallel_map(2, xs, |x| { total += x; log.borrow_mut().push(*x); x + 1.0 });\n}";
        let diags = check_src("crates/core/src/p.rs", src);
        assert_eq!(
            diags
                .iter()
                .filter(|d| d.lint == "shared-mut-capture")
                .count(),
            2,
            "{diags:?}"
        );
    }

    #[test]
    fn local_accumulator_is_clean() {
        let src = "fn f(xs: &[Vec<f64>]) {\n\
                   parallel_map(2, xs, |row| { let mut acc = 0.0; for v in row { acc = step(acc, *v); } acc });\n}";
        let diags = check_src("crates/core/src/p.rs", src);
        assert!(diags.is_empty(), "{diags:?}");
    }

    /// The serving hot path: `scoped_workers` closures are subject to
    /// the same shared-mutable-capture rules as the work-stealing pools.
    #[test]
    fn scoped_workers_closure_is_linted() {
        let dirty = "fn serve(n: usize) {\n\
                     let mut served = 0usize;\n\
                     scoped_workers(n, |w| { served += w; });\n}";
        let diags = check_src("crates/cli/src/serve/mod.rs", dirty);
        assert_eq!(
            diags
                .iter()
                .filter(|d| d.lint == "shared-mut-capture")
                .count(),
            1,
            "{diags:?}"
        );
        // Atomics and per-worker locals are the sanctioned pattern.
        let clean = "fn serve(n: usize, stop: &AtomicBool) {\n\
                     scoped_workers(n, |w| { let mut local = w; local += 1; \
                     while !stop.load(Ordering::Relaxed) { step(local); } });\n}";
        assert!(check_src("crates/cli/src/serve/mod.rs", clean).is_empty());
    }

    #[test]
    fn float_reduction_in_closure_fires() {
        let src = "fn f(xs: &[Vec<f64>]) {\n\
                   parallel_map(2, xs, |row| row.iter().sum::<f64>());\n\
                   parallel_map(2, xs, |row| row.iter().fold(0.0, |a, b| a + b));\n}";
        let diags = check_src("crates/core/src/p.rs", src);
        assert_eq!(
            diags
                .iter()
                .filter(|d| d.lint == "nondeterministic-reduce")
                .count(),
            2,
            "{diags:?}"
        );
    }

    #[test]
    fn kernel_file_rejects_allocations_everywhere() {
        let src = "pub fn dot(a: &[f64]) -> Vec<f64> {\n\
                   let out = Vec::new();\n\
                   let copy = a.to_vec();\n\
                   let s: Vec<f64> = a.iter().copied().collect();\n\
                   let msg = format!(\"{}\", a.len());\n\
                   out\n}";
        let diags = check_src("crates/ml/src/kernels.rs", src);
        assert_eq!(
            diags.iter().filter(|d| d.lint == "alloc-in-kernel").count(),
            4,
            "{diags:?}"
        );
    }

    #[test]
    fn hot_path_marker_opts_in_and_absence_opts_out() {
        let marked = "// audit: hot-path\nfn inner(a: &[u8]) { let v = a.to_vec(); drop(v); }";
        let diags = check_src("crates/data/src/csv.rs", marked);
        assert_eq!(
            diags.iter().filter(|d| d.lint == "alloc-in-kernel").count(),
            1,
            "{diags:?}"
        );
        let unmarked = "fn inner(a: &[u8]) { let v = a.to_vec(); drop(v); }";
        assert!(check_src("crates/data/src/csv.rs", unmarked).is_empty());
    }

    /// The telemetry extension: locking and the remaining allocation
    /// macros are hot-path violations too.
    #[test]
    fn hot_path_rejects_locks_and_alloc_macros() {
        let src = "// audit: hot-path\n\
                   fn record(m: &Mutex<u64>, v: u64) {\n\
                   let mut g = m.lock().unwrap_or_else(PoisonError::into_inner);\n\
                   let staged = vec![v];\n\
                   let boxed = Box::new(staged);\n\
                   *g += boxed[0];\n}";
        let diags = check_src("crates/trace/src/telemetry.rs", src);
        let hits: Vec<&str> = diags
            .iter()
            .filter(|d| d.lint == "alloc-in-kernel")
            .map(|d| d.message.as_str())
            .collect();
        assert_eq!(hits.len(), 3, "{hits:?}");
        assert!(hits.iter().any(|m| m.contains("`.lock()`")), "{hits:?}");
        assert!(hits.iter().any(|m| m.contains("`vec![]`")), "{hits:?}");
        assert!(hits.iter().any(|m| m.contains("`Box::new()`")), "{hits:?}");
    }

    /// A relaxed-atomic record function is the sanctioned shape: no
    /// diagnostics.
    #[test]
    fn hot_path_atomic_record_is_clean() {
        let src = "// audit: hot-path\n\
                   fn record(shard: &AtomicU64, v: u64) {\n\
                   shard.fetch_add(v, Ordering::Relaxed);\n}";
        let diags = check_src("crates/trace/src/telemetry.rs", src);
        assert!(
            !diags.iter().any(|d| d.lint == "alloc-in-kernel"),
            "{diags:?}"
        );
    }
}
