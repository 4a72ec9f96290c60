//! In-memory span recording for the traced run.
//!
//! A span has a name, start, end, parent and op id. The benchmark opens
//! one root span per op (named [`OP`]) and leaf spans around each call
//! into a crate's public functions; a span's self time is its duration
//! minus the time its child spans cover. Spans stay in memory until the
//! run ends and are then written out as JSON lines.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use fairprep_trace::json::{obj, Value};

/// Root span of one op; its self time is the op's unattributed time.
pub const OP: &str = "core.other_ms";

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub start: Instant,
    pub end: Instant,
}

/// The spans of one op (recorded by one thread, so siblings never
/// overlap).
#[derive(Debug)]
pub struct Spans {
    op: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new(op: u64) -> Spans {
        Spans {
            op,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enter(&mut self, name: &'static str) {
        let now = Instant::now();
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.open.last().copied(),
            start: now,
            end: now,
        });
        self.open.push(self.spans.len() - 1);
    }

    pub fn exit(&mut self) {
        if let Some(ix) = self.open.pop() {
            self.spans[ix].end = Instant::now();
        }
    }

    /// Runs `f` inside a leaf span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// Milliseconds from the first span's start to the root's end.
    pub fn wall_ms(&self) -> f64 {
        self.spans
            .first()
            .map_or(0.0, |s| ms(s.end.duration_since(s.start)))
    }

    /// Self time per span name, in milliseconds.
    pub fn self_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ms = vec![0.0; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_ms[p] += ms(span.end.duration_since(span.start));
            }
        }
        let mut out = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ms) {
            *out.entry(span.name).or_insert(0.0) +=
                ms(span.end.duration_since(span.start)) - children;
        }
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

pub fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Writes every span as one JSON line, times in microseconds from `t0`.
pub fn write_jsonl(path: &Path, t0: Instant, ops: &[Spans]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for op in ops {
        for span in op.spans() {
            let us = |t: Instant| Value::Num((t.duration_since(t0).as_secs_f64() * 1e6).round());
            let line = obj(vec![
                ("name", Value::Str(span.name.to_string())),
                ("op", Value::Num(span.op as f64)),
                (
                    "parent",
                    span.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                ),
                ("start_us", us(span.start)),
                ("end_us", us(span.end)),
            ]);
            writeln!(out, "{}", line.to_json())?;
        }
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut spans = Spans::new(0);
        spans.enter(OP);
        spans.time("leaf", || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        spans.exit();
        let self_ms = spans.self_ms();
        let total = spans.wall_ms();
        assert!(self_ms["leaf"] >= 5.0);
        assert!((self_ms[OP] + self_ms["leaf"] - total).abs() < 1e-9);
    }
}
