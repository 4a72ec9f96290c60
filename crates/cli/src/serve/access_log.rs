//! The JSONL access log: one `access` record per sampled request plus
//! every alert event, rendered live by `fairprep tail`.

use std::io::Write;
use std::path::Path;
use std::sync::{Mutex, PoisonError};

use fairprep_trace::json::{obj, Value};

/// A flushed JSONL access log: one `access` event per sampled request
/// carrying the monotonic request id, worker index, status, total
/// latency, and read/handle/write span timings. Rendered live by
/// `fairprep tail`.
#[derive(Debug)]
pub struct AccessLog {
    out: Mutex<std::io::BufWriter<std::fs::File>>,
    /// Record requests whose id is a multiple of this (1 = every
    /// request); derived from `--sample-rate`.
    sample_every: u64,
}

/// One request's access-log fields.
pub(super) struct AccessSpan<'a> {
    pub(super) id: u64,
    pub(super) worker: usize,
    pub(super) method: &'a str,
    pub(super) path: &'a str,
    pub(super) status: u16,
    pub(super) latency_us: u64,
    pub(super) read_us: u64,
    pub(super) handle_us: u64,
    pub(super) write_us: u64,
}

impl AccessLog {
    /// Creates (truncating) the log file. `sample_rate` must be in
    /// `(0, 1]`: 1.0 records every request, 0.01 every hundredth.
    pub fn create(path: &Path, sample_rate: f64) -> Result<AccessLog, String> {
        let sample_every = super::sample_period("--sample-rate", sample_rate)?;
        let file = std::fs::File::create(path)
            .map_err(|e| format!("cannot create access log {}: {e}", path.display()))?;
        Ok(AccessLog {
            out: Mutex::new(std::io::BufWriter::new(file)),
            sample_every,
        })
    }

    /// Appends one access record if the request id is sampled.
    pub(super) fn record(&self, span: &AccessSpan<'_>) {
        if !span.id.is_multiple_of(self.sample_every) {
            return;
        }
        self.append_event(&obj(vec![
            ("event", Value::Str("access".to_string())),
            ("id", Value::from_u64(span.id)),
            ("worker", Value::from_u64(span.worker as u64)),
            ("method", Value::Str(span.method.to_string())),
            ("path", Value::Str(span.path.to_string())),
            ("status", Value::from_u64(u64::from(span.status))),
            ("latency_us", Value::from_u64(span.latency_us)),
            ("read_us", Value::from_u64(span.read_us)),
            ("handle_us", Value::from_u64(span.handle_us)),
            ("write_us", Value::from_u64(span.write_us)),
        ]));
    }

    /// Appends one structured event line unconditionally — alert
    /// transitions are never sampled away.
    pub(super) fn append_event(&self, event: &Value) {
        let line = event.to_json();
        let mut out = self.out.lock().unwrap_or_else(PoisonError::into_inner);
        let _ = writeln!(out, "{line}");
        let _ = out.flush();
    }
}
