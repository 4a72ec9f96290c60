//! The sealed-pipeline scoring service.
//!
//! `fairprep serve --registry DIR` loads every [`SealedPipeline`]
//! artifact in `DIR` and answers HTTP scoring requests against the
//! frozen chains — imputer, featurizer, scaler, model, post-processor —
//! exactly as they were fitted, with no framework re-entry:
//!
//! * `POST /predict/<fingerprint>` — scores `{"row": {...}}` or
//!   `{"rows": [{...}, ...]}` through the sealed chain and returns one
//!   prediction per input row (scores also as IEEE-754 bit patterns, so
//!   clients can assert bit-identical replay).
//! * `GET /healthz` — liveness and pipeline count.
//! * `GET /metrics` — per-pipeline request counts, a log₂ latency
//!   histogram with p50/p99, decision rates by protected group, and
//!   online PSI drift of the live traffic against the **sealed training
//!   profile** (the same smoothing and binning the lifecycle profiler
//!   uses) — each reported for the pipeline's *lifetime* and for rolling
//!   windows over the last 1k/10k observations, so a distribution shift
//!   after a million healthy requests still moves a number somewhere.
//!   The endpoint is content-negotiated: JSON by default, Prometheus
//!   text exposition (format 0.0.4) when the `Accept` header asks for
//!   `text/plain` or OpenMetrics.
//!
//! Telemetry is recorded through `fairprep_trace::telemetry`: per-worker
//! **sharded** counters and histograms plus lock-free ring windows, so
//! the request hot path performs only relaxed atomic arithmetic — no
//! locks, no allocation (enforced by the `// audit: hot-path` lint
//! markers). Shards merge at scrape time, and merges are commutative
//! sums, so `/metrics` totals are exact at any worker count. PSI
//! baselines are smoothed **once per pipeline at registry load** (see
//! [`smoothed_fractions`](fairprep_data::profile::smoothed_fractions))
//! rather than on every scrape.
//!
//! With `--access-log PATH` the server also appends one JSONL access
//! record per (sampled) request — monotonic request id, worker index,
//! status, and read/handle/write span timings — rendered live by
//! `fairprep tail`.
//!
//! The service is split by concern. This module holds the registry, the
//! scoring path and the accept loop; its submodules hold
//!
//! * `http` — request framing, routing and the blocking test client;
//! * `telemetry` — the record path: sharded lifetime counters, and the
//!   rolling windows with the counts kept beside their rings;
//! * `metrics` — the scrape: one view per scope (the lifetime and each
//!   window) read from those same counts, and the JSON and Prometheus
//!   encoders that loop over the views;
//! * `alerts` — alert evaluation on every request, canary
//!   shadow-scoring and webhook delivery;
//! * `access_log` — the JSONL access and event log.
//!
//! The server is dependency-free: `std::net` plus the repo's own
//! [`scoped_workers`] pool.

mod access_log;
mod alerts;
mod decode;
mod http;
mod metrics;
mod telemetry;
#[cfg(test)]
mod tests;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use fairprep_core::seal::{ScoredRow, SealedPipeline};
use fairprep_data::parallel::scoped_workers;
use fairprep_trace::alert::AlertSpec;
use fairprep_trace::json::{self, Value};

pub use access_log::AccessLog;
use alerts::{ArmedAlert, CanaryConfig, WebhookSender};
pub use http::{http_request, http_request_accept, HEAD_DEADLINE, MAX_REQUEST_LINE_BYTES};
use metrics::PipelineView;
use telemetry::{PipeTelemetry, WINDOW_SPECS};

/// Largest accepted request body. Requests beyond this are refused with
/// `413` before any allocation proportional to the claimed length.
pub const MAX_BODY_BYTES: usize = 8 * 1024 * 1024;

/// The rolling-window labels alert specs may name (the first is the
/// default window when a spec leaves it out).
pub const WINDOW_LABELS: [&str; WINDOW_SPECS.len()] = [WINDOW_SPECS[0].1, WINDOW_SPECS[1].1];

/// `Content-Type` of every JSON response.
const JSON_CONTENT_TYPE: &str = "application/json";

/// The period of a sampling option such as `--sample-rate`: every
/// `1/rate`-th request, after checking that `rate` lies in `(0, 1]`.
fn sample_period(option: &str, rate: f64) -> Result<u64, String> {
    if !(rate > 0.0 && rate <= 1.0) {
        return Err(format!("{option} must be in (0, 1], got {rate}"));
    }
    #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
    Ok((1.0 / rate).round().max(1.0) as u64)
}

struct Entry {
    sealed: SealedPipeline,
    telemetry: PipeTelemetry,
    /// Armed alerts; empty without `--alerts`.
    alerts: Vec<ArmedAlert>,
}

/// All sealed pipelines the server answers for, keyed by the
/// filesystem-safe form of their config fingerprint (`:` → `-`; both
/// spellings are accepted in request paths).
#[derive(Default)]
pub struct Registry {
    entries: BTreeMap<String, Entry>,
    next_request_id: AtomicU64,
    fixed_latency_us: AtomicU64,
    canary: Option<CanaryConfig>,
    webhook: Option<WebhookSender>,
}

/// `:` is not filesystem- or URL-friendly, so artifacts and request
/// paths use `-` while the sealed record keeps the canonical `:` form.
fn normalize_fingerprint(fp: &str) -> String {
    fp.replace(':', "-")
}

impl Registry {
    /// Builds an empty registry (useful for in-process tests that add
    /// pipelines directly).
    #[must_use]
    pub fn new() -> Self {
        Registry::default()
    }

    /// Loads every `*.json` sealed-pipeline artifact in `dir`.
    pub fn open(dir: &Path) -> Result<Registry, String> {
        let mut registry = Registry::new();
        let listing =
            std::fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
        for item in listing {
            let path = item.map_err(|e| e.to_string())?.path();
            if path.extension().and_then(|e| e.to_str()) != Some("json") {
                continue;
            }
            let sealed = SealedPipeline::load(&path)
                .map_err(|e| format!("cannot load {}: {e}", path.display()))?;
            registry.insert(sealed);
        }
        Ok(registry)
    }

    /// Registers one pipeline; replaces any previous artifact with the
    /// same fingerprint.
    pub fn insert(&mut self, sealed: SealedPipeline) {
        let key = normalize_fingerprint(&sealed.fingerprint);
        let telemetry = PipeTelemetry::new(&sealed);
        self.entries.insert(
            key,
            Entry {
                sealed,
                telemetry,
                alerts: Vec::new(),
            },
        );
    }

    /// Arms every spec on every registered pipeline, resolving window
    /// labels and PSI columns up front so the hot path never fails.
    pub fn arm_alerts(&mut self, specs: &[AlertSpec]) -> Result<(), String> {
        for entry in self.entries.values_mut() {
            entry.alerts = specs
                .iter()
                .map(|spec| ArmedAlert::arm(spec, &entry.telemetry, &entry.sealed.fingerprint))
                .collect::<Result<_, _>>()?;
        }
        Ok(())
    }

    /// Arms canary shadow-scoring: every `1/sample_rate`-th predict
    /// request against any *other* pipeline is also scored through the
    /// pipeline with `fingerprint`, and per-row decision divergence is
    /// recorded into the serving pipeline's rolling windows.
    pub fn arm_canary(&mut self, fingerprint: &str, sample_rate: f64) -> Result<(), String> {
        let key = normalize_fingerprint(fingerprint);
        if !self.entries.contains_key(&key) {
            return Err(format!(
                "--canary: no pipeline with fingerprint {fingerprint} in the registry"
            ));
        }
        self.canary = Some(CanaryConfig {
            key,
            sample_every: sample_period("--canary-sample", sample_rate)?,
            counter: AtomicU64::new(0),
        });
        Ok(())
    }

    /// Attaches a webhook URL; alert transitions POST their canonical
    /// JSON payload there with bounded retry, off the scoring path.
    pub fn set_webhook(&mut self, url: &str) -> Result<(), String> {
        self.webhook = Some(WebhookSender::start(url)?);
        Ok(())
    }

    /// Columns with usable drift baselines, unioned across pipelines —
    /// the names a PSI alert spec may reference.
    #[must_use]
    pub fn drift_columns(&self) -> Vec<String> {
        let mut columns: Vec<String> = Vec::new();
        for entry in self.entries.values() {
            for track in &entry.telemetry.drift {
                if !columns.contains(&track.name) {
                    columns.push(track.name.clone());
                }
            }
        }
        columns
    }

    /// Number of registered pipelines.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no pipeline is registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Canonical fingerprints of every registered pipeline.
    #[must_use]
    pub fn fingerprints(&self) -> Vec<&str> {
        self.entries
            .values()
            .map(|e| e.sealed.fingerprint.as_str())
            .collect()
    }

    fn get(&self, fingerprint: &str) -> Option<&Entry> {
        self.entries.get(&normalize_fingerprint(fingerprint))
    }

    /// Forces every recorded request latency to `us` (0 restores real
    /// timing). A determinism knob: the committed golden exposition
    /// fixture replays with a fixed latency so the scrape is
    /// byte-identical on any machine.
    pub fn set_fixed_latency_us(&self, us: u64) {
        self.fixed_latency_us.store(us, Ordering::Relaxed);
    }

    fn next_id(&self) -> u64 {
        self.next_request_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Reads every pipeline's scrape view.
    fn views(&self) -> Vec<PipelineView<'_>> {
        self.entries
            .values()
            .map(|e| {
                // The canary itself receives no shadow traffic; its
                // windows would only ever report zeros.
                let shadowed = self
                    .canary
                    .as_ref()
                    .is_some_and(|c| c.key != normalize_fingerprint(&e.sealed.fingerprint));
                PipelineView::read(e, shadowed)
            })
            .collect()
    }

    /// The full `/metrics` document (JSON view).
    #[must_use]
    pub fn metrics_value(&self) -> Value {
        metrics::render_json(&self.views())
    }

    /// The full `/metrics` document (Prometheus text exposition).
    #[must_use]
    pub fn metrics_prometheus(&self) -> String {
        metrics::render_prometheus(&self.views())
    }
}

/// Appends one scored batch as the canonical response document,
/// `{"model":…,"n":"…","predictions":[…]}`. Scores ride along as
/// IEEE-754 bit patterns so clients can assert replay is bit-identical,
/// not merely close.
fn write_predictions(fingerprint: &str, scored: &[ScoredRow], out: &mut String) {
    let flag = |b: bool| if b { "true" } else { "false" };
    let num = |n: Option<f64>, out: &mut String| match n {
        Some(n) => json::write_f64(n, out),
        None => out.push_str("null"),
    };
    out.push_str("{\"model\":");
    json::write_escaped(fingerprint, out);
    let _ = write!(out, ",\"n\":\"{}\",\"predictions\":[", scored.len());
    for (i, row) in scored.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"privileged\":");
        out.push_str(flag(row.privileged));
        out.push_str(",\"dropped\":");
        out.push_str(flag(row.dropped()));
        out.push_str(",\"score\":");
        num(row.score, out);
        out.push_str(",\"score_bits\":");
        match row.score {
            Some(score) => {
                out.push('"');
                json::write_bits(score, out);
                out.push('"');
            }
            None => out.push_str("null"),
        }
        out.push_str(",\"decision\":");
        num(row.decision, out);
        out.push('}');
    }
    out.push_str("]}");
}

/// Scores one predict request against `entry`, updating its telemetry
/// on the calling worker's shards and advancing any armed alerts. The
/// response document is appended to `out`.
fn predict(
    registry: &Registry,
    entry: &Entry,
    worker: usize,
    body: &str,
    access_log: Option<&AccessLog>,
    out: &mut String,
) -> Result<(), String> {
    let started = Instant::now();
    let outcome = (|| {
        let frame = decode::decode_frame(entry.sealed.schema(), body)?;
        let scored = entry
            .sealed
            .score_frame(frame.clone())
            .map_err(|e| e.to_string())?;
        // Drift is observed on the *raw* request rows, before the sealed
        // imputer touches them: the sealed training profile was computed
        // on raw training rows, so the two sides bin the same thing. Only
        // scored requests count; a refused one must not move PSI.
        for drift in &entry.telemetry.drift {
            if let Ok(column) = frame.column(&drift.name) {
                drift.observe(column);
            }
        }
        alerts::maybe_shadow_score(registry, entry, body, &scored);
        Ok(scored)
    })();
    let fixed = registry.fixed_latency_us.load(Ordering::Relaxed);
    let elapsed_us = if fixed > 0 {
        fixed
    } else {
        u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX)
    };
    let result = match outcome {
        Ok(scored) => {
            entry.telemetry.record_batch(worker, &scored, elapsed_us);
            write_predictions(&entry.sealed.fingerprint, &scored, out);
            Ok(())
        }
        Err(message) => {
            entry.telemetry.record_error(worker);
            Err(message)
        }
    };
    alerts::evaluate(registry, entry, access_log);
    result
}

/// How long an accept worker waits after an accept *error* (such as
/// running out of file descriptors) before it tries again. A normal
/// accept never waits: workers block in `accept` until a connection or
/// a shutdown wake-up arrives.
const ACCEPT_ERROR_BACKOFF: Duration = Duration::from_millis(2);

/// Bound on connecting to the listener to wake a worker at shutdown.
const WAKE_TIMEOUT: Duration = Duration::from_secs(1);

/// A bound scoring server. [`Server::serve_blocking`] runs the accept
/// loop on the calling thread's scope; [`ServerHandle::spawn`] wraps it
/// in a background thread for tests.
pub struct Server {
    listener: TcpListener,
    registry: Arc<Registry>,
    stop: Arc<AtomicBool>,
    access_log: Option<AccessLog>,
}

impl Server {
    /// Binds `127.0.0.1:port` (`port` 0 picks an ephemeral port).
    pub fn bind(registry: Registry, port: u16) -> Result<Server, String> {
        let listener = TcpListener::bind(("127.0.0.1", port))
            .map_err(|e| format!("cannot bind 127.0.0.1:{port}: {e}"))?;
        Ok(Server {
            listener,
            registry: Arc::new(registry),
            stop: Arc::new(AtomicBool::new(false)),
            access_log: None,
        })
    }

    /// Attaches a JSONL access log (`--access-log PATH`), sampling
    /// requests at `sample_rate` in `(0, 1]` (`--sample-rate`).
    pub fn with_access_log(mut self, path: &Path, sample_rate: f64) -> Result<Server, String> {
        self.access_log = Some(AccessLog::create(path, sample_rate)?);
        Ok(self)
    }

    /// The bound address (useful with an ephemeral port).
    pub fn local_addr(&self) -> Result<SocketAddr, String> {
        self.listener.local_addr().map_err(|e| e.to_string())
    }

    /// The shared pipelines and their telemetry.
    #[must_use]
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Runs `threads` accept workers until [`ServerHandle::stop`] (or
    /// dropping the handle) shuts them down.
    ///
    /// Every worker blocks in `accept` on the shared listener
    /// (`TcpListener::accept` takes `&self`); the kernel hands each
    /// incoming connection to exactly one of them, and the worker's
    /// index routes telemetry onto that worker's private metric shards.
    /// Shutdown raises the stop flag and connects once to the listener:
    /// the worker that accepts that connection sees the flag, connects
    /// again to wake the next one, and exits.
    pub fn serve_blocking(&self, threads: usize) -> Result<(), String> {
        let addr = self.local_addr()?;
        let registry = &self.registry;
        let stop = &self.stop;
        let listener = &self.listener;
        let access_log = self.access_log.as_ref();
        scoped_workers(threads.max(1), |worker| {
            while !stop.load(Ordering::SeqCst) {
                match listener.accept() {
                    Ok(_) if stop.load(Ordering::SeqCst) => wake(addr),
                    Ok((stream, _peer)) => {
                        http::handle_connection(stream, registry, worker, access_log);
                    }
                    Err(_) => std::thread::sleep(ACCEPT_ERROR_BACKOFF),
                }
            }
        });
        Ok(())
    }
}

/// Connects to the listener at `addr` so that one worker blocked in
/// `accept` returns and sees the stop flag.
fn wake(addr: SocketAddr) {
    let _ = TcpStream::connect_timeout(&addr, WAKE_TIMEOUT);
}

/// A server running on a background thread; used by the golden replay
/// tests, the concurrency tests, and the serve benches.
pub struct ServerHandle {
    addr: SocketAddr,
    registry: Arc<Registry>,
    stop: Arc<AtomicBool>,
    join: Option<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// Binds an ephemeral (or fixed) port and serves in the background.
    pub fn spawn(registry: Registry, port: u16, threads: usize) -> Result<ServerHandle, String> {
        ServerHandle::spawn_configured(registry, port, threads, None, 1.0)
    }

    /// [`ServerHandle::spawn`] with an optional access log.
    pub fn spawn_configured(
        registry: Registry,
        port: u16,
        threads: usize,
        access_log: Option<&Path>,
        sample_rate: f64,
    ) -> Result<ServerHandle, String> {
        let mut server = Server::bind(registry, port)?;
        if let Some(path) = access_log {
            server = server.with_access_log(path, sample_rate)?;
        }
        let addr = server.local_addr()?;
        let stop = Arc::clone(&server.stop);
        let registry = Arc::clone(&server.registry);
        let join = std::thread::spawn(move || {
            let _ = server.serve_blocking(threads);
        });
        Ok(ServerHandle {
            addr,
            registry,
            stop,
            join: Some(join),
        })
    }

    /// The bound address.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The served registry (live telemetry knobs included).
    #[must_use]
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Shuts the workers down, joins the serving thread and closes the
    /// listener.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        if let Some(join) = self.join.take() {
            self.stop.store(true, Ordering::SeqCst);
            wake(self.addr);
            let _ = join.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}
