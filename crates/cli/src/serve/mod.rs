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
mod http;
mod metrics;
mod telemetry;

use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpListener};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use fairprep_core::seal::{ScoredRow, SealedPipeline};
use fairprep_data::column::{Column, ColumnKind};
use fairprep_data::frame::DataFrame;
use fairprep_data::parallel::scoped_workers;
use fairprep_data::schema::Role;
use fairprep_trace::alert::AlertSpec;
use fairprep_trace::json::{obj, Value};

pub use access_log::AccessLog;
use alerts::{ArmedAlert, CanaryConfig, WebhookSender};
pub use http::{http_request, http_request_accept};
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

/// Builds the raw request frame for `sealed` from parsed JSON rows.
/// Every non-label schema column must be present typed as declared;
/// `null` (or an absent key) is a missing cell routed to the sealed
/// missing-value handler.
fn frame_from_rows(sealed: &SealedPipeline, rows: &[&Value]) -> Result<DataFrame, String> {
    let mut frame = DataFrame::new();
    for field in sealed.schema().fields() {
        if field.role == Role::Label {
            continue;
        }
        let column = match field.kind {
            ColumnKind::Numeric => {
                let mut values: Vec<Option<f64>> = Vec::with_capacity(rows.len());
                for row in rows {
                    values.push(match row.get(&field.name) {
                        None | Some(Value::Null) => None,
                        Some(Value::Num(n)) => Some(*n),
                        Some(_) => return Err(format!("column `{}` expects a number", field.name)),
                    });
                }
                Column::from_optional_f64(values)
            }
            ColumnKind::Categorical => {
                let mut values: Vec<Option<&str>> = Vec::with_capacity(rows.len());
                for row in rows {
                    values.push(match row.get(&field.name) {
                        None | Some(Value::Null) => None,
                        Some(Value::Str(s)) => Some(s.as_str()),
                        Some(_) => return Err(format!("column `{}` expects a string", field.name)),
                    });
                }
                Column::from_optional_strs(values)
            }
        };
        frame
            .add_column(&field.name, column)
            .map_err(|e| e.to_string())?;
    }
    Ok(frame)
}

/// Extracts the row objects from a predict request body: either
/// `{"row": {...}}` or `{"rows": [{...}, ...]}`.
fn rows_of_request(body: &Value) -> Result<Vec<&Value>, String> {
    if let Some(row) = body.get("row") {
        return Ok(vec![row]);
    }
    let rows = body
        .get("rows")
        .and_then(Value::as_array)
        .ok_or_else(|| "request must carry `row` (object) or `rows` (array)".to_string())?;
    if rows.is_empty() {
        return Err("`rows` must not be empty".to_string());
    }
    Ok(rows.iter().collect())
}

/// Renders one scored batch as the canonical response document. Scores
/// ride along as IEEE-754 bit patterns so clients can assert replay is
/// bit-identical, not merely close.
fn response_value(fingerprint: &str, scored: &[ScoredRow]) -> Value {
    let predictions = scored
        .iter()
        .map(|row| {
            obj(vec![
                ("privileged", Value::Bool(row.privileged)),
                ("dropped", Value::Bool(row.dropped())),
                ("score", row.score.map_or(Value::Null, Value::Num)),
                ("score_bits", row.score.map_or(Value::Null, Value::bits)),
                ("decision", row.decision.map_or(Value::Null, Value::Num)),
            ])
        })
        .collect();
    obj(vec![
        ("model", Value::Str(fingerprint.to_string())),
        ("n", Value::from_u64(scored.len() as u64)),
        ("predictions", Value::Arr(predictions)),
    ])
}

/// Scores one predict request against `entry`, updating its telemetry
/// on the calling worker's shards and advancing any armed alerts.
fn predict(
    registry: &Registry,
    entry: &Entry,
    worker: usize,
    body: &str,
    access_log: Option<&AccessLog>,
) -> Result<Value, String> {
    let started = Instant::now();
    let outcome = (|| {
        let parsed = fairprep_trace::json::parse(body).map_err(|e| format!("bad JSON: {e}"))?;
        let rows = rows_of_request(&parsed)?;
        let frame = frame_from_rows(&entry.sealed, &rows)?;
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
        alerts::maybe_shadow_score(registry, entry, &rows, &scored);
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
            Ok(response_value(&entry.sealed.fingerprint, &scored))
        }
        Err(message) => {
            entry.telemetry.record_error(worker);
            Err(message)
        }
    };
    alerts::evaluate(registry, entry, access_log);
    result
}

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

    /// Flag that makes every worker exit its accept loop when set.
    #[must_use]
    pub fn stop_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.stop)
    }

    /// Runs `threads` accept workers until the stop flag is raised.
    ///
    /// The listener is switched to non-blocking and shared by every
    /// worker (`TcpListener::accept` takes `&self`); the kernel hands
    /// each incoming connection to exactly one of them, and the worker's
    /// index routes telemetry onto that worker's private metric shards.
    /// `WouldBlock` backs off briefly so an idle server stays cheap.
    pub fn serve_blocking(&self, threads: usize) -> Result<(), String> {
        self.listener
            .set_nonblocking(true)
            .map_err(|e| e.to_string())?;
        let registry = &self.registry;
        let stop = &self.stop;
        let listener = &self.listener;
        let access_log = self.access_log.as_ref();
        scoped_workers(threads.max(1), |worker| {
            while !stop.load(Ordering::Relaxed) {
                match listener.accept() {
                    Ok((stream, _peer)) => {
                        http::handle_connection(stream, registry, worker, access_log);
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    Err(_) => std::thread::sleep(Duration::from_millis(2)),
                }
            }
        });
        Ok(())
    }
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
        let stop = server.stop_flag();
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

    /// Raises the stop flag and joins the serving thread.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}
