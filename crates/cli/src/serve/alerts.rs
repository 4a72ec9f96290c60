//! Alerting on live telemetry: specs armed on a pipeline and advanced
//! on every request from the window counts, canary shadow-scoring, and
//! background webhook delivery of alert transitions.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use fairprep_core::seal::ScoredRow;
use fairprep_trace::alert::{phase_name, AlertMetric, AlertSpec, AlertState, Transition};
use fairprep_trace::json::{obj, Value};

use super::access_log::AccessLog;
use super::decode::decode_frame;
use super::telemetry::{disparate_impact_of, flagged_rate, rate_of, PipeTelemetry};
use super::{normalize_fingerprint, Entry, Registry, JSON_CONTENT_TYPE, WINDOW_LABELS};

/// Webhook delivery attempts per alert transition before giving up.
const WEBHOOK_ATTEMPTS: u32 = 3;

/// Backoff between webhook retries (scaled by the attempt number).
const WEBHOOK_BACKOFF_MS: u64 = 100;

/// One alert spec armed on one pipeline: the resolved window and drift
/// indices, the concurrent hysteresis state, and scrape-time tallies.
pub(super) struct ArmedAlert {
    spec: AlertSpec,
    window_index: usize,
    /// Index into `PipeTelemetry::drift` for PSI alerts.
    drift_index: Option<usize>,
    state: AlertState,
    /// Bit pattern of the last evaluated value (`f64::NAN` bits while
    /// the metric is undefined).
    last_value_bits: AtomicU64,
    fired_total: AtomicU64,
    cleared_total: AtomicU64,
}

/// One armed alert as the scrape reads it.
pub(super) struct AlertView<'a> {
    pub(super) spec: &'a AlertSpec,
    /// The packed hysteresis state.
    pub(super) state: u64,
    /// The last evaluated metric value (`None` while undefined).
    value: Option<f64>,
    pub(super) fired_total: u64,
    pub(super) cleared_total: u64,
}

impl AlertView<'_> {
    /// The alert's entry in the JSON `/metrics` `alerts` array.
    pub(super) fn to_value(&self) -> Value {
        let mut members = alert_members(self.spec, None, phase_name(self.state), self.value);
        members.extend([
            ("fired_total", Value::from_u64(self.fired_total)),
            ("cleared_total", Value::from_u64(self.cleared_total)),
        ]);
        obj(members)
    }
}

/// The members an alert shares between the scrape and its `alert`
/// events: `name`, `pipeline` (events only), `metric`, `column` (PSI
/// only), `window`, `state`, `value`, `trip` and `clear`.
fn alert_members<'a>(
    spec: &AlertSpec,
    pipeline: Option<&str>,
    state: &str,
    value: Option<f64>,
) -> Vec<(&'a str, Value)> {
    let mut members = vec![("name", Value::Str(spec.name.clone()))];
    if let Some(pipeline) = pipeline {
        members.push(("pipeline", Value::Str(pipeline.to_string())));
    }
    members.push(("metric", Value::Str(spec.metric.name().to_string())));
    if let Some(column) = spec.metric.column() {
        members.push(("column", Value::Str(column.to_string())));
    }
    members.extend([
        ("window", Value::Str(spec.window.clone())),
        ("state", Value::Str(state.to_string())),
        ("value", value.map_or(Value::Null, Value::Num)),
        ("trip", Value::Num(spec.trip)),
        ("clear", Value::Num(spec.clear)),
    ]);
    members
}

impl ArmedAlert {
    /// Arms `spec` on a pipeline, resolving its window label and PSI
    /// column up front so the hot path never fails.
    pub(super) fn arm(
        spec: &AlertSpec,
        telemetry: &PipeTelemetry,
        fingerprint: &str,
    ) -> Result<ArmedAlert, String> {
        let window_index = WINDOW_LABELS
            .iter()
            .position(|label| *label == spec.window)
            .ok_or_else(|| format!("alert '{}': unknown window '{}'", spec.name, spec.window))?;
        let tracked: Vec<&str> = telemetry.drift.iter().map(|d| d.name.as_str()).collect();
        let drift_index = spec
            .metric
            .column()
            .map(|column| {
                tracked
                    .iter()
                    .position(|name| *name == column)
                    .ok_or_else(|| {
                        format!(
                            "alert '{}': pipeline {fingerprint} tracks no drift for column \
                         '{column}' (tracked: {})",
                            spec.name,
                            tracked.join(", ")
                        )
                    })
            })
            .transpose()?;
        Ok(ArmedAlert {
            spec: spec.clone(),
            window_index,
            drift_index,
            state: AlertState::new(),
            last_value_bits: AtomicU64::new(f64::NAN.to_bits()),
            fired_total: AtomicU64::new(0),
            cleared_total: AtomicU64::new(0),
        })
    }

    pub(super) fn view(&self) -> AlertView<'_> {
        let value = f64::from_bits(self.last_value_bits.load(Ordering::Relaxed));
        AlertView {
            spec: &self.spec,
            state: self.state.load(),
            value: value.is_finite().then_some(value),
            fired_total: self.fired_total.load(Ordering::Relaxed),
            cleared_total: self.cleared_total.load(Ordering::Relaxed),
        }
    }

    /// Evaluates the alert's metric from the window counts. Lock- and
    /// allocation-free — this runs once per armed alert on every
    /// recorded request.
    // audit: hot-path
    fn value(&self, telemetry: &PipeTelemetry) -> Option<f64> {
        let window = telemetry.windows.get(self.window_index)?;
        match &self.spec.metric {
            AlertMetric::DisparateImpact => disparate_impact_of(&window.decision_counts()),
            AlertMetric::FavorableRateGap => {
                let d = window.decision_counts();
                let privileged = rate_of(d[3], d[2])?;
                let unprivileged = rate_of(d[1], d[0])?;
                Some((privileged - unprivileged).abs())
            }
            AlertMetric::Psi { .. } => telemetry
                .drift
                .get(self.drift_index?)?
                .window_psi(self.window_index),
            AlertMetric::P99LatencyUs => window.latency_quantile(0.99),
            AlertMetric::ErrorRate => flagged_rate(window.outcomes.counts()),
            AlertMetric::CanaryDivergence => flagged_rate(window.divergence.counts()),
        }
    }
}

/// Advances every armed alert of `entry` by one observation. The
/// per-observation work (metric read + CAS advance) is lock- and
/// allocation-free; only an actual transition — rare by construction —
/// takes the slow path that renders and emits the event.
pub(super) fn evaluate(registry: &Registry, entry: &Entry, access_log: Option<&AccessLog>) {
    for armed in &entry.alerts {
        let value = armed.value(&entry.telemetry);
        armed
            .last_value_bits
            .store(value.unwrap_or(f64::NAN).to_bits(), Ordering::Relaxed);
        let Some(transition) = armed.state.observe(&armed.spec, value) else {
            continue;
        };
        let (state, total) = match transition {
            Transition::Fired => ("firing", &armed.fired_total),
            Transition::Cleared => ("cleared", &armed.cleared_total),
        };
        total.fetch_add(1, Ordering::Relaxed);
        // The canonical JSONL `alert` event, also the webhook payload.
        let mut members = vec![("event", Value::Str("alert".to_string()))];
        members.extend(alert_members(
            &armed.spec,
            Some(&entry.sealed.fingerprint),
            state,
            value,
        ));
        let event = obj(members);
        if let Some(log) = access_log {
            log.append_event(&event);
        }
        if let Some(webhook) = &registry.webhook {
            webhook.send(event.to_json());
        }
    }
}

/// Canary shadow-scoring configuration (`--canary FP --canary-sample R`).
pub(super) struct CanaryConfig {
    /// Normalized fingerprint key of the shadow pipeline.
    pub(super) key: String,
    /// Shadow-score every `sample_every`-th predict request.
    pub(super) sample_every: u64,
    /// Running count of shadow-eligible requests (drives sampling).
    pub(super) counter: AtomicU64,
}

/// Shadow-scores a sampled request through the canary pipeline, decoding
/// its `body` against the canary's own schema, and records per-row
/// decision divergence into `entry`'s rolling windows.
/// A canary that cannot score the traffic at all (schema mismatch,
/// scoring error) counts every row as divergent — it demonstrably does
/// not reproduce the serving pipeline's behavior.
pub(super) fn maybe_shadow_score(
    registry: &Registry,
    entry: &Entry,
    body: &str,
    scored: &[ScoredRow],
) {
    let Some(canary) = &registry.canary else {
        return;
    };
    // The canary never shadows itself.
    if canary.key == normalize_fingerprint(&entry.sealed.fingerprint) {
        return;
    }
    if !canary
        .counter
        .fetch_add(1, Ordering::Relaxed)
        .is_multiple_of(canary.sample_every)
    {
        return;
    }
    let Some(shadow) = registry.entries.get(&canary.key) else {
        return;
    };
    let shadow_scored = decode_frame(shadow.sealed.schema(), body)
        .and_then(|frame| shadow.sealed.score_frame(frame).map_err(|e| e.to_string()));
    match shadow_scored {
        Ok(shadow_scored) => {
            for (primary, canary_row) in scored.iter().zip(&shadow_scored) {
                let primary_decision = primary.decision.map(|d| d >= 0.5);
                let canary_decision = canary_row.decision.map(|d| d >= 0.5);
                entry
                    .telemetry
                    .record_divergence(primary_decision != canary_decision);
            }
        }
        Err(_) => {
            for _ in scored {
                entry.telemetry.record_divergence(true);
            }
        }
    }
}

/// Background webhook delivery: transitions enqueue their canonical
/// JSON payload on a channel drained by one sender thread, which POSTs
/// with bounded retry. Delivery never blocks the scoring path.
pub(super) struct WebhookSender {
    tx: Option<std::sync::mpsc::Sender<String>>,
    join: Option<std::thread::JoinHandle<()>>,
}

impl WebhookSender {
    /// Validates `url` (plain `http://host:port/path` only — the server
    /// itself is dependency-free HTTP) and starts the sender thread.
    pub(super) fn start(url: &str) -> Result<WebhookSender, String> {
        let rest = url
            .strip_prefix("http://")
            .ok_or_else(|| format!("--webhook must be an http:// URL, got {url}"))?;
        let (authority, path) = match rest.split_once('/') {
            Some((authority, path)) => (authority, format!("/{path}")),
            None => (rest, "/".to_string()),
        };
        if authority.is_empty() {
            return Err(format!("--webhook URL carries no host: {url}"));
        }
        let authority = authority.to_string();
        let (tx, rx) = std::sync::mpsc::channel::<String>();
        let join = std::thread::spawn(move || {
            for payload in rx {
                for attempt in 0..WEBHOOK_ATTEMPTS {
                    if post_webhook(&authority, &path, &payload).is_ok() {
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(
                        WEBHOOK_BACKOFF_MS * u64::from(attempt + 1),
                    ));
                }
            }
        });
        Ok(WebhookSender {
            tx: Some(tx),
            join: Some(join),
        })
    }

    fn send(&self, payload: String) {
        if let Some(tx) = &self.tx {
            let _ = tx.send(payload);
        }
    }
}

impl Drop for WebhookSender {
    fn drop(&mut self) {
        // Closing the channel ends the sender thread's loop; join so
        // in-flight deliveries finish before the registry goes away.
        drop(self.tx.take());
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

/// One bounded-timeout webhook POST. Any transport error or non-2xx
/// status is an `Err` so the sender loop retries.
fn post_webhook(authority: &str, path: &str, payload: &str) -> Result<(), String> {
    let mut stream = TcpStream::connect(authority).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .map_err(|e| e.to_string())?;
    stream
        .set_write_timeout(Some(Duration::from_secs(5)))
        .map_err(|e| e.to_string())?;
    let head = format!(
        "POST {path} HTTP/1.1\r\nHost: {authority}\r\nContent-Type: {JSON_CONTENT_TYPE}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        payload.len()
    );
    stream
        .write_all(head.as_bytes())
        .map_err(|e| e.to_string())?;
    stream
        .write_all(payload.as_bytes())
        .map_err(|e| e.to_string())?;
    let mut response = String::new();
    let _ = stream.read_to_string(&mut response);
    let status: u16 = response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| "webhook endpoint sent no status line".to_string())?;
    if (200..300).contains(&status) {
        Ok(())
    } else {
        Err(format!("webhook endpoint answered {status}"))
    }
}
