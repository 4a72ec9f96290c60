//! The `/metrics` scrape: one [`View`] per scope of each pipeline (its
//! lifetime and each rolling window), read from the same counts the
//! alert path evaluates, and the JSON and Prometheus encoders that loop
//! over the views. The two schemas do not map one to one (only JSON has
//! the lifetime latency `count`/`max_us` and the per-window decision
//! counts, only Prometheus the log₂ buckets), so each encoder walks the
//! views itself.

use fairprep_data::profile::PSI_WARN_THRESHOLD;
use fairprep_trace::alert::is_firing;
use fairprep_trace::exposition::Exposition;
use fairprep_trace::json::{obj, Value};
use fairprep_trace::telemetry::{p50_p99, HistogramSnapshot, ShardedCounter};

use super::alerts::AlertView;
use super::telemetry::{
    disparate_impact_of, flagged_rate, rate_of, DriftTrack, SCOPES, WINDOW_SPECS,
};
use super::Entry;

/// One scope of a pipeline's telemetry: its lifetime or one window.
struct View {
    /// The Prometheus `window` label: `lifetime`, `1k` or `10k`.
    label: &'static str,
    /// The JSON member a window nests under; `None` for the lifetime,
    /// whose members sit at the top of the pipeline object.
    key: Option<&'static str>,
    /// Scored requests in the scope.
    requests: u64,
    /// p50 and p99 latency in µs, `None` while the scope is empty:
    /// log₂ bucket edges over the lifetime, exact over a window.
    quantiles: Option<[u64; 2]>,
    /// `decisions[privileged*2 + favorable]`.
    decisions: [u64; 4],
    /// `(observed, psi)` of each drift column.
    drift: Vec<(u64, f64)>,
    /// `[sampled, divergent]` shadow-scored rows, in the windows of a
    /// pipeline a canary shadows.
    canary: Option<[u64; 2]>,
}

/// One pipeline's scrape, read once; both encoders render from it, so
/// the two formats can never disagree about the numbers.
pub(super) struct PipelineView<'a> {
    fingerprint: &'a str,
    rows_scored: u64,
    rows_dropped: u64,
    errors: u64,
    /// The lifetime latency histogram.
    latency: HistogramSnapshot,
    /// The drift-tracked columns, in `View::drift` order.
    columns: Vec<&'a str>,
    /// The lifetime, then each rolling window.
    views: [View; SCOPES],
    /// Armed alerts; empty without `--alerts`, in which case both
    /// renderings are byte-identical to a server without alerting.
    alerts: Vec<AlertView<'a>>,
}

impl<'a> PipelineView<'a> {
    /// Reads `entry`'s telemetry and alerts; `shadowed` adds the canary
    /// counts of its windows.
    pub(super) fn read(entry: &'a Entry, shadowed: bool) -> PipelineView<'a> {
        let telemetry = &entry.telemetry;
        let latency = telemetry.latency.snapshot();
        let drift: Vec<[(u64, f64); SCOPES]> =
            telemetry.drift.iter().map(DriftTrack::scopes).collect();
        let views = std::array::from_fn(|scope| {
            let drift = drift.iter().map(|columns| columns[scope]).collect();
            let Some(window) = scope.checked_sub(1).map(|w| &telemetry.windows[w]) else {
                return View {
                    label: "lifetime",
                    key: None,
                    requests: telemetry.requests.total(),
                    quantiles: (latency.count > 0)
                        .then(|| [latency.quantile(0.50), latency.quantile(0.99)]),
                    decisions: telemetry.decisions.each_ref().map(ShardedCounter::total),
                    drift,
                    canary: None,
                };
            };
            let (key, label, _) = WINDOW_SPECS[scope - 1];
            let mut latencies = window.latency.snapshot();
            View {
                label,
                key: Some(key),
                requests: latencies.len() as u64,
                quantiles: p50_p99(&mut latencies),
                decisions: window.decision_counts(),
                drift,
                canary: shadowed.then(|| window.divergence.counts()),
            }
        });
        PipelineView {
            fingerprint: &entry.sealed.fingerprint,
            rows_scored: telemetry.rows_scored.total(),
            rows_dropped: telemetry.rows_dropped.total(),
            errors: telemetry.errors.total(),
            latency,
            columns: telemetry.drift.iter().map(|d| d.name.as_str()).collect(),
            views,
            alerts: entry.alerts.iter().map(|armed| armed.view()).collect(),
        }
    }

    /// The pipeline's member of the JSON `/metrics` document.
    fn to_value(&self) -> Value {
        let mut members = Vec::new();
        for view in &self.views {
            let mut scope = vec![("requests", Value::from_u64(view.requests))];
            let mut latency = Vec::new();
            // Only the lifetime carries the row and error counters and
            // the histogram's count and max. An empty window reports
            // `null` quantiles, not a fake zero indistinguishable from
            // zero-latency traffic; the lifetime histogram reports 0.
            let undefined = if view.key.is_none() {
                scope.extend([
                    ("rows_scored", Value::from_u64(self.rows_scored)),
                    ("rows_dropped", Value::from_u64(self.rows_dropped)),
                    ("errors", Value::from_u64(self.errors)),
                ]);
                latency.extend([
                    ("count", Value::from_u64(self.latency.count)),
                    ("max_us", Value::from_u64(self.latency.max)),
                ]);
                Value::from_u64(0)
            } else {
                Value::Null
            };
            for (name, i) in [("p50_us", 0), ("p99_us", 1)] {
                let quantile = view.quantiles.map(|q| Value::from_u64(q[i]));
                latency.push((name, quantile.unwrap_or_else(|| undefined.clone())));
            }
            let drift = self
                .columns
                .iter()
                .zip(&view.drift)
                .map(|(column, &(observed, psi))| {
                    obj(vec![
                        ("column", Value::Str((*column).to_string())),
                        ("observed", Value::from_u64(observed)),
                        ("psi", Value::Num(psi)),
                        ("warn", Value::Bool(psi >= PSI_WARN_THRESHOLD)),
                    ])
                });
            scope.extend([
                ("latency", obj(latency)),
                ("decisions", decisions_value(&view.decisions)),
                ("drift", Value::Arr(drift.collect())),
            ]);
            if let Some(canary @ [sampled, divergent]) = view.canary {
                scope.push((
                    "canary",
                    obj(vec![
                        ("sampled", Value::from_u64(sampled)),
                        ("divergent", Value::from_u64(divergent)),
                        ("divergence", optional(flagged_rate(canary))),
                    ]),
                ));
            }
            match view.key {
                None => members = scope,
                Some(key) => members.push((key, obj(scope))),
            }
        }
        if !self.alerts.is_empty() {
            members.push((
                "alerts",
                Value::Arr(self.alerts.iter().map(AlertView::to_value).collect()),
            ));
        }
        obj(members)
    }
}

/// `Null` for an undefined number.
fn optional(value: Option<f64>) -> Value {
    value.map_or(Value::Null, Value::Num)
}

/// The canonical decisions object for a 2×2 table.
fn decisions_value(decisions: &[u64; 4]) -> Value {
    obj(vec![
        ("privileged_favorable", Value::from_u64(decisions[3])),
        ("privileged_unfavorable", Value::from_u64(decisions[2])),
        ("unprivileged_favorable", Value::from_u64(decisions[1])),
        ("unprivileged_unfavorable", Value::from_u64(decisions[0])),
        (
            "privileged_rate",
            optional(rate_of(decisions[3], decisions[2])),
        ),
        (
            "unprivileged_rate",
            optional(rate_of(decisions[1], decisions[0])),
        ),
        ("disparate_impact", optional(disparate_impact_of(decisions))),
    ])
}

/// The full JSON `/metrics` document.
pub(super) fn render_json(pipelines: &[PipelineView]) -> Value {
    let members = pipelines
        .iter()
        .map(|p| (p.fingerprint, p.to_value()))
        .collect();
    obj(vec![("pipelines", obj(members))])
}

/// Renders every pipeline as one Prometheus 0.0.4 page. Families group
/// all pipelines' samples; undefined gauges (empty windows, unseen
/// groups) are omitted rather than faked as zero.
pub(super) fn render_prometheus(pipelines: &[PipelineView]) -> String {
    // Every (pipeline, scope) pair, in rendering order.
    let scopes = || {
        pipelines
            .iter()
            .flat_map(|p| p.views.iter().map(move |view| (p.fingerprint, view)))
    };
    let mut exp = Exposition::new();
    exp.family(
        "fairprep_pipelines",
        "gauge",
        "Sealed pipelines loaded in the registry.",
    );
    exp.sample_u64("fairprep_pipelines", &[], pipelines.len() as u64);
    for (i, (name, help)) in [
        ("fairprep_requests_total", "Predict requests scored."),
        ("fairprep_rows_scored_total", "Rows scored."),
        (
            "fairprep_rows_dropped_total",
            "Rows dropped by the sealed missing-value handler.",
        ),
        ("fairprep_errors_total", "Predict requests refused."),
    ]
    .into_iter()
    .enumerate()
    {
        exp.family(name, "counter", help);
        for p in pipelines {
            let counts = [p.views[0].requests, p.rows_scored, p.rows_dropped, p.errors];
            exp.sample_u64(name, &[("pipeline", p.fingerprint)], counts[i]);
        }
    }
    exp.family(
        "fairprep_latency_us",
        "gauge",
        "Request latency quantiles in microseconds (lifetime: log2 bucket edges; windows: exact).",
    );
    // Empty scopes have no latency distribution: omit the samples
    // rather than faking zeros.
    for (fp, view) in scopes() {
        for (q, v) in ["0.5", "0.99"]
            .into_iter()
            .zip(view.quantiles.into_iter().flatten())
        {
            let labels = [("pipeline", fp), ("window", view.label), ("quantile", q)];
            exp.sample_u64("fairprep_latency_us", &labels, v);
        }
    }
    exp.family(
        "fairprep_latency_log2_bucket",
        "counter",
        "Lifetime latency histogram: requests with latency in [2^exp, 2^(exp+1)) microseconds.",
    );
    for p in pipelines {
        for (i, count) in p.latency.buckets.iter().enumerate() {
            if *count > 0 {
                let labels = [("pipeline", p.fingerprint), ("exp", &i.to_string())];
                exp.sample_u64("fairprep_latency_log2_bucket", &labels, *count);
            }
        }
    }
    exp.family(
        "fairprep_window_requests",
        "gauge",
        "Requests currently inside each rolling window.",
    );
    for (fp, view) in scopes().filter(|(_, view)| view.key.is_some()) {
        let labels = [("pipeline", fp), ("window", view.label)];
        exp.sample_u64("fairprep_window_requests", &labels, view.requests);
    }
    exp.family(
        "fairprep_decisions_total",
        "counter",
        "Scored rows by protected group and decision.",
    );
    for p in pipelines {
        for (code, count) in p.views[0].decisions.iter().enumerate() {
            let labels = [
                ("pipeline", p.fingerprint),
                ("group", ["unprivileged", "privileged"][code / 2]),
                ("decision", ["unfavorable", "favorable"][code % 2]),
            ];
            exp.sample_u64("fairprep_decisions_total", &labels, *count);
        }
    }
    exp.family(
        "fairprep_favorable_rate",
        "gauge",
        "Favorable-decision rate by protected group (omitted while a group is unseen).",
    );
    for (fp, view) in scopes() {
        let d = &view.decisions;
        for (group, favorable, unfavorable) in
            [("privileged", d[3], d[2]), ("unprivileged", d[1], d[0])]
        {
            if let Some(rate) = rate_of(favorable, unfavorable) {
                let labels = [("pipeline", fp), ("group", group), ("window", view.label)];
                exp.sample_f64("fairprep_favorable_rate", &labels, rate);
            }
        }
    }
    exp.family(
        "fairprep_disparate_impact",
        "gauge",
        "Unprivileged/privileged favorable-rate ratio (omitted while undefined).",
    );
    for (fp, view) in scopes() {
        if let Some(di) = disparate_impact_of(&view.decisions) {
            let labels = [("pipeline", fp), ("window", view.label)];
            exp.sample_f64("fairprep_disparate_impact", &labels, di);
        }
    }
    for (family, help) in [
        (
            "fairprep_drift_psi",
            "Population stability index of live traffic vs the sealed training profile.",
        ),
        (
            "fairprep_drift_warn",
            "1 when a column's PSI crosses the warn threshold.",
        ),
    ] {
        exp.family(family, "gauge", help);
        for p in pipelines {
            for (c, column) in p.columns.iter().enumerate() {
                for view in &p.views {
                    let labels = [
                        ("pipeline", p.fingerprint),
                        ("column", *column),
                        ("window", view.label),
                    ];
                    let psi = view.drift[c].1;
                    if family == "fairprep_drift_psi" {
                        exp.sample_f64(family, &labels, psi);
                    } else {
                        exp.sample_u64(family, &labels, u64::from(psi >= PSI_WARN_THRESHOLD));
                    }
                }
            }
        }
    }
    // Alerting and canary families appear only when armed, so a server
    // run without `--alerts`/`--canary` scrapes byte-identically to one
    // that predates the alerting engine.
    if pipelines.iter().any(|p| !p.alerts.is_empty()) {
        exp.family(
            "fairprep_alert_active",
            "gauge",
            "1 while an armed alert is in the firing phase.",
        );
        for p in pipelines {
            for alert in &p.alerts {
                let labels = [
                    ("pipeline", p.fingerprint),
                    ("alert", &alert.spec.name),
                    ("metric", alert.spec.metric.name()),
                    ("window", &alert.spec.window),
                ];
                exp.sample_u64(
                    "fairprep_alert_active",
                    &labels,
                    u64::from(is_firing(alert.state)),
                );
            }
        }
        exp.family(
            "fairprep_alert_transitions_total",
            "counter",
            "Alert transitions by edge (fired / cleared).",
        );
        for p in pipelines {
            for alert in &p.alerts {
                for (edge, count) in [
                    ("fired", alert.fired_total),
                    ("cleared", alert.cleared_total),
                ] {
                    let labels = [
                        ("pipeline", p.fingerprint),
                        ("alert", &alert.spec.name),
                        ("edge", edge),
                    ];
                    exp.sample_u64("fairprep_alert_transitions_total", &labels, count);
                }
            }
        }
    }
    if scopes().any(|(_, view)| view.canary.is_some()) {
        exp.family(
            "fairprep_canary_divergence",
            "gauge",
            "Decision-divergence rate of shadow-scored traffic vs the canary pipeline.",
        );
        for (fp, view) in scopes() {
            if let Some(rate) = view.canary.and_then(flagged_rate) {
                let labels = [("pipeline", fp), ("window", view.label)];
                exp.sample_f64("fairprep_canary_divergence", &labels, rate);
            }
        }
    }
    exp.finish()
}
