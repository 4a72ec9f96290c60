//! Integration tests of the alerting engine end to end: a PSI alert
//! armed from a JSON spec stays silent on in-distribution traffic and
//! fires on an E12-style contaminated stream (JSONL event in the access
//! log, `alerts` section in `/metrics`, `fairprep_alert_active` in the
//! Prometheus exposition); alert values agree bit for bit with the
//! scraped window they are computed from; alert transitions POST their
//! canonical payload to a webhook; and canary shadow-scoring counts
//! decision divergence exactly against an independently served replay.

use std::io::{Read as _, Write as _};
use std::sync::OnceLock;

use fairprep_cli::golden::{golden_canary_pipeline, golden_dataset, golden_pipeline, row_value};
use fairprep_cli::serve::{http_request, http_request_accept, Registry, ServerHandle};
use fairprep_trace::alert::parse_specs;
use fairprep_trace::json::{obj, parse, Value};

/// One fitted german pipeline shared by every test in this file.
fn german() -> &'static fairprep_core::seal::SealedPipeline {
    static PIPELINE: OnceLock<fairprep_core::seal::SealedPipeline> = OnceLock::new();
    PIPELINE.get_or_init(|| golden_pipeline("german").unwrap())
}

/// A scratch directory unique to `stem` within this test process.
fn scratch_dir(stem: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("fairprep_alerts_{stem}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Saves `sealed` into `dir` and opens a registry over it.
fn registry_with(
    dir: &std::path::Path,
    sealed: &[&fairprep_core::seal::SealedPipeline],
) -> Registry {
    for pipeline in sealed {
        pipeline.save(dir).unwrap();
    }
    let registry = Registry::open(dir).unwrap();
    assert_eq!(registry.len(), sealed.len());
    registry
}

/// Renders dataset row `i` as a single-row predict body.
fn row_body(data: &fairprep_data::dataset::BinaryLabelDataset, i: usize) -> String {
    obj(vec![("row", row_value(data, i))]).to_json()
}

/// Renders dataset rows `indices` as one batched predict body.
fn rows_body(data: &fairprep_data::dataset::BinaryLabelDataset, indices: &[usize]) -> String {
    let rows = indices.iter().map(|&i| row_value(data, i)).collect();
    obj(vec![("rows", Value::Arr(rows))]).to_json()
}

/// The first (only) pipeline object in a `/metrics` JSON document.
fn first_pipe(metrics: &str) -> Value {
    let doc = parse(metrics).unwrap();
    match doc.get("pipelines") {
        Some(Value::Obj(members)) => members.first().unwrap().1.clone(),
        other => panic!("no pipelines object: {other:?}"),
    }
}

/// The pipeline object keyed by normalized fingerprint.
fn pipe_of(metrics: &str, key: &str) -> Value {
    let doc = parse(metrics).unwrap();
    match doc.get("pipelines") {
        Some(Value::Obj(members)) => members
            .iter()
            .find(|(k, _)| k == key)
            .unwrap_or_else(|| panic!("no pipeline {key} in {metrics}"))
            .1
            .clone(),
        other => panic!("no pipelines object: {other:?}"),
    }
}

/// The acceptance-criterion scenario: a PSI alert armed from a JSON
/// spec must never fire on in-distribution traffic and must fire on an
/// E12-style contaminated stream, emitting a structured `alert` event
/// into the access log and surfacing in both `/metrics` formats.
#[test]
fn psi_alert_fires_on_contaminated_stream_never_in_distribution() {
    let dir = scratch_dir("psi");
    let mut registry = registry_with(&dir, &[german()]);
    let columns = registry.drift_columns();
    let column = columns.first().expect("german tracks drift columns");

    // The spec travels the same JSON path `serve --alerts` uses.
    let spec_text = format!(
        r#"{{"alerts": [{{"name": "drift-{column}", "metric": "psi", "column": "{column}",
             "window": "1k", "trip": 0.2, "clear": 0.1, "for": 25, "min_hold": 100000}}]}}"#
    );
    let specs = parse_specs(&spec_text, &fairprep_cli::serve::WINDOW_LABELS).unwrap();
    registry.arm_alerts(&specs).unwrap();

    let log_path = dir.join("access.jsonl");
    let server = ServerHandle::spawn_configured(registry, 0, 1, Some(&log_path), 1.0).unwrap();
    let fingerprint = server.registry().fingerprints()[0].replace(':', "-");
    let path = format!("/predict/{fingerprint}");
    let data = golden_dataset("german").unwrap();
    let n = data.n_rows();

    // Phase 1: 1,200 in-distribution rows (cycling the training rows)
    // fill the 1k window with traffic matching the sealed profile.
    for batch in 0..12 {
        let indices: Vec<usize> = (0..100).map(|i| (batch * 100 + i) % n).collect();
        let (status, body) = http_request(
            server.addr(),
            "POST",
            &path,
            Some(&rows_body(&data, &indices)),
        )
        .unwrap();
        assert_eq!(status, 200, "{body}");
    }

    let (_, metrics) = http_request(server.addr(), "GET", "/metrics", None).unwrap();
    let pipe = first_pipe(&metrics);
    let alerts = pipe.get("alerts").and_then(Value::as_array).unwrap();
    assert_eq!(alerts.len(), 1, "{metrics}");
    let alert = &alerts[0];
    assert_eq!(alert.get("state").and_then(Value::as_str), Some("normal"));
    assert_eq!(
        alert.get("fired_total").and_then(Value::as_u64_any),
        Some(0)
    );
    let log = std::fs::read_to_string(&log_path).unwrap();
    assert!(
        !log.contains(r#""event":"alert""#),
        "in-distribution traffic must not alert: {log}"
    );

    // Phase 2: the contamination — 400 single-row copies of row 0
    // collapse 40% of the window onto a point distribution.
    let contaminated = row_body(&data, 0);
    for _ in 0..400 {
        let (status, body) =
            http_request(server.addr(), "POST", &path, Some(&contaminated)).unwrap();
        assert_eq!(status, 200, "{body}");
    }

    // JSON exposition: the alert is firing with a value above the trip.
    let (_, metrics) = http_request(server.addr(), "GET", "/metrics", None).unwrap();
    let pipe = first_pipe(&metrics);
    let alert = &pipe.get("alerts").and_then(Value::as_array).unwrap()[0];
    assert_eq!(
        alert.get("state").and_then(Value::as_str),
        Some("firing"),
        "{metrics}"
    );
    assert_eq!(
        alert.get("fired_total").and_then(Value::as_u64_any),
        Some(1)
    );
    assert_eq!(
        alert.get("cleared_total").and_then(Value::as_u64_any),
        Some(0)
    );
    assert!(
        alert.get("value").and_then(Value::as_f64).unwrap() > 0.2,
        "{metrics}"
    );
    assert_eq!(alert.get("metric").and_then(Value::as_str), Some("psi"));
    assert_eq!(alert.get("window").and_then(Value::as_str), Some("1k"));

    // Prometheus exposition: the active gauge reads 1.
    let (_, prom) =
        http_request_accept(server.addr(), "GET", "/metrics", None, Some("text/plain")).unwrap();
    assert!(
        prom.contains("# TYPE fairprep_alert_active gauge"),
        "{prom}"
    );
    let active = prom
        .lines()
        .find(|l| l.starts_with("fairprep_alert_active{"))
        .unwrap_or_else(|| panic!("no active-alert sample: {prom}"));
    assert!(active.ends_with(" 1"), "{active}");
    assert!(
        active.contains(&format!("alert=\"drift-{column}\"")),
        "{active}"
    );
    assert!(
        prom.lines()
            .any(|l| l.starts_with("fairprep_alert_transitions_total{") && l.ends_with(" 1")),
        "{prom}"
    );

    // The access log carries exactly one structured firing event with
    // the full canonical schema.
    let log = std::fs::read_to_string(&log_path).unwrap();
    let events: Vec<Value> = log
        .lines()
        .filter(|l| l.contains(r#""event":"alert""#))
        .map(|l| parse(l).unwrap())
        .collect();
    assert_eq!(events.len(), 1, "{log}");
    let event = &events[0];
    assert_eq!(event.get("state").and_then(Value::as_str), Some("firing"));
    assert_eq!(
        event.get("name").and_then(Value::as_str),
        Some(format!("drift-{column}").as_str())
    );
    assert_eq!(event.get("metric").and_then(Value::as_str), Some("psi"));
    assert_eq!(
        event.get("column").and_then(Value::as_str),
        Some(column.as_str())
    );
    assert_eq!(event.get("window").and_then(Value::as_str), Some("1k"));
    assert_eq!(
        event.get("pipeline").and_then(Value::as_str),
        Some(german().fingerprint.as_str())
    );
    assert!(event.get("value").and_then(Value::as_f64).unwrap() > 0.2);
    assert_eq!(event.get("trip").and_then(Value::as_f64), Some(0.2));
    assert_eq!(event.get("clear").and_then(Value::as_f64), Some(0.1));

    server.stop();
    std::fs::remove_dir_all(&dir).ok();
}

/// The alert engine reads incremental window aggregates while the
/// `/metrics` scrape walks the rings. After more than 1,000 rows, when
/// the 1k rings have evicted, each armed alert's last value must equal,
/// bit for bit, the number the scrape derives from the same window.
#[test]
fn alert_values_match_the_scraped_window_bit_for_bit() {
    let dir = scratch_dir("agree");
    let mut registry = registry_with(&dir, &[german()]);
    let column = registry
        .drift_columns()
        .first()
        .expect("drift column")
        .clone();
    let spec_text = format!(
        r#"[{{"name": "di", "metric": "disparate_impact", "window": "1k",
             "trip": 0.05, "clear": 0.1, "for": 1000000}},
           {{"name": "gap", "metric": "favorable_rate_gap", "window": "1k",
             "trip": 2.0, "for": 1000000}},
           {{"name": "drift", "metric": "psi", "column": "{column}", "window": "1k",
             "trip": 1e12, "for": 1000000}}]"#
    );
    let specs = parse_specs(&spec_text, &fairprep_cli::serve::WINDOW_LABELS).unwrap();
    registry.arm_alerts(&specs).unwrap();

    let server = ServerHandle::spawn(registry, 0, 1).unwrap();
    let path = format!("/predict/{}", german().fingerprint.replace(':', "-"));
    let data = golden_dataset("german").unwrap();
    let n = data.n_rows();
    for batch in 0..13 {
        let indices: Vec<usize> = (0..100).map(|i| (batch * 100 + i) % n).collect();
        let (status, body) = http_request(
            server.addr(),
            "POST",
            &path,
            Some(&rows_body(&data, &indices)),
        )
        .unwrap();
        assert_eq!(status, 200, "{body}");
    }

    let (_, metrics) = http_request(server.addr(), "GET", "/metrics", None).unwrap();
    server.stop();
    std::fs::remove_dir_all(&dir).ok();
    let pipe = first_pipe(&metrics);
    let window = pipe.get("window_1k").unwrap();
    let decisions = window.get("decisions").unwrap();
    let number = |v: Option<&Value>| {
        v.and_then(Value::as_f64)
            .unwrap_or_else(|| panic!("undefined window metric: {metrics}"))
    };
    let privileged = number(decisions.get("privileged_rate"));
    let unprivileged = number(decisions.get("unprivileged_rate"));
    let psi = window
        .get("drift")
        .and_then(Value::as_array)
        .unwrap()
        .iter()
        .find(|d| d.get("column").and_then(Value::as_str) == Some(column.as_str()))
        .and_then(|d| d.get("psi"));
    let expected = [
        ("di", number(decisions.get("disparate_impact"))),
        ("gap", (privileged - unprivileged).abs()),
        ("drift", number(psi)),
    ];
    let alerts = pipe.get("alerts").and_then(Value::as_array).unwrap();
    assert_eq!(alerts.len(), expected.len(), "{metrics}");
    for (alert, (name, want)) in alerts.iter().zip(expected) {
        assert_eq!(alert.get("name").and_then(Value::as_str), Some(name));
        let got = number(alert.get("value"));
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "alert {name}: {got} vs scraped {want}"
        );
    }
}

/// A tiny single-request webhook receiver: accepts one connection,
/// parses the POST, replies 200, and hands back `(request_line, body)`.
fn spawn_webhook_receiver() -> (
    std::net::SocketAddr,
    std::sync::mpsc::Receiver<(String, String)>,
) {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        stream
            .set_read_timeout(Some(std::time::Duration::from_secs(10)))
            .unwrap();
        let mut raw = Vec::new();
        let mut chunk = [0u8; 4096];
        let (head, body_start) = loop {
            let read = stream.read(&mut chunk).unwrap();
            assert!(read > 0, "webhook connection closed before headers");
            raw.extend_from_slice(&chunk[..read]);
            if let Some(at) = raw.windows(4).position(|w| w == b"\r\n\r\n") {
                break (String::from_utf8_lossy(&raw[..at]).into_owned(), at + 4);
            }
        };
        let content_length: usize = head
            .lines()
            .find_map(|l| {
                let (name, value) = l.split_once(':')?;
                name.eq_ignore_ascii_case("content-length")
                    .then(|| value.trim().parse().ok())?
            })
            .expect("webhook POST carries Content-Length");
        while raw.len() < body_start + content_length {
            let read = stream.read(&mut chunk).unwrap();
            assert!(read > 0, "webhook connection closed mid-body");
            raw.extend_from_slice(&chunk[..read]);
        }
        let body =
            String::from_utf8_lossy(&raw[body_start..body_start + content_length]).into_owned();
        stream
            .write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 0\r\nConnection: close\r\n\r\n")
            .unwrap();
        let request_line = head.lines().next().unwrap_or("").to_string();
        tx.send((request_line, body)).unwrap();
    });
    (addr, rx)
}

/// An error-rate alert tripped by malformed requests must POST its
/// canonical JSON payload to the configured webhook.
#[test]
fn alert_transitions_post_canonical_payload_to_webhook() {
    let dir = scratch_dir("webhook");
    let mut registry = registry_with(&dir, &[german()]);
    let specs = parse_specs(
        r#"[{"name": "error-burst", "metric": "error_rate", "window": "1k",
             "trip": 0.4, "clear": 0.2, "for": 3}]"#,
        &fairprep_cli::serve::WINDOW_LABELS,
    )
    .unwrap();
    registry.arm_alerts(&specs).unwrap();
    let (hook_addr, hook_rx) = spawn_webhook_receiver();
    registry
        .set_webhook(&format!("http://{hook_addr}/alert-hook"))
        .unwrap();

    let server = ServerHandle::spawn(registry, 0, 1).unwrap();
    let fingerprint = server.registry().fingerprints()[0].replace(':', "-");
    let path = format!("/predict/{fingerprint}");
    // Three malformed requests: error rate 1.0 for three consecutive
    // observations — the `for: 3` debounce elapses on the third.
    for _ in 0..3 {
        let (status, _) = http_request(server.addr(), "POST", &path, Some("not json")).unwrap();
        assert_eq!(status, 400);
    }

    let (request_line, payload) = hook_rx
        .recv_timeout(std::time::Duration::from_secs(10))
        .expect("webhook payload must arrive");
    assert!(
        request_line.starts_with("POST /alert-hook "),
        "{request_line}"
    );
    let event = parse(&payload).unwrap();
    assert_eq!(event.get("event").and_then(Value::as_str), Some("alert"));
    assert_eq!(
        event.get("name").and_then(Value::as_str),
        Some("error-burst")
    );
    assert_eq!(
        event.get("metric").and_then(Value::as_str),
        Some("error_rate")
    );
    assert_eq!(event.get("state").and_then(Value::as_str), Some("firing"));
    assert_eq!(event.get("value").and_then(Value::as_f64), Some(1.0));
    assert_eq!(event.get("trip").and_then(Value::as_f64), Some(0.4));
    assert_eq!(event.get("clear").and_then(Value::as_f64), Some(0.2));
    assert_eq!(
        event.get("pipeline").and_then(Value::as_str),
        Some(german().fingerprint.as_str())
    );
    server.stop();
    std::fs::remove_dir_all(&dir).ok();
}

/// Canary shadow-scoring at sample rate 1.0 must count exactly the
/// rows where the serving and canary pipelines decide differently —
/// verified against an independent replay of the same rows through the
/// canary pipeline's own endpoint.
#[test]
fn canary_divergence_counts_match_an_independent_replay() {
    // A second german pipeline with a different learner (lr vs the
    // golden dt + reject-option chain) so the two genuinely disagree
    // on some rows.
    let data = golden_dataset("german").unwrap();
    let canary_sealed = golden_canary_pipeline().unwrap();

    let dir = scratch_dir("canary");
    let mut registry = registry_with(&dir, &[german(), &canary_sealed]);
    // Predict paths use the dashed form; `/metrics` keys pipelines by
    // the canonical colon form.
    let primary_path = german().fingerprint.replace(':', "-");
    let canary_path = canary_sealed.fingerprint.replace(':', "-");
    assert_ne!(primary_path, canary_path);
    registry
        .arm_canary(&canary_sealed.fingerprint, 1.0)
        .unwrap();

    let server = ServerHandle::spawn(registry, 0, 1).unwrap();
    let decision_of = |response: &str| -> Vec<Option<bool>> {
        parse(response)
            .unwrap()
            .get("predictions")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|p| p.get("decision").and_then(Value::as_f64).map(|d| d >= 0.5))
            .collect()
    };

    // Replay 60 rows through both endpoints. Scoring through the
    // canary's own endpoint self-shadow-skips, so it leaves the
    // primary's divergence counters untouched.
    let mut primary_decisions = Vec::new();
    let mut canary_decisions = Vec::new();
    for i in 0..60 {
        let body = row_body(&data, i);
        let (status, response) = http_request(
            server.addr(),
            "POST",
            &format!("/predict/{primary_path}"),
            Some(&body),
        )
        .unwrap();
        assert_eq!(status, 200, "{response}");
        primary_decisions.extend(decision_of(&response));
        let (status, response) = http_request(
            server.addr(),
            "POST",
            &format!("/predict/{canary_path}"),
            Some(&body),
        )
        .unwrap();
        assert_eq!(status, 200, "{response}");
        canary_decisions.extend(decision_of(&response));
    }
    let expected_divergent = primary_decisions
        .iter()
        .zip(&canary_decisions)
        .filter(|(a, b)| a != b)
        .count() as u64;

    let (_, metrics) = http_request(server.addr(), "GET", "/metrics", None).unwrap();
    let primary = pipe_of(&metrics, &german().fingerprint);
    let canary = primary
        .get("window_1k")
        .and_then(|w| w.get("canary"))
        .unwrap_or_else(|| panic!("no canary section: {metrics}"));
    assert_eq!(
        canary.get("sampled").and_then(Value::as_u64_any),
        Some(60),
        "{metrics}"
    );
    assert_eq!(
        canary.get("divergent").and_then(Value::as_u64_any),
        Some(expected_divergent),
        "{metrics}"
    );
    // The canary pipeline itself renders no canary section, and the
    // Prometheus exposition carries the divergence gauge.
    let shadow_pipe = pipe_of(&metrics, &canary_sealed.fingerprint);
    assert!(
        shadow_pipe
            .get("window_1k")
            .and_then(|w| w.get("canary"))
            .is_none(),
        "{metrics}"
    );
    let (_, prom) =
        http_request_accept(server.addr(), "GET", "/metrics", None, Some("text/plain")).unwrap();
    assert!(
        prom.lines()
            .any(|l| l.starts_with("fairprep_canary_divergence{")),
        "{prom}"
    );
    server.stop();
    std::fs::remove_dir_all(&dir).ok();
}
