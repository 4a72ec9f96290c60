//! Integration tests of the scoring service: endpoint behavior, typed
//! errors, concurrency (N hammering clients reproduce the sequential
//! replay byte-for-byte), `/metrics` semantics — decision rates by
//! protected group and PSI drift against the sealed training profile —
//! and the connection path's bounds: slow and oversized clients are
//! refused in bounded time, and shutdown wakes every worker.

use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use fairprep_cli::golden::{golden_bodies, golden_pipeline, row_value};
use fairprep_cli::serve::{
    http_request, Registry, ServerHandle, HEAD_DEADLINE, MAX_REQUEST_LINE_BYTES,
};
use fairprep_trace::json::{obj, parse, Value};

/// One fitted german pipeline shared by every test in this file (the
/// lifecycle run dominates test time; the server itself is cheap).
fn german() -> &'static (fairprep_core::seal::SealedPipeline, Vec<String>) {
    static PIPELINE: OnceLock<(fairprep_core::seal::SealedPipeline, Vec<String>)> = OnceLock::new();
    PIPELINE.get_or_init(|| {
        let sealed = golden_pipeline("german").unwrap();
        let bodies = golden_bodies("german").unwrap();
        (sealed, bodies)
    })
}

fn spawn_german(threads: usize) -> (ServerHandle, String) {
    use std::sync::atomic::{AtomicU64, Ordering};
    // One directory per call: tests run in parallel, and two with the same
    // thread count must not save into or delete each other's registry.
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let (sealed, _) = german();
    let dir = std::env::temp_dir().join(format!(
        "fairprep_serve_test_{}_{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let path = sealed.save(&dir).unwrap();
    let registry = Registry::open(&dir).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(registry.len(), 1);
    let fingerprint = path
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap()
        .to_string();
    let handle = ServerHandle::spawn(registry, 0, threads).unwrap();
    (handle, fingerprint)
}

#[test]
fn healthz_reports_pipeline_count() {
    let (server, _) = spawn_german(1);
    let (status, body) = http_request(server.addr(), "GET", "/healthz", None).unwrap();
    assert_eq!(status, 200, "{body}");
    let doc = parse(&body).unwrap();
    assert_eq!(doc.get("status").and_then(Value::as_str), Some("ok"));
    assert_eq!(
        doc.get("pipelines").and_then(Value::as_u64_any),
        Some(1),
        "{body}"
    );
    server.stop();
}

#[test]
fn unknown_paths_and_pipelines_get_typed_404s() {
    let (server, fingerprint) = spawn_german(1);
    let (status, body) = http_request(server.addr(), "GET", "/nope", None).unwrap();
    assert_eq!(status, 404, "{body}");
    let (status, body) = http_request(
        server.addr(),
        "POST",
        "/predict/fnv1a64-0000000000000000",
        Some(r#"{"row":{}}"#),
    )
    .unwrap();
    assert_eq!(status, 404, "{body}");
    assert!(body.contains("unknown pipeline"), "{body}");
    // GET on a predict path is a method error, not a routing error.
    let (status, _) = http_request(
        server.addr(),
        "GET",
        &format!("/predict/{fingerprint}"),
        None,
    )
    .unwrap();
    assert_eq!(status, 405);
    server.stop();
}

#[test]
fn malformed_bodies_are_400_and_counted() {
    let (server, fingerprint) = spawn_german(1);
    let path = format!("/predict/{fingerprint}");
    for bad in [
        "not json at all",
        r#"{"neither":"row nor rows"}"#,
        r#"{"rows":[]}"#,
        r#"{"row":{"checking_status":42}}"#,
    ] {
        let (status, body) = http_request(server.addr(), "POST", &path, Some(bad)).unwrap();
        assert_eq!(status, 400, "{bad} -> {body}");
        assert!(parse(&body).unwrap().get("error").is_some(), "{body}");
    }
    let (_, metrics) = http_request(server.addr(), "GET", "/metrics", None).unwrap();
    let doc = parse(&metrics).unwrap();
    let (_, pipe) = match doc.get("pipelines") {
        Some(Value::Obj(members)) => members.first().unwrap().clone(),
        other => panic!("no pipelines object: {other:?}"),
    };
    assert_eq!(pipe.get("errors").and_then(Value::as_u64_any), Some(4));
    server.stop();
}

/// The core concurrency claim: many clients hammering `/predict` from
/// many threads receive, request for request, the exact bytes a
/// sequential replay of the same requests produces.
#[test]
fn concurrent_hammering_matches_sequential_replay() {
    let (sealed, bodies) = german();
    let (server, fingerprint) = spawn_german(4);
    let path = format!("/predict/{fingerprint}");
    let _ = sealed;

    // Sequential baseline, one response per request body.
    let expected: Vec<String> = bodies
        .iter()
        .map(|body| {
            let (status, response) =
                http_request(server.addr(), "POST", &path, Some(body)).unwrap();
            assert_eq!(status, 200, "{response}");
            response
        })
        .collect();

    // 8 client threads, each replaying every request 5 times against the
    // 4 server workers, all checking byte equality with the baseline.
    let addr = server.addr();
    std::thread::scope(|scope| {
        for client in 0..8 {
            let path = &path;
            let bodies = &bodies;
            let expected = &expected;
            scope.spawn(move || {
                for round in 0..5 {
                    for (i, body) in bodies.iter().enumerate() {
                        let (status, response) =
                            http_request(addr, "POST", path, Some(body)).unwrap();
                        assert_eq!(status, 200, "client {client} round {round}");
                        assert_eq!(
                            &response, &expected[i],
                            "client {client} round {round} request {i} drifted"
                        );
                    }
                }
            });
        }
    });

    // 1 sequential pass + 8 clients x 5 rounds, every request counted.
    let (_, metrics) = http_request(addr, "GET", "/metrics", None).unwrap();
    let doc = parse(&metrics).unwrap();
    let (_, pipe) = match doc.get("pipelines") {
        Some(Value::Obj(members)) => members.first().unwrap().clone(),
        other => panic!("no pipelines object: {other:?}"),
    };
    let n_requests = (bodies.len() * (1 + 8 * 5)) as u64;
    assert_eq!(
        pipe.get("requests").and_then(Value::as_u64_any),
        Some(n_requests),
        "{metrics}"
    );
    let latency = pipe.get("latency").unwrap();
    assert_eq!(
        latency.get("count").and_then(Value::as_u64_any),
        Some(n_requests)
    );
    assert!(latency.get("p50_us").and_then(Value::as_u64_any).unwrap() > 0);
    assert!(
        latency.get("p99_us").and_then(Value::as_u64_any).unwrap()
            >= latency.get("p50_us").and_then(Value::as_u64_any).unwrap()
    );
    server.stop();
}

/// `/metrics` carries per-group decision rates and per-column PSI; a
/// traffic distribution matching training shows no drift warning, while
/// systematically shifted traffic must trip the PSI threshold.
#[test]
fn metrics_report_decision_rates_and_psi_drift() {
    let (server, fingerprint) = spawn_german(2);
    let path = format!("/predict/{fingerprint}");
    let data = fairprep_cli::golden::golden_dataset("german").unwrap();

    // Replay 120 training rows: in-distribution traffic.
    for i in 0..120 {
        let (status, _) =
            http_request(server.addr(), "POST", &path, Some(&row_body(&data, i))).unwrap();
        assert_eq!(status, 200);
    }

    let (_, metrics) = http_request(server.addr(), "GET", "/metrics", None).unwrap();
    let doc = parse(&metrics).unwrap();
    let (_, pipe) = match doc.get("pipelines") {
        Some(Value::Obj(members)) => members.first().unwrap().clone(),
        other => panic!("no pipelines object: {other:?}"),
    };
    let decisions = pipe.get("decisions").unwrap();
    // Both groups appear in 120 german rows, and some decisions must be
    // favorable: the decision-rate cells are live, not placeholders.
    let total: u64 = [
        "privileged_favorable",
        "privileged_unfavorable",
        "unprivileged_favorable",
        "unprivileged_unfavorable",
    ]
    .iter()
    .map(|k| decisions.get(k).and_then(Value::as_u64_any).unwrap())
    .sum();
    assert_eq!(total, 120, "{metrics}");
    assert!(
        decisions.get("privileged_rate").unwrap().as_f64().is_some(),
        "{metrics}"
    );
    assert!(
        decisions
            .get("unprivileged_rate")
            .unwrap()
            .as_f64()
            .is_some(),
        "{metrics}"
    );
    // In-distribution traffic: no column should warn yet.
    let drift = pipe.get("drift").and_then(Value::as_array).unwrap();
    assert!(!drift.is_empty(), "{metrics}");
    let warned = |doc: &Value| {
        doc.get("drift")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .filter(|d| d.get("warn") == Some(&Value::Bool(true)))
            .count()
    };
    assert_eq!(warned(&pipe), 0, "{metrics}");

    // Now skew the traffic hard: clamp every numeric feature to its row-0
    // value (collapsing the distribution to a point) for 200 requests.
    let body = row_body(&data, 0);
    for _ in 0..200 {
        let (status, _) = http_request(server.addr(), "POST", &path, Some(&body)).unwrap();
        assert_eq!(status, 200);
    }
    let (_, metrics) = http_request(server.addr(), "GET", "/metrics", None).unwrap();
    let doc = parse(&metrics).unwrap();
    let (_, pipe) = match doc.get("pipelines") {
        Some(Value::Obj(members)) => members.first().unwrap().clone(),
        other => panic!("no pipelines object: {other:?}"),
    };
    assert!(warned(&pipe) > 0, "skewed traffic must warn: {metrics}");
    server.stop();
}

/// E12: the rolling-window monitors catch a mid-stream traffic shift
/// that the cumulative metrics dilute into silence. After 7,600
/// in-distribution rows, 400 rows of collapsed (row-0-only) traffic are
/// 5% of lifetime — lifetime PSI stays under the warn threshold — but
/// 40% of the last-1k window, which must warn.
#[test]
fn rolling_windows_catch_shift_that_lifetime_metrics_dilute() {
    let (server, fingerprint) = spawn_german(2);
    let path = format!("/predict/{fingerprint}");
    let data = fairprep_cli::golden::golden_dataset("german").unwrap();
    let n = data.n_rows();

    // Phase 1: 76 batches x 100 in-distribution rows (cycling the
    // training rows).
    for batch in 0..76 {
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
    // Phase 2: the shift — 4 batches of 100 copies of row 0.
    for _ in 0..4 {
        let indices = vec![0usize; 100];
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
    let doc = parse(&metrics).unwrap();
    let (_, pipe) = match doc.get("pipelines") {
        Some(Value::Obj(members)) => members.first().unwrap().clone(),
        other => panic!("no pipelines object: {other:?}"),
    };
    let warn_count = |scope: &Value| {
        scope
            .get("drift")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .filter(|d| d.get("warn") == Some(&Value::Bool(true)))
            .count()
    };
    let max_psi = |scope: &Value| {
        scope
            .get("drift")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .filter_map(|d| d.get("psi").and_then(Value::as_f64))
            .fold(0.0f64, f64::max)
    };

    // Cumulative view: quiet. The 400 shifted rows are 5% of 8,000.
    assert_eq!(warn_count(&pipe), 0, "lifetime must stay quiet: {metrics}");

    // Rolling 1k window: 40% shifted traffic — the alarm fires.
    let window_1k = pipe.get("window_1k").unwrap();
    assert_eq!(
        window_1k.get("requests").and_then(Value::as_u64_any),
        Some(80),
        "{metrics}"
    );
    assert!(
        warn_count(window_1k) > 0,
        "window_1k must warn on the shift: {metrics}"
    );
    assert!(max_psi(window_1k) > max_psi(&pipe), "{metrics}");

    // Windowed latency and fairness numbers are live alongside.
    assert!(
        window_1k
            .get("latency")
            .and_then(|l| l.get("p50_us"))
            .and_then(Value::as_u64_any)
            .unwrap()
            > 0
    );
    let w_decisions = window_1k.get("decisions").unwrap();
    assert!(w_decisions.get("disparate_impact").is_some(), "{metrics}");
    println!(
        "E12 german: lifetime max PSI {:.4} ({} warns), window_1k max PSI {:.4} ({} warns)",
        max_psi(&pipe),
        warn_count(&pipe),
        max_psi(window_1k),
        warn_count(window_1k)
    );
    server.stop();
}

/// A refused request leaves drift alone: its rows were never scored,
/// so binning them would let malformed traffic move PSI and fire drift
/// alerts. Renaming the protected `sex` key refuses every request at
/// scoring time, after the frame is built.
#[test]
fn refused_requests_do_not_move_drift() {
    let (_, bodies) = german();
    let body = bodies[0].replace("\"sex\":", "\"gender\":");
    assert_ne!(body, bodies[0]);
    let (server, fingerprint) = spawn_german(1);
    let path = format!("/predict/{fingerprint}");
    for _ in 0..50 {
        let (status, response) = http_request(server.addr(), "POST", &path, Some(&body)).unwrap();
        assert_eq!(status, 400, "{response}");
    }
    let (_, metrics) = http_request(server.addr(), "GET", "/metrics", None).unwrap();
    server.stop();
    let doc = parse(&metrics).unwrap();
    let pipe = match doc.get("pipelines") {
        Some(Value::Obj(members)) => &members[0].1,
        other => panic!("no pipelines object: {other:?}"),
    };
    assert_eq!(pipe.get("rows_scored").and_then(Value::as_u64_any), Some(0));
    assert_eq!(pipe.get("errors").and_then(Value::as_u64_any), Some(50));
    for scope in [
        pipe,
        pipe.get("window_1k").unwrap(),
        pipe.get("window_10k").unwrap(),
    ] {
        for column in scope.get("drift").and_then(Value::as_array).unwrap() {
            assert_eq!(
                column.get("observed").and_then(Value::as_u64_any),
                Some(0),
                "{metrics}"
            );
            assert_eq!(column.get("warn"), Some(&Value::Bool(false)), "{metrics}");
        }
    }
}

/// The status code of a raw HTTP response, if it has a status line.
fn status_of(raw: &[u8]) -> Option<u16> {
    let text = String::from_utf8_lossy(raw);
    text.strip_prefix("HTTP/1.1 ")?.get(..3)?.parse().ok()
}

/// Sends a request head on `stream` one byte every 200 ms, never
/// finishing it, and returns the status the server answers with, or
/// `None` if no answer comes within `give_up`.
fn dribble(mut stream: TcpStream, give_up: Duration) -> Option<u16> {
    let head = b"GET /healthz HTTP/1.1\r\nX-Slow: ";
    stream
        .set_read_timeout(Some(Duration::from_millis(200)))
        .ok()?;
    let started = Instant::now();
    let mut response = Vec::new();
    let mut chunk = [0u8; 512];
    for sent in 0.. {
        if started.elapsed() > give_up {
            break;
        }
        if response.is_empty() {
            let byte = head.get(sent).copied().unwrap_or(b'a');
            let _ = stream.write_all(&[byte]);
        }
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => response.extend_from_slice(&chunk[..n]),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(_) => break,
        }
    }
    status_of(&response)
}

/// N+1 clients that dribble their request heads against N workers: the
/// server answers each with 408 once the head deadline passes, so a
/// healthy request waits at most two head deadlines.
fn dribblers_cannot_stall_a_healthy_request(workers: usize) {
    let server = ServerHandle::spawn(Registry::new(), 0, workers).unwrap();
    let addr = server.addr();
    let give_up = HEAD_DEADLINE * 6;
    // Every dribbler is connected, so queued for accept, before the
    // healthy request.
    let dribblers: Vec<_> = (0..=workers)
        .map(|_| {
            let stream = TcpStream::connect(addr).unwrap();
            std::thread::spawn(move || dribble(stream, give_up))
        })
        .collect();
    let started = Instant::now();
    let (status, body) = http_request(addr, "GET", "/healthz", None).unwrap();
    let waited = started.elapsed();
    assert_eq!(status, 200, "{body}");
    let bound = HEAD_DEADLINE * 2 + Duration::from_secs(1);
    assert!(
        waited <= bound,
        "a healthy request waited {waited:?} behind {} dribblers on {workers} worker(s); bound {bound:?}",
        workers + 1
    );
    for dribbler in dribblers {
        assert_eq!(dribbler.join().unwrap(), Some(408));
    }
    server.stop();
}

#[test]
fn dribbling_clients_cannot_stall_one_worker() {
    dribblers_cannot_stall_a_healthy_request(1);
}

#[test]
fn dribbling_clients_cannot_stall_two_workers() {
    dribblers_cannot_stall_a_healthy_request(2);
}

/// A 64 MiB request line with no line end is refused with 414 after the
/// first few KiB, and the connection closes long before all of it is
/// sent.
#[test]
fn an_endless_request_line_is_refused_with_414() {
    const TOTAL: usize = 64 * 1024 * 1024;
    let server = ServerHandle::spawn(Registry::new(), 0, 1).unwrap();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream
        .set_write_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut reader = stream.try_clone().unwrap();
    let response = std::thread::spawn(move || {
        // A reset after the response keeps the bytes read before it.
        let mut raw = Vec::new();
        let _ = reader.read_to_end(&mut raw);
        raw
    });
    let chunk = vec![b'A'; 64 * 1024];
    let mut sent = 0;
    while sent < TOTAL {
        match stream.write(&chunk) {
            Ok(n) => sent += n,
            Err(_) => break,
        }
    }
    let _ = stream.shutdown(Shutdown::Write);
    let raw = response.join().unwrap();
    assert_eq!(
        status_of(&raw),
        Some(414),
        "{}",
        String::from_utf8_lossy(&raw)
    );
    assert!(
        sent < TOTAL / 4,
        "the server took {sent} of {TOTAL} bytes of a line capped at {MAX_REQUEST_LINE_BYTES}"
    );
    server.stop();
}

/// Workers block in `accept`; `stop()` must wake every one of them,
/// idle or right after traffic, and close the port.
#[test]
fn stop_wakes_every_blocked_worker() {
    for workers in [1, 2, 8] {
        for traffic in [false, true] {
            let server = ServerHandle::spawn(Registry::new(), 0, workers).unwrap();
            let addr = server.addr();
            if traffic {
                for _ in 0..2 * workers {
                    let (status, body) = http_request(addr, "GET", "/healthz", None).unwrap();
                    assert_eq!(status, 200, "{body}");
                }
            } else {
                // Time for the workers to block in `accept`; `stop()`
                // must also work if some have not got there yet.
                std::thread::sleep(Duration::from_millis(100));
            }
            let (done, stopped) = std::sync::mpsc::channel();
            let stopping = std::thread::spawn(move || {
                server.stop();
                let _ = done.send(());
            });
            let phase = if traffic { "after traffic" } else { "idle" };
            assert!(
                stopped.recv_timeout(Duration::from_secs(1)).is_ok(),
                "stop() did not return within 1 s with {workers} worker(s), {phase}"
            );
            stopping.join().unwrap();
            assert!(
                TcpStream::connect(addr).is_err(),
                "{addr} is still served after stop() with {workers} worker(s), {phase}"
            );
        }
    }
}

/// Renders dataset rows `indices` as one batched predict body.
fn rows_body(data: &fairprep_data::dataset::BinaryLabelDataset, indices: &[usize]) -> String {
    let rows = indices.iter().map(|&i| row_value(data, i)).collect();
    obj(vec![("rows", Value::Arr(rows))]).to_json()
}

/// Renders dataset row `i` as a single-row predict body.
fn row_body(data: &fairprep_data::dataset::BinaryLabelDataset, i: usize) -> String {
    obj(vec![("row", row_value(data, i))]).to_json()
}
