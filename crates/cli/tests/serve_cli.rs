//! End-to-end scenarios of the `fairprep` binary as an operator runs
//! it: seal a german pipeline with `fairprep run --seal`, start
//! `fairprep serve --port 0` in a child process, drive it over HTTP,
//! then read its access log back with `fairprep tail`.
//!
//! * The telemetry scenario serves predictions sequentially and under
//!   concurrent load with the access log on, scrapes `/metrics` in both
//!   formats, and checks the access records.
//! * The alert scenario arms a windowed PSI alert and a webhook, feeds
//!   the training sample and then a contaminated stream, and checks
//!   that the alert fires exactly once everywhere it is reported.

use std::collections::HashSet;
use std::io::{BufRead as _, BufReader, Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use fairprep_cli::golden::golden_bodies;
use fairprep_cli::serve::{http_request, http_request_accept};
use fairprep_trace::json::{obj, parse, Value};

const FAIRPREP: &str = env!("CARGO_BIN_EXE_fairprep");

/// A scratch directory unique to `stem` within this test process.
fn scratch_dir(stem: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fairprep_cli_{stem}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs one `fairprep` subcommand to completion and returns its stdout.
fn fairprep(args: &[&str]) -> String {
    let output = Command::new(FAIRPREP).args(args).output().unwrap();
    assert!(
        output.status.success(),
        "fairprep {args:?} failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout).unwrap()
}

/// Seals a german pipeline into `dir/registry` through the CLI and
/// returns its dashed fingerprint (the artifact's file stem).
fn seal_german(dir: &Path) -> String {
    let registry = dir.join("registry");
    fairprep(&[
        "run",
        "--dataset",
        "german",
        "--rows",
        "150",
        "--learner",
        "dt",
        "--seed",
        "7",
        "--seal",
        registry.to_str().unwrap(),
    ]);
    let artifacts: Vec<PathBuf> = std::fs::read_dir(&registry)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .collect();
    assert_eq!(artifacts.len(), 1, "{artifacts:?}");
    artifacts[0]
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap()
        .to_string()
}

/// A `fairprep serve` child process, killed on drop.
struct Served {
    child: Child,
    addr: SocketAddr,
}

impl Served {
    /// Starts `fairprep serve --port 0` with `extra` options, reads the
    /// bound address off its startup lines and waits for `/healthz`.
    fn start(dir: &Path, extra: &[&str]) -> Served {
        let registry = dir.join("registry");
        let mut child = Command::new(FAIRPREP)
            .args(["serve", "--registry", registry.to_str().unwrap()])
            .args(["--port", "0", "--threads", "2"])
            .args(extra)
            .stdout(Stdio::piped())
            .spawn()
            .unwrap();
        let mut lines = BufReader::new(child.stdout.take().unwrap()).lines();
        let addr = lines
            .by_ref()
            .map_while(Result::ok)
            .find_map(|line| line.split("http://").nth(1)?.trim().parse().ok())
            .expect("serve printed no address");
        // Keep draining stdout so the child never blocks on a full pipe.
        std::thread::spawn(move || lines.for_each(drop));
        let served = Served { child, addr };
        let deadline = Instant::now() + Duration::from_secs(20);
        while !matches!(http_request(addr, "GET", "/healthz", None), Ok((200, _))) {
            assert!(Instant::now() < deadline, "server never became healthy");
            std::thread::sleep(Duration::from_millis(50));
        }
        served
    }

    fn predict(&self, fingerprint: &str, body: &str) {
        let path = format!("/predict/{fingerprint}");
        let (status, response) = http_request(self.addr, "POST", &path, Some(body)).unwrap();
        assert_eq!(status, 200, "{response}");
    }

    /// The only pipeline of the JSON `/metrics` document.
    fn pipeline(&self) -> Value {
        let (status, metrics) = http_request(self.addr, "GET", "/metrics", None).unwrap();
        assert_eq!(status, 200, "{metrics}");
        match parse(&metrics).unwrap().get("pipelines") {
            Some(Value::Obj(members)) if members.len() == 1 => members[0].1.clone(),
            other => panic!("expected exactly one pipeline: {other:?}"),
        }
    }

    /// Stops the server; a short pause first lets the last access
    /// records reach the log.
    fn stop(self) {
        std::thread::sleep(Duration::from_millis(200));
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn u64_of(value: &Value, key: &str) -> u64 {
    value
        .get(key)
        .and_then(Value::as_u64_any)
        .unwrap_or_else(|| panic!("no integer `{key}` in {value:?}"))
}

fn array_of<'a>(value: &'a Value, key: &str) -> &'a [Value] {
    value
        .get(key)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("no array `{key}` in {value:?}"))
}

/// `GET /metrics` with `Accept: text/plain`, returning the response's
/// `Content-Type` header with the body.
fn scrape_prometheus(addr: SocketAddr) -> (String, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    write!(
        stream,
        "GET /metrics HTTP/1.1\r\nHost: {addr}\r\nAccept: text/plain\r\nContent-Length: 0\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    let (head, body) = raw.split_once("\r\n\r\n").unwrap();
    assert!(head.starts_with("HTTP/1.1 200 "), "{head}");
    let content_type = head
        .lines()
        .find_map(|l| {
            let (name, value) = l.split_once(':')?;
            name.eq_ignore_ascii_case("content-type")
                .then(|| value.trim().to_string())
        })
        .expect("response carries a Content-Type");
    (content_type, body.to_string())
}

/// Sealed through the CLI, served with the access log on: sequential
/// and concurrent predictions, both `/metrics` formats, and an access
/// log that is complete, well-formed and renders with `fairprep tail`.
#[test]
fn telemetry_scenario_through_the_binary() {
    let dir = scratch_dir("telemetry");
    let fingerprint = seal_german(&dir);
    let log = dir.join("access.jsonl");
    let served = Served::start(
        &dir,
        &[
            "--access-log",
            log.to_str().unwrap(),
            "--sample-rate",
            "1.0",
        ],
    );
    let bodies = golden_bodies("german").unwrap();

    // Sequential predictions: live per-group decision rates and drift.
    for body in bodies.iter().cycle().take(bodies.len() * 5) {
        served.predict(&fingerprint, body);
    }
    let pipe = served.pipeline();
    assert!(u64_of(&pipe, "requests") > 0);
    assert_eq!(u64_of(&pipe, "errors"), 0);
    let decisions = pipe.get("decisions").unwrap();
    for rate in ["privileged_rate", "unprivileged_rate"] {
        let value = decisions.get(rate).and_then(Value::as_f64);
        assert!(
            value.is_some_and(|r| r > 0.0),
            "{rate} must be > 0: {pipe:?}"
        );
    }
    assert!(!array_of(&pipe, "drift").is_empty(), "no drift columns");

    // Concurrent load from 8 clients between two scrapes: lifetime
    // counters are monotone and the rolling windows populated.
    let concurrent_round = || {
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for body in &bodies {
                        served.predict(&fingerprint, body);
                    }
                });
            }
        });
        served.pipeline()
    };
    let first = concurrent_round();
    let second = concurrent_round();
    for key in ["requests", "rows_scored"] {
        let (a, b) = (u64_of(&first, key), u64_of(&second, key));
        assert!(b > a && a > 0, "{key} not monotone: {a} -> {b}");
    }
    assert_eq!(u64_of(&second, "errors"), 0);
    let window = second.get("window_1k").unwrap();
    assert!(u64_of(window, "requests") > 0);
    assert!(!array_of(window, "drift").is_empty(), "no windowed drift");

    // The same endpoint content-negotiates to Prometheus text, where
    // every sample belongs to a declared family and parses as a number.
    let (content_type, text) = scrape_prometheus(served.addr);
    assert!(content_type.starts_with("text/plain"), "{content_type}");
    let mut families = HashSet::new();
    for line in text.lines() {
        if let Some(declared) = line.strip_prefix("# TYPE ") {
            families.insert(declared.split(' ').next().unwrap().to_string());
        } else if !line.is_empty() && !line.starts_with('#') {
            let (name, value) = line.rsplit_once(' ').unwrap();
            let family = name.split('{').next().unwrap();
            assert!(families.contains(family), "untyped sample: {line}");
            assert!(value.parse::<f64>().is_ok(), "unparseable sample: {line}");
        }
    }
    for family in [
        "fairprep_requests_total",
        "fairprep_decisions_total",
        "fairprep_latency_us",
        "fairprep_drift_psi",
    ] {
        assert!(families.contains(family), "missing family {family}");
    }
    let scraped_requests: u64 = text
        .lines()
        .find(|l| l.starts_with("fairprep_requests_total{"))
        .and_then(|l| l.rsplit_once(' '))
        .and_then(|(_, v)| v.parse().ok())
        .unwrap();
    assert!(scraped_requests >= u64_of(&second, "requests"));
    served.stop();

    // Every access record is well-formed: a known status, spans that
    // fit inside the total, and a unique id.
    let mut ids = HashSet::new();
    for line in std::fs::read_to_string(&log).unwrap().lines() {
        let record = parse(line).unwrap();
        assert_eq!(record.get("event").and_then(Value::as_str), Some("access"));
        assert!([200, 404].contains(&u64_of(&record, "status")), "{line}");
        let spans: u64 = ["read_us", "handle_us", "write_us"]
            .iter()
            .map(|k| u64_of(&record, k))
            .sum();
        assert!(
            spans <= u64_of(&record, "latency_us"),
            "spans exceed total: {line}"
        );
        assert!(ids.insert(u64_of(&record, "id")), "duplicate id: {line}");
    }
    assert!(!ids.is_empty(), "the access log is empty");
    fairprep(&["tail", "--file", log.to_str().unwrap(), "--once"]);
    std::fs::remove_dir_all(&dir).ok();
}

/// Accepts connections on `listener` forever, answering each POST with
/// 200 and collecting `(path, body)`.
fn spawn_webhook(listener: TcpListener) -> Arc<Mutex<Vec<(String, String)>>> {
    let payloads = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&payloads);
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(mut stream) = stream else { continue };
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut request_line = String::new();
            reader.read_line(&mut request_line).unwrap();
            let mut length = 0usize;
            loop {
                let mut header = String::new();
                reader.read_line(&mut header).unwrap();
                if header.trim().is_empty() {
                    break;
                }
                if let Some((name, value)) = header.split_once(':') {
                    if name.eq_ignore_ascii_case("content-length") {
                        length = value.trim().parse().unwrap();
                    }
                }
            }
            let mut body = vec![0u8; length];
            reader.read_exact(&mut body).unwrap();
            let path = request_line.split(' ').nth(1).unwrap_or("").to_string();
            sink.lock()
                .unwrap()
                .push((path, String::from_utf8(body).unwrap()));
            let _ = stream.write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n");
        }
    });
    payloads
}

/// The training sample the pipeline was sealed on, exported through
/// `fairprep generate`, as predict-request rows: the label column
/// left out, numeric cells as numbers.
fn training_rows(dir: &Path) -> Vec<Value> {
    let csv = dir.join("german.csv");
    fairprep(&[
        "generate",
        "--dataset",
        "german",
        "--rows",
        "150",
        "--seed",
        "7",
        "--out",
        csv.to_str().unwrap(),
    ]);
    let text = std::fs::read_to_string(&csv).unwrap();
    let mut lines = text.lines();
    let header: Vec<&str> = lines.next().unwrap().split(',').collect();
    lines
        .map(|line| {
            let members = header
                .iter()
                .zip(line.split(','))
                .filter(|(name, _)| **name != "credit")
                .map(|(name, cell)| {
                    let value = cell
                        .parse()
                        .map_or_else(|_| Value::Str(cell.to_string()), Value::Num);
                    (*name, value)
                })
                .collect();
            obj(members)
        })
        .collect()
}

/// A windowed PSI alert with a webhook stays quiet on the training
/// sample and fires exactly once on a contaminated stream: in both
/// `/metrics` formats, at the webhook, as one schema-valid access-log
/// event, and as a distinct `fairprep tail` line.
#[test]
fn alert_scenario_through_the_binary() {
    let dir = scratch_dir("alert");
    let fingerprint = seal_german(&dir);
    let spec = dir.join("alerts.json");
    std::fs::write(
        &spec,
        r#"{"alerts": [{"name": "age-drift", "metric": "psi", "column": "age", "window": "1k",
            "trip": 0.2, "clear": 0.1, "for": 25, "min_hold": 100000}]}"#,
    )
    .unwrap();
    let hook = TcpListener::bind("127.0.0.1:0").unwrap();
    let webhook = format!("http://{}/alert-hook", hook.local_addr().unwrap());
    let payloads = spawn_webhook(hook);
    let log = dir.join("access.jsonl");
    let served = Served::start(
        &dir,
        &[
            "--alerts",
            spec.to_str().unwrap(),
            "--webhook",
            &webhook,
            "--access-log",
            log.to_str().unwrap(),
            "--sample-rate",
            "0.01",
        ],
    );
    let rows = training_rows(&dir);
    assert_eq!(rows.len(), 150);
    let the_alert = |pipe: &Value| {
        let alerts = array_of(pipe, "alerts");
        assert_eq!(alerts.len(), 1, "{pipe:?}");
        alerts[0].clone()
    };

    // Phase 1: 1,200 in-distribution rows fill the 1k window.
    let batch = obj(vec![("rows", Value::Arr(rows.clone()))]).to_json();
    for _ in 0..8 {
        served.predict(&fingerprint, &batch);
    }
    let quiet = the_alert(&served.pipeline());
    assert_eq!(quiet.get("state").and_then(Value::as_str), Some("normal"));
    assert_eq!(u64_of(&quiet, "fired_total"), 0);
    assert!(payloads.lock().unwrap().is_empty(), "webhook called early");

    // Phase 2: 400 copies of one row collapse the age column onto a
    // point distribution.
    let single = obj(vec![("row", rows[0].clone())]).to_json();
    for _ in 0..400 {
        served.predict(&fingerprint, &single);
    }
    let firing = the_alert(&served.pipeline());
    assert_eq!(firing.get("state").and_then(Value::as_str), Some("firing"));
    assert_eq!(u64_of(&firing, "fired_total"), 1);
    assert!(firing.get("value").and_then(Value::as_f64).unwrap() > 0.2);
    let (_, text) =
        http_request_accept(served.addr, "GET", "/metrics", None, Some("text/plain")).unwrap();
    let active = text
        .lines()
        .find(|l| l.starts_with("fairprep_alert_active{"))
        .expect("no active-alert sample");
    assert!(active.ends_with(" 1"), "{active}");

    // The webhook receives the canonical firing payload.
    let deadline = Instant::now() + Duration::from_secs(10);
    while payloads.lock().unwrap().is_empty() {
        assert!(Instant::now() < deadline, "webhook payload never arrived");
        std::thread::sleep(Duration::from_millis(50));
    }
    let (path, payload) = payloads.lock().unwrap()[0].clone();
    assert_eq!(path, "/alert-hook");
    let event = parse(&payload).unwrap();
    for (key, want) in [
        ("event", "alert"),
        ("state", "firing"),
        ("name", "age-drift"),
        ("column", "age"),
    ] {
        assert_eq!(
            event.get(key).and_then(Value::as_str),
            Some(want),
            "{payload}"
        );
    }
    served.stop();

    // Alert events are never sampled away: exactly one, schema-valid.
    let text = std::fs::read_to_string(&log).unwrap();
    let alerts: Vec<Value> = text
        .lines()
        .map(|line| parse(line).unwrap())
        .filter(|record| record.get("event").and_then(Value::as_str) == Some("alert"))
        .collect();
    assert_eq!(alerts.len(), 1, "{text}");
    let event = &alerts[0];
    for key in [
        "name", "pipeline", "metric", "window", "state", "value", "trip", "clear",
    ] {
        assert!(
            event.get(key).is_some(),
            "alert event lacks {key}: {event:?}"
        );
    }
    assert_eq!(event.get("state").and_then(Value::as_str), Some("firing"));
    assert_ne!(
        event.get("trip").and_then(Value::as_f64),
        event.get("clear").and_then(Value::as_f64)
    );
    let tail = fairprep(&["tail", "--file", log.to_str().unwrap(), "--once"]);
    assert!(tail.contains("ALERT age-drift FIRING: psi(age)"), "{tail}");
    std::fs::remove_dir_all(&dir).ok();
}
