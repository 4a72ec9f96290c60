//! The `serve_mixed` workload: one sealed adult chain served by
//! `fairprep serve` in a child process, driven by two open-loop senders.
//!
//! Sender A sends single-row predicts as a Poisson stream at
//! [`ROW_RATE`]; sender B sends [`BATCH_ROWS`]-row predicts at
//! [`BATCH_RATE`], and every tenth slot of B is a `/metrics` scrape
//! instead (alternating JSON and Prometheus text). Each sender deals its
//! requests round-robin to [`LANES`] connection threads. Latency counts
//! from each request's due time to its last response byte. Single rows and
//! batches use the two spellings of the pipeline address the server
//! accepts (`fnv1a64-…` and `fnv1a64:…`), so the access log tells the
//! classes apart. The window is sent in [`SEGMENTS`] segments, with the
//! set-up repeated between them. The traced run serves the same schedule
//! from two servers, one with the access log off and one with it on,
//! taking turns in blocks of [`BLOCK_S`], so the host's drift cancels
//! between the two.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{ChildStdout, Command};
use std::time::{Duration, Instant};

use fairprep_cli::serve::{http_request, http_request_accept, Registry, ServerHandle};
use fairprep_core::seal::SealedPipeline;
use fairprep_data::column::{Column, ColumnKind, Value as Cell};
use fairprep_data::dataset::BinaryLabelDataset;
use fairprep_data::frame::DataFrame;
use fairprep_data::profile::ColumnProfile;
use fairprep_data::rng::component_rng;
use fairprep_data::schema::Role;
use fairprep_trace::json::{obj, parse, Value};
use rand::Rng;

use crate::grid;
use crate::lifecycle::Setups;
use crate::replay::{replay, Chain};
use crate::spans::{ms, Spans, OP};
use crate::stats::{max, median, quantile};
use crate::sys::ChildGuard;
use crate::{Outcome, Run, LIFECYCLE_LAYERS};

/// Single-row predicts per second (sender A).
pub const ROW_RATE: f64 = 150.0;
/// Slots per second of sender B.
pub const BATCH_RATE: f64 = 20.0;
/// Rows per batch predict.
pub const BATCH_ROWS: usize = 256;
/// Connection threads per sender.
const LANES: usize = 4;
/// Warm-up requests: enough to fill the server's 10k rolling windows.
const WARM_ROWS: usize = 10_000;
const WARM_BATCHES: usize = 40;
/// The window is sent in this many segments with set-ups between them,
/// so that the set-ups behind `setup_s` sample the host across the run.
const SEGMENTS: usize = 3;
/// Set-ups before the window (the last one is served), between segments
/// and after the window.
const SETUPS_BEFORE: usize = 3;
const SETUPS_BETWEEN: usize = 2;
const SETUPS_AFTER: usize = 3;
/// Seconds per block when the traced run alternates between servers.
const BLOCK_S: f64 = 1.0;
/// The traced run's server with the access log on.
const LOGGED: usize = 1;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    Row,
    Batch,
    ScrapeJson,
    ScrapeProm,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Seconds from the start of the window.
    pub due_s: f64,
    pub kind: Kind,
    /// Indices into the row pool.
    pub rows: Vec<usize>,
}

/// The open-loop schedule: a pure function of the workload seed.
#[derive(Debug, PartialEq)]
pub struct Schedule {
    pub a: Vec<Event>,
    pub b: Vec<Event>,
}

impl Schedule {
    /// Sender A: a Poisson stream conditioned on its count (sorted
    /// uniform due times), so every run sends the same number of rows.
    /// Sender B: evenly spaced slots.
    pub fn new(seed: u64, seconds: f64, pool: usize) -> Schedule {
        let mut rng = component_rng(seed, "perfbench/serve/schedule");
        let n_rows = (ROW_RATE * seconds).round() as usize;
        let mut dues: Vec<f64> = (0..n_rows).map(|_| rng.random::<f64>() * seconds).collect();
        dues.sort_by(f64::total_cmp);
        let a = dues
            .into_iter()
            .map(|due_s| Event {
                due_s,
                kind: Kind::Row,
                rows: vec![rng.random_range(0..pool)],
            })
            .collect();
        let n_slots = (BATCH_RATE * seconds).round() as usize;
        let b = (0..n_slots)
            .map(|k| {
                let due_s = (k as f64 + 0.5) / BATCH_RATE;
                if k % 10 == 9 {
                    let kind = if (k / 10) % 2 == 0 {
                        Kind::ScrapeJson
                    } else {
                        Kind::ScrapeProm
                    };
                    Event {
                        due_s,
                        kind,
                        rows: Vec::new(),
                    }
                } else {
                    Event {
                        due_s,
                        kind: Kind::Batch,
                        rows: (0..BATCH_ROWS).map(|_| rng.random_range(0..pool)).collect(),
                    }
                }
            })
            .collect();
        Schedule { a, b }
    }
}

/// Request rows as JSON objects: every non-label column, `null` for a
/// missing cell.
pub struct RowPool {
    rows: Vec<Value>,
}

impl RowPool {
    pub fn new(data: &BinaryLabelDataset) -> Result<RowPool, String> {
        let frame = data.frame();
        let fields: Vec<&str> = data
            .schema()
            .fields()
            .iter()
            .filter(|f| f.role != Role::Label)
            .map(|f| f.name.as_str())
            .collect();
        let columns = fields
            .iter()
            .map(|name| frame.column(name).map_err(|e| e.to_string()))
            .collect::<Result<Vec<&Column>, String>>()?;
        let rows = (0..frame.n_rows())
            .map(|i| {
                let members = fields
                    .iter()
                    .zip(&columns)
                    .map(|(name, column)| {
                        let cell = match column.get(i) {
                            Cell::Numeric(v) => Value::Num(v),
                            Cell::Categorical(s) => Value::Str(s.to_string()),
                            Cell::Missing => Value::Null,
                        };
                        (*name, cell)
                    })
                    .collect();
                obj(members)
            })
            .collect();
        Ok(RowPool { rows })
    }

    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// The request body for `event` (`None` for a scrape).
    pub fn body(&self, event: &Event) -> Option<String> {
        match event.kind {
            Kind::Row => Some(obj(vec![("row", self.rows[event.rows[0]].clone())]).to_json()),
            Kind::Batch => Some(
                obj(vec![(
                    "rows",
                    Value::Arr(event.rows.iter().map(|&i| self.rows[i].clone()).collect()),
                )])
                .to_json(),
            ),
            Kind::ScrapeJson | Kind::ScrapeProm => None,
        }
    }
}

/// Builds the request frame the way the server does, with the public
/// column constructors.
pub fn frame_from_rows(sealed: &SealedPipeline, rows: &[&Value]) -> Result<DataFrame, String> {
    let mut frame = DataFrame::new();
    for field in sealed.schema().fields() {
        if field.role == Role::Label {
            continue;
        }
        let cells = rows.iter().map(|row| row.get(&field.name));
        let column = match field.kind {
            ColumnKind::Numeric => {
                Column::from_optional_f64(cells.map(|c| c.and_then(Value::as_f64)))
            }
            ColumnKind::Categorical => {
                Column::from_optional_strs(cells.map(|c| c.and_then(Value::as_str)))
            }
        };
        frame
            .add_column(&field.name, column)
            .map_err(|e| e.to_string())?;
    }
    Ok(frame)
}

fn rows_of(body: &Value) -> Vec<&Value> {
    match (body.get("row"), body.get("rows").and_then(Value::as_array)) {
        (Some(row), _) => vec![row],
        (None, Some(rows)) => rows.iter().collect(),
        (None, None) => Vec::new(),
    }
}

/// The scores a body should get, as the response's `score_bits` values,
/// with the in-process time of each step the server takes.
struct InProcess {
    bits: Vec<Value>,
    parse_ms: f64,
    frame_ms: f64,
    score_ms: f64,
}

fn score_in_process(sealed: &SealedPipeline, body: &str) -> Result<(InProcess, DataFrame), String> {
    let t = Instant::now();
    let parsed = parse(body).map_err(|e| e.to_string())?;
    let parse_ms = ms(t.elapsed());
    let t = Instant::now();
    let frame = frame_from_rows(sealed, &rows_of(&parsed))?;
    let frame_ms = ms(t.elapsed());
    let kept = frame.clone();
    let t = Instant::now();
    let scored = sealed.score_frame(frame).map_err(|e| e.to_string())?;
    let score_ms = ms(t.elapsed());
    let bits = scored
        .iter()
        .map(|r| r.score.map_or(Value::Null, Value::bits))
        .collect();
    Ok((
        InProcess {
            bits,
            parse_ms,
            frame_ms,
            score_ms,
        },
        kept,
    ))
}

/// True when a predict response carries exactly `expected` score bits.
pub fn response_matches(body: &str, expected: &[Value]) -> bool {
    let Ok(doc) = parse(body) else {
        return false;
    };
    let Some(predictions) = doc.get("predictions").and_then(Value::as_array) else {
        return false;
    };
    predictions.len() == expected.len()
        && predictions
            .iter()
            .zip(expected)
            .all(|(p, e)| p.get("score_bits") == Some(e))
}

fn scrape_ok(kind: Kind, body: &str) -> bool {
    match kind {
        Kind::ScrapeJson => parse(body).is_ok_and(|d| d.get("pipelines").is_some()),
        _ => body.contains("fairprep_requests_total"),
    }
}

// ---------------------------------------------------------------------------
// The server under test
// ---------------------------------------------------------------------------

struct Server {
    child: ChildGuard,
    /// Held open for the child's lifetime: it prints its endpoint list.
    _stdout: BufReader<ChildStdout>,
    addr: SocketAddr,
}

fn drift_column(sealed: &SealedPipeline) -> Result<String, String> {
    let label = sealed.schema().label_name().map_err(|e| e.to_string())?;
    sealed
        .train_profile
        .columns
        .iter()
        .find(|(name, p)| {
            name != label && matches!(p, ColumnProfile::Numeric { count, .. } if *count > 0)
        })
        .map(|(name, _)| name.clone())
        .ok_or_else(|| "no numeric drift column".to_string())
}

/// Four never-firing alerts: the set `bench_telemetry` arms.
fn alert_specs(psi_column: &str) -> String {
    format!(
        r#"[{{"name": "di-floor", "metric": "disparate_impact", "window": "1k",
             "trip": 0.05, "clear": 0.1, "for": 1000000}},
           {{"name": "latency-p99", "metric": "p99_latency_us", "window": "1k",
             "trip": 1e12, "for": 1000000}},
           {{"name": "error-burst", "metric": "error_rate", "window": "1k",
             "trip": 0.5, "clear": 0.25, "for": 1000000}},
           {{"name": "drift", "metric": "psi", "column": "{psi_column}",
             "window": "1k", "trip": 1e12, "for": 1000000}}]"#
    )
}

/// Fits, seals and saves the served chain into `registry`, starts
/// `fairprep serve` on it, and waits for `/healthz`.
fn start_server(
    run: &Run,
    adult: &BinaryLabelDataset,
    access_log: Option<&Path>,
    registry: &Path,
) -> Result<(Server, SealedPipeline), String> {
    let seed = grid::experiment_seed(run.seed);
    let (_, sealed) = grid::serve_chain()
        .experiment("adult", adult.clone(), seed, 1)
        .and_then(|e| e.run_sealed())
        .map_err(|e| e.to_string())?;
    let _ = std::fs::remove_dir_all(registry);
    let path = sealed.save(registry).map_err(|e| e.to_string())?;
    let alerts = run.work.join("alerts.json");
    std::fs::write(&alerts, alert_specs(&drift_column(&sealed)?)).map_err(|e| e.to_string())?;

    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut command = Command::new(exe);
    command.arg("serve").arg("--registry").arg(registry);
    command.args(["--port", "0", "--threads", &run.cores.to_string()]);
    command.arg("--alerts").arg(&alerts);
    if let Some(log) = access_log {
        command
            .arg("--access-log")
            .arg(log)
            .args(["--sample-rate", "1"]);
    }
    let mut child = ChildGuard::spawn(command)?;
    let mut stdout = BufReader::new(child.take_stdout().ok_or("child has no stdout")?);
    let mut addr = None;
    let mut line = String::new();
    while stdout.read_line(&mut line).map_err(|e| e.to_string())? > 0 {
        if let Some(rest) = line.split("http://").nth(1) {
            addr = Some(
                rest.trim()
                    .parse::<SocketAddr>()
                    .map_err(|e| e.to_string())?,
            );
        }
        if line.contains("/metrics") {
            break;
        }
        line.clear();
    }
    let addr = addr.ok_or("server printed no address")?;
    let deadline = Instant::now() + Duration::from_secs(60);
    while !matches!(http_request(addr, "GET", "/healthz", None), Ok((200, _))) {
        if Instant::now() > deadline {
            return Err("server never became healthy".to_string());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    let loaded = SealedPipeline::load(&path).map_err(|e| e.to_string())?;
    Ok((
        Server {
            child,
            _stdout: stdout,
            addr,
        },
        loaded,
    ))
}

fn paths(sealed: &SealedPipeline) -> (String, String) {
    let fp = &sealed.fingerprint;
    (
        format!("/predict/{}", fp.replace(':', "-")),
        format!("/predict/{fp}"),
    )
}

/// Closed-loop traffic until every rolling window is full.
fn warm_up(
    addr: SocketAddr,
    sealed: &SealedPipeline,
    pool: &RowPool,
    seed: u64,
) -> Result<(), String> {
    let (row_path, batch_path) = paths(sealed);
    let clients = 4;
    let failures: usize = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let (row_path, batch_path) = (&row_path, &batch_path);
                s.spawn(move || {
                    let mut rng = component_rng(seed, &format!("perfbench/warm/{c}"));
                    let mut failures = 0;
                    for k in 0..(WARM_ROWS + WARM_BATCHES) / clients {
                        let batch = k % (WARM_ROWS / WARM_BATCHES) == 0;
                        let event = Event {
                            due_s: 0.0,
                            kind: if batch { Kind::Batch } else { Kind::Row },
                            rows: (0..if batch { BATCH_ROWS } else { 1 })
                                .map(|_| rng.random_range(0..pool.len()))
                                .collect(),
                        };
                        let path = if batch { batch_path } else { row_path };
                        let body = pool.body(&event).unwrap_or_default();
                        if !matches!(http_request(addr, "POST", path, Some(&body)), Ok((200, _))) {
                            failures += 1;
                        }
                    }
                    failures
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or(usize::MAX))
            .sum()
    });
    if failures > 0 {
        return Err(format!("{failures} warm-up requests failed"));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// One phase: setup, warm-up, timed window
// ---------------------------------------------------------------------------

struct Sent {
    event: Event,
    body: Option<String>,
    lateness_ms: f64,
    /// From the due time to the last response byte.
    latency_ms: f64,
    /// From the actual send to the last response byte.
    client_ms: f64,
    status: u16,
    response: String,
}

impl Sent {
    /// When the request actually went out, in ms from the window start.
    fn sent_at_ms(&self) -> f64 {
        self.event.due_s * 1e3 + self.lateness_ms
    }
}

struct Phase {
    setup_s: f64,
    sent: Vec<Sent>,
    window_s: f64,
    /// CPU time of every server during the window.
    cpu_s: f64,
    peak_rss_mb: f64,
    sealed: SealedPipeline,
    /// How many servers took turns serving the schedule.
    servers: usize,
}

/// Which of `servers` servers receives a request due at `due_s`: blocks
/// of [`BLOCK_S`] take turns.
fn server_for(due_s: f64, servers: usize) -> usize {
    (due_s / BLOCK_S) as usize % servers
}

/// A scheduled request and its rendered body (`None` for a scrape).
type Request = (Event, Option<String>);

/// One request of any kind against the server at `addr`.
fn request(
    addr: SocketAddr,
    paths: &(String, String),
    event: &Event,
    body: Option<&str>,
) -> Result<(u16, String), String> {
    match event.kind {
        Kind::Row => http_request(addr, "POST", &paths.0, body),
        Kind::Batch => http_request(addr, "POST", &paths.1, body),
        Kind::ScrapeJson => http_request(addr, "GET", "/metrics", None),
        Kind::ScrapeProm => http_request_accept(addr, "GET", "/metrics", None, Some("text/plain")),
    }
}

/// Sends one sender's `requests` open loop over [`LANES`] connection
/// threads, dealt round-robin: a request goes out at its due time unless
/// its lane is still busy with the request dealt to it [`LANES`] places
/// earlier. With a single connection, a Poisson row due right after
/// another would wait for it at the client, and the measurement would
/// time the generator's own queue.
fn send_lanes<F>(requests: Vec<Request>, t0: Instant, send: &F) -> Result<Vec<Sent>, String>
where
    F: Fn(&Event, Option<&str>) -> Result<(u16, String), String> + Sync,
{
    let mut lanes: Vec<Vec<Request>> = (0..LANES).map(|_| Vec::new()).collect();
    for (i, request) in requests.into_iter().enumerate() {
        lanes[i % LANES].push(request);
    }
    std::thread::scope(|s| {
        let handles: Vec<_> = lanes
            .into_iter()
            .map(|lane| s.spawn(move || send_all(lane, t0, send)))
            .collect();
        let mut sent = Vec::new();
        for handle in handles {
            sent.extend(
                handle
                    .join()
                    .map_err(|_| "a sender lane panicked".to_string())?,
            );
        }
        sent.sort_by(|a, b| a.event.due_s.total_cmp(&b.event.due_s));
        Ok(sent)
    })
}

/// Sends one lane's `requests` in order, one connection at a time: each
/// at its due time after `t0`, or as soon as the lane's previous request
/// has finished if that is later.
fn send_all(
    requests: Vec<Request>,
    t0: Instant,
    send: impl Fn(&Event, Option<&str>) -> Result<(u16, String), String>,
) -> Vec<Sent> {
    let mut sent = Vec::with_capacity(requests.len());
    for (event, body) in requests {
        let due = t0 + Duration::from_secs_f64(event.due_s);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let start = Instant::now();
        let reply = send(&event, body.as_deref());
        let end = Instant::now();
        let (status, response) = reply.unwrap_or((0, String::new()));
        sent.push(Sent {
            event,
            body,
            lateness_ms: ms(start.saturating_duration_since(due)),
            latency_ms: ms(end.saturating_duration_since(due)),
            client_ms: ms(end - start),
            status,
            response,
        });
    }
    sent
}

/// Sets up one server per entry of `logs` (its access log, if any),
/// warms each up, and sends the schedule, the servers taking turns in
/// blocks of [`BLOCK_S`].
fn run_phase(
    run: &Run,
    adult: &BinaryLabelDataset,
    pool: &RowPool,
    schedule: &Schedule,
    logs: &[Option<&Path>],
) -> Result<Phase, String> {
    let mut setups = Setups::default();
    let mut servers = Vec::new();
    let mut sealed = None;
    for (i, log) in logs.iter().enumerate() {
        let registry = run.work.join(format!("registry-{i}"));
        let mut served = None;
        for _ in 0..if i == 0 { SETUPS_BEFORE } else { 1 } {
            // Release the previous repetition's server first.
            drop(served.take());
            served = Some(setups.time(|| start_server(run, adult, *log, &registry))?);
        }
        let (server, loaded) = served.ok_or("no server was set up")?;
        warm_up(server.addr, &loaded, pool, run.seed)?;
        servers.push(server);
        sealed = Some(loaded);
    }
    let sealed = sealed.ok_or("no server was set up")?;

    // Bodies are rendered before the window opens, so the senders do no
    // work between sends but the requests themselves.
    let segment_s = run.seconds / SEGMENTS as f64;
    let mut segments: Vec<[Vec<Request>; 2]> =
        (0..SEGMENTS).map(|_| [Vec::new(), Vec::new()]).collect();
    for (sender, events) in [&schedule.a, &schedule.b].into_iter().enumerate() {
        for e in events {
            let k = ((e.due_s / segment_s) as usize).min(SEGMENTS - 1);
            segments[k][sender].push((e.clone(), pool.body(e)));
        }
    }
    let addrs: Vec<SocketAddr> = servers.iter().map(|s| s.addr).collect();
    let paths = paths(&sealed);
    let send = |event: &Event, body: Option<&str>| {
        let addr = addrs[server_for(event.due_s, addrs.len())];
        request(addr, &paths, event, body)
    };
    let cpu = |servers: &[Server]| servers.iter().map(|s| s.child.cpu_s()).sum::<f64>();
    let extra = run.work.join("registry-extra");
    let mut sent = Vec::new();
    let mut window_s = 0.0;
    let mut cpu_s = 0.0;
    for (k, [a_requests, b_requests]) in segments.into_iter().enumerate() {
        if k > 0 {
            setups.next_point();
            for _ in 0..SETUPS_BETWEEN {
                setups.time(|| start_server(run, adult, None, &extra))?;
            }
        }
        // Due times count from the window's start, so this segment's
        // origin lies the earlier segments' length before its start.
        let start = Instant::now() + Duration::from_millis(20);
        let t0 = start
            .checked_sub(Duration::from_secs_f64(k as f64 * segment_s))
            .ok_or("monotonic clock too close to its origin")?;
        let cpu0 = cpu(&servers);
        let segment = std::thread::scope(|s| {
            let a = s.spawn(|| send_lanes(a_requests, t0, &send));
            let b = s.spawn(|| send_lanes(b_requests, t0, &send));
            match (a.join(), b.join()) {
                (Ok(Ok(a)), Ok(Ok(b))) => Ok([a, b]),
                _ => Err("a sender thread panicked".to_string()),
            }
        })?;
        cpu_s += cpu(&servers) - cpu0;
        window_s += start.elapsed().as_secs_f64();
        sent.extend(segment.into_iter().flatten());
    }
    let peak_rss_mb = servers
        .iter()
        .map(|s| s.child.peak_rss_mb())
        .fold(0.0, f64::max);
    drop(servers);
    setups.next_point();
    for _ in 0..SETUPS_AFTER {
        setups.time(|| start_server(run, adult, None, &extra))?;
    }
    Ok(Phase {
        setup_s: setups.median_s(),
        sent,
        window_s,
        cpu_s,
        peak_rss_mb,
        sealed,
        servers: addrs.len(),
    })
}

impl Phase {
    fn server_of(&self, sent: &Sent) -> usize {
        server_for(sent.event.due_s, self.servers)
    }

    fn latencies(&self, kinds: &[Kind]) -> Vec<f64> {
        self.sent
            .iter()
            .filter(|s| kinds.contains(&s.event.kind))
            .map(|s| s.latency_ms)
            .collect()
    }

    /// Checks every response; returns (attempted, failed).
    fn verify(&self) -> (u64, u64) {
        let mut failed = 0;
        for sent in &self.sent {
            let ok = sent.status == 200
                && match (&sent.event.kind, &sent.body) {
                    (Kind::Row | Kind::Batch, Some(body)) => score_in_process(&self.sealed, body)
                        .is_ok_and(|(expected, _)| {
                            response_matches(&sent.response, &expected.bits)
                        }),
                    (kind, _) => scrape_ok(*kind, &sent.response),
                };
            if !ok {
                failed += 1;
                println!(
                    "check failed: {:?} request due at {:.4} s (status {})",
                    sent.event.kind, sent.event.due_s, sent.status
                );
            }
        }
        (self.sent.len() as u64, failed)
    }

    fn end_to_end(&self, out: &mut Outcome) {
        let (attempted, failed) = self.verify();
        out.attempted += attempted;
        out.failed += failed;
        let completed = self.sent.iter().filter(|s| s.status != 0).count() as f64;
        let rows = self.latencies(&[Kind::Row]);
        let lateness: Vec<f64> = self.sent.iter().map(|s| s.lateness_ms).collect();
        let scrape = (median(&self.latencies(&[Kind::ScrapeJson]))
            + median(&self.latencies(&[Kind::ScrapeProm])))
            / 2.0;
        out.set("setup_s", self.setup_s);
        out.set("ops_per_s", completed / self.window_s);
        out.set(
            "cpu_ms_per_op",
            self.cpu_s * 1e3 / self.sent.len().max(1) as f64,
        );
        out.set("peak_rss_mb", self.peak_rss_mb);
        out.set("p50_ms", median(&rows));
        out.set("batch_p50_ms", median(&self.latencies(&[Kind::Batch])));
        out.set("scrape_p50_ms", scrape);
        println!(
            "window {:.3} s, {} requests ({} rows, {} batches, {} scrapes); row p50 {:.3} ms, p90 {:.3} ms, p99 {:.3} ms",
            self.window_s,
            self.sent.len(),
            rows.len(),
            self.latencies(&[Kind::Batch]).len(),
            self.latencies(&[Kind::ScrapeJson, Kind::ScrapeProm]).len(),
            median(&rows),
            quantile(&rows, 0.9),
            quantile(&rows, 0.99)
        );
        println!(
            "generator lateness: p99 {:.3} ms, max {:.3} ms",
            quantile(&lateness, 0.99),
            max(&lateness)
        );
    }
}

pub fn serve_mixed(run: &Run, trace: bool) -> Result<Outcome, String> {
    let adult = grid::adult(run.seed).map_err(|e| e.to_string())?;
    let pool = RowPool::new(&adult)?;
    let schedule = Schedule::new(run.seed, run.seconds, pool.len());
    let mut out = Outcome::default();
    if !trace {
        let phase = run_phase(run, &adult, &pool, &schedule, &[None])?;
        phase.end_to_end(&mut out);
        return Ok(out);
    }
    let log = run.work.join("access.jsonl");
    let phase = run_phase(run, &adult, &pool, &schedule, &[None, Some(&log)])?;
    phase.end_to_end(&mut out);
    let row_p50 = |server| {
        let rows: Vec<f64> = phase
            .sent
            .iter()
            .filter(|s| s.event.kind == Kind::Row && phase.server_of(s) == server)
            .map(|s| s.latency_ms)
            .collect();
        median(&rows)
    };
    let (off, on) = (row_p50(0), row_p50(LOGGED));
    println!("row p50 with the access log off {off:.3} ms, on {on:.3} ms");
    out.set("trace.overhead_pct", (on / off - 1.0) * 100.0);
    serve_layers(run, &adult, &pool, &phase, &log, &mut out)?;
    Ok(out)
}

// ---------------------------------------------------------------------------
// Per-layer attribution
// ---------------------------------------------------------------------------

struct AccessEntry {
    id: u64,
    path: String,
    latency_ms: f64,
    read_ms: f64,
    handle_ms: f64,
    write_ms: f64,
}

fn read_access_log(path: &Path) -> Result<Vec<AccessEntry>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    let mut entries: Vec<AccessEntry> = text
        .lines()
        .filter_map(|line| {
            let v = parse(line).ok()?;
            if v.get("event")?.as_str()? != "access" {
                return None;
            }
            let us = |key: &str| {
                v.get(key)
                    .and_then(Value::as_u64_any)
                    .map(|x| x as f64 / 1e3)
            };
            Some(AccessEntry {
                id: v.get("id")?.as_u64_any()?,
                path: v.get("path")?.as_str()?.to_string(),
                latency_ms: us("latency_us")?,
                read_ms: us("read_us")?,
                handle_ms: us("handle_us")?,
                write_ms: us("write_us")?,
            })
        })
        .collect();
    entries.sort_by_key(|e| e.id);
    Ok(entries)
}

/// Times the sealed stages of one request on the replayed chain and
/// returns the scores they produce.
fn time_stages(
    chain: &Chain,
    sealed: &SealedPipeline,
    frame: DataFrame,
    spans: &mut Spans,
) -> Result<Vec<f64>, String> {
    let data = BinaryLabelDataset::for_inference(
        frame,
        sealed.schema().clone(),
        sealed.protected().clone(),
        sealed.favorable_label(),
    )
    .map_err(|e| e.to_string())?;
    let completed = spans
        .time("impute.apply_ms", || {
            chain.missing_handler.handle_missing(&data)
        })
        .map_err(|e| e.to_string())?;
    let repaired = spans
        .time("fairness.pre_apply_ms", || {
            chain.preprocessor.transform_eval(&completed)
        })
        .map_err(|e| e.to_string())?;
    let x = spans
        .time("ml.featurize_apply_ms", || {
            chain.featurizer.transform(&repaired)
        })
        .map_err(|e| e.to_string())?;
    let scores = spans
        .time("ml.predict_ms", || chain.model.predict_proba(&x))
        .map_err(|e| e.to_string())?;
    if let Some(post) = &chain.postprocessor {
        spans
            .time("fairness.post_apply_ms", || {
                post.adjust(&scores, repaired.privileged_mask())
            })
            .map_err(|e| e.to_string())?;
    }
    Ok(scores)
}

fn serve_layers(
    run: &Run,
    adult: &BinaryLabelDataset,
    pool: &RowPool,
    phase: &Phase,
    log: &Path,
    out: &mut Outcome,
) -> Result<(), String> {
    // The served chain's fit, replayed through the public functions: the
    // lifecycle layers of setup, and the fitted stages to time requests on.
    let seed = grid::experiment_seed(run.seed);
    let t = Instant::now();
    let refit = grid::serve_chain()
        .experiment("adult", adult.clone(), seed, 1)
        .and_then(|e| e.run_sealed())
        .map_err(|e| e.to_string())?;
    let untraced_fit_ms = ms(t.elapsed());
    drop(refit);
    let mut fit = Spans::new(0);
    fit.enter(OP);
    let replayed = replay(
        &grid::serve_chain(),
        "adult",
        adult,
        seed,
        1,
        true,
        &mut fit,
    );
    let saved = fit.time("core.save_ms", || {
        phase.sealed.save(&run.work.join("replayed"))
    });
    if let Ok(path) = &saved {
        let _ = fit.time("core.load_ms", || SealedPipeline::load(path));
    }
    fit.exit();
    let replayed = replayed.map_err(|e| e.to_string())?;
    let saved = saved.map_err(|e| e.to_string())?;
    out.attempted += 1;
    if replayed.fingerprint.as_deref() != Some(phase.sealed.fingerprint.as_str()) {
        println!("check failed: replayed fingerprint differs from the served artifact");
        out.failed += 1;
    }
    let fit_self = fit.self_ms();
    for layer in LIFECYCLE_LAYERS {
        out.set(layer, fit_self.get(layer).copied().unwrap_or(0.0));
    }
    out.set("impute.cells", replayed.cells_imputed as f64);
    out.set("ml.cv_fits", replayed.cv_fits as f64);
    out.set("ml.fold_cache_hits", replayed.fold_cache_hits as f64);
    out.set(
        "core.sealed_kb",
        std::fs::metadata(&saved).map_or(0, |m| m.len()) as f64 / 1024.0,
    );
    out.set("trace.op_ms.untraced", untraced_fit_ms);
    out.set("trace.op_ms.replay", fit.wall_ms());

    // Server-side spans from the access log, matched to the client's
    // requests to the logged server class by class.
    let entries = read_access_log(log)?;
    let (row_path, batch_path) = paths(&phase.sealed);
    let mut covered = 0.0;
    let mut wall = 0.0;
    for (class, kind, path) in [
        ("row", Kind::Row, &row_path),
        ("batch", Kind::Batch, &batch_path),
    ] {
        // Ids follow accept order, which follows send order but for
        // sends a few microseconds apart.
        let mut sent: Vec<&Sent> = phase
            .sent
            .iter()
            .filter(|s| s.event.kind == kind && phase.server_of(s) == LOGGED)
            .collect();
        sent.sort_by(|a, b| a.sent_at_ms().total_cmp(&b.sent_at_ms()));
        let logged: Vec<&AccessEntry> = entries.iter().filter(|e| &e.path == path).collect();
        if logged.len() < sent.len() {
            return Err(format!(
                "access log has {} {class} entries for {} requests",
                logged.len(),
                sent.len()
            ));
        }
        let logged = &logged[logged.len() - sent.len()..];
        let mut layers: std::collections::BTreeMap<&str, Vec<f64>> = Default::default();
        for (s, e) in sent.iter().zip(logged) {
            let Some(body) = &s.body else { continue };
            let (inproc, frame) = score_in_process(&phase.sealed, body)?;
            let mut stages = Spans::new(e.id);
            stages.enter(OP);
            let scores = time_stages(&replayed.chain, &phase.sealed, frame, &mut stages)?;
            stages.exit();
            out.attempted += 1;
            let bits: Vec<Value> = scores.iter().map(|&v| Value::bits(v)).collect();
            if bits != inproc.bits {
                println!("check failed: replayed stages score a {class} request differently");
                out.failed += 1;
            }
            let accept_wait = s.client_ms - e.latency_ms;
            let handle_other = e.handle_ms - inproc.parse_ms - inproc.frame_ms - inproc.score_ms;
            for (name, v) in [
                ("serve.accept_wait_ms", accept_wait),
                ("serve.read_ms", e.read_ms),
                ("serve.handle_ms", e.handle_ms),
                ("serve.write_ms", e.write_ms),
                ("serve.parse_ms", inproc.parse_ms),
                ("serve.frame_ms", inproc.frame_ms),
                ("serve.score_ms", inproc.score_ms),
                ("serve.handle_other_ms", handle_other),
            ] {
                layers.entry(name).or_default().push(v);
            }
            for (stage, v) in stages.self_ms() {
                if stage != OP {
                    layers.entry(stage).or_default().push(v);
                }
            }
            covered += accept_wait
                + e.read_ms
                + e.write_ms
                + inproc.parse_ms
                + inproc.frame_ms
                + inproc.score_ms;
            wall += s.client_ms;
        }
        for (name, values) in layers {
            out.set(&format!("{name}.{class}"), median(&values));
        }
    }
    out.set(
        "trace.coverage",
        if wall > 0.0 { covered / wall } else { 0.0 },
    );

    // Both registry renderers, in-process, on a registry whose rolling
    // windows the same warm-up traffic has filled.
    let mut registry = Registry::new();
    let alerts = fairprep_trace::alert::parse_specs(
        &alert_specs(&drift_column(&phase.sealed)?),
        &fairprep_cli::serve::WINDOW_LABELS,
    )?;
    registry.insert(SealedPipeline::load(&saved).map_err(|e| e.to_string())?);
    registry.arm_alerts(&alerts)?;
    let handle = ServerHandle::spawn(registry, 0, run.cores)?;
    warm_up(handle.addr(), &phase.sealed, pool, run.seed)?;
    let mut json_ms = Vec::new();
    let mut prom_ms = Vec::new();
    for _ in 0..20 {
        let t = Instant::now();
        let json = handle.registry().metrics_value().to_json();
        json_ms.push(ms(t.elapsed()));
        let t = Instant::now();
        let prom = handle.registry().metrics_prometheus();
        prom_ms.push(ms(t.elapsed()));
        if json.is_empty() || prom.is_empty() {
            out.failed += 1;
        }
    }
    handle.stop();
    out.set("serve.render_json_ms", median(&json_ms));
    out.set("serve.render_prom_ms", median(&prom_ms));
    print_predictions(out);
    Ok(())
}

fn print_predictions(out: &Outcome) {
    let m = |name: &str| out.metrics.get(name).copied().unwrap_or(0.0);
    let p50 = m("p50_ms").max(f64::MIN_POSITIVE);
    let batch = m("batch_p50_ms").max(f64::MIN_POSITIVE);
    let scrape = m("scrape_p50_ms").max(f64::MIN_POSITIVE);
    println!(
        "prediction serve.accept_wait_ms.row is most of p50_ms: {:.3} of {:.3} ms ({:.0}%); of batch_p50_ms: {:.3} of {:.3} ms ({:.0}%)",
        m("serve.accept_wait_ms.row"),
        p50,
        m("serve.accept_wait_ms.row") / p50 * 100.0,
        m("serve.accept_wait_ms.batch"),
        batch,
        m("serve.accept_wait_ms.batch") / batch * 100.0
    );
    let pfs = m("serve.parse_ms.batch") + m("serve.frame_ms.batch") + m("serve.score_ms.batch");
    let pfs_row = m("serve.parse_ms.row") + m("serve.frame_ms.row") + m("serve.score_ms.row");
    println!(
        "prediction parse+frame+score move batch_p50_ms, not p50_ms: batch {:.3} of {:.3} ms ({:.0}%); row {:.3} of {:.3} ms ({:.0}%)",
        pfs,
        batch,
        pfs / batch * 100.0,
        pfs_row,
        p50,
        pfs_row / p50 * 100.0
    );
    println!(
        "prediction serve.handle_other_ms moves p50_ms: row {:.3} ms ({:.0}% of p50), batch {:.3} ms",
        m("serve.handle_other_ms.row"),
        m("serve.handle_other_ms.row") / p50 * 100.0,
        m("serve.handle_other_ms.batch")
    );
    println!(
        "prediction serve.render_* move scrape_p50_ms: json {:.3} ms, prom {:.3} ms, scrape p50 {:.3} ms",
        m("serve.render_json_ms"),
        m("serve.render_prom_ms"),
        scrape
    );
    println!(
        "prediction core.load_ms/core.sealed_kb move setup_s: load {:.1} ms of a {:.1} ms setup, artifact {:.0} KiB",
        m("core.load_ms"),
        m("setup_s") * 1e3,
        m("core.sealed_kb")
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_a_pure_function_of_the_seed() {
        let a = Schedule::new(7, 2.0, 1000);
        assert_eq!(a, Schedule::new(7, 2.0, 1000));
        assert_ne!(a, Schedule::new(8, 2.0, 1000));
        assert_eq!(a.a.len(), 300);
        assert_eq!(a.b.len(), 40);
        assert!(a.a.windows(2).all(|w| w[0].due_s <= w[1].due_s));
        let scrapes: Vec<Kind> =
            a.b.iter()
                .filter(|e| e.rows.is_empty())
                .map(|e| e.kind)
                .collect();
        assert_eq!(
            scrapes,
            vec![
                Kind::ScrapeJson,
                Kind::ScrapeProm,
                Kind::ScrapeJson,
                Kind::ScrapeProm
            ]
        );
        assert!(a
            .b
            .iter()
            .filter(|e| e.kind == Kind::Batch)
            .all(|e| e.rows.len() == BATCH_ROWS));
    }

    /// A request whose sender is held up is charged the delay: latency
    /// counts from the due time, not from the late send.
    #[test]
    fn latency_counts_from_the_due_time() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            for stream in listener.incoming().take(2) {
                let mut stream = stream.unwrap();
                let mut buf = [0u8; 4096];
                let _ = std::io::Read::read(&mut stream, &mut buf);
                std::thread::sleep(Duration::from_millis(30));
                let _ = std::io::Write::write_all(
                    &mut stream,
                    b"HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n",
                );
            }
        });
        let scrape = |due_s| {
            let event = Event {
                due_s,
                kind: Kind::ScrapeJson,
                rows: Vec::new(),
            };
            (event, None)
        };
        let sent = send_all(vec![scrape(0.0), scrape(0.005)], Instant::now(), |_, _| {
            http_request(addr, "GET", "/metrics", None)
        });
        server.join().unwrap();
        // The second request was due 5 ms in but its lane was busy until
        // the first finished (~30 ms): its lateness and latency show it.
        assert!(sent[1].lateness_ms >= 20.0, "{}", sent[1].lateness_ms);
        assert!(sent[1].latency_ms >= sent[1].client_ms + 20.0);
    }

    #[test]
    fn perturbed_score_bits_fail_the_check() {
        let body = r#"{"model":"m","n":2,"predictions":[{"score_bits":"3fe0000000000000"},{"score_bits":null}]}"#;
        let good = [Value::bits(0.5), Value::Null];
        assert!(response_matches(body, &good));
        let perturbed = [Value::bits(0.5000000000000001), Value::Null];
        assert!(!response_matches(body, &perturbed));
        assert!(!response_matches(body, &good[..1]));
    }
}
