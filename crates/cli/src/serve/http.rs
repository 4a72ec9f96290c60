//! HTTP plumbing: reading one request off a connection, routing it,
//! writing the response, and the blocking client the tests and
//! benchmarks use.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use fairprep_trace::exposition::TEXT_CONTENT_TYPE;
use fairprep_trace::json::{obj, Value};

use super::access_log::{AccessLog, AccessSpan};
use super::{predict, Registry, JSON_CONTENT_TYPE, MAX_BODY_BYTES};

/// One parsed HTTP request: method, path, `Accept` header, body.
struct Request {
    method: String,
    path: String,
    accept: String,
    body: String,
}

/// HTTP status codes the server emits.
fn status_text(code: u16) -> &'static str {
    match code {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        _ => "Internal Server Error",
    }
}

/// Reads one request off the stream. Returns `Err((status, message))`
/// on malformed input so the caller can answer with a typed error.
fn read_request(stream: &mut TcpStream) -> Result<Request, (u16, String)> {
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader
        .read_line(&mut line)
        .map_err(|e| (400, format!("unreadable request line: {e}")))?;
    let mut parts = line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| (400, "empty request line".to_string()))?
        .to_string();
    let path = parts
        .next()
        .ok_or_else(|| (400, "request line carries no path".to_string()))?
        .to_string();

    let mut content_length = 0usize;
    let mut accept = String::new();
    loop {
        let mut header = String::new();
        let n = reader
            .read_line(&mut header)
            .map_err(|e| (400, format!("unreadable header: {e}")))?;
        if n == 0 || header.trim().is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| (400, "malformed Content-Length".to_string()))?;
            } else if name.eq_ignore_ascii_case("accept") {
                accept = value.trim().to_string();
            }
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err((413, format!("body exceeds {MAX_BODY_BYTES} bytes")));
    }
    let mut raw = vec![0u8; content_length];
    reader
        .read_exact(&mut raw)
        .map_err(|e| (400, format!("truncated body: {e}")))?;
    let body = String::from_utf8(raw).map_err(|_| (400, "body is not valid UTF-8".to_string()))?;
    Ok(Request {
        method,
        path,
        accept,
        body,
    })
}

/// Writes one `Connection: close` response with the given content type.
fn write_response(stream: &mut TcpStream, code: u16, content_type: &str, body: &str) {
    let head = format!(
        "HTTP/1.1 {code} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        status_text(code),
        body.len()
    );
    // A peer that hung up mid-response is its own problem; the server
    // must not die for it.
    let _ = stream.write_all(head.as_bytes());
    let _ = stream.write_all(body.as_bytes());
    let _ = stream.flush();
}

fn error_body(message: &str) -> String {
    obj(vec![("error", Value::Str(message.to_string()))]).to_json()
}

/// `true` when the `Accept` header asks for the Prometheus text
/// exposition instead of the default JSON view.
fn wants_prometheus(accept: &str) -> bool {
    let accept = accept.to_ascii_lowercase();
    if accept.contains("application/json") {
        return false;
    }
    accept.contains("text/plain") || accept.contains("openmetrics")
}

fn micros_since(started: Instant) -> u64 {
    u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// Routes one connection. Every outcome is answered; nothing panics.
pub(super) fn handle_connection(
    mut stream: TcpStream,
    registry: &Registry,
    worker: usize,
    access_log: Option<&AccessLog>,
) {
    let started = Instant::now();
    let id = registry.next_id();
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    let _ = stream.set_nonblocking(false);
    let request = read_request(&mut stream);
    let read_us = micros_since(started);
    let handle_started = Instant::now();
    let (code, body, content_type) = match &request {
        Ok(request) => route(request, registry, worker, access_log),
        Err((code, message)) => (*code, error_body(message), JSON_CONTENT_TYPE),
    };
    // A request refused while being read was never handled.
    let handle_us = request.as_ref().map_or(0, |_| micros_since(handle_started));
    let write_started = Instant::now();
    write_response(&mut stream, code, content_type, &body);
    let write_us = micros_since(write_started);
    if let Some(log) = access_log {
        let (method, path) = request
            .as_ref()
            .map_or(("-", "-"), |r| (r.method.as_str(), r.path.as_str()));
        log.record(&AccessSpan {
            id,
            worker,
            method,
            path,
            status: code,
            latency_us: micros_since(started),
            read_us,
            handle_us,
            write_us,
        });
    }
}

/// Dispatches a parsed request to its endpoint. Returns status, body,
/// and the response content type.
fn route(
    request: &Request,
    registry: &Registry,
    worker: usize,
    access_log: Option<&AccessLog>,
) -> (u16, String, &'static str) {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => (
            200,
            obj(vec![
                ("status", Value::Str("ok".to_string())),
                ("pipelines", Value::from_u64(registry.len() as u64)),
            ])
            .to_json(),
            JSON_CONTENT_TYPE,
        ),
        ("GET", "/metrics") => {
            if wants_prometheus(&request.accept) {
                (200, registry.metrics_prometheus(), TEXT_CONTENT_TYPE)
            } else {
                (200, registry.metrics_value().to_json(), JSON_CONTENT_TYPE)
            }
        }
        (method, path) => {
            let Some(fingerprint) = path.strip_prefix("/predict/") else {
                return (404, error_body("no such endpoint"), JSON_CONTENT_TYPE);
            };
            if method != "POST" {
                return (405, error_body("predict requires POST"), JSON_CONTENT_TYPE);
            }
            let Some(entry) = registry.get(fingerprint) else {
                return (
                    404,
                    error_body("unknown pipeline fingerprint"),
                    JSON_CONTENT_TYPE,
                );
            };
            match predict(registry, entry, worker, &request.body, access_log) {
                Ok(value) => (200, value.to_json(), JSON_CONTENT_TYPE),
                Err(message) => (400, error_body(&message), JSON_CONTENT_TYPE),
            }
        }
    }
}

/// Minimal blocking HTTP client for tests and benchmarks: sends one
/// request, returns `(status, body)`.
pub fn http_request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> Result<(u16, String), String> {
    http_request_accept(addr, method, path, body, None)
}

/// [`http_request`] with an explicit `Accept` header (e.g.
/// `text/plain` to scrape the Prometheus exposition).
pub fn http_request_accept(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
    accept: Option<&str>,
) -> Result<(u16, String), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(|e| e.to_string())?;
    let payload = body.unwrap_or("");
    let accept_header = accept.map_or(String::new(), |a| format!("Accept: {a}\r\n"));
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\n{accept_header}Content-Length: {}\r\nConnection: close\r\n\r\n",
        payload.len()
    );
    stream
        .write_all(head.as_bytes())
        .map_err(|e| e.to_string())?;
    stream
        .write_all(payload.as_bytes())
        .map_err(|e| e.to_string())?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw).map_err(|e| e.to_string())?;
    let (head, response_body) = raw
        .split_once("\r\n\r\n")
        .ok_or_else(|| "response carries no header/body separator".to_string())?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("unparseable status line in {head:?}"))?;
    Ok((status, response_body.to_string()))
}
