//! HTTP plumbing: reading one request off a connection within fixed
//! size limits and deadlines, routing it, writing the response, and the
//! blocking client the tests and benchmarks use.

use std::fmt::Write as _;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use fairprep_trace::exposition::TEXT_CONTENT_TYPE;
use fairprep_trace::json::{self, obj, Value};

use super::access_log::{AccessLog, AccessSpan};
use super::{predict, Registry, JSON_CONTENT_TYPE, MAX_BODY_BYTES};

/// Longest accepted request line, its `\n` included. A longer one is
/// refused with `414` as soon as this many bytes arrive without a
/// line end.
pub const MAX_REQUEST_LINE_BYTES: usize = 8 * 1024;

/// Largest accepted header block after the request line, its closing
/// blank line included. A larger one is refused with `431`.
pub const MAX_HEADER_BYTES: usize = 64 * 1024;

/// Time from accept to the end of the header block. A client that has
/// not sent its request line and headers by then is answered `408`.
pub const HEAD_DEADLINE: Duration = Duration::from_secs(2);

/// Time from accept to the last byte of the body. A client that has not
/// sent its whole request by then is answered `408`.
pub const REQUEST_DEADLINE: Duration = Duration::from_secs(10);

/// Bound on each write of a response, so a client that never reads its
/// response cannot pin a worker.
pub const WRITE_TIMEOUT: Duration = Duration::from_secs(10);

/// Bytes asked for per read while the header block is incomplete.
const HEAD_CHUNK: usize = 16 * 1024;

/// One parsed HTTP request: method, path, `Accept` header, body.
struct Request {
    method: String,
    path: String,
    accept: String,
    body: String,
}

/// Why a request was refused: its status and message.
type Refusal = (u16, String);

/// HTTP status codes the server emits.
fn status_text(code: u16) -> &'static str {
    match code {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        414 => "URI Too Long",
        431 => "Request Header Fields Too Large",
        _ => "Internal Server Error",
    }
}

/// The bytes read off one connection so far, and how far the request
/// has been parsed.
struct Conn<'s> {
    stream: &'s mut TcpStream,
    accepted: Instant,
    buf: Vec<u8>,
    /// Bytes of `buf` holding data read off the stream.
    filled: usize,
    /// Start of the bytes not yet parsed.
    pos: usize,
}

impl Conn<'_> {
    /// Reads at most `room` more bytes, refusing with `408` once
    /// `deadline` has passed since accept. Returns 0 at end of stream.
    fn fill(&mut self, room: usize, deadline: Duration) -> Result<usize, Refusal> {
        let end = self.filled + room;
        if self.buf.len() < end {
            self.buf.resize(end, 0);
        }
        let timed_out = || (408, format!("request not received within {deadline:?}"));
        loop {
            let left = deadline.saturating_sub(self.accepted.elapsed());
            if left.is_zero() {
                return Err(timed_out());
            }
            let _ = self.stream.set_read_timeout(Some(left));
            let into = self.buf.get_mut(self.filled..end).unwrap_or_default();
            match self.stream.read(into) {
                Ok(n) => {
                    self.filled += n;
                    return Ok(n);
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    return Err(timed_out());
                }
                Err(e) => return Err((400, format!("unreadable request: {e}"))),
            }
        }
    }

    /// The next line of the head, without its `\n`; `None` at end of
    /// stream with nothing left. The line must end before byte `limit`
    /// of the connection, and is refused with `too_long` otherwise.
    fn line(&mut self, limit: usize, too_long: fn() -> Refusal) -> Result<Option<&[u8]>, Refusal> {
        let mut scanned = self.pos;
        loop {
            let newline = self
                .buf
                .get(scanned..self.filled)
                .and_then(|unread| unread.iter().position(|&b| b == b'\n'));
            let end = match newline {
                Some(n) if scanned + n >= limit => return Err(too_long()),
                Some(n) => scanned + n,
                None if self.filled >= limit => return Err(too_long()),
                None => {
                    scanned = self.filled;
                    if self.fill(HEAD_CHUNK, HEAD_DEADLINE)? > 0 {
                        continue;
                    }
                    // End of stream: what is left is the last line.
                    if self.pos == self.filled {
                        return Ok(None);
                    }
                    self.filled
                }
            };
            let start = self.pos;
            self.pos = (end + 1).min(self.filled);
            return Ok(self.buf.get(start..end));
        }
    }
}

fn request_line_too_long() -> Refusal {
    let message = format!("request line exceeds {MAX_REQUEST_LINE_BYTES} bytes");
    (414, message)
}

fn header_block_too_large() -> Refusal {
    let message = format!("header block exceeds {MAX_HEADER_BYTES} bytes");
    (431, message)
}

/// Reads one request off the stream within the size limits and
/// deadlines above. Returns `Err((status, message))` on malformed,
/// oversized or late input so the caller can answer with a typed error.
fn read_request(stream: &mut TcpStream, accepted: Instant) -> Result<Request, Refusal> {
    let mut conn = Conn {
        stream,
        accepted,
        buf: Vec::new(),
        filled: 0,
        pos: 0,
    };
    let line = conn
        .line(MAX_REQUEST_LINE_BYTES, request_line_too_long)?
        .unwrap_or_default();
    let line = std::str::from_utf8(line)
        .map_err(|_| (400, "request line is not valid UTF-8".to_string()))?;
    let mut parts = line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| (400, "empty request line".to_string()))?
        .to_string();
    let path = parts
        .next()
        .ok_or_else(|| (400, "request line carries no path".to_string()))?
        .to_string();

    let header_limit = conn.pos + MAX_HEADER_BYTES;
    let mut content_length = 0usize;
    let mut accept = String::new();
    while let Some(header) = conn.line(header_limit, header_block_too_large)? {
        let header = std::str::from_utf8(header)
            .map_err(|_| (400, "header is not valid UTF-8".to_string()))?;
        if header.trim().is_empty() {
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
    let (start, end) = (conn.pos, conn.pos + content_length);
    while conn.filled < end {
        if conn.fill(end - conn.filled, REQUEST_DEADLINE)? == 0 {
            return Err((
                400,
                "truncated body: failed to fill whole buffer".to_string(),
            ));
        }
    }
    let mut raw = conn.buf;
    raw.truncate(end);
    raw.drain(..start);
    let body = String::from_utf8(raw).map_err(|_| (400, "body is not valid UTF-8".to_string()))?;
    Ok(Request {
        method,
        path,
        accept,
        body,
    })
}

/// Writes one `Connection: close` response: head and body in one
/// buffer, sent with one write.
fn write_response(stream: &mut TcpStream, code: u16, content_type: &str, body: &str) {
    let mut wire = String::with_capacity(body.len() + 128);
    let _ = write!(
        wire,
        "HTTP/1.1 {code} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        status_text(code),
        body.len()
    );
    wire.push_str(body);
    // A peer that hung up mid-response is its own problem; the server
    // must not die for it.
    let _ = stream.write_all(wire.as_bytes());
}

/// Appends the `{"error": message}` document.
fn error_body(message: &str, out: &mut String) {
    out.push_str("{\"error\":");
    json::write_escaped(message, out);
    out.push('}');
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
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
    let request = read_request(&mut stream, started);
    let read_us = micros_since(started);
    let handle_started = Instant::now();
    let mut body = String::new();
    let (code, content_type) = match &request {
        Ok(request) => route(request, registry, worker, access_log, &mut body),
        Err((code, message)) => {
            error_body(message, &mut body);
            (*code, JSON_CONTENT_TYPE)
        }
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

/// Dispatches a parsed request to its endpoint, appending the response
/// body to `out`. Returns the status and the response content type.
fn route(
    request: &Request,
    registry: &Registry,
    worker: usize,
    access_log: Option<&AccessLog>,
    out: &mut String,
) -> (u16, &'static str) {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => {
            let health = obj(vec![
                ("status", Value::Str("ok".to_string())),
                ("pipelines", Value::from_u64(registry.len() as u64)),
            ]);
            out.push_str(&health.to_json());
            (200, JSON_CONTENT_TYPE)
        }
        ("GET", "/metrics") if wants_prometheus(&request.accept) => {
            out.push_str(&registry.metrics_prometheus());
            (200, TEXT_CONTENT_TYPE)
        }
        ("GET", "/metrics") => {
            out.push_str(&registry.metrics_value().to_json());
            (200, JSON_CONTENT_TYPE)
        }
        (method, path) => {
            let outcome = match path.strip_prefix("/predict/") {
                None => Err((404, "no such endpoint".to_string())),
                Some(_) if method != "POST" => Err((405, "predict requires POST".to_string())),
                Some(fingerprint) => registry
                    .get(fingerprint)
                    .ok_or_else(|| (404, "unknown pipeline fingerprint".to_string()))
                    .and_then(|entry| {
                        predict(registry, entry, worker, &request.body, access_log, out)
                            .map_err(|message| (400, message))
                    }),
            };
            match outcome {
                Ok(()) => (200, JSON_CONTENT_TYPE),
                Err((code, message)) => {
                    error_body(&message, out);
                    (code, JSON_CONTENT_TYPE)
                }
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
