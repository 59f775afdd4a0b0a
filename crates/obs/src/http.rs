//! The embedded HTTP server: `/metrics`, `/status`, `/alerts`,
//! `/healthz`, plus pluggable routes for the campaign service.
//!
//! Hand-rolled HTTP/1.1 over `std::net`, in the same zero-dependency
//! style as the fleet crate's TCP protocol, one response per connection
//! (`Connection: close`). One thread blocks in `accept` and hands each
//! connection to a handler thread through a bounded queue; a connection
//! that finds the queue full is answered `503` at once. Handler threads
//! start only when every running one is busy, up to a fixed count.
//! Each request must arrive whole within one deadline, so a silent or
//! trickling client holds a handler for at most that long and never
//! stalls the others. Scrapes read the registry through
//! [`crate::snapshot::capture`] — pure atomic loads — so a scrape can
//! never perturb a running campaign, and a coordinator can hand the
//! server an [`Aggregate`] so one scrape returns the merged fleet-wide
//! view with per-worker labels.
//!
//! A [`Handler`] lets callers (the `imufit-serve` crate) mount extra
//! routes — including `POST` with a request body — in front of the
//! built-in read-only endpoints. Untrusted input is bounded twice: the
//! request head is capped at 8 KiB and the body at a caller-chosen limit
//! (413 on breach); nothing in this module panics on hostile bytes, and
//! every way a request can fail to parse is a typed [`RequestError`].

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::snapshot::{capture, Aggregate};

/// Largest accepted request head (request line + headers).
const MAX_REQUEST_BYTES: usize = 8 * 1024;

/// Default request-body cap when the caller doesn't choose one.
pub const DEFAULT_MAX_BODY_BYTES: usize = 1024 * 1024;

/// Most threads serving connections. A stuck client holds one for at most
/// [`REQUEST_DEADLINE`], so a few of them cannot starve `/healthz`.
const HANDLER_THREADS: usize = 8;

/// Accepted connections waiting for a handler; one more is a `503`.
const QUEUE_DEPTH: usize = 64;

/// Time a client has to deliver its whole request, head and body; also
/// the write timeout for the response.
const REQUEST_DEADLINE: Duration = Duration::from_secs(2);

/// Pause after a failed `accept` (say, out of file descriptors) before
/// the next one, so a persistent failure does not spin a core.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(25);

/// One parsed HTTP request, as seen by a [`Handler`].
#[derive(Debug, Clone)]
pub struct Request {
    /// The request method, verbatim (`GET`, `POST`, ...).
    pub method: String,
    /// The path with any query string stripped.
    pub path: String,
    /// The raw query string (no leading `?`; empty when absent).
    pub query: String,
    /// The request body (empty unless a `Content-Length` said otherwise).
    pub body: Vec<u8>,
}

/// Why a request could not be read. The server answers `413` for
/// [`RequestError::BodyTooLarge`] and `400` for the rest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestError {
    /// The connection ended before the head, or the declared body, did.
    Truncated,
    /// No request line with a method and a target.
    Malformed,
    /// The head is not UTF-8.
    NotUtf8,
    /// A `Content-Length` that is not a decimal number, or a second one.
    BadContentLength,
    /// The head ran past 8 KiB without ending.
    HeadTooLarge,
    /// `Content-Length` exceeded the server's body cap.
    BodyTooLarge,
    /// The request did not arrive whole within its deadline.
    TimedOut,
}

/// One response a [`Handler`] produces.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub code: u16,
    /// `Content-Type` header value.
    pub content_type: String,
    /// Response body.
    pub body: String,
}

impl Response {
    /// An `application/json` response.
    pub fn json(code: u16, body: impl Into<String>) -> Response {
        Response {
            code,
            content_type: "application/json".to_string(),
            body: body.into(),
        }
    }

    /// A `text/plain` response.
    pub fn text(code: u16, body: impl Into<String>) -> Response {
        Response {
            code,
            content_type: "text/plain".to_string(),
            body: body.into(),
        }
    }
}

/// A pluggable route handler tried before the built-in endpoints;
/// returning `None` falls through to them.
pub type Handler = Arc<dyn Fn(&Request) -> Option<Response> + Send + Sync>;

/// Accepted connections on their way to a handler thread.
struct Queue {
    pending: VecDeque<TcpStream>,
    /// Handler threads waiting for a connection, the most recently idle
    /// last. The accept thread wakes that one, so a light load stays on
    /// one warm thread (and its malloc arena) instead of rotating.
    idle: Vec<usize>,
    /// Set when the accept thread exits: handlers drain and end.
    closed: bool,
}

/// What the accept thread and the handler threads share.
struct Shared {
    stop: AtomicBool,
    queue: Mutex<Queue>,
    /// One per handler thread, waited on by that thread alone.
    wake: [Condvar; HANDLER_THREADS],
    /// The connection each handler thread is serving, so shutdown can
    /// cut it instead of waiting out its deadline.
    serving: [Mutex<Option<TcpStream>>; HANDLER_THREADS],
    aggregate: Option<Arc<Aggregate>>,
    handler: Option<Handler>,
    max_body_bytes: usize,
}

/// A running embedded server; shuts down when dropped or via
/// [`ObsServer::shutdown`].
pub struct ObsServer {
    addr: SocketAddr,
    shared: Arc<Shared>,
    /// The accept thread, which joins the handler threads it started.
    accept: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for ObsServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObsServer")
            .field("addr", &self.addr)
            .finish()
    }
}

impl ObsServer {
    /// Binds `addr` (e.g. `"127.0.0.1:9469"`, port 0 for ephemeral) and
    /// serves the built-in endpoints until shut down. `aggregate`, when
    /// given, is merged into every `/metrics` response (the coordinator's
    /// fleet-wide view).
    pub fn serve(addr: &str, aggregate: Option<Arc<Aggregate>>) -> std::io::Result<ObsServer> {
        Self::serve_with(addr, aggregate, None, DEFAULT_MAX_BODY_BYTES)
    }

    /// [`ObsServer::serve`] plus a route [`Handler`] tried before the
    /// built-in endpoints, and a request-body cap (413 on breach).
    pub fn serve_with(
        addr: &str,
        aggregate: Option<Arc<Aggregate>>,
        handler: Option<Handler>,
        max_body_bytes: usize,
    ) -> std::io::Result<ObsServer> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let shared = Arc::new(Shared {
            stop: AtomicBool::new(false),
            queue: Mutex::new(Queue {
                pending: VecDeque::with_capacity(QUEUE_DEPTH),
                idle: Vec::with_capacity(HANDLER_THREADS),
                closed: false,
            }),
            wake: std::array::from_fn(|_| Condvar::new()),
            serving: std::array::from_fn(|_| Mutex::new(None)),
            aggregate,
            handler,
            max_body_bytes,
        });
        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::Builder::new()
            .name("obs-http".into())
            .spawn(move || accept_loop(&listener, &accept_shared))?;
        Ok(ObsServer {
            addr: local,
            shared,
            accept: Some(accept),
        })
    }

    /// The bound address (resolved port for `:0` binds).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, cuts the connections in service, and joins the
    /// server's threads.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        let Some(accept) = self.accept.take() else {
            return;
        };
        self.shared.stop.store(true, Ordering::SeqCst);
        for slot in &self.shared.serving {
            if let Some(stream) = slot.lock().unwrap_or_else(|e| e.into_inner()).as_ref() {
                let _ = stream.shutdown(std::net::Shutdown::Both);
            }
        }
        // The accept thread blocks until a connection arrives: make one.
        // Should that fail, the threads are left to the process's exit
        // rather than joined forever.
        if TcpStream::connect_timeout(&wake_addr(self.addr), REQUEST_DEADLINE).is_ok() {
            let _ = accept.join();
        }
    }
}

impl Drop for ObsServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Where to connect to reach a listener bound at `addr`: a wildcard bind
/// is reached over loopback.
fn wake_addr(addr: SocketAddr) -> SocketAddr {
    let ip = match addr.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
        IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
        ip => ip,
    };
    SocketAddr::new(ip, addr.port())
}

/// Accepts connections until shutdown and queues each for a handler
/// thread: the most recently idle one, or a new one while every running
/// handler is busy and fewer than [`HANDLER_THREADS`] run. Past
/// [`QUEUE_DEPTH`] waiting connections, answers `503` itself. At shutdown
/// closes the queue and joins the handlers.
fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    let mut handlers: Vec<JoinHandle<()>> = Vec::with_capacity(HANDLER_THREADS);
    for conn in listener.incoming() {
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(mut stream) = conn else {
            std::thread::sleep(ACCEPT_BACKOFF);
            continue;
        };
        let mut queue = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
        if queue.pending.len() >= QUEUE_DEPTH {
            drop(queue);
            let _ = stream.set_write_timeout(Some(REQUEST_DEADLINE));
            let _ = write_response(&mut stream, 503, "text/plain", "server busy\n");
            continue;
        }
        queue.pending.push_back(stream);
        if let Some(slot) = queue.idle.pop() {
            shared.wake[slot].notify_one();
            continue;
        }
        drop(queue);
        if handlers.len() < HANDLER_THREADS {
            let slot = handlers.len();
            let shared = Arc::clone(shared);
            // A failed spawn leaves the connection queued for a running
            // handler, or for the next attempt at the next connection.
            handlers.extend(
                std::thread::Builder::new()
                    .name(format!("obs-http-{slot}"))
                    .spawn(move || handler_loop(&shared, slot))
                    .ok(),
            );
        }
    }
    shared
        .queue
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .closed = true;
    for wake in &shared.wake {
        wake.notify_one();
    }
    for handler in handlers {
        let _ = handler.join();
    }
}

/// The next queued connection for handler `slot`, waiting idle for one;
/// `None` once the queue is closed and drained.
fn next_connection(shared: &Shared, slot: usize) -> Option<TcpStream> {
    let mut queue = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
    loop {
        if let Some(stream) = queue.pending.pop_front() {
            return Some(stream);
        }
        if queue.closed {
            return None;
        }
        queue.idle.push(slot);
        queue = shared.wake[slot]
            .wait(queue)
            .unwrap_or_else(|e| e.into_inner());
        // Woken by the accept thread, which took the slot off the idle
        // list, or spuriously, which did not.
        queue.idle.retain(|&idle| idle != slot);
    }
}

/// One handler thread: serves queued connections until the accept thread
/// closes the queue. While it serves one, a clone sits in its `slot` of
/// [`Shared::serving`]; a connection that reaches a handler after shutdown
/// began is closed unserved.
fn handler_loop(shared: &Shared, slot: usize) {
    while let Some(stream) = next_connection(shared, slot) {
        *shared.serving[slot]
            .lock()
            .unwrap_or_else(|e| e.into_inner()) = stream.try_clone().ok();
        // Read after publishing the clone: a shutdown that missed the
        // clone has already set the flag.
        if !shared.stop.load(Ordering::SeqCst) {
            let _ = handle_connection(stream, shared);
        }
        *shared.serving[slot]
            .lock()
            .unwrap_or_else(|e| e.into_inner()) = None;
    }
}

/// Reads from a connection until a fixed instant: each read may block
/// only for the time left, and none starts after it.
struct Deadline<'a> {
    stream: &'a TcpStream,
    until: Instant,
}

impl Read for Deadline<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let left = self.until.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(ErrorKind::TimedOut.into());
        }
        self.stream.set_read_timeout(Some(left))?;
        let mut stream = self.stream;
        stream.read(buf)
    }
}

fn handle_connection(mut stream: TcpStream, shared: &Shared) -> std::io::Result<()> {
    stream.set_write_timeout(Some(REQUEST_DEADLINE))?;
    let mut reader = Deadline {
        stream: &stream,
        until: Instant::now() + REQUEST_DEADLINE,
    };
    let max_body_bytes = shared.max_body_bytes;
    let request = match read_request(&mut reader, max_body_bytes) {
        Ok(request) => request,
        Err(RequestError::BodyTooLarge) => {
            return write_response(
                &mut stream,
                413,
                "application/json",
                &format!("{{\"error\": \"request body exceeds {max_body_bytes} bytes\"}}\n"),
            )
        }
        Err(_) => return write_response(&mut stream, 400, "text/plain", "bad request\n"),
    };
    if let Some(handler) = &shared.handler {
        if let Some(response) = handler(&request) {
            return write_response(
                &mut stream,
                response.code,
                &response.content_type,
                &response.body,
            );
        }
    }
    let known = matches!(
        request.path.as_str(),
        "/metrics" | "/status" | "/alerts" | "/healthz"
    );
    if known && request.method != "GET" {
        return write_response(&mut stream, 405, "text/plain", "method not allowed\n");
    }
    let aggregate = shared.aggregate.as_deref();
    match request.path.as_str() {
        "/metrics" => {
            let mut snap = capture();
            if let Some(agg) = aggregate {
                snap.merge(&agg.merged());
            }
            write_response(
                &mut stream,
                200,
                "text/plain; version=0.0.4",
                &snap.to_prometheus(),
            )
        }
        "/status" => write_response(
            &mut stream,
            200,
            "application/json",
            &crate::status::board().render_json(),
        ),
        "/alerts" => {
            // Evaluate against the same merged view a /metrics scrape
            // sees, so a rule over fleet-wide counters fires on the
            // coordinator even though workers own the series.
            let mut snap = capture();
            if let Some(agg) = aggregate {
                snap.merge(&agg.merged());
            }
            let board = crate::alerts::board();
            board.evaluate(&snap);
            write_response(&mut stream, 200, "application/json", &board.render_json())
        }
        "/healthz" => write_response(&mut stream, 200, "text/plain", "ok\n"),
        _ => write_response(&mut stream, 404, "text/plain", "not found\n"),
    }
}

/// Reads and parses one request: head (capped at 8 KiB), then as much
/// body as `Content-Length` declares (capped at `max_body_bytes`, checked
/// before the body is read). A read that times out is
/// [`RequestError::TimedOut`]; any other read failure, or the end of the
/// input, is [`RequestError::Truncated`].
pub fn read_request<R: Read>(
    reader: &mut R,
    max_body_bytes: usize,
) -> Result<Request, RequestError> {
    let read_failed = |e: std::io::Error| match e.kind() {
        ErrorKind::TimedOut | ErrorKind::WouldBlock => RequestError::TimedOut,
        _ => RequestError::Truncated,
    };
    let mut buf = Vec::new();
    let mut chunk = [0u8; 512];
    let head_end = loop {
        if let Some(pos) = find_head_end(&buf) {
            break pos;
        }
        if buf.len() > MAX_REQUEST_BYTES {
            return Err(RequestError::HeadTooLarge);
        }
        match reader.read(&mut chunk) {
            Ok(0) => return Err(RequestError::Truncated),
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(read_failed(e)),
        }
    };

    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| RequestError::NotUtf8)?;
    let mut lines = head.lines();
    let mut parts = lines
        .next()
        .ok_or(RequestError::Malformed)?
        .split_whitespace();
    let method = parts.next().ok_or(RequestError::Malformed)?.to_string();
    let target = parts.next().ok_or(RequestError::Malformed)?;
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (target.to_string(), String::new()),
    };

    let mut content_length = None;
    for (name, value) in lines.filter_map(|line| line.split_once(':')) {
        if !name.trim().eq_ignore_ascii_case("content-length") {
            continue;
        }
        let value = value.trim();
        if content_length.is_some()
            || value.is_empty()
            || !value.bytes().all(|b| b.is_ascii_digit())
        {
            return Err(RequestError::BadContentLength);
        }
        // All digits, so the parse fails only past `usize::MAX`: a body
        // larger than any cap.
        content_length = Some(value.parse().unwrap_or(usize::MAX));
    }
    let content_length: usize = content_length.unwrap_or(0);
    if content_length > max_body_bytes {
        return Err(RequestError::BodyTooLarge);
    }

    let mut body = buf.split_off(head_end + 4);
    if body.len() < content_length {
        let missing = (content_length - body.len()) as u64;
        reader
            .take(missing)
            .read_to_end(&mut body)
            .map_err(read_failed)?;
        if body.len() < content_length {
            return Err(RequestError::Truncated);
        }
    }
    body.truncate(content_length);

    Ok(Request {
        method,
        path,
        query,
        body,
    })
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Writes one `Connection: close` response. Public so the campaign
/// service can reuse the exact wire format for its own routes.
pub fn write_response<W: Write>(
    stream: &mut W,
    code: u16,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    let reason = match code {
        200 => "OK",
        201 => "Created",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Error",
    };
    let head = format!(
        "HTTP/1.1 {code} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn get(addr: SocketAddr, path: &str) -> (u16, String) {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(format!("GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").as_bytes())
            .unwrap();
        read_reply(stream)
    }

    fn post(addr: SocketAddr, path: &str, body: &str) -> (u16, String) {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(
                format!(
                    "POST {path} HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{body}",
                    body.len()
                )
                .as_bytes(),
            )
            .unwrap();
        read_reply(stream)
    }

    fn read_reply(mut stream: TcpStream) -> (u16, String) {
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        let code: u16 = response
            .split_whitespace()
            .nth(1)
            .and_then(|c| c.parse().ok())
            .unwrap_or(0);
        let body = response
            .split_once("\r\n\r\n")
            .map(|(_, b)| b.to_string())
            .unwrap_or_default();
        (code, body)
    }

    #[test]
    fn serves_healthz_metrics_status_and_404() {
        let server = ObsServer::serve("127.0.0.1:0", None).unwrap();
        let addr = server.addr();

        let (code, body) = get(addr, "/healthz");
        assert_eq!((code, body.as_str()), (200, "ok\n"));

        #[cfg(feature = "enabled")]
        crate::counter("obs_test_http_counter").inc();
        let (code, body) = get(addr, "/metrics");
        assert_eq!(code, 200);
        #[cfg(feature = "enabled")]
        assert!(body.contains("obs_test_http_counter"));
        #[cfg(not(feature = "enabled"))]
        assert!(body.is_empty());

        let (code, body) = get(addr, "/status");
        assert_eq!(code, 200);
        assert!(body.contains("\"workers\""));

        let (code, _) = get(addr, "/nope");
        assert_eq!(code, 404);

        server.shutdown();
    }

    #[test]
    fn metrics_scrape_includes_aggregate() {
        use crate::snapshot::{Snapshot, SnapshotMetric, SnapshotValue};
        let agg = Arc::new(Aggregate::new());
        agg.store(
            "3",
            Snapshot {
                metrics: vec![SnapshotMetric {
                    name: "obs_test_http_agg_total".into(),
                    labels: vec![("worker".into(), "3".into())],
                    value: SnapshotValue::Counter(11),
                }],
            },
        );
        let server = ObsServer::serve("127.0.0.1:0", Some(Arc::clone(&agg))).unwrap();
        let (code, body) = get(server.addr(), "/metrics");
        assert_eq!(code, 200);
        assert!(body.contains("obs_test_http_agg_total{worker=\"3\"} 11"));
        server.shutdown();
    }

    /// A mounted handler sees method, path, query, and body, and its
    /// `None` falls through to the built-ins.
    #[test]
    fn handler_routes_post_with_body_and_falls_through() {
        let handler: Handler = Arc::new(|req: &Request| {
            (req.path == "/echo").then(|| {
                Response::json(
                    201,
                    format!(
                        "{{\"method\": \"{}\", \"query\": \"{}\", \"len\": {}}}",
                        req.method,
                        req.query,
                        req.body.len()
                    ),
                )
            })
        });
        let server =
            ObsServer::serve_with("127.0.0.1:0", None, Some(handler), DEFAULT_MAX_BODY_BYTES)
                .unwrap();
        let addr = server.addr();

        let (code, body) = post(addr, "/echo?tenant=alice", "hello world");
        assert_eq!(code, 201);
        assert!(body.contains("\"method\": \"POST\""));
        assert!(body.contains("\"query\": \"tenant=alice\""));
        assert!(body.contains("\"len\": 11"));

        // Fall-through: the built-ins still answer.
        let (code, _) = get(addr, "/healthz");
        assert_eq!(code, 200);

        server.shutdown();
    }

    /// Bodies over the cap get a 413 before any allocation of the body.
    #[test]
    fn oversized_body_is_413() {
        let server = ObsServer::serve_with("127.0.0.1:0", None, None, 64).unwrap();
        let (code, body) = post(server.addr(), "/anything", &"x".repeat(65));
        assert_eq!(code, 413);
        assert!(body.contains("exceeds 64 bytes"));
        server.shutdown();
    }

    /// Three silent clients and one that trickles a byte every 500 ms
    /// hold connections open; `/healthz` still answers within 100 ms,
    /// again and again while they stay.
    #[test]
    fn healthz_answers_while_slow_clients_hold_connections() {
        let server = ObsServer::serve("127.0.0.1:0", None).unwrap();
        let addr = server.addr();
        let silent: Vec<TcpStream> = (0..3).map(|_| TcpStream::connect(addr).unwrap()).collect();
        let trickler = std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).unwrap();
            for byte in b"GET /healthz".iter().take(4) {
                if stream.write_all(&[*byte]).is_err() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(500));
            }
        });
        for _ in 0..5 {
            std::thread::sleep(Duration::from_millis(150));
            let asked = Instant::now();
            let (code, body) = get(addr, "/healthz");
            let took = asked.elapsed();
            assert_eq!((code, body.as_str()), (200, "ok\n"));
            assert!(took < Duration::from_millis(100), "/healthz took {took:?}");
        }
        trickler.join().unwrap();
        drop(silent);
        server.shutdown();
    }

    /// Shutdown cuts a connection still being read instead of waiting
    /// out its deadline.
    #[test]
    fn shutdown_is_prompt_with_a_client_connected() {
        let server = ObsServer::serve("127.0.0.1:0", None).unwrap();
        let mut client = TcpStream::connect(server.addr()).unwrap();
        client.write_all(b"GET /heal").unwrap();
        // Time for a handler to take the connection and block reading it.
        std::thread::sleep(Duration::from_millis(100));
        let asked = Instant::now();
        server.shutdown();
        let took = asked.elapsed();
        assert!(took < Duration::from_millis(100), "shutdown took {took:?}");
    }

    /// Past every handler and the whole queue, a connection is told 503
    /// at once rather than left waiting.
    #[test]
    fn full_queue_answers_503() {
        let server = ObsServer::serve("127.0.0.1:0", None).unwrap();
        let addr = server.addr();
        let held: Vec<TcpStream> = (0..HANDLER_THREADS + QUEUE_DEPTH)
            .map(|_| TcpStream::connect(addr).unwrap())
            .collect();
        // Sends nothing: the answer does not wait for a request.
        let (code, body) = read_reply(TcpStream::connect(addr).unwrap());
        assert_eq!((code, body.as_str()), (503, "server busy\n"));
        drop(held);
        server.shutdown();
    }

    /// Non-GET on a built-in read-only endpoint is 405, not 400.
    #[test]
    fn post_to_builtin_is_method_not_allowed() {
        let server = ObsServer::serve("127.0.0.1:0", None).unwrap();
        let (code, _) = post(server.addr(), "/metrics", "");
        assert_eq!(code, 405);
        server.shutdown();
    }
}
