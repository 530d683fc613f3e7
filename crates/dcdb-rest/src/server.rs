//! Event-loop TCP server for the REST control APIs.
//!
//! [`ServerConfig::workers`] threads each run a `poll(2)`-driven event
//! loop over a clone of one non-blocking listener. A loop owns every
//! connection it accepts, from `accept(2)` to the last byte written: it
//! parses the request, runs the router handler inline and writes the
//! response, so a request never changes threads. Thousands of idle or
//! slow clients cost one file descriptor each instead of one thread
//! each. The trade-off: a long handler (an on-demand
//! `/analytics/compute`, say) holds the connections parked on its own
//! loop until it returns; the other loops keep accepting and serving.
//!
//! Robustness properties the old thread-per-connection server lacked:
//!
//! * transient `accept(2)` failures (`EMFILE`, `ECONNABORTED`, …) are
//!   survived with capped exponential backoff and counted in
//!   [`ServerMetricsSnapshot::accept_errors`] instead of killing the
//!   acceptor;
//! * every connection carries an idle deadline that covers *both*
//!   read-stalled and write-stalled peers, so slow clients are reaped
//!   instead of leaking resources for the lifetime of the process;
//! * a panicking handler is answered `500` and counted in
//!   [`ServerMetricsSnapshot::handler_panics`]; its loop and the
//!   connections parked on it live on.

use crate::http::{Request, RequestParser, Response, Status};
use crate::router::Router;
use crate::sys::{poll_ready, PollFd, POLLERR, POLLHUP, POLLIN, POLLNVAL, POLLOUT};
use dcdb_common::error::DcdbError;
use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Upper bound on simultaneously open client connections, server-wide;
/// accepts beyond it wait in the listen backlog until a slot frees.
const MAX_CONNECTIONS: u64 = 16 * 1024;

/// Tuning and fault-injection knobs for [`RestServer`].
#[derive(Clone)]
pub struct ServerConfig {
    /// Event-loop threads; each accepts, dispatches and answers its own
    /// connections.
    pub workers: usize,
    /// Connections making no read or write progress for this long are
    /// reaped.
    pub idle_timeout: Duration,
    /// Test hook: called with the server-wide accept attempt ordinal
    /// (starting at 0); returning `true` makes that attempt fail as a
    /// transient accept error. `None` disables injection.
    pub accept_fault: Option<Arc<dyn Fn(u64) -> bool + Send + Sync>>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            workers: 4,
            idle_timeout: Duration::from_secs(10),
            accept_fault: None,
        }
    }
}

/// Point-in-time counters for a running [`RestServer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerMetricsSnapshot {
    /// Connections accepted.
    pub accepted: u64,
    /// Transient accept failures survived (injected or real).
    pub accept_errors: u64,
    /// Responses fully written back to clients.
    pub responses: u64,
    /// Connections that sent an unparsable request (answered `400`).
    pub bad_requests: u64,
    /// Handlers that panicked (answered `500`).
    pub handler_panics: u64,
    /// Connections reaped for exceeding the idle deadline while
    /// read- or write-stalled.
    pub reaped_idle: u64,
    /// Connections currently open.
    pub open_connections: u64,
}

#[derive(Default)]
struct Metrics {
    accepted: AtomicU64,
    accept_errors: AtomicU64,
    responses: AtomicU64,
    bad_requests: AtomicU64,
    handler_panics: AtomicU64,
    reaped_idle: AtomicU64,
    open: AtomicU64,
}

impl Metrics {
    fn snapshot(&self) -> ServerMetricsSnapshot {
        ServerMetricsSnapshot {
            accepted: self.accepted.load(Ordering::Relaxed),
            accept_errors: self.accept_errors.load(Ordering::Relaxed),
            responses: self.responses.load(Ordering::Relaxed),
            bad_requests: self.bad_requests.load(Ordering::Relaxed),
            handler_panics: self.handler_panics.load(Ordering::Relaxed),
            reaped_idle: self.reaped_idle.load(Ordering::Relaxed),
            open_connections: self.open.load(Ordering::Relaxed),
        }
    }
}

/// What every event loop of one server shares.
struct Shared {
    router: Router,
    config: ServerConfig,
    metrics: Metrics,
    stop: AtomicBool,
    /// Server-wide accept attempt ordinal fed to `accept_fault`.
    accept_attempts: AtomicU64,
}

impl Shared {
    /// Runs the handler for `req`; a panic is answered `500`.
    fn answer(&self, req: Request) -> Response {
        catch_unwind(AssertUnwindSafe(|| self.router.dispatch(req))).unwrap_or_else(|_| {
            self.metrics.handler_panics.fetch_add(1, Ordering::Relaxed);
            Response::error(Status::InternalError, "handler panicked")
        })
    }
}

/// A running REST server; shuts down on drop.
pub struct RestServer {
    addr: SocketAddr,
    shared: Arc<Shared>,
    /// Written once at shutdown and never drained: it stays readable,
    /// so every loop's `poll` sees it.
    wake: UnixStream,
    loops: Vec<JoinHandle<()>>,
}

enum ConnState {
    Reading(RequestParser),
    Writing { buf: Vec<u8>, written: usize },
}

struct Conn {
    stream: TcpStream,
    state: ConnState,
    deadline: Instant,
}

/// What to do with a connection after handling an event.
enum After {
    Keep,
    Close,
}

const ACCEPT_BACKOFF_BASE: Duration = Duration::from_millis(1);
const ACCEPT_BACKOFF_MAX: Duration = Duration::from_millis(100);
/// Accepts per poll round, so a loop answering each request inline
/// still returns to the connections parked on it under a full backlog.
const ACCEPT_BATCH: usize = 64;
/// Poll tick; bounds how late idle reaping and accept retries can run.
const POLL_TICK_MS: i32 = 100;

impl RestServer {
    /// Binds `addr` (use port 0 for an ephemeral port) and serves
    /// `router` with default [`ServerConfig`] until shutdown.
    pub fn serve(addr: &str, router: Router) -> Result<RestServer, DcdbError> {
        RestServer::serve_with(addr, router, ServerConfig::default())
    }

    /// [`serve`](RestServer::serve) with explicit tuning knobs.
    pub fn serve_with(
        addr: &str,
        router: Router,
        config: ServerConfig,
    ) -> Result<RestServer, DcdbError> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let (wake_rx, wake) = UnixStream::pair()?;

        let loops = config.workers.max(1);
        let mut server = RestServer {
            addr: local,
            shared: Arc::new(Shared {
                router,
                config,
                metrics: Metrics::default(),
                stop: AtomicBool::new(false),
                accept_attempts: AtomicU64::new(0),
            }),
            wake,
            loops: Vec::with_capacity(loops),
        };
        // An early return drops `server`, which stops and joins the
        // loops already running.
        for i in 0..loops {
            let event_loop = EventLoop {
                shared: Arc::clone(&server.shared),
                listener: listener.try_clone()?,
                wake: wake_rx.try_clone()?,
                conns: HashMap::new(),
                next_conn_id: 0,
                accept_backoff: ACCEPT_BACKOFF_BASE,
                accept_retry_at: None,
            };
            let handle = std::thread::Builder::new()
                .name(format!("dcdb-rest-loop-{i}"))
                .spawn(move || event_loop.run())
                .map_err(DcdbError::Io)?;
            server.loops.push(handle);
        }
        Ok(server)
    }

    /// The bound address (with the resolved ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Current server counters.
    pub fn metrics(&self) -> ServerMetricsSnapshot {
        self.shared.metrics.snapshot()
    }

    /// Signals every event loop to stop and joins them (idempotent).
    pub fn shutdown(&mut self) {
        if self.loops.is_empty() {
            return;
        }
        self.shared.stop.store(true, Ordering::Release);
        let _ = (&self.wake).write(&[1]);
        for handle in self.loops.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for RestServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

struct EventLoop {
    shared: Arc<Shared>,
    listener: TcpListener,
    wake: UnixStream,
    conns: HashMap<u64, Conn>,
    next_conn_id: u64,
    accept_backoff: Duration,
    accept_retry_at: Option<Instant>,
}

impl EventLoop {
    fn run(mut self) {
        // pollfd layout per iteration: [0] listener, [1] shutdown wake,
        // [2..] one entry per connection (ids kept in lockstep).
        let mut fds: Vec<PollFd> = Vec::new();
        let mut ids: Vec<u64> = Vec::new();
        while !self.shared.stop.load(Ordering::Acquire) {
            let now = Instant::now();
            let accepting = self.accepting(now);

            fds.clear();
            ids.clear();
            fds.push(PollFd::new(
                self.listener.as_raw_fd(),
                if accepting { POLLIN } else { 0 },
            ));
            fds.push(PollFd::new(self.wake.as_raw_fd(), POLLIN));
            for (&id, conn) in &self.conns {
                let events = match conn.state {
                    ConnState::Reading(_) => POLLIN,
                    ConnState::Writing { .. } => POLLOUT,
                };
                fds.push(PollFd::new(conn.stream.as_raw_fd(), events));
                ids.push(id);
            }

            if poll_ready(&mut fds, self.poll_timeout_ms(now)).is_err() {
                continue;
            }
            if self.shared.stop.load(Ordering::Acquire) {
                break;
            }
            if fds[0].revents & POLLIN != 0 {
                self.accept_pending();
            }

            for (slot, &id) in ids.iter().enumerate() {
                let revents = fds[slot + 2].revents;
                if revents == 0 {
                    continue;
                }
                let Some(conn) = self.conns.get_mut(&id) else {
                    continue;
                };
                let after = match conn.state {
                    ConnState::Reading(_) if revents & (POLLIN | POLLHUP | POLLERR) != 0 => {
                        conn.handle_readable(&self.shared)
                    }
                    ConnState::Writing { .. } if revents & (POLLOUT | POLLHUP | POLLERR) != 0 => {
                        conn.handle_writable(&self.shared)
                    }
                    _ if revents & POLLNVAL != 0 => After::Close,
                    _ => After::Keep,
                };
                if matches!(after, After::Close) {
                    self.close_conn(id);
                }
            }

            self.reap_idle(Instant::now());
        }
    }

    fn accepting(&self, now: Instant) -> bool {
        if self.shared.metrics.open.load(Ordering::Relaxed) >= MAX_CONNECTIONS {
            return false;
        }
        match self.accept_retry_at {
            Some(at) => now >= at,
            None => true,
        }
    }

    fn poll_timeout_ms(&self, now: Instant) -> i32 {
        let mut timeout = Duration::from_millis(POLL_TICK_MS as u64);
        if let Some(at) = self.accept_retry_at {
            timeout = timeout.min(at.saturating_duration_since(now));
        }
        (timeout.as_millis() as i32).max(1)
    }

    fn accept_pending(&mut self) {
        for _ in 0..ACCEPT_BATCH {
            if self.shared.metrics.open.load(Ordering::Relaxed) >= MAX_CONNECTIONS {
                return;
            }
            let attempt = self.shared.accept_attempts.fetch_add(1, Ordering::Relaxed);
            if let Some(fault) = &self.shared.config.accept_fault {
                if fault(attempt) {
                    self.note_accept_error();
                    return;
                }
            }
            match self.listener.accept() {
                Ok((stream, _)) => {
                    self.accept_backoff = ACCEPT_BACKOFF_BASE;
                    self.accept_retry_at = None;
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    self.shared.metrics.accepted.fetch_add(1, Ordering::Relaxed);
                    let mut conn = Conn {
                        stream,
                        state: ConnState::Reading(RequestParser::new()),
                        deadline: Instant::now() + self.shared.config.idle_timeout,
                    };
                    // The request usually rode in with the handshake:
                    // read, answer and close it now instead of after
                    // one more poll round. A silent peer costs one
                    // `WouldBlock` and parks here until POLLIN (or the
                    // idle deadline).
                    if matches!(conn.handle_readable(&self.shared), After::Keep) {
                        self.shared.metrics.open.fetch_add(1, Ordering::Relaxed);
                        self.conns.insert(self.next_conn_id, conn);
                        self.next_conn_id += 1;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                // EMFILE, ECONNABORTED, … — transient; back off and
                // retry rather than abandoning the listener.
                Err(_) => {
                    self.note_accept_error();
                    return;
                }
            }
        }
    }

    fn note_accept_error(&mut self) {
        self.shared
            .metrics
            .accept_errors
            .fetch_add(1, Ordering::Relaxed);
        self.accept_retry_at = Some(Instant::now() + self.accept_backoff);
        self.accept_backoff = (self.accept_backoff * 2).min(ACCEPT_BACKOFF_MAX);
    }

    fn reap_idle(&mut self, now: Instant) {
        let expired: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| now >= c.deadline)
            .map(|(&id, _)| id)
            .collect();
        for id in expired {
            self.shared
                .metrics
                .reaped_idle
                .fetch_add(1, Ordering::Relaxed);
            self.close_conn(id);
        }
    }

    fn close_conn(&mut self, id: u64) {
        if self.conns.remove(&id).is_some() {
            self.shared.metrics.open.fetch_sub(1, Ordering::Relaxed);
        }
    }
}

impl Conn {
    /// Reads what the peer sent; a complete request is dispatched on
    /// this thread and its response written straight away.
    fn handle_readable(&mut self, shared: &Shared) -> After {
        let idle = shared.config.idle_timeout;
        let mut tmp = [0u8; 4096];
        loop {
            match self.stream.read(&mut tmp) {
                Ok(0) => return After::Close,
                Ok(n) => {
                    let ConnState::Reading(parser) = &mut self.state else {
                        return After::Keep;
                    };
                    let response = match parser.feed(&tmp[..n]) {
                        Ok(None) => {
                            self.deadline = Instant::now() + idle;
                            continue;
                        }
                        Ok(Some(req)) => shared.answer(req),
                        Err(e) => {
                            shared.metrics.bad_requests.fetch_add(1, Ordering::Relaxed);
                            Response::error(Status::BadRequest, format!("bad request: {e}"))
                        }
                    };
                    let mut buf = Vec::with_capacity(response.body.len() + 128);
                    let _ = response.write_to(&mut buf);
                    self.state = ConnState::Writing { buf, written: 0 };
                    self.deadline = Instant::now() + idle;
                    return self.handle_writable(shared);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return After::Keep,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return After::Close,
            }
        }
    }

    /// Writes as much of the response as the socket takes; falls back
    /// to `POLLOUT` on `WouldBlock`.
    fn handle_writable(&mut self, shared: &Shared) -> After {
        let ConnState::Writing { buf, written } = &mut self.state else {
            return After::Keep;
        };
        while *written < buf.len() {
            match self.stream.write(&buf[*written..]) {
                Ok(0) => return After::Close,
                Ok(n) => {
                    *written += n;
                    self.deadline = Instant::now() + shared.config.idle_timeout;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return After::Keep,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return After::Close,
            }
        }
        shared.metrics.responses.fetch_add(1, Ordering::Relaxed);
        let _ = self.stream.shutdown(std::net::Shutdown::Write);
        After::Close
    }
}

/// Blocking HTTP client helper used by tests, examples and the
/// on-demand harness: sends one request, reads one response.
pub fn http_request(
    addr: SocketAddr,
    method: crate::http::Method,
    path: &str,
    body: &[u8],
) -> Result<(u16, String), DcdbError> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    // One `write_all` for head and body: `write!` on the unbuffered
    // stream would issue a syscall per format piece, and Nagle holds each
    // later piece back until the first is acknowledged.
    let mut request = format!(
        "{method} {path} HTTP/1.1\r\nHost: dcdb\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )
    .into_bytes();
    request.extend_from_slice(body);
    stream.write_all(&request)?;
    // Parse the status line + headers + body.
    use std::io::{BufRead, BufReader};
    let mut reader = BufReader::new(stream);
    let mut status_line = String::new();
    reader.read_line(&mut status_line)?;
    let code: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse().ok())
        .ok_or_else(|| DcdbError::Parse(format!("bad status line {status_line:?}")))?;
    let mut content_length = None;
    loop {
        let mut line = String::new();
        reader.read_line(&mut line)?;
        let trimmed = line.trim_end();
        if trimmed.is_empty() {
            break;
        }
        if let Some((k, v)) = trimmed.split_once(':') {
            if k.trim().eq_ignore_ascii_case("content-length") {
                content_length = v.trim().parse::<usize>().ok();
            }
        }
    }
    let body = match content_length {
        Some(n) => {
            let mut buf = vec![0u8; n];
            reader.read_exact(&mut buf)?;
            buf
        }
        None => {
            let mut buf = Vec::new();
            reader.read_to_end(&mut buf)?;
            buf
        }
    };
    Ok((code, String::from_utf8_lossy(&body).into_owned()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::Method;
    use std::sync::{mpsc, Mutex};

    fn test_router() -> Router {
        let mut r = Router::new();
        r.get("/ping", |_| Response::text("pong"));
        r.put("/echo", |req| {
            Response::text(String::from_utf8_lossy(&req.body).into_owned())
        });
        r.get("/sensors/*topic", |req| {
            Response::json(format!(
                "{{\"topic\":\"{}\"}}",
                req.path_param("topic").unwrap()
            ))
        });
        r
    }

    fn two_loops() -> ServerConfig {
        ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        }
    }

    #[test]
    fn serves_requests_over_tcp() {
        let server = RestServer::serve("127.0.0.1:0", test_router()).unwrap();
        let (code, body) = http_request(server.addr(), Method::Get, "/ping", b"").unwrap();
        assert_eq!(code, 200);
        assert_eq!(body, "pong");
    }

    #[test]
    fn put_with_body() {
        let server = RestServer::serve("127.0.0.1:0", test_router()).unwrap();
        let (code, body) = http_request(server.addr(), Method::Put, "/echo", b"payload").unwrap();
        assert_eq!(code, 200);
        assert_eq!(body, "payload");
    }

    #[test]
    fn not_found_and_bad_method() {
        let server = RestServer::serve("127.0.0.1:0", test_router()).unwrap();
        let (code, _) = http_request(server.addr(), Method::Get, "/missing", b"").unwrap();
        assert_eq!(code, 404);
        let (code, _) = http_request(server.addr(), Method::Put, "/ping", b"").unwrap();
        assert_eq!(code, 405);
    }

    #[test]
    fn path_params_over_tcp() {
        let server = RestServer::serve("127.0.0.1:0", test_router()).unwrap();
        let (code, body) =
            http_request(server.addr(), Method::Get, "/sensors/r1/n2/power", b"").unwrap();
        assert_eq!(code, 200);
        assert!(body.contains("r1/n2/power"));
    }

    #[test]
    fn concurrent_clients() {
        let server = RestServer::serve("127.0.0.1:0", test_router()).unwrap();
        let addr = server.addr();
        let handles: Vec<_> = (0..8)
            .map(|_| {
                std::thread::spawn(move || {
                    let (code, body) = http_request(addr, Method::Get, "/ping", b"").unwrap();
                    assert_eq!(code, 200);
                    assert_eq!(body, "pong");
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn shutdown_is_idempotent() {
        let mut server = RestServer::serve("127.0.0.1:0", test_router()).unwrap();
        server.shutdown();
        server.shutdown();
        // After shutdown new connections are not served.
        assert!(http_request(server.addr(), Method::Get, "/ping", b"").is_err());
    }

    #[test]
    fn acceptor_survives_injected_accept_failures() {
        let config = ServerConfig {
            accept_fault: Some(Arc::new(|attempt| attempt < 3)),
            ..ServerConfig::default()
        };
        let server = RestServer::serve_with("127.0.0.1:0", test_router(), config).unwrap();
        // The first three accept attempts fail; the pending connection
        // stays in the backlog and is served once the backoff elapses.
        let (code, body) = http_request(server.addr(), Method::Get, "/ping", b"").unwrap();
        assert_eq!(code, 200);
        assert_eq!(body, "pong");
        let m = server.metrics();
        assert!(m.accept_errors >= 3, "accept_errors = {}", m.accept_errors);
        assert!(m.accepted >= 1);
    }

    #[test]
    fn bad_request_is_answered_with_400() {
        let server = RestServer::serve("127.0.0.1:0", test_router()).unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream.write_all(b"NOPE /ping HTTP/1.1\r\n\r\n").unwrap();
        let mut reply = String::new();
        stream.read_to_string(&mut reply).unwrap();
        assert!(reply.starts_with("HTTP/1.1 400"), "reply = {reply:?}");
        assert_eq!(server.metrics().bad_requests, 1);
    }

    #[test]
    fn handler_panic_is_answered_500_and_the_loops_live_on() {
        let mut router = test_router();
        router.get("/boom", |_| panic!("handler bug"));
        let server = RestServer::serve_with("127.0.0.1:0", router, two_loops()).unwrap();
        // More panics than loops: none may take a thread with it.
        for _ in 0..3 {
            let start = Instant::now();
            let (code, _) = http_request(server.addr(), Method::Get, "/boom", b"").unwrap();
            assert_eq!(code, 500);
            assert!(start.elapsed() < Duration::from_secs(2), "not prompt");
        }
        let (code, body) = http_request(server.addr(), Method::Get, "/ping", b"").unwrap();
        assert_eq!((code, body.as_str()), (200, "pong"));
        assert_eq!(server.metrics().handler_panics, 3);
    }

    #[test]
    fn a_blocked_handler_does_not_stall_the_other_loop() {
        let (entered_tx, entered_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let (entered_tx, release_rx) = (Mutex::new(entered_tx), Mutex::new(release_rx));
        let mut router = test_router();
        router.get("/block", move |_| {
            entered_tx.lock().unwrap().send(()).unwrap();
            let _ = release_rx.lock().unwrap().recv();
            Response::text("released")
        });
        let server = RestServer::serve_with("127.0.0.1:0", router, two_loops()).unwrap();
        let addr = server.addr();
        let blocked = std::thread::spawn(move || http_request(addr, Method::Get, "/block", b""));
        entered_rx
            .recv_timeout(Duration::from_secs(5))
            .expect("handler entered");
        // One loop is inside the handler; the other answers.
        let (code, body) = http_request(addr, Method::Get, "/ping", b"").unwrap();
        assert_eq!((code, body.as_str()), (200, "pong"));
        release_tx.send(()).unwrap();
        let (code, body) = blocked.join().unwrap().unwrap();
        assert_eq!((code, body.as_str()), (200, "released"));
    }

    #[test]
    fn idle_and_half_sent_connections_are_reaped() {
        let config = ServerConfig {
            idle_timeout: Duration::from_millis(100),
            ..ServerConfig::default()
        };
        let server = RestServer::serve_with("127.0.0.1:0", test_router(), config).unwrap();
        // One connection that never sends anything, one that stalls
        // mid-request: both must be reaped, not leaked.
        let mut silent = TcpStream::connect(server.addr()).unwrap();
        let mut stalled = TcpStream::connect(server.addr()).unwrap();
        stalled.write_all(b"GET /pi").unwrap();
        silent
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stalled
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        // The server closes both without a response once the deadline
        // passes.
        let mut buf = Vec::new();
        silent.read_to_end(&mut buf).unwrap();
        assert!(buf.is_empty());
        buf.clear();
        stalled.read_to_end(&mut buf).unwrap();
        assert!(buf.is_empty());
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let m = server.metrics();
            if m.reaped_idle >= 2 && m.open_connections == 0 {
                break;
            }
            assert!(Instant::now() < deadline, "reaping timed out: {m:?}");
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    #[test]
    fn http_request_sends_head_and_body_in_one_piece() {
        // A peer that reads once, after the client had time to send
        // everything, must find the whole request: pieces written apart
        // would leave it parsing a partial head.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let peer = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            std::thread::sleep(Duration::from_millis(50));
            let mut buf = [0u8; 4096];
            let n = conn.read(&mut buf).unwrap();
            conn.write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok")
                .unwrap();
            String::from_utf8_lossy(&buf[..n]).into_owned()
        });
        let reply = http_request(addr, Method::Put, "/analytics/x", b"{\"a\":1}").unwrap();
        assert_eq!(reply, (200, "ok".to_string()));
        let got = peer.join().unwrap();
        let (head, body) = got.split_once("\r\n\r\n").expect("the whole head");
        assert!(head.starts_with("PUT /analytics/x HTTP/1.1\r\n"), "{got:?}");
        assert!(head.contains("Content-Length: 7"), "{got:?}");
        assert_eq!(body, "{\"a\":1}");
    }

    #[test]
    fn holds_many_simultaneous_slow_clients() {
        let server = RestServer::serve("127.0.0.1:0", test_router()).unwrap();
        let addr = server.addr();
        // Open all connections first (they all park in the event loop),
        // then complete the requests: a thread-per-connection server
        // would need 256 threads for this; the event loop needs one.
        let mut streams: Vec<TcpStream> = (0..256)
            .map(|_| {
                let mut s = TcpStream::connect(addr).unwrap();
                s.write_all(b"GET /ping HT").unwrap();
                s
            })
            .collect();
        for s in &mut streams {
            s.write_all(b"TP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        }
        for mut s in streams {
            s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
            let mut reply = String::new();
            s.read_to_string(&mut reply).unwrap();
            assert!(reply.starts_with("HTTP/1.1 200"), "reply = {reply:?}");
            assert!(reply.ends_with("pong"));
        }
        let m = server.metrics();
        assert_eq!(m.responses, 256);
        assert_eq!(m.accepted, 256);
        assert_eq!(m.accept_errors, 0);
    }
}
