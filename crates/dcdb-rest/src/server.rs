//! Event-loop TCP server for the REST control APIs.
//!
//! A single `poll(2)`-driven event loop owns the listener and every
//! client connection in non-blocking mode, so thousands of idle or
//! slow clients cost one file descriptor each instead of one thread
//! each. Router handlers run on a small bounded worker pool; finished
//! responses are handed back to the loop through a self-pipe wakeup.
//!
//! Robustness properties the old thread-per-connection server lacked:
//!
//! * transient `accept(2)` failures (`EMFILE`, `ECONNABORTED`, …) are
//!   survived with capped exponential backoff and counted in
//!   [`ServerMetricsSnapshot::accept_errors`] instead of killing the
//!   acceptor;
//! * every connection carries an idle deadline that covers *both*
//!   read-stalled and write-stalled peers, so slow clients are reaped
//!   instead of leaking resources for the lifetime of the process.

use crate::http::{Request, RequestParser, Response, Status};
use crate::router::Router;
use crate::sys::{poll_ready, PollFd, POLLERR, POLLHUP, POLLIN, POLLNVAL, POLLOUT};
use dcdb_common::error::DcdbError;
use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// Upper bound on simultaneously open client connections; accepts
/// beyond it wait in the listen backlog until a slot frees.
const MAX_CONNECTIONS: usize = 16 * 1024;

/// Tuning and fault-injection knobs for [`RestServer`].
#[derive(Clone)]
pub struct ServerConfig {
    /// Worker threads running router handlers.
    pub workers: usize,
    /// Connections making no read or write progress for this long are
    /// reaped.
    pub idle_timeout: Duration,
    /// Test hook: called with the accept attempt ordinal (starting at
    /// 0); returning `true` makes that attempt fail as a transient
    /// accept error. `None` disables injection.
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
            reaped_idle: self.reaped_idle.load(Ordering::Relaxed),
            open_connections: self.open.load(Ordering::Relaxed),
        }
    }
}

/// A running REST server; shuts down on drop.
pub struct RestServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    wake: Arc<UnixStream>,
    metrics: Arc<Metrics>,
    event_loop: Option<std::thread::JoinHandle<()>>,
}

enum ConnState {
    Reading(RequestParser),
    Dispatching,
    Writing,
}

struct Conn {
    stream: TcpStream,
    state: ConnState,
    write_buf: Vec<u8>,
    written: usize,
    deadline: Instant,
}

/// What to do with a connection after handling an event.
enum After {
    Keep,
    Close,
}

struct Job {
    conn_id: u64,
    req: Request,
}

/// Serialized responses handed back from the worker pool, tagged with
/// the connection they belong to.
type DoneQueue = Arc<Mutex<Vec<(u64, Vec<u8>)>>>;

const ACCEPT_BACKOFF_BASE: Duration = Duration::from_millis(1);
const ACCEPT_BACKOFF_MAX: Duration = Duration::from_millis(100);
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

        let (wake_rx, wake_tx) = UnixStream::pair()?;
        wake_rx.set_nonblocking(true)?;
        wake_tx.set_nonblocking(true)?;
        let wake_tx = Arc::new(wake_tx);

        let stop = Arc::new(AtomicBool::new(false));
        let metrics = Arc::new(Metrics::default());
        let router = Arc::new(router);

        let (job_tx, job_rx) = mpsc::channel::<Job>();
        let job_rx = Arc::new(Mutex::new(job_rx));
        let done: DoneQueue = Arc::new(Mutex::new(Vec::new()));

        let mut workers = Vec::new();
        for i in 0..config.workers.max(1) {
            let job_rx = Arc::clone(&job_rx);
            let done = Arc::clone(&done);
            let wake = Arc::clone(&wake_tx);
            let router = Arc::clone(&router);
            let handle = std::thread::Builder::new()
                .name(format!("dcdb-rest-worker-{i}"))
                .spawn(move || loop {
                    let job = match job_rx.lock() {
                        Ok(rx) => rx.recv(),
                        Err(_) => break,
                    };
                    let Ok(job) = job else { break };
                    let response = router.dispatch(job.req);
                    let mut bytes = Vec::with_capacity(response.body.len() + 128);
                    let _ = response.write_to(&mut bytes);
                    if let Ok(mut done) = done.lock() {
                        done.push((job.conn_id, bytes));
                    }
                    let _ = (&*wake).write(&[1]);
                })
                .map_err(DcdbError::Io)?;
            workers.push(handle);
        }

        let loop_stop = Arc::clone(&stop);
        let loop_metrics = Arc::clone(&metrics);
        let event_loop = std::thread::Builder::new()
            .name("dcdb-rest-eventloop".into())
            .spawn(move || {
                let mut el = EventLoop {
                    listener,
                    wake_rx,
                    config,
                    metrics: loop_metrics,
                    stop: loop_stop,
                    job_tx,
                    done,
                    conns: HashMap::new(),
                    next_conn_id: 0,
                    accept_attempts: 0,
                    accept_backoff: ACCEPT_BACKOFF_BASE,
                    accept_retry_at: None,
                };
                el.run();
                // Dropping the job sender lets the workers drain and
                // exit; join them so shutdown() means fully stopped.
                drop(el);
                for w in workers {
                    let _ = w.join();
                }
            })
            .map_err(DcdbError::Io)?;

        Ok(RestServer {
            addr: local,
            stop,
            wake: wake_tx,
            metrics,
            event_loop: Some(event_loop),
        })
    }

    /// The bound address (with the resolved ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Current server counters.
    pub fn metrics(&self) -> ServerMetricsSnapshot {
        self.metrics.snapshot()
    }

    /// Signals the event loop to stop and joins it (idempotent).
    pub fn shutdown(&mut self) {
        if self.event_loop.is_none() {
            return;
        }
        self.stop.store(true, Ordering::Release);
        let _ = (&*self.wake).write(&[1]);
        if let Some(h) = self.event_loop.take() {
            let _ = h.join();
        }
    }
}

impl Drop for RestServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

struct EventLoop {
    listener: TcpListener,
    wake_rx: UnixStream,
    config: ServerConfig,
    metrics: Arc<Metrics>,
    stop: Arc<AtomicBool>,
    job_tx: mpsc::Sender<Job>,
    done: DoneQueue,
    conns: HashMap<u64, Conn>,
    next_conn_id: u64,
    accept_attempts: u64,
    accept_backoff: Duration,
    accept_retry_at: Option<Instant>,
}

impl EventLoop {
    fn run(&mut self) {
        // pollfd layout per iteration: [0] listener, [1] wake pipe,
        // [2..] one entry per connection (ids kept in lockstep).
        let mut fds: Vec<PollFd> = Vec::new();
        let mut ids: Vec<u64> = Vec::new();
        loop {
            if self.stop.load(Ordering::Acquire) {
                break;
            }
            let now = Instant::now();
            let accepting = self.accepting(now);

            fds.clear();
            ids.clear();
            fds.push(PollFd::new(
                self.listener.as_raw_fd(),
                if accepting { POLLIN } else { 0 },
            ));
            fds.push(PollFd::new(self.wake_rx.as_raw_fd(), POLLIN));
            for (&id, conn) in &self.conns {
                let events = match conn.state {
                    ConnState::Reading(_) => POLLIN,
                    ConnState::Dispatching => 0,
                    ConnState::Writing => POLLOUT,
                };
                fds.push(PollFd::new(conn.stream.as_raw_fd(), events));
                ids.push(id);
            }

            if poll_ready(&mut fds, self.poll_timeout_ms(now)).is_err() {
                continue;
            }
            if self.stop.load(Ordering::Acquire) {
                break;
            }

            if fds[1].revents & POLLIN != 0 {
                self.drain_wake();
            }
            self.flush_done();
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
                let idle = self.config.idle_timeout;
                let after = match conn.state {
                    ConnState::Reading(_) if revents & (POLLIN | POLLHUP | POLLERR) != 0 => {
                        Self::handle_readable(conn, id, &self.job_tx, &self.metrics, idle)
                    }
                    ConnState::Writing if revents & (POLLOUT | POLLHUP | POLLERR) != 0 => {
                        Self::handle_writable(conn, &self.metrics, idle)
                    }
                    // A dispatching peer that errors or hangs up is
                    // discovered when its response write fails, or by
                    // the idle deadline.
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
        if self.conns.len() >= MAX_CONNECTIONS {
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

    fn drain_wake(&mut self) {
        let mut buf = [0u8; 256];
        while matches!(self.wake_rx.read(&mut buf), Ok(n) if n > 0) {}
    }

    /// Moves finished worker responses onto their connections and
    /// starts writing them out.
    fn flush_done(&mut self) {
        let done = match self.done.lock() {
            Ok(mut d) => std::mem::take(&mut *d),
            Err(_) => return,
        };
        for (id, bytes) in done {
            // The connection may have been reaped while dispatching.
            let Some(conn) = self.conns.get_mut(&id) else {
                continue;
            };
            conn.write_buf = bytes;
            conn.written = 0;
            conn.state = ConnState::Writing;
            let idle = self.config.idle_timeout;
            conn.deadline = Instant::now() + idle;
            if matches!(
                Self::handle_writable(conn, &self.metrics, idle),
                After::Close
            ) {
                self.close_conn(id);
            }
        }
    }

    fn accept_pending(&mut self) {
        while self.conns.len() < MAX_CONNECTIONS {
            let attempt = self.accept_attempts;
            self.accept_attempts += 1;
            if let Some(fault) = &self.config.accept_fault {
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
                    let id = self.next_conn_id;
                    self.next_conn_id += 1;
                    self.conns.insert(
                        id,
                        Conn {
                            stream,
                            state: ConnState::Reading(RequestParser::new()),
                            write_buf: Vec::new(),
                            written: 0,
                            deadline: Instant::now() + self.config.idle_timeout,
                        },
                    );
                    self.metrics.accepted.fetch_add(1, Ordering::Relaxed);
                    self.metrics.open.fetch_add(1, Ordering::Relaxed);
                    // The request usually rode in with the handshake:
                    // read it now instead of after one more poll round.
                    // A silent peer costs one `WouldBlock` and waits
                    // for POLLIN (or the idle deadline) as before.
                    let conn = self.conns.get_mut(&id).expect("inserted above");
                    let idle = self.config.idle_timeout;
                    let after = Self::handle_readable(conn, id, &self.job_tx, &self.metrics, idle);
                    if matches!(after, After::Close) {
                        self.close_conn(id);
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
        self.metrics.accept_errors.fetch_add(1, Ordering::Relaxed);
        self.accept_retry_at = Some(Instant::now() + self.accept_backoff);
        self.accept_backoff = (self.accept_backoff * 2).min(ACCEPT_BACKOFF_MAX);
    }

    fn handle_readable(
        conn: &mut Conn,
        id: u64,
        job_tx: &mpsc::Sender<Job>,
        metrics: &Metrics,
        idle: Duration,
    ) -> After {
        let mut tmp = [0u8; 4096];
        loop {
            match conn.stream.read(&mut tmp) {
                Ok(0) => return After::Close,
                Ok(n) => {
                    let ConnState::Reading(parser) = &mut conn.state else {
                        return After::Keep;
                    };
                    match parser.feed(&tmp[..n]) {
                        Ok(Some(req)) => {
                            conn.state = ConnState::Dispatching;
                            conn.deadline = Instant::now() + idle;
                            if job_tx.send(Job { conn_id: id, req }).is_err() {
                                return After::Close;
                            }
                            return After::Keep;
                        }
                        Ok(None) => {
                            conn.deadline = Instant::now() + idle;
                        }
                        Err(e) => {
                            metrics.bad_requests.fetch_add(1, Ordering::Relaxed);
                            let resp =
                                Response::error(Status::BadRequest, format!("bad request: {e}"));
                            let mut bytes = Vec::new();
                            let _ = resp.write_to(&mut bytes);
                            conn.write_buf = bytes;
                            conn.written = 0;
                            conn.state = ConnState::Writing;
                            return Self::handle_writable(conn, metrics, idle);
                        }
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return After::Keep,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return After::Close,
            }
        }
    }

    fn handle_writable(conn: &mut Conn, metrics: &Metrics, idle: Duration) -> After {
        while conn.written < conn.write_buf.len() {
            match conn.stream.write(&conn.write_buf[conn.written..]) {
                Ok(0) => return After::Close,
                Ok(n) => {
                    conn.written += n;
                    conn.deadline = Instant::now() + idle;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return After::Keep,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return After::Close,
            }
        }
        metrics.responses.fetch_add(1, Ordering::Relaxed);
        let _ = conn.stream.shutdown(std::net::Shutdown::Write);
        After::Close
    }

    fn reap_idle(&mut self, now: Instant) {
        let expired: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| now >= c.deadline)
            .map(|(&id, _)| id)
            .collect();
        for id in expired {
            self.metrics.reaped_idle.fetch_add(1, Ordering::Relaxed);
            self.close_conn(id);
        }
    }

    fn close_conn(&mut self, id: u64) {
        if self.conns.remove(&id).is_some() {
            self.metrics.open.fetch_sub(1, Ordering::Relaxed);
        }
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
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: dcdb\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )?;
    stream.write_all(body)?;
    stream.flush()?;
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
