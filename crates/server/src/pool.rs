//! The server proper: a fixed worker pool behind a bounded accept
//! queue.
//!
//! Architecture (one accept thread, `workers` handler threads):
//!
//! ```text
//! accept loop ── full? ──▶ 503 + Retry-After, close   (shed, O(1))
//!      │
//!      ▼ push (bounded queue, Mutex<VecDeque> + Condvar)
//!   workers ──▶ read request (read timeout) ──▶ handler ──▶ write
//! ```
//!
//! Backpressure policy: the queue depth is the **only** buffering in
//! the server. When it is full the accept loop answers `503` with a
//! `Retry-After` hint and closes — the server's latency stays bounded
//! by `queue_depth / throughput` instead of growing without limit, and
//! a closed-loop client backs off instead of timing out.
//!
//! [`AdmissionConfig`] (all-off by default, and byte-invisible on the
//! wire when off) layers deadline-aware admission control on top:
//! every queued connection is stamped at enqueue, and a CoDel-style
//! check at *dequeue* sheds connections whose queue sojourn already
//! exceeds the target — answering a request that waited longer than
//! any client deadline just wastes a worker. A small separate priority
//! lane keeps `/healthz`, `/readyz`, and `/metrics` answerable while
//! artifact renders saturate the normal queue, and shed responses can
//! carry an adaptive `Retry-After` derived from the observed drain
//! rate instead of a fixed constant.
//!
//! Shutdown drains: the accept loop stops, connections already queued
//! are still handled, then the workers exit and [`Server::join`]
//! returns. The blocking `accept` is woken by a loopback self-connect.

use crate::chaos::{self, ChaosState, ConnFaults};
use crate::http::{read_request, Response};
use std::collections::VecDeque;
use std::io;
use std::net::{IpAddr, Ipv4Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The application callback: one request in, one response out. Runs on
/// a worker thread; must be shareable across all of them.
pub type Handler = Arc<dyn Fn(&crate::http::Request) -> Response + Send + Sync>;

/// Deadline-aware admission control knobs. The default is all-off,
/// and all-off is byte-invisible: shed responses carry the fixed
/// `retry_after_secs`, nothing is sojourn-shed, and no priority lane
/// exists — exactly the pre-admission server on the wire.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdmissionConfig {
    /// Shed a queued connection at dequeue when it already waited
    /// longer than this (CoDel-style head drop). `None` disables
    /// sojourn shedding.
    pub sojourn_target: Option<Duration>,
    /// Capacity of the separate priority lane for `/healthz`,
    /// `/readyz`, and `/metrics`. `0` disables the lane entirely
    /// (no peeking, no classification).
    pub priority_depth: usize,
    /// Derive the `Retry-After` hint on shed responses from the
    /// observed drain rate instead of the fixed `retry_after_secs`.
    pub adaptive_retry_after: bool,
}

impl AdmissionConfig {
    /// Whether any admission-control feature is on. Off means the
    /// server must be indistinguishable from the pre-admission one.
    pub fn enabled(&self) -> bool {
        self.sojourn_target.is_some() || self.priority_depth > 0 || self.adaptive_retry_after
    }
}

/// Operational knobs for a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Handler thread count (clamped to at least 1).
    pub workers: usize,
    /// Accept-queue capacity; connections beyond it are shed with 503.
    pub queue_depth: usize,
    /// Per-connection socket read timeout (request head).
    pub read_timeout: Duration,
    /// Per-connection socket write timeout (response bytes).
    pub write_timeout: Duration,
    /// The `Retry-After` hint (seconds) on shed responses.
    pub retry_after_secs: u32,
    /// Deadline-aware admission control (default: all-off).
    pub admission: AdmissionConfig,
    /// Transport fault injection (`None` = the shim is never touched).
    /// The shed path is exempt by design: its half-close + drain
    /// guarantee is what resilient clients rely on under overload.
    pub chaos: Option<Arc<ChaosState>>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            workers: 4,
            queue_depth: 64,
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            retry_after_secs: 1,
            admission: AdmissionConfig::default(),
            chaos: None,
        }
    }
}

/// Bucket upper bounds (microseconds) of the queue-sojourn histogram,
/// matching the telemetry crate's duration bounds so the series lines
/// up with the phase-duration histograms on `/metrics`.
pub const SOJOURN_BOUNDS_MICROS: [u64; 10] = [
    100,
    1_000,
    5_000,
    25_000,
    100_000,
    500_000,
    1_000_000,
    5_000_000,
    30_000_000,
    120_000_000,
];

/// Live operational counters, shared between the server and the
/// application layer (which exports them on `/metrics`).
#[derive(Debug, Default)]
pub struct ServerStats {
    /// Connections accepted (including ones later shed or failed).
    pub accepted: AtomicU64,
    /// Connections answered `503` for any shed cause (queue full,
    /// sojourn over target, priority lane full). Always the sum of the
    /// three `dropped_*` counters.
    pub shed: AtomicU64,
    /// Requests that reached the handler.
    pub handled: AtomicU64,
    /// Connections dropped before a valid request arrived (parse
    /// errors, read timeouts, early closes).
    pub read_errors: AtomicU64,
    /// Current accept-queue length (both lanes).
    pub queue_depth: AtomicI64,
    /// High-water mark of the accept-queue length.
    pub queue_peak: AtomicU64,
    /// Sheds because the normal queue was at capacity.
    pub dropped_full: AtomicU64,
    /// Sheds at dequeue because the queue sojourn exceeded the
    /// admission target.
    pub dropped_sojourn: AtomicU64,
    /// Sheds because the priority lane was at capacity.
    pub dropped_priority: AtomicU64,
    sojourn_cells: [AtomicU64; SOJOURN_BOUNDS_MICROS.len() + 1],
    sojourn_sum: AtomicU64,
    sojourn_count: AtomicU64,
}

impl ServerStats {
    /// Records one dequeued connection's queue wait in the sojourn
    /// histogram.
    pub fn observe_sojourn(&self, micros: u64) {
        let cell = SOJOURN_BOUNDS_MICROS
            .iter()
            .position(|&b| micros <= b)
            .unwrap_or(SOJOURN_BOUNDS_MICROS.len());
        self.sojourn_cells[cell].fetch_add(1, Ordering::Relaxed);
        self.sojourn_sum.fetch_add(micros, Ordering::Relaxed);
        self.sojourn_count.fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot of the sojourn histogram: per-bucket counts (one per
    /// bound plus the overflow cell), total sum (µs), and count.
    pub fn sojourn_histogram(&self) -> (Vec<u64>, u64, u64) {
        let counts = self
            .sojourn_cells
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect();
        (
            counts,
            self.sojourn_sum.load(Ordering::Relaxed),
            self.sojourn_count.load(Ordering::Relaxed),
        )
    }
}

/// One accepted connection waiting for a worker, stamped at enqueue so
/// its queue sojourn is measurable at dequeue.
struct QueuedConn {
    stream: TcpStream,
    faults: ConnFaults,
    enqueued: Instant,
}

/// The two accept lanes. The priority lane exists only when
/// `AdmissionConfig::priority_depth > 0`; workers always drain it
/// first, and it is never sojourn-shed.
#[derive(Default)]
struct Queues {
    normal: VecDeque<QueuedConn>,
    priority: VecDeque<QueuedConn>,
}

impl Queues {
    fn len(&self) -> usize {
        self.normal.len() + self.priority.len()
    }
}

/// Windowed drain-rate estimate feeding the adaptive `Retry-After`.
/// Refreshed on ≥250ms windows (EWMA over the handled-counter delta).
struct DrainEstimator {
    window_start: Instant,
    handled_then: u64,
    rate_per_sec: f64,
}

impl DrainEstimator {
    fn start() -> Self {
        Self {
            window_start: Instant::now(),
            handled_then: 0,
            rate_per_sec: 0.0,
        }
    }

    /// Refreshes the windowed estimate from the live handled counter and
    /// returns the current drain rate (requests per second).
    fn rate(&mut self, handled_now: u64) -> f64 {
        let elapsed = self.window_start.elapsed();
        if elapsed >= Duration::from_millis(250) {
            let instant_rate =
                handled_now.saturating_sub(self.handled_then) as f64 / elapsed.as_secs_f64();
            self.rate_per_sec = if self.rate_per_sec > 0.0 {
                0.5 * self.rate_per_sec + 0.5 * instant_rate
            } else {
                instant_rate
            };
            self.window_start = Instant::now();
            self.handled_then = handled_now;
        }
        self.rate_per_sec
    }
}

struct Shared {
    queue: Mutex<Queues>,
    available: Condvar,
    shutdown: AtomicBool,
    stats: Arc<ServerStats>,
    config: ServerConfig,
    handler: Handler,
    wake_addr: SocketAddr,
    drain: Mutex<DrainEstimator>,
}

fn unpoison<T>(r: Result<T, PoisonError<T>>) -> T {
    // A handler panic is caught per-connection; queue state is a plain
    // VecDeque of sockets and stays valid.
    r.unwrap_or_else(PoisonError::into_inner)
}

/// A running server: accept thread + worker pool. Dropping without
/// [`Server::join`] detaches the threads; prefer an explicit shutdown.
pub struct Server {
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    local_addr: SocketAddr,
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts the
    /// accept loop and worker pool immediately.
    pub fn bind(
        addr: impl ToSocketAddrs,
        config: ServerConfig,
        stats: Arc<ServerStats>,
        handler: Handler,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        // The shutdown wake-up self-connect must reach the listener even
        // when it is bound to the unspecified address.
        let wake_ip = if local_addr.ip().is_unspecified() {
            IpAddr::V4(Ipv4Addr::LOCALHOST)
        } else {
            local_addr.ip()
        };
        let wake_addr = SocketAddr::new(wake_ip, local_addr.port());
        let workers = config.workers.max(1);
        let shared = Arc::new(Shared {
            queue: Mutex::new(Queues::default()),
            available: Condvar::new(),
            shutdown: AtomicBool::new(false),
            stats,
            config,
            handler,
            wake_addr,
            drain: Mutex::new(DrainEstimator::start()),
        });
        let accept = {
            let shared = shared.clone();
            std::thread::Builder::new()
                .name("dcnr-accept".into())
                .spawn(move || accept_loop(listener, &shared))?
        };
        let workers = (0..workers)
            .map(|i| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("dcnr-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
            })
            .collect::<io::Result<Vec<_>>>()?;
        Ok(Server {
            shared,
            accept: Some(accept),
            workers,
            local_addr,
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The transport-chaos state, when fault injection is configured.
    pub fn chaos(&self) -> Option<&Arc<ChaosState>> {
        self.shared.config.chaos.as_ref()
    }

    /// A handle that can trigger shutdown from any thread.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle {
            shared: self.shared.clone(),
        }
    }

    /// Requests shutdown and blocks until the queue has drained and
    /// every thread has exited.
    pub fn shutdown_and_join(mut self) {
        self.shutdown_handle().request();
        self.join_threads();
    }

    /// Blocks until the server shuts down (via a [`ShutdownHandle`]).
    pub fn join(mut self) {
        self.join_threads();
    }

    fn join_threads(&mut self) {
        if let Some(a) = self.accept.take() {
            let _ = a.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// Triggers a graceful drain: stop accepting, serve what is queued,
/// exit the workers.
#[derive(Clone)]
pub struct ShutdownHandle {
    shared: Arc<Shared>,
}

impl ShutdownHandle {
    /// Initiates shutdown (idempotent). Returns immediately; use
    /// [`Server::join`] to wait for the drain.
    pub fn request(&self) {
        if self.shared.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Wake the blocking accept with a loopback connection; the
        // accept loop re-checks the flag before queueing anything.
        let _ = TcpStream::connect_timeout(&self.shared.wake_addr, Duration::from_secs(1));
        self.shared.available.notify_all();
    }

    /// Whether shutdown has been requested.
    pub fn is_shutting_down(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }
}

fn accept_loop(listener: TcpListener, shared: &Shared) {
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break; // the wake-up connection (or any racer) is dropped
        }
        let Ok(stream) = stream else { continue };
        shared.stats.accepted.fetch_add(1, Ordering::Relaxed);
        // Each accepted connection draws its deterministic fault
        // assignment up front; the injected accept latency applies
        // here, before the shed decision (a slow accept path delays
        // overload answers too, just like a congested real network).
        let faults = match &shared.config.chaos {
            Some(state) => {
                let f = state.next_connection();
                if f.accept_delay_ms > 0 {
                    state.stats.accept_delays.fetch_add(1, Ordering::Relaxed);
                    std::thread::sleep(Duration::from_millis(f.accept_delay_ms));
                }
                f
            }
            None => ConnFaults::NONE,
        };
        // Priority classification peeks the request head *before* the
        // queue decision, so health probes route to their own lane even
        // while the normal queue is saturated. Off (depth 0) means no
        // peek at all — the socket is untouched until a worker reads it.
        let priority = shared.config.admission.priority_depth > 0 && classify_priority(&stream);
        let conn = QueuedConn {
            stream,
            faults,
            enqueued: Instant::now(),
        };
        let mut queues = unpoison(shared.queue.lock());
        let lane_full = if priority {
            queues.priority.len() >= shared.config.admission.priority_depth
        } else {
            queues.normal.len() >= shared.config.queue_depth
        };
        if lane_full {
            drop(queues);
            let mut stream = conn.stream;
            shared.stats.shed.fetch_add(1, Ordering::Relaxed);
            let cause = if priority {
                &shared.stats.dropped_priority
            } else {
                &shared.stats.dropped_full
            };
            cause.fetch_add(1, Ordering::Relaxed);
            shed(&mut stream, shared);
            continue; // drop closes the connection
        }
        if priority {
            queues.priority.push_back(conn);
        } else {
            queues.normal.push_back(conn);
        }
        let depth = queues.len() as u64;
        shared
            .stats
            .queue_depth
            .store(depth as i64, Ordering::Relaxed);
        shared.stats.queue_peak.fetch_max(depth, Ordering::Relaxed);
        drop(queues);
        shared.available.notify_one();
    }
    // Let the workers drain the remaining queue and exit.
    shared.available.notify_all();
}

/// Whether the connection's request head marks it for the priority
/// lane (`GET /healthz`, `GET /readyz`, `GET /metrics`). Peeks without
/// consuming, bounded to ~20ms of waiting for the head to arrive;
/// anything ambiguous, slow, or failing routes to the normal lane.
fn classify_priority(stream: &TcpStream) -> bool {
    const PATTERNS: [&[u8]; 3] = [b"GET /healthz", b"GET /readyz", b"GET /metrics"];
    if stream.set_nonblocking(true).is_err() {
        return false;
    }
    let deadline = Instant::now() + Duration::from_millis(20);
    let mut buf = [0u8; 12];
    let mut priority = false;
    loop {
        match stream.peek(&mut buf) {
            Ok(0) => break, // peer closed before sending a head
            Ok(n) => {
                let head = &buf[..n];
                if PATTERNS.iter().any(|p| head.starts_with(p)) {
                    priority = true;
                    break;
                }
                // A short read that is still a prefix of a priority
                // pattern is undecided; give the rest a moment to land.
                let undecided = PATTERNS.iter().any(|p| p.starts_with(head));
                if !undecided || Instant::now() >= deadline {
                    break;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                if Instant::now() >= deadline {
                    break;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(_) => break,
        }
    }
    if stream.set_nonblocking(false).is_err() {
        return false;
    }
    priority
}

/// The pure `Retry-After` policy: queue depth over drain rate, rounded
/// up and clamped to `[1, 30]` seconds. An unknown or zero rate falls
/// back to the configured fixed hint.
fn retry_after_from(depth: f64, rate_per_sec: f64, fallback: u32) -> u32 {
    if !rate_per_sec.is_finite() || rate_per_sec <= 0.0 {
        return fallback.max(1);
    }
    ((depth / rate_per_sec).ceil() as u32).clamp(1, 30)
}

/// The `Retry-After` seconds for a shed response. With adaptive mode
/// off this is exactly the configured constant (wire-identical to the
/// pre-admission server); with it on, the drain-rate estimator is
/// refreshed and the hint becomes "how long until the current queue
/// drains".
fn shed_retry_after(shared: &Shared) -> u32 {
    let config = &shared.config;
    if !config.admission.adaptive_retry_after {
        return config.retry_after_secs;
    }
    let rate = unpoison(shared.drain.lock()).rate(shared.stats.handled.load(Ordering::Relaxed));
    let depth = shared.stats.queue_depth.load(Ordering::Relaxed).max(0) as f64;
    retry_after_from(depth, rate, config.retry_after_secs)
}

/// Answers `503 Retry-After` on an over-capacity connection. The
/// client's request bytes are drained (briefly) before the socket is
/// dropped: closing with unread data in the receive buffer makes Linux
/// send RST, which can destroy the in-flight 503 on the client side.
fn shed(stream: &mut TcpStream, shared: &Shared) {
    let _ = stream.set_write_timeout(Some(shared.config.write_timeout));
    let _ = Response::unavailable(shed_retry_after(shared)).write_to(stream);
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
    let mut sink = [0u8; 1024];
    // Bounded drain: a well-behaved client's GET arrives in one read;
    // a slow or hostile peer costs the accept loop at most ~100ms.
    for _ in 0..2 {
        match std::io::Read::read(stream, &mut sink) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let conn = {
            let mut queues = unpoison(shared.queue.lock());
            loop {
                // Priority lane first: health probes are never starved
                // behind queued artifact renders.
                if let Some(c) = queues
                    .priority
                    .pop_front()
                    .map(|c| (c, true))
                    .or_else(|| queues.normal.pop_front().map(|c| (c, false)))
                {
                    shared
                        .stats
                        .queue_depth
                        .store(queues.len() as i64, Ordering::Relaxed);
                    break Some(c);
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    break None;
                }
                queues = unpoison(shared.available.wait(queues));
            }
        };
        let Some((queued, priority)) = conn else {
            return;
        };
        let sojourn = queued.enqueued.elapsed();
        shared
            .stats
            .observe_sojourn(sojourn.as_micros().min(u128::from(u64::MAX)) as u64);
        // CoDel-style head drop: a normal-lane connection that already
        // waited past the target is shed *now*, instead of spending a
        // worker on an answer the client has likely given up on. The
        // priority lane is exempt — health probes must always answer.
        if !priority {
            if let Some(target) = shared.config.admission.sojourn_target {
                if sojourn > target {
                    let mut stream = queued.stream;
                    shared.stats.shed.fetch_add(1, Ordering::Relaxed);
                    shared.stats.dropped_sojourn.fetch_add(1, Ordering::Relaxed);
                    shed(&mut stream, shared);
                    continue;
                }
            }
        }
        let (mut conn, faults) = (queued.stream, queued.faults);
        let _ = conn.set_read_timeout(Some(shared.config.read_timeout));
        let _ = conn.set_write_timeout(Some(shared.config.write_timeout));
        if faults.read_delay_ms > 0 {
            if let Some(state) = &shared.config.chaos {
                state.stats.read_delays.fetch_add(1, Ordering::Relaxed);
            }
            std::thread::sleep(Duration::from_millis(faults.read_delay_ms));
        }
        let response = match read_request(&mut conn) {
            Ok(req) => {
                shared.stats.handled.fetch_add(1, Ordering::Relaxed);
                if req.method == "GET" {
                    // A handler panic answers 500 and closes this one
                    // connection; the worker and the server survive.
                    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        (shared.handler)(&req)
                    })) {
                        Ok(r) => r,
                        Err(_) => Response::internal_error("handler panicked"),
                    }
                } else {
                    Response::text(405, "only GET is supported\n")
                }
            }
            Err(e) => {
                shared.stats.read_errors.fetch_add(1, Ordering::Relaxed);
                e.response()
            }
        };
        match &shared.config.chaos {
            // With ConnFaults::NONE the shim path degenerates to the
            // same single write_all as the fault-free arm.
            Some(state) => {
                let _ = chaos::write_response(&mut conn, response.render(), &faults, &state.stats);
            }
            None => {
                let _ = response.write_to(&mut conn);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client;
    use std::time::Instant;

    fn start(config: ServerConfig, handler: Handler) -> (Server, SocketAddr, Arc<ServerStats>) {
        let stats = Arc::new(ServerStats::default());
        let server = Server::bind("127.0.0.1:0", config, stats.clone(), handler).unwrap();
        let addr = server.local_addr();
        (server, addr, stats)
    }

    fn echo_handler() -> Handler {
        Arc::new(|req| Response::ok(format!("path={} query={}\n", req.path, req.query)))
    }

    #[test]
    fn serves_requests_and_drains_on_shutdown() {
        let (server, addr, stats) = start(ServerConfig::default(), echo_handler());
        for i in 0..8 {
            let r = client::get(&addr.to_string(), &format!("/x?i={i}"), None).unwrap();
            assert_eq!(r.status, 200);
            assert_eq!(
                String::from_utf8(r.body).unwrap(),
                format!("path=/x query=i={i}\n")
            );
        }
        server.shutdown_and_join();
        assert_eq!(stats.handled.load(Ordering::Relaxed), 8);
        assert_eq!(stats.shed.load(Ordering::Relaxed), 0);
        // After the drain, new connections are refused (or reset).
        assert!(client::get(&addr.to_string(), "/x", Some(Duration::from_millis(500))).is_err());
    }

    #[test]
    fn sheds_with_503_when_the_queue_is_full_and_never_hangs() {
        // One worker stuck in a slow handler + queue depth 1: with many
        // concurrent clients most connections must shed immediately.
        let slow: Handler = Arc::new(|_req| {
            std::thread::sleep(Duration::from_millis(150));
            Response::ok("slow\n")
        });
        let config = ServerConfig {
            workers: 1,
            queue_depth: 1,
            ..ServerConfig::default()
        };
        let (server, addr, stats) = start(config, slow);
        let started = Instant::now();
        let clients: Vec<_> = (0..8)
            .map(|_| {
                let addr = addr.to_string();
                std::thread::spawn(move || {
                    client::get(&addr, "/slow", Some(Duration::from_secs(10))).unwrap()
                })
            })
            .collect();
        let responses: Vec<_> = clients.into_iter().map(|c| c.join().unwrap()).collect();
        let sheds = responses.iter().filter(|r| r.status == 503).count();
        let oks = responses.iter().filter(|r| r.status == 200).count();
        assert_eq!(sheds + oks, 8, "every client gets a definitive answer");
        assert!(sheds >= 4, "expected most of 8 clients shed, got {sheds}");
        let shed_response = responses.iter().find(|r| r.status == 503).unwrap();
        assert!(
            shed_response.header("retry-after").is_some(),
            "shed responses carry Retry-After"
        );
        // Sheds are immediate: total wall clock is bounded by the few
        // slow requests actually admitted, not by 8 * 150ms.
        assert!(started.elapsed() < Duration::from_secs(5));
        assert_eq!(stats.shed.load(Ordering::Relaxed) as usize, sheds);
        server.shutdown_and_join();
    }

    #[test]
    fn handler_panic_answers_500_and_server_survives() {
        let flaky: Handler = Arc::new(|req| {
            if req.path == "/boom" {
                panic!("handler bug");
            }
            Response::ok("fine\n")
        });
        let (server, addr, _stats) = start(ServerConfig::default(), flaky);
        let r = client::get(&addr.to_string(), "/boom", None).unwrap();
        assert_eq!(r.status, 500);
        let r = client::get(&addr.to_string(), "/ok", None).unwrap();
        assert_eq!(r.status, 200);
        server.shutdown_and_join();
    }

    #[test]
    fn non_get_methods_are_rejected() {
        let (server, addr, _stats) = start(ServerConfig::default(), echo_handler());
        let r = client::request(&addr.to_string(), "DELETE", "/x", None).unwrap();
        assert_eq!(r.status, 405);
        server.shutdown_and_join();
    }

    /// Raw response bytes for one GET — stronger than the parsed
    /// client view when proving byte identity.
    fn raw_get(addr: &SocketAddr, target: &str) -> Vec<u8> {
        use std::io::{Read as _, Write as _};
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(format!("GET {target} HTTP/1.1\r\nConnection: close\r\n\r\n").as_bytes())
            .unwrap();
        let mut raw = Vec::new();
        let _ = s.read_to_end(&mut raw);
        raw
    }

    #[test]
    fn zero_rate_chaos_serves_byte_identical_responses() {
        let (plain, plain_addr, _) = start(ServerConfig::default(), echo_handler());
        let chaotic_config = ServerConfig {
            chaos: Some(Arc::new(ChaosState::new(crate::chaos::FaultPlan {
                seed: 99,
                ..crate::chaos::FaultPlan::default()
            }))),
            ..ServerConfig::default()
        };
        let (chaotic, chaos_addr, _) = start(chaotic_config, echo_handler());
        for target in ["/a?x=1", "/b", "/c?longer=query&more=stuff"] {
            assert_eq!(
                raw_get(&plain_addr, target),
                raw_get(&chaos_addr, target),
                "{target}: an all-zero FaultPlan must not change a single byte"
            );
        }
        let stats = chaotic.chaos().unwrap().stats.total();
        assert_eq!(stats, 0, "zero rates inject nothing");
        plain.shutdown_and_join();
        chaotic.shutdown_and_join();
    }

    #[test]
    fn reset_injection_breaks_clients_and_is_counted() {
        let config = ServerConfig {
            chaos: Some(Arc::new(ChaosState::new(crate::chaos::FaultPlan {
                seed: 7,
                reset_rate: 1.0,
                ..crate::chaos::FaultPlan::default()
            }))),
            ..ServerConfig::default()
        };
        let (server, addr, _) = start(config, echo_handler());
        let mut failures = 0;
        for _ in 0..8 {
            if client::get(&addr.to_string(), "/x", Some(Duration::from_secs(5))).is_err() {
                failures += 1;
            }
        }
        assert!(
            failures >= 6,
            "reset-rate 1.0 must break (nearly) every request, got {failures}/8"
        );
        let chaos = server.chaos().unwrap();
        assert!(chaos.stats.resets.load(Ordering::Relaxed) >= 8);
        server.shutdown_and_join();
    }

    #[test]
    fn queued_connections_are_served_before_the_drain_finishes() {
        let slow: Handler = Arc::new(|_req| {
            std::thread::sleep(Duration::from_millis(100));
            Response::ok("done\n")
        });
        let config = ServerConfig {
            workers: 1,
            queue_depth: 8,
            ..ServerConfig::default()
        };
        let (server, addr, stats) = start(config, slow);
        let clients: Vec<_> = (0..3)
            .map(|_| {
                let addr = addr.to_string();
                std::thread::spawn(move || {
                    client::get(&addr, "/q", Some(Duration::from_secs(10))).unwrap()
                })
            })
            .collect();
        // Give the clients time to be accepted/queued, then drain.
        std::thread::sleep(Duration::from_millis(30));
        server.shutdown_and_join();
        for c in clients {
            assert_eq!(c.join().unwrap().status, 200, "queued conns get served");
        }
        assert_eq!(stats.handled.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn retry_after_policy_is_depth_over_rate_clamped() {
        assert_eq!(retry_after_from(0.0, 10.0, 7), 1, "empty queue still >= 1");
        assert_eq!(retry_after_from(25.0, 10.0, 7), 3, "ceil(25/10)");
        assert_eq!(retry_after_from(1e6, 1.0, 7), 30, "clamped at 30");
        assert_eq!(retry_after_from(5.0, 0.0, 7), 7, "unknown rate: fallback");
        assert_eq!(retry_after_from(5.0, f64::NAN, 0), 1, "fallback floor is 1");
    }

    #[test]
    fn sojourn_overage_sheds_at_dequeue_with_its_own_counter() {
        // One slow worker + a tight sojourn target: connections that sat
        // queued behind the first request exceed the target and must be
        // head-dropped at dequeue, not handled late.
        let slow: Handler = Arc::new(|_req| {
            std::thread::sleep(Duration::from_millis(150));
            Response::ok("slow\n")
        });
        let config = ServerConfig {
            workers: 1,
            queue_depth: 8,
            admission: AdmissionConfig {
                sojourn_target: Some(Duration::from_millis(40)),
                ..AdmissionConfig::default()
            },
            ..ServerConfig::default()
        };
        let (server, addr, stats) = start(config, slow);
        let clients: Vec<_> = (0..6)
            .map(|_| {
                let addr = addr.to_string();
                std::thread::spawn(move || {
                    client::get(&addr, "/slow", Some(Duration::from_secs(10))).unwrap()
                })
            })
            .collect();
        let responses: Vec<_> = clients.into_iter().map(|c| c.join().unwrap()).collect();
        let oks = responses.iter().filter(|r| r.status == 200).count();
        let sheds = responses.iter().filter(|r| r.status == 503).count();
        assert_eq!(oks + sheds, 6, "every client gets a definitive answer");
        let sojourn_drops = stats.dropped_sojourn.load(Ordering::Relaxed);
        assert!(
            sojourn_drops >= 1,
            "queued-behind-slow connections must sojourn-shed, got {sojourn_drops}"
        );
        assert_eq!(
            stats.shed.load(Ordering::Relaxed),
            stats.dropped_full.load(Ordering::Relaxed)
                + sojourn_drops
                + stats.dropped_priority.load(Ordering::Relaxed),
            "shed is always the sum of the per-cause counters"
        );
        let (_, _, observed) = stats.sojourn_histogram();
        assert!(
            observed >= oks as u64,
            "every dequeue lands in the histogram"
        );
        server.shutdown_and_join();
    }

    #[test]
    fn health_probes_ride_the_priority_lane_past_a_saturated_queue() {
        let handler: Handler = Arc::new(|req| {
            if req.path == "/healthz" {
                Response::ok("ok\n")
            } else {
                std::thread::sleep(Duration::from_millis(150));
                Response::ok("slow\n")
            }
        });
        let config = ServerConfig {
            workers: 1,
            queue_depth: 8,
            admission: AdmissionConfig {
                priority_depth: 4,
                ..AdmissionConfig::default()
            },
            ..ServerConfig::default()
        };
        let (server, addr, _stats) = start(config, handler);
        // Saturate the single worker and the normal queue with slow
        // renders...
        let slow_clients: Vec<_> = (0..5)
            .map(|_| {
                let addr = addr.to_string();
                std::thread::spawn(move || {
                    client::get(&addr, "/render", Some(Duration::from_secs(15))).unwrap()
                })
            })
            .collect();
        std::thread::sleep(Duration::from_millis(50));
        // ...then a health probe must be answered after at most one
        // in-flight render, not after the whole queued backlog.
        let started = Instant::now();
        let health = client::get(&addr.to_string(), "/healthz", Some(Duration::from_secs(5)))
            .expect("health probe answered under saturation");
        assert_eq!(health.status, 200);
        assert!(
            started.elapsed() < Duration::from_millis(400),
            "health probe jumped the render backlog ({:?})",
            started.elapsed()
        );
        for c in slow_clients {
            let r = c.join().unwrap();
            assert!(r.status == 200 || r.status == 503);
        }
        server.shutdown_and_join();
    }

    #[test]
    fn admission_off_is_byte_identical_to_the_default_server() {
        // S6: an explicit all-off AdmissionConfig must not change one
        // wire byte relative to the default config — same discipline as
        // the zero-rate chaos shim.
        let (plain, plain_addr, _) = start(ServerConfig::default(), echo_handler());
        let off = ServerConfig {
            admission: AdmissionConfig {
                sojourn_target: None,
                priority_depth: 0,
                adaptive_retry_after: false,
            },
            ..ServerConfig::default()
        };
        let (explicit, off_addr, _) = start(off, echo_handler());
        for target in [
            "/a?x=1",
            "/healthz",
            "/metrics",
            "/c?longer=query&more=stuff",
        ] {
            assert_eq!(
                raw_get(&plain_addr, target),
                raw_get(&off_addr, target),
                "{target}: admission-off must be byte-invisible"
            );
        }
        plain.shutdown_and_join();
        explicit.shutdown_and_join();
    }
}
