//! The TCP daemon: accept loop, admission gate, request execution on the
//! connection thread, and drain-then-exit shutdown.
//!
//! # Data flow
//!
//! ```text
//! client ──frame──▶ connection thread ──▶ admission gate ──▶ request::execute
//!    ▲               (read, decode)        (≤ queue_capacity    (cache lookup, or
//!    │                                      in flight,           build, translate
//!    │                                      ≤ threads computing)  and solve)
//!    └──frame── write ◀── fold totals ◀── encode ◀──────────────────┘
//! ```
//!
//! Each accepted connection gets a thread that reads frames in a loop,
//! through one buffer kept for the connection's life, and answers them
//! in order, one at a time. `Ping`/`Stats`/`Shutdown` are answered
//! inline; `Check`/`Lint` pass the admission gate and then run
//! [`request::execute`] on the same thread. The gate bounds
//! requests in flight by `queue_capacity`, waiting ones included
//! (blocking when full — backpressure, not rejection), and requests
//! computing by `threads`. A drop guard gives both slots back as soon as
//! the response is computed, before it is written, so the queue-depth
//! gauge counts requests the server has truly committed to, and a
//! request that panics cannot leak its slots.
//!
//! Every response is encoded and its phase times folded into the totals
//! before the first byte goes out, so a client that has its answer always
//! finds it counted in the next `Metrics` scrape.
//!
//! # Shutdown
//!
//! A `Shutdown` frame (or [`ServerHandle::shutdown`]) sets the flag and
//! nudges the accept loop awake; [`ServerHandle::join`] then waits for
//! in-flight requests to drain, force-closes idle connections (aborting
//! their blocked reads), joins every thread, and returns the final
//! counters. There is **no signal handler**: the workspace forbids
//! `unsafe` (lint rule S001), and catching SIGTERM in pure std is
//! impossible, so graceful shutdown is a wire-protocol concern — CI and
//! the load generator send the frame.
//!
//! # Observability
//!
//! Each request's service time is split into six phases: decode, queue,
//! cache, translate, solve and write. A traced daemon
//! ([`ServerConfig::record_events`]) records them per request as a
//! `serve-span` event, after the request's `serve-request`, `serve-cache`
//! and `serve-response` events; an untraced one builds no events at all.
//! [`SharedObserver`](mca_obs::SharedObserver) is `Rc`-based and cannot
//! cross connection threads, so the server buffers the events in a mutex
//! (grouped per request, in request-id order) and the owning thread
//! drains them after `join`.
//!
//! Every daemon also sums the phases since startup, and per request kind
//! the requests and their service time, under one short mutex. The
//! `Metrics` frame serves these sums as Prometheus-style text:
//!
//! ```text
//! mca_serve_phase_ns_total{phase="decode|queue|cache|translate|solve|write"}
//! mca_serve_latency_ns_sum{kind="check"}
//! mca_serve_latency_ns_count{kind="check"}
//! ```

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::io::{BufReader, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use mca_obs::event::SERVE_PHASES;
use mca_obs::Event;

use crate::cache::{CacheStats, ResultCache};
use crate::request;
use crate::wire::{
    decode_request, encode_response, error_code, write_frame, Request, Response, WireError,
    MAX_FRAME_BYTES,
};

/// Server construction parameters.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address, e.g. `"127.0.0.1:7117"` (port 0 picks a free port).
    pub addr: String,
    /// Check/lint requests computed at once; admitted requests beyond
    /// this wait for a compute slot, and the wait counts as queue time.
    pub threads: usize,
    /// Result-cache byte budget.
    pub cache_bytes: usize,
    /// Bounded admission-queue capacity; connections block (backpressure)
    /// when this many check/lint requests are in flight, waiting for a
    /// compute slot or computing.
    pub queue_capacity: usize,
    /// Per-connection read timeout: bounds how long a *partial* frame can
    /// hold a connection thread before the server answers with a
    /// truncated-frame error. Idle connections (no frame started) are
    /// kept open across timeouts.
    pub read_timeout: Duration,
    /// Whether to build and buffer `serve-*` trace events for post-hoc
    /// draining. Off by default for long-lived daemons (the buffer grows
    /// with every request); `repro serve --trace` turns it on.
    pub record_events: bool,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: 2,
            cache_bytes: 64 << 20,
            queue_capacity: 64,
            read_timeout: Duration::from_secs(10),
            record_events: false,
        }
    }
}

/// Final counters returned by [`ServerHandle::join`].
#[derive(Clone, Debug)]
pub struct ServerReport {
    /// Frames read and assigned a request id (including invalid ones).
    pub requests: u64,
    /// Responses with a non-error tag.
    pub responses_ok: u64,
    /// Error responses (protocol or execution).
    pub responses_err: u64,
    /// High-water mark of the admission queue depth.
    pub queue_depth_hwm: u64,
    /// Cache counters at shutdown.
    pub cache: CacheStats,
    /// Buffered `serve-*` events in request-id order (empty unless
    /// [`ServerConfig::record_events`]).
    pub events: Vec<Event>,
}

/// One request's service time split into phases. All durations are
/// nanoseconds on the serving thread's monotonic clock; `total_ns` runs
/// from frame-read-complete to response-encode-complete, so it is `>=`
/// the sum of the phases (the rest is dispatch). The socket write itself
/// is not timed. It feeds both the `serve-span` event and the [`Totals`].
#[derive(Default)]
struct RequestRecord {
    /// Request kind tag (`"check"`, `"lint"`, `"ping"`, `"invalid"`, ...).
    kind: &'static str,
    /// End-to-end service time.
    total_ns: u64,
    /// Body decode.
    decode_ns: u64,
    /// Wait for an admission-queue slot, then for a compute slot.
    queue_ns: u64,
    /// Spec resolve, model-hash memo and cache lookups/stores.
    cache_ns: u64,
    /// Model build, hashing and translation that ran (0 on a warm hit).
    translate_ns: u64,
    /// SAT solving (or the lint analysis).
    solve_ns: u64,
    /// Response encode; the phase keeps its label, `write`.
    write_ns: u64,
}

impl RequestRecord {
    /// The phase durations in [`SERVE_PHASES`] order, which the
    /// `Metrics` frame uses as labels.
    fn phases(&self) -> [u64; 6] {
        [
            self.decode_ns,
            self.queue_ns,
            self.cache_ns,
            self.translate_ns,
            self.solve_ns,
            self.write_ns,
        ]
    }

    /// The request's `serve-span` event.
    fn span_event(&self, req: u64) -> Event {
        Event::ServeSpan {
            req,
            kind: self.kind.to_string(),
            total_ns: self.total_ns,
            decode_ns: self.decode_ns,
            queue_ns: self.queue_ns,
            cache_ns: self.cache_ns,
            translate_ns: self.translate_ns,
            solve_ns: self.solve_ns,
            write_ns: self.write_ns,
        }
    }
}

/// Sums over every request since startup: what the `Metrics` frame
/// serves.
#[derive(Default)]
struct Totals {
    /// Summed phase durations, in [`SERVE_PHASES`] order.
    phase_ns: [u64; 6],
    /// Per request kind: requests folded, and their summed `total_ns`.
    by_kind: BTreeMap<&'static str, (u64, u64)>,
}

impl Totals {
    fn add(&mut self, record: &RequestRecord) {
        for (sum, ns) in self.phase_ns.iter_mut().zip(record.phases()) {
            *sum += ns;
        }
        let (count, latency) = self.by_kind.entry(record.kind).or_default();
        *count += 1;
        *latency += record.total_ns;
    }

    /// The sums in Prometheus-style text exposition. All six phases are
    /// always present; a kind appears once a request of it is folded.
    fn prometheus_text(&self) -> String {
        let mut out = String::new();
        out.push_str("# TYPE mca_serve_phase_ns_total counter\n");
        for (phase, ns) in SERVE_PHASES.iter().zip(self.phase_ns) {
            let _ = writeln!(out, "mca_serve_phase_ns_total{{phase=\"{phase}\"}} {ns}");
        }
        out.push_str("# TYPE mca_serve_latency_ns summary\n");
        for (kind, (count, latency)) in &self.by_kind {
            let _ = writeln!(out, "mca_serve_latency_ns_sum{{kind=\"{kind}\"}} {latency}");
            let _ = writeln!(out, "mca_serve_latency_ns_count{{kind=\"{kind}\"}} {count}");
        }
        out
    }
}

#[derive(Default)]
struct Slots {
    /// Requests admitted and not yet released, waiting ones included.
    in_flight: u64,
    /// Admitted requests holding a compute slot.
    computing: u64,
    /// High-water mark of `in_flight`.
    high_water: u64,
}

/// The admission gate: two counting semaphores under one mutex. At most
/// `capacity` requests are in flight, and at most `compute` of them run
/// at once; the rest wait their turn.
struct Admission {
    slots: Mutex<Slots>,
    capacity: u64,
    compute: u64,
    freed: Condvar,
}

/// Both slots of one admitted request, given back on drop — also when
/// the request panics.
struct Permit<'a>(&'a Admission);

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        let mut slots = self.0.lock();
        slots.in_flight -= 1;
        slots.computing -= 1;
        drop(slots);
        // Waiters wait on either bound; waking them all lets each one
        // re-check its own.
        self.0.freed.notify_all();
    }
}

impl Admission {
    fn new(capacity: usize, compute: usize) -> Admission {
        Admission {
            slots: Mutex::new(Slots::default()),
            capacity: capacity.max(1) as u64,
            compute: compute.max(1) as u64,
            freed: Condvar::new(),
        }
    }

    /// The slots. Every update under the lock is one counter step, so a
    /// poisoned lock still holds valid counts, and `Permit::drop` must
    /// not panic.
    fn lock(&self) -> std::sync::MutexGuard<'_, Slots> {
        self.slots.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Blocks (backpressure) until a queue slot is free, then until a
    /// compute slot is.
    fn acquire(&self) -> Permit<'_> {
        let mut slots = self.lock();
        while slots.in_flight >= self.capacity {
            slots = self.freed.wait(slots).unwrap_or_else(|e| e.into_inner());
        }
        slots.in_flight += 1;
        slots.high_water = slots.high_water.max(slots.in_flight);
        while slots.computing >= self.compute {
            slots = self.freed.wait(slots).unwrap_or_else(|e| e.into_inner());
        }
        slots.computing += 1;
        Permit(self)
    }

    fn depth(&self) -> u64 {
        self.lock().in_flight
    }

    fn hwm(&self) -> u64 {
        self.lock().high_water
    }
}

struct Shared {
    cache: ResultCache,
    admission: Admission,
    shutdown: AtomicBool,
    next_req: AtomicU64,
    responses_ok: AtomicU64,
    responses_err: AtomicU64,
    record_events: bool,
    events: Mutex<Vec<(u64, Vec<Event>)>>,
    /// One clone per live connection, by accept order, so shutdown can
    /// abort blocked reads (`TcpStream::shutdown` is the only way to
    /// interrupt a blocking read in pure std). A connection thread drops
    /// its entry when it ends, which closes the socket.
    conn_streams: Mutex<HashMap<u64, TcpStream>>,
    read_timeout: Duration,
    totals: Mutex<Totals>,
}

impl Shared {
    /// Buffers one request's `serve-*` events. `build` runs only on a
    /// traced daemon, so an untraced one allocates none of them.
    fn record(&self, req_id: u64, build: impl FnOnce() -> Vec<Event>) {
        if self.record_events {
            let events = build();
            self.events
                .lock()
                .expect("event buffer poisoned")
                .push((req_id, events));
        }
    }

    /// The totals. Each step of an update under the lock is one counter
    /// add, so a poisoned lock still holds usable sums, and a panic on
    /// one connection does not take the scrape down with it.
    fn totals(&self) -> std::sync::MutexGuard<'_, Totals> {
        self.totals.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn stats_json(&self) -> String {
        use mca_obs::Json;
        let cache = self.cache.stats();
        Json::obj([
            ("requests", self.next_req.load(Ordering::Relaxed).into()),
            (
                "responses_ok",
                self.responses_ok.load(Ordering::Relaxed).into(),
            ),
            (
                "responses_err",
                self.responses_err.load(Ordering::Relaxed).into(),
            ),
            ("queue_depth", self.admission.depth().into()),
            ("queue_depth_hwm", self.admission.hwm().into()),
            (
                "cache",
                Json::obj([
                    ("verdict_hits", cache.verdict_hits.into()),
                    ("verdict_misses", cache.verdict_misses.into()),
                    ("evictions", cache.evictions.into()),
                    ("bytes", cache.bytes.into()),
                    ("bytes_hwm", cache.bytes_hwm.into()),
                ]),
            ),
        ])
        .render()
    }

    fn metrics_text(&self) -> String {
        self.totals().prometheus_text()
    }

    fn request_shutdown(&self, addr: SocketAddr) {
        if self.shutdown.swap(true, Ordering::AcqRel) {
            return; // already requested
        }
        // The accept loop blocks in `incoming()`; a throwaway connection
        // wakes it so it can observe the flag and stop.
        if let Ok(stream) = TcpStream::connect(addr) {
            drop(stream);
        }
    }
}

/// A running server. Obtain with [`Server::start`], stop with
/// [`ServerHandle::shutdown`] (or a wire `Shutdown` frame) followed by
/// [`ServerHandle::join`].
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept_thread: Option<std::thread::JoinHandle<Vec<std::thread::JoinHandle<()>>>>,
}

/// Constructor namespace for the daemon.
pub struct Server;

impl Server {
    /// Binds the listener and starts the accept loop. Returns once the
    /// socket is listening — requests can be sent immediately.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure (address in use, permission, …).
    pub fn start(config: &ServerConfig) -> std::io::Result<ServerHandle> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            cache: ResultCache::new(config.cache_bytes),
            admission: Admission::new(config.queue_capacity, config.threads),
            shutdown: AtomicBool::new(false),
            next_req: AtomicU64::new(0),
            responses_ok: AtomicU64::new(0),
            responses_err: AtomicU64::new(0),
            record_events: config.record_events,
            events: Mutex::new(Vec::new()),
            conn_streams: Mutex::new(HashMap::new()),
            read_timeout: config.read_timeout,
            totals: Mutex::new(Totals::default()),
        });
        let accept_shared = shared.clone();
        let accept_thread = std::thread::spawn(move || {
            let mut connections = Vec::new();
            for (conn_id, stream) in (0u64..).zip(listener.incoming()) {
                if accept_shared.shutdown.load(Ordering::Acquire) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                if let Ok(clone) = stream.try_clone() {
                    accept_shared
                        .conn_streams
                        .lock()
                        .expect("conn registry poisoned")
                        .insert(conn_id, clone);
                }
                let conn_shared = accept_shared.clone();
                connections.push(std::thread::spawn(move || {
                    serve_connection(stream, &conn_shared);
                    // The registry's clone is the socket's last handle:
                    // dropping it closes the connection, so a client that
                    // writes after this thread stopped reading sees EOF
                    // instead of waiting out its own read timeout.
                    conn_shared
                        .conn_streams
                        .lock()
                        .expect("conn registry poisoned")
                        .remove(&conn_id);
                }));
            }
            connections
        });
        Ok(ServerHandle {
            addr,
            shared,
            accept_thread: Some(accept_thread),
        })
    }
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// `true` once a shutdown has been requested (wire frame or
    /// [`ServerHandle::shutdown`]).
    pub fn is_shutting_down(&self) -> bool {
        self.shared.shutdown.load(Ordering::Acquire)
    }

    /// Requests shutdown and nudges the accept loop awake. Idempotent;
    /// does not wait — call [`ServerHandle::join`] to drain.
    pub fn shutdown(&self) {
        self.shared.request_shutdown(self.addr);
    }

    /// Blocks until shutdown is requested, polling gently. Used by the
    /// `repro serve` foreground daemon.
    pub fn wait_shutdown(&self) {
        while !self.is_shutting_down() {
            std::thread::sleep(Duration::from_millis(50));
        }
    }

    /// Drains and tears down: waits for in-flight requests to finish,
    /// aborts idle blocked reads, joins every thread, and returns the
    /// final counters. Implies
    /// [`shutdown`](ServerHandle::shutdown).
    pub fn join(mut self) -> ServerReport {
        self.shutdown();
        // Wait for the in-flight queue to drain before force-closing
        // sockets, so committed requests still get their responses.
        while self.shared.admission.depth() > 0 {
            std::thread::sleep(Duration::from_millis(5));
        }
        // Abort idle blocked reads; response writes already completed.
        for (_, stream) in self
            .shared
            .conn_streams
            .lock()
            .expect("conn registry poisoned")
            .drain()
        {
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
        let connections = self
            .accept_thread
            .take()
            .expect("join called once")
            .join()
            .expect("accept thread panicked");
        for conn in connections {
            let _ = conn.join();
        }
        let mut buffered =
            std::mem::take(&mut *self.shared.events.lock().expect("event buffer poisoned"));
        buffered.sort_by_key(|(req, _)| *req);
        let events = buffered.into_iter().flat_map(|(_, evs)| evs).collect();
        ServerReport {
            requests: self.shared.next_req.load(Ordering::Relaxed),
            responses_ok: self.shared.responses_ok.load(Ordering::Relaxed),
            responses_err: self.shared.responses_err.load(Ordering::Relaxed),
            queue_depth_hwm: self.shared.admission.hwm(),
            cache: self.shared.cache.stats(),
            events,
        }
    }
}

/// One step of the server-side frame reader, distinguishing "idle, no
/// frame started" (keep the connection) from "timed out mid-frame"
/// (truncated — answer with a protocol error and drop the connection).
enum FrameRead {
    /// A complete frame body.
    Frame(Vec<u8>),
    /// Read timed out before any byte of a new frame arrived.
    Idle,
    /// The peer closed (or the socket died) between frames.
    Closed,
    /// A protocol-level failure: truncated or oversized frame.
    Fail(WireError),
}

fn read_frame_step(r: &mut impl Read) -> FrameRead {
    let mut len_buf = [0u8; 4];
    match read_exact_or(r, &mut len_buf, true) {
        ReadOutcome::Done => {}
        ReadOutcome::Idle => return FrameRead::Idle,
        ReadOutcome::Closed => return FrameRead::Closed,
        ReadOutcome::Fail(e) => return FrameRead::Fail(e),
    }
    let len = u32::from_be_bytes(len_buf);
    if len > MAX_FRAME_BYTES {
        return FrameRead::Fail(WireError::Oversized(len));
    }
    let mut body = vec![0u8; len as usize];
    match read_exact_or(r, &mut body, false) {
        ReadOutcome::Done => FrameRead::Frame(body),
        ReadOutcome::Idle => unreachable!("idle only possible at a frame boundary"),
        ReadOutcome::Closed => FrameRead::Fail(WireError::Io(std::io::ErrorKind::UnexpectedEof)),
        ReadOutcome::Fail(e) => FrameRead::Fail(e),
    }
}

enum ReadOutcome {
    Done,
    Idle,
    Closed,
    Fail(WireError),
}

/// `read_exact` that reports a timeout before the first byte as `Idle`
/// (when `idle_ok`) and any later short read as a truncation failure.
fn read_exact_or(r: &mut impl Read, buf: &mut [u8], idle_ok: bool) -> ReadOutcome {
    let mut got = 0usize;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) => {
                return if got == 0 && idle_ok {
                    ReadOutcome::Closed
                } else {
                    ReadOutcome::Fail(WireError::Io(std::io::ErrorKind::UnexpectedEof))
                }
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                return if got == 0 && idle_ok {
                    ReadOutcome::Idle
                } else {
                    ReadOutcome::Fail(WireError::Io(std::io::ErrorKind::TimedOut))
                };
            }
            Err(_) => return ReadOutcome::Closed,
        }
    }
    ReadOutcome::Done
}

/// Elapsed nanoseconds since `start`, saturating at `u64::MAX`.
fn ns_since(start: Instant) -> u64 {
    start.elapsed().as_nanos().min(u64::MAX as u128) as u64
}

fn serve_connection(stream: TcpStream, shared: &Shared) {
    let _ = stream.set_read_timeout(Some(shared.read_timeout));
    let _ = stream.set_nodelay(true);
    // One buffer for the connection's life: a frame usually arrives in
    // one `read`, and bytes read past it stay for the next frame.
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    loop {
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        let body = match read_frame_step(&mut reader) {
            FrameRead::Frame(body) => body,
            FrameRead::Idle => continue,
            FrameRead::Closed => return,
            FrameRead::Fail(err) => {
                // The stream position is unrecoverable after a truncated
                // or oversized frame: answer, then drop the connection.
                respond_error(&mut writer, shared, err);
                return;
            }
        };
        // The clock starts once a complete frame is in hand, so idle
        // keep-alive time between frames is never attributed.
        let total_start = Instant::now();
        let req_id = shared.next_req.fetch_add(1, Ordering::Relaxed);
        let req = match decode_request(&body) {
            Ok(req) => req,
            Err(err) => {
                // Body-level decode error: the frame boundary is intact,
                // so answer and keep serving this connection.
                let decode_ns = ns_since(total_start);
                shared.record(req_id, || {
                    vec![
                        Event::ServeRequest {
                            req: req_id,
                            kind: "invalid".to_string(),
                            key: String::new(),
                        },
                        Event::ServeResponse {
                            req: req_id,
                            outcome: "error".to_string(),
                            cache: "-".to_string(),
                        },
                    ]
                });
                shared.totals().add(&RequestRecord {
                    kind: "invalid",
                    total_ns: decode_ns,
                    decode_ns,
                    ..RequestRecord::default()
                });
                respond_error(&mut writer, shared, err);
                continue;
            }
        };
        let mut record = RequestRecord {
            kind: req.kind(),
            decode_ns: ns_since(total_start),
            ..RequestRecord::default()
        };
        // What a traced daemon reports of a cacheable request: its key,
        // its cache operations in order, and its disposition.
        let mut key = String::new();
        let mut ops = Vec::new();
        let mut cache_label = "-";
        let response = match &req {
            Request::Ping => Response::Pong,
            Request::Stats => Response::Stats {
                payload: shared.stats_json().into_bytes(),
            },
            Request::Metrics => Response::Metrics {
                text: shared.metrics_text(),
            },
            Request::Shutdown => Response::ShuttingDown,
            Request::Check { .. } | Request::Lint { .. } => {
                if shared.shutdown.load(Ordering::Acquire) {
                    Response::Error {
                        code: error_code::SHUTTING_DOWN,
                        message: "server is shutting down".to_string(),
                    }
                } else {
                    // Bounded admission: block (backpressure) at capacity,
                    // then wait for a compute slot.
                    let queue_start = Instant::now();
                    let permit = shared.admission.acquire();
                    record.queue_ns = ns_since(queue_start);
                    let executed = request::execute(&req, &shared.cache);
                    drop(permit);
                    record.cache_ns = executed.cache_ns;
                    record.translate_ns = executed.translate_ns;
                    record.solve_ns = executed.solve_ns;
                    key = executed.cache_key;
                    ops = executed.ops;
                    cache_label = executed.disposition.map_or("-", |d| d.label());
                    executed.response
                }
            }
        };
        let outcome = if matches!(response, Response::Error { .. }) {
            shared.responses_err.fetch_add(1, Ordering::Relaxed);
            "error"
        } else {
            shared.responses_ok.fetch_add(1, Ordering::Relaxed);
            "ok"
        };
        let encode_start = Instant::now();
        let frame = encode_response(&response);
        record.write_ns = ns_since(encode_start);
        record.total_ns = ns_since(total_start);
        shared.record(req_id, || {
            let mut events = Vec::with_capacity(ops.len() + 3);
            events.push(Event::ServeRequest {
                req: req_id,
                kind: record.kind.to_string(),
                key,
            });
            // Trace readers key cache operations by `tier/op`; the
            // verdict cache is the service's one tier.
            events.extend(ops.into_iter().map(|op| Event::ServeCache {
                tier: "verdict".to_string(),
                op: op.op.to_string(),
                key: op.key,
            }));
            events.push(Event::ServeResponse {
                req: req_id,
                outcome: outcome.to_string(),
                cache: cache_label.to_string(),
            });
            // The span event carries wall-clock fields and request ids;
            // it lives only in this opt-in stream, like `SpanRecorder`.
            events.push(record.span_event(req_id));
            events
        });
        // Counted before the first byte goes out: a client holding its
        // answer always finds it in the next scrape.
        shared.totals().add(&record);
        let written = write_frame(&mut writer, &frame).is_ok();
        if matches!(req, Request::Shutdown) {
            match writer.local_addr() {
                Ok(addr) => shared.request_shutdown(addr),
                Err(_) => shared.shutdown.store(true, Ordering::Release),
            }
            return;
        }
        if !written {
            return;
        }
    }
}

fn respond_error(writer: &mut TcpStream, shared: &Shared, err: WireError) {
    shared.responses_err.fetch_add(1, Ordering::Relaxed);
    let response = Response::Error {
        code: err.code(),
        message: err.to_string(),
    };
    let _ = write_frame(writer, &encode_response(&response));
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn gate_bounds_concurrent_computation_and_lets_every_caller_finish() {
        let gate = Admission::new(64, 2);
        let (running, peak, finished) = (
            AtomicUsize::new(0),
            AtomicUsize::new(0),
            AtomicUsize::new(0),
        );
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    let _permit = gate.acquire();
                    let now = running.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now, Ordering::SeqCst);
                    // Hold the slot until all eight callers are admitted:
                    // the first two then compute while six wait.
                    while gate.hwm() < 8 {
                        std::thread::yield_now();
                    }
                    running.fetch_sub(1, Ordering::SeqCst);
                    finished.fetch_add(1, Ordering::SeqCst);
                });
            }
        });
        assert_eq!(peak.load(Ordering::SeqCst), 2, "two slots, both used");
        assert_eq!(finished.load(Ordering::SeqCst), 8);
        assert_eq!((gate.depth(), gate.hwm()), (0, 8));
    }

    #[test]
    fn totals_render_six_phases_and_per_kind_latency_sums() {
        let mut totals = Totals::default();
        let text = totals.prometheus_text();
        for phase in SERVE_PHASES {
            let sample = format!("mca_serve_phase_ns_total{{phase=\"{phase}\"}} 0\n");
            assert!(
                text.contains(&sample),
                "{phase} missing before any request:\n{text}"
            );
        }
        assert!(!text.contains("mca_serve_latency_ns_count"), "{text}");
        for total_ns in [100, 300] {
            totals.add(&RequestRecord {
                kind: "check",
                total_ns,
                decode_ns: 1,
                queue_ns: 2,
                cache_ns: 3,
                translate_ns: 4,
                solve_ns: 5,
                write_ns: 6,
            });
        }
        totals.add(&RequestRecord {
            kind: "lint",
            total_ns: 50,
            solve_ns: 40,
            ..RequestRecord::default()
        });
        assert_eq!(
            totals.prometheus_text(),
            "# TYPE mca_serve_phase_ns_total counter\n\
             mca_serve_phase_ns_total{phase=\"decode\"} 2\n\
             mca_serve_phase_ns_total{phase=\"queue\"} 4\n\
             mca_serve_phase_ns_total{phase=\"cache\"} 6\n\
             mca_serve_phase_ns_total{phase=\"translate\"} 8\n\
             mca_serve_phase_ns_total{phase=\"solve\"} 50\n\
             mca_serve_phase_ns_total{phase=\"write\"} 12\n\
             # TYPE mca_serve_latency_ns summary\n\
             mca_serve_latency_ns_sum{kind=\"check\"} 400\n\
             mca_serve_latency_ns_count{kind=\"check\"} 2\n\
             mca_serve_latency_ns_sum{kind=\"lint\"} 50\n\
             mca_serve_latency_ns_count{kind=\"lint\"} 1\n"
        );
    }

    #[test]
    fn a_panicking_request_gives_back_both_slots() {
        let gate = Admission::new(1, 1);
        let crashed = std::thread::scope(|s| {
            s.spawn(|| {
                let _permit = gate.acquire();
                panic!("request failed mid-computation");
            })
            .join()
        });
        assert!(crashed.is_err());
        let slots = gate.lock();
        assert_eq!((slots.in_flight, slots.computing), (0, 0));
        drop(slots);
        // The next request gets both slots at once and runs.
        let permit = gate.acquire();
        assert_eq!(gate.depth(), 1);
        drop(permit);
        assert_eq!(gate.depth(), 0);
    }
}
