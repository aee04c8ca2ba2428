//! The TCP front-end: listener, pipelined connection handlers, admission
//! control, graceful shutdown.
//!
//! One [`NetServer`] owns a listener thread plus two threads per live
//! connection, and runs no thread per request:
//!
//! * the **reader** decodes frames off the socket and dispatches them, one
//!   read pass at a time. A RELEASE is admitted into the shared
//!   [`ReleaseService`] via `try_submit_or_hold` — never the blocking path
//!   — so when the bounded admission queue refuses, the client gets a
//!   typed [`Frame::Busy`] instead of stalling every other request on the
//!   connection. A RELEASE whose calibration is already cached is held by
//!   the reader and served on it when the pass ends, through the same serve
//!   path the service's workers run; a cold one goes to the workers, so no
//!   calibration ever runs on a reader. A PROGRESSIVE is queued as a task
//!   on the service's workers via `try_spawn`, and a QUERY runs inline on
//!   the reader. Every answer the reader gives (HELLO_OK, a warm release's
//!   OK, QUERY_OK, STATS_OK, METRICS_OK, BUSY, BUDGET, a typed ERROR) goes
//!   into the pass, and the pass's answers leave in one write;
//! * the **writer** blocks on an in-process channel and writes what the
//!   service's workers answer: cold releases, pushed through the reply each
//!   one carries, and the refinements a PROGRESSIVE task sends as each one
//!   is ready.
//!
//! Reader and writer share the connection's one buffered write half, behind
//! a mutex. Responses return **out of order**, matched by sequence number —
//! that is what lets one connection keep `max_pipeline` requests in flight.
//! A pass ends, and its answers are written, before the reader reads
//! again, before a QUERY runs, right after the HELLO, and when the reader
//! stops, so no answer overtakes HELLO_OK, no warm release waits behind a
//! query, and a closing ERROR follows every answer the reader gave before
//! it.
//!
//! Back-pressure has three layers, all surfaced as typed frames rather
//! than silence: per-connection pipeline depth ([`Frame::Busy`]; a release
//! counts until its answer is written), the service admission queue
//! ([`Frame::Busy`] again — nothing stays charged; its capacity bounds the
//! releases admitted and not yet served, queued or held by a reader), and
//! the listener's connection cap ([`ErrorCode::TooManyConnections`]).
//!
//! Shutdown is graceful: the accept loop stops, readers notice the flag at
//! their next read-timeout tick, serve and write what their pass holds, and
//! stop decoding, and each writer keeps writing the responses still in
//! flight until nothing can send it another (the reader, every in-flight
//! reply and every queued or running PROGRESSIVE task hold a sender) or one
//! per-connection `drain_timeout` passes, then closes the socket. A write
//! that makes no progress for a `drain_timeout` closes its connection, so a
//! client that stops reading cannot hold its reader, its writer or shutdown.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use pufferfish_core::{NoisyRelease, ReleaseEngine};
use pufferfish_markov::MarkovChainClass;
use pufferfish_query::{QueryError, QueryResult, QueryService, Table};
use pufferfish_service::{
    HeldRelease, ProgressiveRelease, RefinementSchedule, RefinementStep, ReleaseRequest,
    ReleaseService, ServiceError, ServiceTelemetry, StreamBackend,
};
use pufferfish_telemetry::{Counter, FlightRecorder, MetricValue, Registry, RequestTrace, Stage};

use crate::frame::{
    decode, encode, Envelope, ErrorCode, Frame, FrameError, WireCell, WireMetric, WireMetricValue,
    WireQueryResult, WireStats, WireWindow, DEFAULT_MAX_FRAME_LEN,
};

/// Thread names. Linux keeps 15 bytes of a thread name, so each one fits
/// whole in `/proc`, `top` and `gdb`.
const ACCEPT_THREAD: &str = "pf-net-accept";
const READ_THREAD: &str = "pf-net-read";
const WRITE_THREAD: &str = "pf-net-write";

/// The longest HELLO tenant accepted, in bytes; a longer one is refused
/// with [`ErrorCode::Malformed`] and the connection closes. Every identity
/// charged on the connection embeds the tenant (`tenant#user`), and the
/// accountant keeps each identity it charged for the server's life.
const MAX_TENANT_LEN: usize = 255;

/// Tuning for a [`NetServer`].
#[derive(Debug, Clone)]
pub struct NetServerConfig {
    /// Connections accepted concurrently; further clients get a typed
    /// [`ErrorCode::TooManyConnections`] frame and are dropped.
    pub max_connections: usize,
    /// In-flight requests allowed per connection before the server answers
    /// [`Frame::Busy`] without touching the service.
    pub max_pipeline: usize,
    /// Socket read timeout — the tick at which idle readers re-check the
    /// shutdown flag, so it bounds shutdown latency, not client patience.
    pub read_timeout: Duration,
    /// A connection silent this long is closed.
    pub idle_timeout: Duration,
    /// Largest frame read or written.
    pub max_frame_len: u32,
    /// Back-off hint carried by every [`Frame::Busy`], in milliseconds.
    pub busy_retry_hint_ms: u32,
    /// Once a connection's reader has stopped, how long its writer keeps
    /// writing responses still in flight. One deadline per connection:
    /// responses not ready by then are dropped and the client sees EOF.
    /// It is also the deadline of every write on the connection's socket:
    /// a write that makes no progress for this long closes the connection,
    /// so a client that stops reading cannot hold the server's threads.
    /// Like `read_timeout`, it must be nonzero.
    pub drain_timeout: Duration,
}

impl Default for NetServerConfig {
    fn default() -> Self {
        NetServerConfig {
            max_connections: 64,
            max_pipeline: 128,
            read_timeout: Duration::from_millis(200),
            idle_timeout: Duration::from_secs(60),
            max_frame_len: DEFAULT_MAX_FRAME_LEN,
            busy_retry_hint_ms: 1,
            drain_timeout: Duration::from_secs(5),
        }
    }
}

/// The declarative-query surface of a server: a [`QueryService`] plus the
/// tables it serves, looked up by name from QUERY frames.
pub struct QueryEndpoint {
    service: QueryService,
    tables: HashMap<String, Table>,
}

impl QueryEndpoint {
    /// Wraps a query service with an empty table registry.
    pub fn new(service: QueryService) -> Self {
        QueryEndpoint {
            service,
            tables: HashMap::new(),
        }
    }

    /// Registers `table` under its own name, replacing any previous table
    /// with that name.
    pub fn register_table(&mut self, table: Table) {
        self.tables.insert(table.name().to_string(), table);
    }

    /// The underlying query service.
    pub fn service(&self) -> &QueryService {
        &self.service
    }
}

/// The anytime-release surface of a server: the restriction class and the
/// stream mechanism PROGRESSIVE frames are answered with. Per-step budget is
/// charged to the shared [`ReleaseService`]'s accountant under the same
/// `tenant#user` identity RELEASE frames use.
///
/// Every request's driver releases through one calibration cache the
/// endpoint owns ([`StreamBackend::engine`]), so the server calibrates each
/// `(prefix, ε)` step once and answers every later request that uses it
/// from the cache. On a server bound with telemetry, the cache's counters
/// appear on METRICS as `engine_stream_mqm_approx_*` (or
/// `engine_stream_gk16_*`), apart from the release engine's.
pub struct ProgressiveEndpoint {
    class: MarkovChainClass,
    backend: StreamBackend,
    engine: Arc<ReleaseEngine>,
}

impl ProgressiveEndpoint {
    /// An endpoint answering progressive releases for `class` via `backend`,
    /// starting with an empty calibration cache.
    pub fn new(class: MarkovChainClass, backend: StreamBackend) -> Self {
        let engine = backend.engine(&class);
        ProgressiveEndpoint {
            class,
            backend,
            engine,
        }
    }
}

/// What a telemetry-enabled server needs from its caller: the registry
/// metrics land in (the caller keeps it to render, audit, or serve METRICS
/// elsewhere) and an optional flight recorder for slow-request breakdowns.
#[derive(Debug, Clone)]
pub struct TelemetryOptions {
    /// The registry every layer registers against. Passing the same
    /// registry to multiple servers merges their metrics.
    pub registry: Arc<Registry>,
    /// Captures the stage breakdown of slow requests (see
    /// [`FlightRecorder`]); `None` keeps histograms only.
    pub recorder: Option<Arc<FlightRecorder>>,
}

impl TelemetryOptions {
    /// Options with a fresh registry and no recorder.
    pub fn new() -> Self {
        TelemetryOptions {
            registry: Arc::new(Registry::new()),
            recorder: None,
        }
    }
}

impl Default for TelemetryOptions {
    fn default() -> Self {
        Self::new()
    }
}

/// The net layer's resolved metric handles: wire byte counters plus the
/// telemetry the server attached to its release service, whose registry,
/// `stage_*_ns` family and flight recorder the connection threads share.
#[derive(Clone)]
struct NetTelemetry {
    rx_bytes: Counter,
    tx_bytes: Counter,
    service: Arc<ServiceTelemetry>,
}

struct Inner {
    release: Arc<ReleaseService>,
    query: Option<QueryEndpoint>,
    progressive: Option<ProgressiveEndpoint>,
    config: NetServerConfig,
    telemetry: Option<NetTelemetry>,
    shutdown: AtomicBool,
    active: AtomicUsize,
    total: AtomicU64,
    refused: AtomicU64,
}

impl Inner {
    /// One merged observability snapshot: the release service's stats plus,
    /// when a query endpoint is attached, the query front-end's counters
    /// summed in (its queue fields are zero, so queue occupancy stays the
    /// release queue's).
    fn stats(&self) -> WireStats {
        let mut stats = WireStats::from(self.release.stats());
        if let Some(endpoint) = &self.query {
            let q = WireStats::from(endpoint.service.stats());
            stats.hits += q.hits;
            stats.misses += q.misses;
            stats.coalesced += q.coalesced;
            stats.cached_calibrations += q.cached_calibrations;
            stats.served += q.served;
            stats.users += q.users;
            stats.spent_epsilon += q.spent_epsilon;
        }
        stats
    }
}

/// A running TCP front-end over a shared [`ReleaseService`] (and optionally
/// a [`QueryEndpoint`]).
///
/// Dropping the server shuts it down gracefully; [`NetServer::shutdown`]
/// does the same explicitly. The server never owns the release service —
/// callers keep their `Arc` and decide its lifetime separately.
pub struct NetServer {
    inner: Arc<Inner>,
    local_addr: SocketAddr,
    accept_handle: Option<std::thread::JoinHandle<()>>,
}

impl NetServer {
    /// Binds a release-only server on `addr` (port 0 picks an ephemeral
    /// port; see [`NetServer::local_addr`]).
    ///
    /// # Errors
    /// [`std::io::Error`] when the bind fails.
    pub fn bind<A: ToSocketAddrs>(
        addr: A,
        release: Arc<ReleaseService>,
        config: NetServerConfig,
    ) -> std::io::Result<NetServer> {
        Self::bind_full(addr, release, None, None, config, None)
    }

    /// Binds a server with every surface the caller provides: RELEASE
    /// always, QUERY via `query`, and PROGRESSIVE via `progressive`, which
    /// streams one [`Frame::RefineOk`] per schedule step — all echoing the
    /// request's sequence number — interleaved with the connection's other
    /// pipelined responses.
    ///
    /// With `telemetry` the server is fully instrumented: wire byte
    /// counters, per-stage latency histograms (decode through encode,
    /// shared with the release service's worker stages in one `stage_*_ns`
    /// family), and the METRICS frame answering from `telemetry.registry`.
    /// The shared `release` service (and the engine behind it) and the
    /// progressive endpoint's calibration cache have their telemetry
    /// enabled against the same registry, so everything lands in one place;
    /// a service's telemetry is write-once, so one that already has
    /// telemetry keeps recording into its first registry. A flight recorder
    /// in `telemetry` receives a per-request trace of every RELEASE and
    /// PROGRESSIVE; without one no trace is built. Servers bound without
    /// telemetry answer METRICS with a typed [`ErrorCode::Unsupported`].
    ///
    /// # Errors
    /// [`std::io::Error`] when the bind fails.
    pub fn bind_full<A: ToSocketAddrs>(
        addr: A,
        release: Arc<ReleaseService>,
        query: Option<QueryEndpoint>,
        progressive: Option<ProgressiveEndpoint>,
        config: NetServerConfig,
        telemetry: Option<TelemetryOptions>,
    ) -> std::io::Result<NetServer> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let telemetry = telemetry.map(|options| {
            let registry = options.registry;
            let service = Arc::new(match options.recorder {
                Some(recorder) => ServiceTelemetry::with_recorder(Arc::clone(&registry), recorder),
                None => ServiceTelemetry::new(Arc::clone(&registry)),
            });
            release.enable_telemetry(Arc::clone(&service));
            if let Some(endpoint) = &progressive {
                endpoint.engine.enable_telemetry(&registry);
            }
            NetTelemetry {
                rx_bytes: registry.counter("net_rx_bytes_total"),
                tx_bytes: registry.counter("net_tx_bytes_total"),
                service,
            }
        });
        let inner = Arc::new(Inner {
            release,
            query,
            progressive,
            config,
            telemetry,
            shutdown: AtomicBool::new(false),
            active: AtomicUsize::new(0),
            total: AtomicU64::new(0),
            refused: AtomicU64::new(0),
        });
        let accept_inner = Arc::clone(&inner);
        let accept_handle = std::thread::Builder::new()
            .name(ACCEPT_THREAD.to_string())
            .spawn(move || accept_loop(listener, accept_inner))
            .expect("spawning the accept thread failed");
        Ok(NetServer {
            inner,
            local_addr,
            accept_handle: Some(accept_handle),
        })
    }

    /// The address the server actually listens on.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Connections currently being served.
    pub fn active_connections(&self) -> usize {
        self.inner.active.load(Ordering::SeqCst)
    }

    /// Connections accepted over the server's lifetime.
    pub fn total_connections(&self) -> u64 {
        self.inner.total.load(Ordering::SeqCst)
    }

    /// Connections refused at the [`NetServerConfig::max_connections`] cap.
    pub fn refused_connections(&self) -> u64 {
        self.inner.refused.load(Ordering::SeqCst)
    }

    /// The merged release + query observability snapshot — the same numbers
    /// a STATS frame returns.
    pub fn stats(&self) -> WireStats {
        self.inner.stats()
    }

    /// Graceful shutdown: stop accepting, let every reader stop at its next
    /// timeout tick, drain all in-flight responses, close every socket, and
    /// join every thread. The shared [`ReleaseService`] keeps running.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        let Some(handle) = self.accept_handle.take() else {
            return;
        };
        self.inner.shutdown.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection; if even that
        // fails the listener is already dead and join returns anyway.
        let _ = TcpStream::connect(self.local_addr);
        let _ = handle.join();
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop(listener: TcpListener, inner: Arc<Inner>) {
    let mut handles: Vec<std::thread::JoinHandle<()>> = Vec::new();
    for stream in listener.incoming() {
        if inner.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        handles.retain(|h| !h.is_finished());
        if inner.active.load(Ordering::SeqCst) >= inner.config.max_connections {
            inner.refused.fetch_add(1, Ordering::SeqCst);
            refuse_connection(stream, inner.config.max_frame_len);
            continue;
        }
        inner.active.fetch_add(1, Ordering::SeqCst);
        inner.total.fetch_add(1, Ordering::SeqCst);
        let conn_inner = Arc::clone(&inner);
        match std::thread::Builder::new()
            .name(READ_THREAD.to_string())
            .spawn(move || {
                handle_connection(&conn_inner, stream);
                conn_inner.active.fetch_sub(1, Ordering::SeqCst);
            }) {
            Ok(handle) => handles.push(handle),
            Err(_) => {
                inner.active.fetch_sub(1, Ordering::SeqCst);
            }
        }
    }
    for handle in handles {
        let _ = handle.join();
    }
}

/// Tells an over-the-cap client *why* it was dropped with one best-effort
/// typed frame before closing.
fn refuse_connection(mut stream: TcpStream, max_frame_len: u32) {
    let envelope = Envelope {
        seq: 0,
        frame: Frame::Error {
            code: ErrorCode::TooManyConnections,
            message: "connection limit reached".to_string(),
        },
    };
    if let Ok(bytes) = encode(&envelope, max_frame_len) {
        let _ = stream.write_all(&bytes);
        let _ = stream.flush();
    }
}

/// What the writer receives: a finished release pushed by its reply
/// (carrying the request trace so the writer can lap the encode stage and
/// finish it), a frame a PROGRESSIVE task sends (a refinement, or the typed
/// error that ends its stream), or the reader's notice that it stopped.
enum Outgoing {
    Progressive(u64, Frame),
    Done(
        u64,
        Result<NoisyRelease, ServiceError>,
        Option<RequestTrace>,
    ),
    ReaderStopped,
}

/// A connection's buffered write half, shared by its reader, which writes
/// each read pass's answers in one write, and its writer thread. Each
/// holder writes whole frames only, so a holder that panicked left the
/// buffer whole and the other takes a poisoned lock over.
type WriteHalf = Mutex<std::io::BufWriter<TcpStream>>;

fn handle_connection(inner: &Arc<Inner>, stream: TcpStream) {
    let config = &inner.config;
    let _ = stream.set_nodelay(true);
    // The write deadline covers the reader's and the writer's writes: the
    // write half is a clone of this socket.
    if stream.set_read_timeout(Some(config.read_timeout)).is_err()
        || stream
            .set_write_timeout(Some(config.drain_timeout))
            .is_err()
    {
        return;
    }
    let Ok(write_stream) = stream.try_clone() else {
        return;
    };
    let out = Arc::new(Mutex::new(std::io::BufWriter::with_capacity(
        64 * 1024,
        write_stream,
    )));
    let (tx, rx) = std::sync::mpsc::channel::<Outgoing>();
    let inflight = Arc::new(AtomicUsize::new(0));
    let writer_out = Arc::clone(&out);
    let writer_inflight = Arc::clone(&inflight);
    let writer_config = config.clone();
    let writer_telemetry = inner.telemetry.clone();
    let writer = std::thread::Builder::new()
        .name(WRITE_THREAD.to_string())
        .spawn(move || {
            writer_loop(
                &writer_out,
                rx,
                &writer_inflight,
                &writer_config,
                writer_telemetry.as_ref(),
            )
        });
    let Ok(writer) = writer else { return };

    let stop = read_loop(inner, &stream, &tx, &inflight, &out);

    // The writer now drains what is still in flight, under one deadline,
    // and exits once every sender is gone.
    let _ = tx.send(Outgoing::ReaderStopped);
    drop(tx);
    let _ = writer.join();
    if stop == Stop::Violation {
        close_after_error(&stream, config.read_timeout);
    }
}

/// Why a connection's reader stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stop {
    /// EOF, GOODBYE, shutdown, idle timeout, a closed service or a dead
    /// writer: the socket just closes.
    Close,
    /// A protocol violation, answered with a typed ERROR. The client may
    /// have pipelined frames behind the bad one.
    Violation,
}

/// Closes a connection after its ERROR without resetting it. Closing a
/// socket whose received bytes are unread makes the kernel send a reset,
/// which can reach the client before it reads the ERROR. So once the writer
/// has flushed, the write side is half-closed (the client reads EOF after
/// the ERROR), and incoming bytes are discarded until EOF or one `tick`
/// passes.
fn close_after_error(mut stream: &TcpStream, tick: Duration) {
    if stream.shutdown(Shutdown::Write).is_err() {
        return;
    }
    let started = Instant::now();
    let mut scratch = [0u8; 4096];
    while started.elapsed() < tick {
        match stream.read(&mut scratch) {
            Ok(0) | Err(_) => return,
            Ok(_) => {}
        }
    }
}

/// One read pass of a connection's reader: every answer the reader gives,
/// encoded in order, plus the warm releases admitted in the pass, which are
/// served when it ends.
struct Pass<'s> {
    inner: &'s Inner,
    out: &'s WriteHalf,
    inflight: &'s AtomicUsize,
    answers: Vec<u8>,
    held: Vec<(u64, HeldRelease<'s>)>,
    /// Releases served in this pass whose answers are not yet written.
    served: usize,
}

impl<'s> Pass<'s> {
    fn new(inner: &'s Inner, out: &'s WriteHalf, inflight: &'s AtomicUsize) -> Self {
        Pass {
            inner,
            out,
            inflight,
            answers: Vec::with_capacity(16 * 1024),
            held: Vec::new(),
            served: 0,
        }
    }

    fn reply(&mut self, seq: u64, frame: Frame) -> Result<(), Stop> {
        write_frame(&mut self.answers, seq, frame, &self.inner.config);
        Ok(())
    }

    /// A protocol violation: answer typed, after every held release's
    /// answer, then close.
    fn violation(&mut self, seq: u64, code: ErrorCode, message: &str) -> Result<(), Stop> {
        self.serve();
        let _ = self.reply(
            seq,
            Frame::Error {
                code,
                message: message.to_string(),
            },
        );
        Err(Stop::Violation)
    }

    /// The release service refused a request whose pipeline slot was taken:
    /// give the slot back and answer typed. A closed service serves nothing
    /// more on this connection.
    fn refused(&mut self, seq: u64, error: ServiceError) -> Result<(), Stop> {
        self.inflight.fetch_sub(1, Ordering::SeqCst);
        let open = !matches!(error, ServiceError::ServiceClosed);
        self.reply(seq, service_error_frame(error, &self.inner.config))?;
        if open {
            Ok(())
        } else {
            Err(Stop::Close)
        }
    }

    /// Serves the held releases on this thread, in order, after the answers
    /// already given.
    fn serve(&mut self) {
        let (config, telemetry) = (&self.inner.config, self.inner.telemetry.as_ref());
        self.served += self.held.len();
        for (seq, held) in self.held.drain(..) {
            let (result, trace) = held.serve();
            write_release(&mut self.answers, seq, result, trace, config, telemetry);
        }
    }

    /// Ends the pass: serves its held releases, writes all its answers in
    /// one write, and only then gives the served releases' pipeline slots
    /// back.
    ///
    /// A reader that served releases then yields its CPU. A busy client
    /// keeps its reader's socket readable, so without the yield the reader
    /// runs until the scheduler preempts it, and when runnable threads
    /// outnumber the CPUs every other connection waits out that whole time
    /// slice (milliseconds) instead of one pass.
    fn end(&mut self) -> Result<(), Stop> {
        self.serve();
        if self.answers.is_empty() {
            return Ok(());
        }
        let written = {
            let mut out = self.out.lock().unwrap_or_else(PoisonError::into_inner);
            out.write_all(&self.answers).and_then(|()| out.flush())
        };
        if let Some(watch) = &self.inner.telemetry {
            watch.tx_bytes.add(self.answers.len() as u64);
        }
        self.answers.clear();
        let served = std::mem::take(&mut self.served);
        self.inflight.fetch_sub(served, Ordering::SeqCst);
        if served > 0 {
            std::thread::yield_now();
        }
        written.map_err(|_| Stop::Close)
    }
}

/// Decodes and dispatches frames until EOF, Goodbye, shutdown, idle
/// timeout, or a protocol error.
fn read_loop(
    inner: &Arc<Inner>,
    mut stream: &TcpStream,
    tx: &Sender<Outgoing>,
    inflight: &Arc<AtomicUsize>,
    out: &WriteHalf,
) -> Stop {
    let config = &inner.config;
    let mut buffer: Vec<u8> = Vec::with_capacity(16 * 1024);
    let mut scratch = [0u8; 16 * 1024];
    let mut tenant: Option<String> = None;
    let mut pass = Pass::new(inner, out, inflight);
    let mut last_activity = Instant::now();

    loop {
        // Decode every complete frame currently buffered, each from its
        // offset; the decoded prefix is drained once, before the next read,
        // so k pipelined frames do not shift the rest of the buffer k times.
        let mut start = 0;
        while start < buffer.len() {
            // Decode is timed only when telemetry is attached — the
            // uninstrumented reader never touches a clock. The frame's
            // trace starts with the decode and goes wherever the frame does.
            let decode_started = inner
                .telemetry
                .as_ref()
                .map(|watch| (watch, Instant::now()));
            match decode(&buffer[start..], config.max_frame_len) {
                Ok((envelope, consumed)) => {
                    let trace = decode_started.map(|(watch, started)| {
                        let mut trace = RequestTrace::started_at(envelope.seq, started);
                        watch.service.stages().lap(&mut trace, Stage::Decode);
                        trace
                    });
                    start += consumed;
                    // A QUERY runs inline, so the pass ends before it: no
                    // warm release waits behind a query.
                    if matches!(envelope.frame, Frame::Query { .. }) {
                        if let Err(stop) = pass.end() {
                            return stop;
                        }
                    }
                    // The writer answers cold releases and PROGRESSIVE
                    // refinements, so the HELLO_OK is written at once.
                    let hello = tenant.is_none();
                    let dispatched =
                        dispatch(inner, envelope, &mut tenant, tx, inflight, &mut pass, trace);
                    let ended = if hello || dispatched.is_err() {
                        pass.end()
                    } else {
                        Ok(())
                    };
                    if let Err(stop) = dispatched.and(ended) {
                        return stop;
                    }
                }
                // Only the length prefix reports `Truncated`: read more.
                Err(FrameError::Truncated { .. }) => break,
                Err(error) => {
                    // The stream cannot be resynchronised after a framing
                    // error; answer once, typed, and close.
                    let _ = pass.violation(0, ErrorCode::Malformed, &error.to_string());
                    let _ = pass.end();
                    return Stop::Violation;
                }
            }
        }
        buffer.drain(..start);
        if let Err(stop) = pass.end() {
            return stop;
        }

        match stream.read(&mut scratch) {
            Ok(0) => return Stop::Close,
            Ok(n) => {
                if let Some(watch) = &inner.telemetry {
                    watch.rx_bytes.add(n as u64);
                }
                buffer.extend_from_slice(&scratch[..n]);
                last_activity = Instant::now();
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                // The periodic tick: notice shutdown and idleness.
                if inner.shutdown.load(Ordering::SeqCst) {
                    let shutdown = Frame::Error {
                        code: ErrorCode::Shutdown,
                        message: "server shutting down".to_string(),
                    };
                    let _ = pass.reply(0, shutdown);
                    let _ = pass.end();
                    return Stop::Close;
                }
                if last_activity.elapsed() >= config.idle_timeout {
                    return Stop::Close;
                }
            }
            Err(_) => return Stop::Close,
        }
    }
}

/// Handles one decoded envelope, giving any answer it has now to `pass`.
/// Returns why the connection should close, if it should.
fn dispatch<'s>(
    inner: &'s Arc<Inner>,
    envelope: Envelope,
    tenant: &mut Option<String>,
    tx: &Sender<Outgoing>,
    inflight: &Arc<AtomicUsize>,
    pass: &mut Pass<'s>,
    trace: Option<RequestTrace>,
) -> Result<(), Stop> {
    let config = &inner.config;
    let seq = envelope.seq;

    let Some(tenant_name) = tenant.as_deref() else {
        // First frame must authenticate the tenant.
        return match envelope.frame {
            Frame::Hello { tenant: name } if name.len() <= MAX_TENANT_LEN => {
                *tenant = Some(name);
                pass.reply(
                    seq,
                    Frame::HelloOk {
                        max_pipeline: config.max_pipeline as u32,
                        max_frame_len: config.max_frame_len,
                    },
                )
            }
            Frame::Hello { .. } => pass.violation(
                seq,
                ErrorCode::Malformed,
                &format!("tenant longer than {MAX_TENANT_LEN} bytes"),
            ),
            _ => pass.violation(seq, ErrorCode::NotHello, "first frame must be HELLO"),
        };
    };

    match envelope.frame {
        Frame::Hello { .. } => pass.violation(seq, ErrorCode::Malformed, "duplicate HELLO"),
        Frame::Release {
            user,
            query,
            epsilon,
            seed,
            database,
        } => {
            if inflight.load(Ordering::SeqCst) >= config.max_pipeline {
                return pass.reply(
                    seq,
                    Frame::Busy {
                        retry_hint_ms: config.busy_retry_hint_ms,
                    },
                );
            }
            let built = match query.build() {
                Ok(built) => built,
                Err(error) => {
                    return pass.reply(
                        seq,
                        Frame::Error {
                            code: ErrorCode::Malformed,
                            message: error.to_string(),
                        },
                    );
                }
            };
            let request = ReleaseRequest {
                // The budget identity is the *authenticated* tenant plus the
                // per-frame user id: clients multiplex millions of users per
                // connection, but can never spend another tenant's budget.
                user: scoped_user(tenant_name, user),
                query: built,
                database: database.into_iter().map(usize::from).collect(),
                epsilon,
                seed,
            };
            // Counted before submission: a worker may finish a cold
            // release, and the writer count it out, before admission
            // returns. A warm one counts until its pass is written.
            inflight.fetch_add(1, Ordering::SeqCst);
            let reply_tx = tx.clone();
            let admitted =
                inner
                    .release
                    .try_submit_or_hold(request, trace, move |result, trace| {
                        let _ = reply_tx.send(Outgoing::Done(seq, result, trace));
                    });
            match admitted {
                Ok(None) => Ok(()),
                Ok(Some(held)) => {
                    pass.held.push((seq, held));
                    Ok(())
                }
                Err(error) => pass.refused(seq, error),
            }
        }
        Frame::Query {
            user,
            table,
            statement,
            seed,
        } => {
            let Some(endpoint) = &inner.query else {
                return pass.reply(
                    seq,
                    Frame::Error {
                        code: ErrorCode::Unsupported,
                        message: "this server has no query endpoint".to_string(),
                    },
                );
            };
            let Some(table) = endpoint.tables.get(&table) else {
                return pass.reply(
                    seq,
                    Frame::Error {
                        code: ErrorCode::TableNotFound,
                        message: format!("no table named {table:?}"),
                    },
                );
            };
            let user = scoped_user(tenant_name, user);
            match endpoint.service.query(&user, &statement, table, seed) {
                Ok(result) => pass.reply(seq, Frame::QueryOk(wire_result(&result))),
                Err(error) => pass.reply(seq, query_error_frame(error, config)),
            }
        }
        Frame::Progressive {
            user,
            confidence,
            seed,
            steps,
            database,
        } => {
            if inner.progressive.is_none() {
                return pass.reply(
                    seq,
                    Frame::Error {
                        code: ErrorCode::Unsupported,
                        message: "this server has no progressive endpoint".to_string(),
                    },
                );
            }
            if inflight.load(Ordering::SeqCst) >= config.max_pipeline {
                return pass.reply(
                    seq,
                    Frame::Busy {
                        retry_hint_ms: config.busy_retry_hint_ms,
                    },
                );
            }
            // Re-validate the schedule server-side: the wire carries claims,
            // the schedule invariants are what admission trusts.
            let steps = steps
                .into_iter()
                .map(|step| RefinementStep {
                    prefix: step.prefix as usize,
                    epsilon: step.epsilon,
                    error_bound: step.error_bound,
                })
                .collect();
            let schedule = match RefinementSchedule::new(steps, confidence) {
                Ok(schedule) => schedule,
                Err(error) => {
                    return pass.reply(
                        seq,
                        Frame::Error {
                            code: ErrorCode::Malformed,
                            message: error.to_string(),
                        },
                    );
                }
            };
            if database.len() != schedule.window() {
                return pass.reply(
                    seq,
                    Frame::Error {
                        code: ErrorCode::Malformed,
                        message: format!(
                            "progressive database has {} events but the schedule's window is {}",
                            database.len(),
                            schedule.window()
                        ),
                    },
                );
            }
            let request = ProgressiveRequest {
                seq,
                user: scoped_user(tenant_name, user),
                schedule,
                seed,
                database: database.into_iter().map(usize::from).collect(),
                trace,
            };
            // The request runs as a task on the release workers, admitted
            // through the same bounded queue as RELEASE; its refinement
            // stream interleaves with the connection's other pipelined
            // traffic. The task holds a writer-channel clone, so the writer
            // drains every step before the connection closes.
            inflight.fetch_add(1, Ordering::SeqCst);
            let (task_inner, task_tx, task_inflight) =
                (Arc::clone(inner), tx.clone(), Arc::clone(inflight));
            inner
                .release
                .try_spawn(move || {
                    let _slot = PipelineSlot {
                        tx: &task_tx,
                        inflight: &task_inflight,
                        seq,
                    };
                    run_progressive(&task_inner, &task_tx, request);
                })
                .or_else(|error| pass.refused(seq, error))
        }
        Frame::Stats => pass.reply(seq, Frame::StatsOk(inner.stats())),
        Frame::Metrics => match &inner.telemetry {
            Some(watch) => pass.reply(
                seq,
                Frame::MetricsOk(wire_metrics(watch.service.registry())),
            ),
            None => pass.reply(
                seq,
                Frame::Error {
                    code: ErrorCode::Unsupported,
                    message: "this server has no telemetry attached".to_string(),
                },
            ),
        },
        Frame::Goodbye => Err(Stop::Close),
        // Response kinds arriving at the server are a protocol violation.
        _ => pass.violation(seq, ErrorCode::Malformed, "response frame sent to server"),
    }
}

/// The budget identity a frame is charged to: `tenant#user-id-in-hex`.
fn scoped_user(tenant: &str, user: u64) -> String {
    format!("{tenant}#{user:x}")
}

/// The response frame for a serving-layer error, on every endpoint: BUDGET
/// for an exhausted budget, BUSY for a full admission queue, and otherwise
/// a typed ERROR. The caller decides whether the connection closes.
fn service_error_frame(error: ServiceError, config: &NetServerConfig) -> Frame {
    let code = match error {
        ServiceError::BudgetExhausted {
            requested,
            remaining,
            ..
        } => {
            return Frame::BudgetExhausted {
                requested,
                remaining,
            }
        }
        ServiceError::QueueFull { .. } => {
            return Frame::Busy {
                retry_hint_ms: config.busy_retry_hint_ms,
            }
        }
        ServiceError::ServiceClosed => ErrorCode::Shutdown,
        ServiceError::InvalidConfig(_) => ErrorCode::Malformed,
        ServiceError::Mechanism(_) => ErrorCode::Mechanism,
        _ => ErrorCode::Internal,
    };
    Frame::Error {
        code,
        message: error.to_string(),
    }
}

/// One PROGRESSIVE request as dispatch validated it: the parts its task on
/// the release workers drives.
struct ProgressiveRequest {
    seq: u64,
    /// The budget identity, `tenant#user`.
    user: String,
    schedule: RefinementSchedule,
    seed: u64,
    database: Vec<usize>,
    trace: Option<RequestTrace>,
}

/// A running PROGRESSIVE task's pipeline slot on its connection, given
/// back when the task ends. A task that unwinds first answers its seq with
/// a typed `Internal` error, so a panicking driver neither leaks the slot
/// nor leaves the client waiting. The running task creates the guard, so a
/// task the queue refused is dropped without a word.
struct PipelineSlot<'a> {
    tx: &'a Sender<Outgoing>,
    inflight: &'a AtomicUsize,
    seq: u64,
}

impl Drop for PipelineSlot<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            let _ = self.tx.send(Outgoing::Progressive(
                self.seq,
                Frame::Error {
                    code: ErrorCode::Internal,
                    message: "the progressive release failed internally".to_string(),
                },
            ));
        }
        self.inflight.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Drives one PROGRESSIVE request to completion, as a task on a release
/// worker: admits the whole schedule against the shared accountant, replays
/// the window through the driver, and ships each refinement as a
/// seq-correlated [`Frame::RefineOk`] the moment it is ready. A cold
/// `(prefix, ε)` step calibrates right here, on the worker, like a cold
/// RELEASE. Every early return (budget refusal, mechanism failure, dead
/// writer) drops the driver, whose guard refunds the unconsumed steps.
fn run_progressive(inner: &Inner, tx: &Sender<Outgoing>, request: ProgressiveRequest) {
    let endpoint = inner
        .progressive
        .as_ref()
        .expect("dispatch checked the endpoint exists");
    let seq = request.seq;
    let send_now = |frame: Frame| tx.send(Outgoing::Progressive(seq, frame)).is_ok();
    let error_frame = |error: ServiceError| service_error_frame(error, &inner.config);

    // The trace restarts as the task starts: queueing is in no stage.
    let mut traced = request.trace.zip(inner.telemetry.as_ref());
    if let Some((trace, _)) = traced.as_mut() {
        trace.restart();
    }
    let mut driver = match ProgressiveRelease::begin_with(
        "net-progressive",
        &endpoint.class,
        request.schedule,
        endpoint.backend,
        Arc::clone(&endpoint.engine),
        inner.release.budget(),
        &request.user,
        request.seed,
    ) {
        Ok(driver) => driver,
        Err(error) => {
            send_now(error_frame(error));
            return;
        }
    };
    for &event in &request.database {
        match driver.push(event) {
            Ok(None) => {}
            Ok(Some(update)) => {
                let delivered = send_now(Frame::RefineOk {
                    step: update.step as u32,
                    total_steps: update.total_steps as u32,
                    prefix: update.prefix as u32,
                    scale: update.release.scale,
                    epsilon: update.epsilon,
                    certified_error: update.certified_error,
                    spent_epsilon: update.spent_epsilon,
                    values: update.release.values,
                });
                if !delivered {
                    // The connection is gone; the driver's drop guard
                    // refunds whatever the schedule had not yet consumed.
                    return;
                }
            }
            Err(error) => {
                send_now(error_frame(error));
                return;
            }
        }
    }
    if let Some((mut trace, watch)) = traced {
        finish_trace(&mut trace, Stage::Progressive, watch);
    }
}

/// Laps the request's last stage and offers the finished trace to the
/// flight recorder, when one is attached.
fn finish_trace(trace: &mut RequestTrace, stage: Stage, watch: &NetTelemetry) {
    watch.service.stages().lap(trace, stage);
    if let Some(recorder) = watch.service.recorder() {
        recorder.observe(trace);
    }
}

fn wire_result(result: &QueryResult) -> WireQueryResult {
    WireQueryResult {
        mechanism: result.mechanism().to_string(),
        noise_scale: result.noise_scale(),
        total_epsilon: result.total_epsilon(),
        cells: result
            .cells()
            .iter()
            .map(|cell| WireCell {
                key: cell.key().to_string(),
                windows: cell
                    .window_ends()
                    .iter()
                    .zip(cell.releases())
                    .map(|(&end, release)| WireWindow {
                        end: u32::try_from(end).unwrap_or(u32::MAX),
                        // The wire is the trust boundary: only the noisy
                        // values ever leave the process.
                        values: release.values.clone(),
                    })
                    .collect(),
            })
            .collect(),
    }
}

/// Reduces a registry snapshot to its wire form, one [`WireMetric`] per
/// registered metric in name order.
fn wire_metrics(registry: &Registry) -> Vec<WireMetric> {
    registry
        .snapshot()
        .into_iter()
        .map(|sample| WireMetric {
            name: sample.name,
            value: match sample.value {
                MetricValue::Counter(v) => WireMetricValue::Counter(v),
                MetricValue::Gauge(v) => WireMetricValue::Gauge(v),
                MetricValue::Histogram(h) => WireMetricValue::Histogram {
                    count: h.count,
                    max: h.max,
                    mean: h.mean,
                    p50: h.p50,
                    p99: h.p99,
                    p999: h.p999,
                },
            },
        })
        .collect()
}

fn query_error_frame(error: QueryError, config: &NetServerConfig) -> Frame {
    match error {
        QueryError::Budget(error) => service_error_frame(error, config),
        QueryError::Parse { .. } => Frame::Error {
            code: ErrorCode::Parse,
            message: error.to_string(),
        },
        QueryError::Mechanism(_) => Frame::Error {
            code: ErrorCode::Mechanism,
            message: error.to_string(),
        },
        // Plan, NoEligibleMechanism, UnknownMechanism: the statement is
        // valid but this server cannot serve it.
        _ => Frame::Error {
            code: ErrorCode::Unsupported,
            message: error.to_string(),
        },
    }
}

/// Writes responses in the order they arrive: block for one, then write it
/// and everything else already queued under one hold of the write half,
/// and flush once. Once the reader stops, the writer keeps going until
/// every sender is gone or `drain_timeout` passes, whichever comes first.
fn writer_loop(
    out: &WriteHalf,
    rx: Receiver<Outgoing>,
    inflight: &AtomicUsize,
    config: &NetServerConfig,
    telemetry: Option<&NetTelemetry>,
) {
    let mut drain_deadline: Option<Instant> = None;
    loop {
        let next = match drain_deadline {
            None => rx.recv().ok(),
            Some(deadline) => rx
                .recv_timeout(deadline.saturating_duration_since(Instant::now()))
                .ok(),
        };
        let Some(first) = next else { break };
        let mut out = out.lock().unwrap_or_else(PoisonError::into_inner);
        for outgoing in std::iter::once(first).chain(rx.try_iter()) {
            let written = match outgoing {
                Outgoing::Progressive(seq, frame) => write_frame(&mut *out, seq, frame, config),
                Outgoing::Done(seq, result, mut trace) => {
                    inflight.fetch_sub(1, Ordering::SeqCst);
                    // The trace restarts as the writer takes it: the hop
                    // from the worker is in no stage.
                    if let Some(trace) = trace.as_mut() {
                        trace.restart();
                    }
                    write_release(&mut *out, seq, result, trace, config, telemetry)
                }
                Outgoing::ReaderStopped => {
                    drain_deadline = Some(Instant::now() + config.drain_timeout);
                    continue;
                }
            };
            let Some(written) = written else { return };
            if let Some(watch) = telemetry {
                watch.tx_bytes.add(written as u64);
            }
        }
        if out.flush().is_err() {
            return;
        }
    }
    let _ = out.lock().unwrap_or_else(PoisonError::into_inner).flush();
}

/// Writes one finished release as its response frame. Encode plus the
/// buffered write is the request trace's final stage; the finished trace
/// then goes to the flight recorder.
fn write_release(
    out: &mut impl Write,
    seq: u64,
    result: Result<NoisyRelease, ServiceError>,
    trace: Option<RequestTrace>,
    config: &NetServerConfig,
    telemetry: Option<&NetTelemetry>,
) -> Option<usize> {
    let frame = match result {
        Ok(release) => Frame::ReleaseOk {
            scale: release.scale,
            values: release.values,
        },
        Err(error) => service_error_frame(error, config),
    };
    let written = write_frame(out, seq, frame, config)?;
    if let Some((mut trace, watch)) = trace.zip(telemetry) {
        finish_trace(&mut trace, Stage::Encode, watch);
    }
    Some(written)
}

/// Encodes and writes one response frame, returning the bytes written
/// (`None` when the socket is dead and the connection should close).
fn write_frame(
    out: &mut impl Write,
    seq: u64,
    frame: Frame,
    config: &NetServerConfig,
) -> Option<usize> {
    let envelope = Envelope { seq, frame };
    match encode(&envelope, config.max_frame_len) {
        Ok(bytes) => out.write_all(&bytes).ok().map(|()| bytes.len()),
        // An unencodable response (a release larger than max_frame_len)
        // still must answer the sequence number, or the client hangs.
        Err(error) => {
            let fallback = Envelope {
                seq,
                frame: Frame::Error {
                    code: ErrorCode::Internal,
                    message: format!("response unencodable: {error}"),
                },
            };
            match encode(&fallback, config.max_frame_len) {
                Ok(bytes) => out.write_all(&bytes).ok().map(|()| bytes.len()),
                Err(_) => None,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_pipeline_slot_comes_back_and_only_an_unwinding_task_answers() {
        let (tx, rx) = std::sync::mpsc::channel();
        let inflight = AtomicUsize::new(2);
        drop(PipelineSlot {
            tx: &tx,
            inflight: &inflight,
            seq: 7,
        });
        assert_eq!(inflight.load(Ordering::SeqCst), 1);
        assert!(rx.try_recv().is_err(), "a task that ends answers nothing");

        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _slot = PipelineSlot {
                tx: &tx,
                inflight: &inflight,
                seq: 9,
            };
            panic!("driver bug");
        }));
        assert!(unwound.is_err());
        assert_eq!(inflight.load(Ordering::SeqCst), 0);
        assert!(matches!(
            rx.try_recv(),
            Ok(Outgoing::Progressive(
                9,
                Frame::Error {
                    code: ErrorCode::Internal,
                    ..
                }
            ))
        ));
        assert!(rx.try_recv().is_err(), "the seq is answered once");
    }
}
