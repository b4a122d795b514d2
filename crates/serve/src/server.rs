//! The evented verdict server: N fixed worker threads running
//! nonblocking readiness loops over connection state machines.
//!
//! ## Shape
//!
//! * One **acceptor** thread owns a nonblocking listener and polls it
//!   with a shutdown check — stopping never needs a wake-up connection.
//!   Accepted sockets are handed round-robin to workers through a
//!   per-worker inbox plus a `UnixStream` wake pair, so a sleeping
//!   worker picks the connection up immediately.
//! * Each **worker** owns its connections outright (no cross-worker
//!   locking on the request path) and loops: `poll(2)` → read until
//!   `WouldBlock` → parse frames/lines → execute → flush. Single
//!   `CHECK`s parsed in one pass are **microbatched** into a single
//!   [`UrlChecker::try_check_many`] call; a `CHECKN` frame is its own
//!   batch. Either way the index is snapshotted once per batch.
//!
//! ## Admission control
//!
//! Backpressure and shedding are explicit, never unbounded queues:
//!
//! * **Per-connection write buffers are bounded** — when a client stops
//!   reading replies, the server stops reading its requests (the bytes
//!   stay in the kernel socket buffer and TCP pushes back).
//! * **A global in-flight URL budget** caps the work admitted across all
//!   workers. A batch that cannot acquire budget is answered `BUSY`
//!   (line) / busy frame (binary) immediately — shed, not queued.
//! * Read buffers are bounded by the maximum frame size; a connection
//!   that exceeds it without a parseable request is a protocol error.
//!
//! Everything is surfaced through `freephish-obs` as `serve_*` metrics:
//! queue depth (`serve_inflight_urls`), batch size, shed count, and
//! service-time quantiles, scrapeable in-process or over the wire via
//! `STATS`.

use crate::ops::{OpsConfig, Readiness};
use crate::proto::{
    self, decode_bin_request, decode_request, encode_bin_reply, encode_verdict, BinReply,
    BinRequest, Request, FRAME_HEADER, HANDSHAKE_OK, MAX_FRAME_PAYLOAD,
};
use crate::sys::{poll_fds, PollFd, POLLERR, POLLHUP, POLLIN, POLLNVAL, POLLOUT};
use crate::verdict::{UrlChecker, Verdict};
use bytes::BytesMut;
use freephish_obs::sync::lock;
use freephish_obs::{
    trace, Counter, Gauge, Histogram, MetricKey, MetricsSnapshot, Registry, Stopwatch, TraceStore,
    WindowedHistogram,
};
use serde_json::json;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning for the evented engine.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Port to bind on 127.0.0.1 (0 = ephemeral).
    pub port: u16,
    /// Fixed worker thread count.
    pub workers: usize,
    /// Global budget of URLs being checked concurrently; batches beyond
    /// it are shed with `BUSY`.
    pub max_inflight_urls: usize,
    /// Per-connection write buffer cap; past it the server stops reading
    /// that connection's requests until replies drain.
    pub write_buf_cap: usize,
    /// Poll timeout, which bounds shutdown latency.
    pub poll_interval: Duration,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            port: 0,
            workers: std::thread::available_parallelism()
                .map_or(2, |n| n.get())
                .clamp(2, 4),
            max_inflight_urls: 4096,
            write_buf_cap: 256 * 1024,
            poll_interval: Duration::from_millis(100),
        }
    }
}

/// Largest request the server will buffer before calling the connection
/// unparseable: one maximal frame.
const READ_BUF_CAP: usize = FRAME_HEADER + MAX_FRAME_PAYLOAD;
/// Read chunk size per `read(2)`.
const READ_CHUNK: usize = 16 * 1024;

// ---------------------------------------------------------------------------
// Metrics + budget
// ---------------------------------------------------------------------------

struct ServeMetrics {
    registry: Registry,
    connections_accepted: Arc<Counter>,
    connections_active: Arc<Gauge>,
    requests_check: Arc<Counter>,
    requests_checkn: Arc<Counter>,
    requests_add: Arc<Counter>,
    requests_stats: Arc<Counter>,
    urls_checked: Arc<Counter>,
    verdicts_phishing: Arc<Counter>,
    verdicts_safe: Arc<Counter>,
    shed_total: Arc<Counter>,
    protocol_errors: Arc<Counter>,
    io_errors: Arc<Counter>,
    inflight_urls: Arc<Gauge>,
    generation: Arc<Gauge>,
    batch_size: Arc<Histogram>,
    service_seconds: Arc<Histogram>,
    /// Rolling end-to-end latency (read → reply enqueued) per command,
    /// feeding the `serve_window_latency_us{cmd,q}` SLO gauges.
    window_check: WindowedHistogram,
    window_checkn: WindowedHistogram,
    window_add: WindowedHistogram,
}

/// Rolling SLO horizon: eight one-second windows ≈ the last 8 seconds.
const SLO_WINDOWS: usize = 8;
const SLO_WINDOW_WIDTH: Duration = Duration::from_secs(1);

impl ServeMetrics {
    fn new() -> ServeMetrics {
        let registry = Registry::new();
        ServeMetrics {
            connections_accepted: registry.counter("serve_connections_accepted_total", &[]),
            connections_active: registry.gauge("serve_connections_active", &[]),
            requests_check: registry.counter("serve_requests_total", &[("kind", "check")]),
            requests_checkn: registry.counter("serve_requests_total", &[("kind", "checkn")]),
            requests_add: registry.counter("serve_requests_total", &[("kind", "add")]),
            requests_stats: registry.counter("serve_requests_total", &[("kind", "stats")]),
            urls_checked: registry.counter("serve_urls_checked_total", &[]),
            verdicts_phishing: registry.counter("serve_verdicts_total", &[("kind", "phishing")]),
            verdicts_safe: registry.counter("serve_verdicts_total", &[("kind", "safe")]),
            shed_total: registry.counter("serve_shed_total", &[]),
            protocol_errors: registry.counter("serve_protocol_errors_total", &[]),
            io_errors: registry.counter("serve_io_errors_total", &[]),
            inflight_urls: registry.gauge("serve_inflight_urls", &[]),
            generation: registry.gauge("serve_generation", &[]),
            batch_size: registry.histogram("serve_batch_size", &[]),
            service_seconds: registry.histogram("serve_service_seconds", &[]),
            window_check: WindowedHistogram::wall(SLO_WINDOWS, SLO_WINDOW_WIDTH),
            window_checkn: WindowedHistogram::wall(SLO_WINDOWS, SLO_WINDOW_WIDTH),
            window_add: WindowedHistogram::wall(SLO_WINDOWS, SLO_WINDOW_WIDTH),
            registry,
        }
    }

    fn count_verdict(&self, v: &Verdict) {
        match v {
            Verdict::Phishing(_) => self.verdicts_phishing.inc(),
            Verdict::Safe(_) => self.verdicts_safe.inc(),
        }
    }

    /// Inject the rolling windowed quantiles as integer-microsecond
    /// gauges. Gauges — not histograms — because the value is "quantile
    /// over the last N windows", which a cumulative histogram cannot say.
    fn window_gauges_into(&self, snap: &mut MetricsSnapshot) {
        for (cmd, w) in [
            ("check", &self.window_check),
            ("checkn", &self.window_checkn),
            ("add", &self.window_add),
        ] {
            for (q, qname) in [(0.5, "p50"), (0.99, "p99"), (0.999, "p999")] {
                if let Some(v) = w.quantile(q) {
                    snap.gauges.insert(
                        MetricKey::new("serve_window_latency_us", &[("cmd", cmd), ("q", qname)]),
                        (v * 1e6) as i64,
                    );
                }
            }
        }
    }
}

/// The global in-flight URL budget. Acquire before a batch executes,
/// release after its replies are enqueued; acquisition failure is the
/// shed signal.
struct Budget {
    remaining: AtomicI64,
    cap: i64,
    inflight: Arc<Gauge>,
}

impl Budget {
    fn new(cap: usize, inflight: Arc<Gauge>) -> Budget {
        Budget {
            remaining: AtomicI64::new(cap as i64),
            cap: cap as i64,
            inflight,
        }
    }

    fn try_acquire(&self, n: usize) -> bool {
        let n = n as i64;
        let prev = self.remaining.fetch_sub(n, Ordering::SeqCst);
        if prev < n {
            self.remaining.fetch_add(n, Ordering::SeqCst);
            return false;
        }
        self.inflight.set(self.cap - (prev - n));
        true
    }

    fn release(&self, n: usize) {
        let now = self.remaining.fetch_add(n as i64, Ordering::SeqCst) + n as i64;
        self.inflight.set(self.cap - now);
    }
}

/// State shared by the acceptor and every worker.
struct Shared {
    cfg: ServeConfig,
    checker: Arc<dyn UrlChecker>,
    metrics: ServeMetrics,
    budget: Budget,
    traces: Arc<TraceStore>,
    shutdown: AtomicBool,
    inboxes: Vec<Mutex<Vec<TcpStream>>>,
    wakes: Vec<Mutex<UnixStream>>,
}

impl Shared {
    /// The one observable snapshot every transport serves: the registry,
    /// plus windowed SLO gauges, trace retention counters, and event-log
    /// drop accounting. `STATS` (in-band) and the ops plane (HTTP) both
    /// call this, so they can never drift apart.
    fn observable_snapshot(&self) -> MetricsSnapshot {
        self.metrics
            .generation
            .set(self.checker.generation() as i64);
        let mut snap = self.metrics.registry.snapshot();
        self.metrics.window_gauges_into(&mut snap);
        self.traces.counters_into(&mut snap);
        freephish_obs::global_events().export_into(&mut snap);
        snap
    }

    fn stats_json(&self) -> String {
        let json = freephish_obs::to_json(&self.observable_snapshot());
        serde_json::to_string(&json).expect("metrics snapshot serializes")
    }
}

// ---------------------------------------------------------------------------
// Connection state machine
// ---------------------------------------------------------------------------

/// Which protocol a parsed request arrived in, so its reply matches.
#[derive(Clone, Copy)]
enum ReplyMode {
    Line,
    Bin,
}

struct Conn {
    stream: TcpStream,
    read_buf: BytesMut,
    write_buf: BytesMut,
    /// When this round's socket reads started and how long they took —
    /// consumed as the trace clock + `accept` span of the next batch.
    batch_start: Option<(Instant, f64)>,
    /// Peer half-closed; finish flushing then drop.
    read_eof: bool,
    /// Flush remaining replies, then drop.
    closing: bool,
    /// Unrecoverable; drop immediately.
    dead: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            read_buf: BytesMut::with_capacity(4 * 1024),
            write_buf: BytesMut::with_capacity(4 * 1024),
            batch_start: None,
            read_eof: false,
            closing: false,
            dead: false,
        }
    }

    fn wants_read(&self, cfg: &ServeConfig) -> bool {
        !self.dead
            && !self.closing
            && !self.read_eof
            && self.write_buf.len() < cfg.write_buf_cap
            && self.read_buf.len() < READ_BUF_CAP
    }

    /// Read until `WouldBlock`, EOF, or the buffer cap.
    fn fill(&mut self, chunk: &mut [u8], metrics: &ServeMetrics) {
        let t0 = Instant::now();
        let mut got = false;
        while self.read_buf.len() < READ_BUF_CAP {
            match self.stream.read(chunk) {
                Ok(0) => {
                    self.read_eof = true;
                    break;
                }
                Ok(n) => {
                    self.read_buf.extend_from_slice(&chunk[..n]);
                    got = true;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    metrics.io_errors.inc();
                    self.dead = true;
                    break;
                }
            }
        }
        if got && self.batch_start.is_none() {
            self.batch_start = Some((t0, t0.elapsed().as_secs_f64()));
        }
    }

    fn push_bytes(&mut self, bytes: &[u8]) {
        self.write_buf.extend_from_slice(bytes);
    }

    fn push_reply(&mut self, reply: &BinReply) {
        encode_bin_reply(&mut self.write_buf, reply);
    }

    /// Write until `WouldBlock` or the buffer empties.
    fn flush(&mut self, metrics: &ServeMetrics) {
        while !self.write_buf.is_empty() {
            match self.stream.write(&self.write_buf) {
                Ok(0) => {
                    self.dead = true;
                    return;
                }
                Ok(n) => {
                    let _ = self.write_buf.split_to(n);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    metrics.io_errors.inc();
                    self.dead = true;
                    return;
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Request execution
// ---------------------------------------------------------------------------

/// Per-round timing handed to each executed batch: the trace clock start
/// (when this round's bytes were read), the socket-read duration, and a
/// running decode clock that segments parse time per executed request.
struct BatchClock {
    read_at: Instant,
    accept_secs: f64,
    seg: Instant,
}

impl BatchClock {
    fn consume(conn: &mut Conn) -> BatchClock {
        let (read_at, accept_secs) = conn
            .batch_start
            .take()
            .unwrap_or_else(|| (Instant::now(), 0.0));
        BatchClock {
            read_at,
            accept_secs,
            seg: Instant::now(),
        }
    }

    /// Close the current decode segment and start the next.
    fn decode_secs(&mut self) -> f64 {
        let d = self.seg.elapsed().as_secs_f64();
        self.seg = Instant::now();
        d
    }
}

/// Execute a microbatch of single CHECKs (line and/or binary) against one
/// index snapshot, or shed the whole batch with BUSY.
fn exec_checks(
    conn: &mut Conn,
    s: &Shared,
    pending: &mut Vec<(String, ReplyMode)>,
    clock: &mut BatchClock,
) {
    if pending.is_empty() {
        return;
    }
    let n = pending.len();
    s.metrics.requests_check.add(n as u64);
    s.metrics.batch_size.record(n as f64);
    if !s.budget.try_acquire(n) {
        s.metrics.shed_total.add(n as u64);
        for (_, mode) in pending.drain(..) {
            match mode {
                ReplyMode::Line => conn.push_bytes(b"BUSY\n"),
                ReplyMode::Bin => conn.push_reply(&BinReply::Busy),
            }
        }
        return;
    }
    trace::begin("check", n as u32, clock.read_at);
    trace::span_record("accept", clock.accept_secs);
    trace::span_record("decode", clock.decode_secs());
    let (urls, modes): (Vec<String>, Vec<ReplyMode>) = pending.drain(..).unzip();
    let watch = Stopwatch::start();
    let results = trace::span("lookup", || s.checker.try_check_many(&urls));
    watch.record(&s.metrics.service_seconds);
    s.budget.release(n);
    s.metrics.urls_checked.add(n as u64);
    trace::span("respond", || {
        for (result, mode) in results.into_iter().zip(modes) {
            match (result.inspect(|v| s.metrics.count_verdict(v)), mode) {
                (Ok(v), ReplyMode::Line) => conn.push_bytes(encode_verdict(&v).as_bytes()),
                (Ok(v), ReplyMode::Bin) => conn.push_reply(&BinReply::Verdict(v)),
                (Err(msg), ReplyMode::Line) => conn.push_bytes(format!("ERROR {msg}\n").as_bytes()),
                (Err(msg), ReplyMode::Bin) => conn.push_reply(&BinReply::Error(msg)),
            }
        }
    });
    s.metrics
        .window_check
        .record(clock.read_at.elapsed().as_secs_f64());
    trace::finish(&s.traces);
}

/// Execute one CHECKN frame as its own batch.
fn exec_checkn(conn: &mut Conn, s: &Shared, urls: Vec<String>, clock: &mut BatchClock) {
    let n = urls.len();
    s.metrics.requests_checkn.inc();
    s.metrics.batch_size.record(n as f64);
    if !s.budget.try_acquire(n) {
        s.metrics.shed_total.add(n as u64);
        conn.push_reply(&BinReply::Busy);
        return;
    }
    trace::begin("checkn", n as u32, clock.read_at);
    trace::span_record("accept", clock.accept_secs);
    trace::span_record("decode", clock.decode_secs());
    let watch = Stopwatch::start();
    let results = trace::span("lookup", || s.checker.try_check_many(&urls));
    watch.record(&s.metrics.service_seconds);
    s.budget.release(n);
    s.metrics.urls_checked.add(n as u64);
    trace::span("respond", || {
        // One frame answers the whole batch, so one failed URL fails it.
        match results
            .into_iter()
            .collect::<Result<Vec<Verdict>, String>>()
        {
            Ok(verdicts) => {
                verdicts.iter().for_each(|v| s.metrics.count_verdict(v));
                conn.push_reply(&BinReply::VerdictN(verdicts));
            }
            Err(msg) => conn.push_reply(&BinReply::Error(msg)),
        }
    });
    s.metrics
        .window_checkn
        .record(clock.read_at.elapsed().as_secs_f64());
    trace::finish(&s.traces);
}

fn exec_add(
    conn: &mut Conn,
    s: &Shared,
    url: &str,
    score: f64,
    mode: ReplyMode,
    clock: &mut BatchClock,
) {
    s.metrics.requests_add.inc();
    trace::begin("add", 1, clock.read_at);
    trace::span_record("accept", clock.accept_secs);
    trace::span_record("decode", clock.decode_secs());
    let result = trace::span("apply", || s.checker.add(url, score));
    trace::span("respond", || match result {
        Ok(generation) => match mode {
            ReplyMode::Line => conn.push_bytes(format!("OK {generation}\n").as_bytes()),
            ReplyMode::Bin => conn.push_reply(&BinReply::Ok(generation)),
        },
        Err(msg) => {
            s.metrics.protocol_errors.inc();
            match mode {
                ReplyMode::Line => conn.push_bytes(format!("ERROR {msg}\n").as_bytes()),
                ReplyMode::Bin => conn.push_reply(&BinReply::Error(msg)),
            }
        }
    });
    s.metrics
        .window_add
        .record(clock.read_at.elapsed().as_secs_f64());
    trace::finish(&s.traces);
}

fn exec_stats(conn: &mut Conn, s: &Shared, mode: ReplyMode) {
    s.metrics.requests_stats.inc();
    let json = s.stats_json();
    match mode {
        ReplyMode::Line => conn.push_bytes(format!("STATS {json}\n").as_bytes()),
        ReplyMode::Bin => conn.push_reply(&BinReply::Stats(json)),
    }
}

/// Parse everything parseable off the connection's read buffer and
/// execute it, microbatching runs of single CHECKs. Stops early when the
/// write buffer hits its cap (backpressure).
fn parse_and_execute(conn: &mut Conn, s: &Shared) {
    if conn.dead {
        return;
    }
    let mut clock = BatchClock::consume(conn);
    let mut pending: Vec<(String, ReplyMode)> = Vec::new();
    loop {
        if conn.closing || conn.write_buf.len() >= s.cfg.write_buf_cap || conn.read_buf.is_empty() {
            break;
        }
        if conn.read_buf[0] == proto::MAGIC {
            match decode_bin_request(&mut conn.read_buf) {
                Ok(None) => break,
                Ok(Some(BinRequest::Check(url))) => pending.push((url, ReplyMode::Bin)),
                Ok(Some(BinRequest::CheckN(urls))) => {
                    exec_checks(conn, s, &mut pending, &mut clock);
                    exec_checkn(conn, s, urls, &mut clock);
                }
                Ok(Some(BinRequest::Add(url, score))) => {
                    exec_checks(conn, s, &mut pending, &mut clock);
                    exec_add(conn, s, &url, score, ReplyMode::Bin, &mut clock);
                }
                Ok(Some(BinRequest::Stats)) => {
                    exec_checks(conn, s, &mut pending, &mut clock);
                    exec_stats(conn, s, ReplyMode::Bin);
                }
                Err(msg) => {
                    // Framing is byte-precise: a bad frame poisons the
                    // stream, so reply and close.
                    s.metrics.protocol_errors.inc();
                    exec_checks(conn, s, &mut pending, &mut clock);
                    conn.push_reply(&BinReply::Error(msg));
                    conn.closing = true;
                    break;
                }
            }
        } else {
            match decode_request(&mut conn.read_buf) {
                Ok(None) => break,
                Ok(Some(Request::Check(url))) => pending.push((url, ReplyMode::Line)),
                Ok(Some(Request::Add(url, score))) => {
                    exec_checks(conn, s, &mut pending, &mut clock);
                    exec_add(conn, s, &url, score, ReplyMode::Line, &mut clock);
                }
                Ok(Some(Request::Stats)) => {
                    exec_checks(conn, s, &mut pending, &mut clock);
                    exec_stats(conn, s, ReplyMode::Line);
                }
                Ok(Some(Request::Binary)) => {
                    exec_checks(conn, s, &mut pending, &mut clock);
                    conn.push_bytes(format!("{HANDSHAKE_OK}\n").as_bytes());
                }
                Err(msg) => {
                    // Line errors are recoverable: reply and keep going.
                    s.metrics.protocol_errors.inc();
                    exec_checks(conn, s, &mut pending, &mut clock);
                    conn.push_bytes(format!("ERROR {msg}\n").as_bytes());
                }
            }
        }
    }
    exec_checks(conn, s, &mut pending, &mut clock);
    // A connection at the read cap with nothing parseable (and no write
    // backpressure excusing it) can never make progress: protocol error.
    if !conn.closing
        && conn.read_buf.len() >= READ_BUF_CAP
        && conn.write_buf.len() < s.cfg.write_buf_cap
    {
        s.metrics.protocol_errors.inc();
        conn.push_bytes(b"ERROR request exceeds maximum size\n");
        conn.closing = true;
    }
    if conn.read_eof && conn.read_buf.is_empty() {
        conn.closing = true;
    }
}

// ---------------------------------------------------------------------------
// Worker + acceptor loops
// ---------------------------------------------------------------------------

/// How often the per-worker utilization gauge is refreshed.
const UTIL_FLUSH: Duration = Duration::from_millis(500);

fn worker_loop(s: Arc<Shared>, wake: UnixStream, wid: usize) {
    let _ = wake.set_nonblocking(true);
    let mut conns: Vec<Conn> = Vec::new();
    let mut chunk = vec![0u8; READ_CHUNK];
    let timeout = s.cfg.poll_interval.as_millis() as i32;
    // Busy/idle accounting: time blocked in poll(2) is idle, everything
    // else is busy. Published in basis points (0-10000) per worker.
    let wid_label = wid.to_string();
    let util = s
        .metrics
        .registry
        .gauge("serve_worker_utilization", &[("worker", &wid_label)]);
    let mut busy = Duration::ZERO;
    let mut idle = Duration::ZERO;
    let mut segment = Instant::now();
    let mut last_flush = Instant::now();
    loop {
        // Adopt handed-off connections before polling so they are part of
        // this round's fd set.
        for stream in lock(&s.inboxes[wid]).drain(..) {
            if stream.set_nonblocking(true).is_err() {
                s.metrics.io_errors.inc();
                continue;
            }
            let _ = stream.set_nodelay(true);
            s.metrics.connections_active.inc();
            conns.push(Conn::new(stream));
        }
        if s.shutdown.load(Ordering::SeqCst) {
            // Best-effort final flush, then close everything.
            for c in conns.iter_mut() {
                c.flush(&s.metrics);
            }
            for _ in conns.drain(..) {
                s.metrics.connections_active.dec();
            }
            return;
        }
        let mut fds = Vec::with_capacity(conns.len() + 1);
        fds.push(PollFd::new(wake.as_raw_fd(), POLLIN));
        for c in &conns {
            let mut events = 0i16;
            if c.wants_read(&s.cfg) {
                events |= POLLIN;
            }
            if !c.write_buf.is_empty() {
                events |= POLLOUT;
            }
            fds.push(PollFd::new(c.stream.as_raw_fd(), events));
        }
        busy += segment.elapsed();
        segment = Instant::now();
        let poll_result = poll_fds(&mut fds, timeout);
        idle += segment.elapsed();
        segment = Instant::now();
        if last_flush.elapsed() >= UTIL_FLUSH {
            let total = busy + idle;
            if !total.is_zero() {
                util.set((busy.as_secs_f64() / total.as_secs_f64() * 10_000.0) as i64);
            }
            busy = Duration::ZERO;
            idle = Duration::ZERO;
            last_flush = Instant::now();
        }
        if let Err(e) = poll_result {
            s.metrics.io_errors.inc();
            freephish_obs::warn("serve", format!("worker {wid} poll failed: {e}"));
            std::thread::sleep(Duration::from_millis(10));
            continue;
        }
        if fds[0].has(POLLIN) {
            let mut sink = [0u8; 64];
            while matches!((&wake).read(&mut sink), Ok(n) if n > 0) {}
        }
        for (i, c) in conns.iter_mut().enumerate() {
            let pf = &fds[i + 1];
            if pf.has(POLLERR | POLLNVAL) {
                c.dead = true;
                continue;
            }
            if pf.has(POLLIN | POLLHUP) && c.wants_read(&s.cfg) {
                c.fill(&mut chunk, &s.metrics);
            }
            parse_and_execute(c, &s);
            if !c.write_buf.is_empty() {
                c.flush(&s.metrics);
            }
        }
        conns.retain(|c| {
            let done = c.dead || (c.closing && c.write_buf.is_empty());
            if done {
                s.metrics.connections_active.dec();
            }
            !done
        });
    }
}

fn acceptor_loop(s: Arc<Shared>, listener: TcpListener) {
    let timeout = s.cfg.poll_interval.as_millis() as i32;
    let mut next = 0usize;
    while !s.shutdown.load(Ordering::SeqCst) {
        let mut fds = [PollFd::new(listener.as_raw_fd(), POLLIN)];
        if poll_fds(&mut fds, timeout).is_err() || !fds[0].has(POLLIN) {
            continue;
        }
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    s.metrics.connections_accepted.inc();
                    let wid = next % s.inboxes.len();
                    next = next.wrapping_add(1);
                    lock(&s.inboxes[wid]).push(stream);
                    let _ = lock(&s.wakes[wid]).write(&[1u8]);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    s.metrics.io_errors.inc();
                    freephish_obs::warn("serve", format!("accept failed: {e}"));
                    break;
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Server handle
// ---------------------------------------------------------------------------

/// The evented verdict service handle.
pub struct EventedServer {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl EventedServer {
    /// Bind on 127.0.0.1 (ephemeral port) with default tuning.
    pub fn start(checker: Arc<dyn UrlChecker>) -> std::io::Result<EventedServer> {
        EventedServer::start_with(ServeConfig::default(), checker)
    }

    /// Bind on 127.0.0.1 at `port` (0 = ephemeral) with default tuning.
    pub fn start_on(port: u16, checker: Arc<dyn UrlChecker>) -> std::io::Result<EventedServer> {
        EventedServer::start_with(
            ServeConfig {
                port,
                ..ServeConfig::default()
            },
            checker,
        )
    }

    /// Bind and start serving with explicit tuning.
    pub fn start_with(
        cfg: ServeConfig,
        checker: Arc<dyn UrlChecker>,
    ) -> std::io::Result<EventedServer> {
        let listener = TcpListener::bind(("127.0.0.1", cfg.port))?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let workers = cfg.workers.max(1);
        let mut wakes = Vec::with_capacity(workers);
        let mut worker_ends = Vec::with_capacity(workers);
        for _ in 0..workers {
            let (acceptor_end, worker_end) = UnixStream::pair()?;
            acceptor_end.set_nonblocking(true)?;
            wakes.push(Mutex::new(acceptor_end));
            worker_ends.push(worker_end);
        }
        let metrics = ServeMetrics::new();
        let budget = Budget::new(cfg.max_inflight_urls, metrics.inflight_urls.clone());
        let shared = Arc::new(Shared {
            inboxes: (0..workers).map(|_| Mutex::new(Vec::new())).collect(),
            wakes,
            budget,
            metrics,
            traces: Arc::new(TraceStore::new()),
            checker,
            shutdown: AtomicBool::new(false),
            cfg,
        });
        let mut handles = Vec::with_capacity(workers);
        for (wid, wake) in worker_ends.into_iter().enumerate() {
            let s = shared.clone();
            handles.push(
                std::thread::Builder::new()
                    .name(format!("serve-worker-{wid}"))
                    .spawn(move || worker_loop(s, wake, wid))?,
            );
        }
        let s = shared.clone();
        let acceptor = std::thread::Builder::new()
            .name("serve-acceptor".to_string())
            .spawn(move || acceptor_loop(s, listener))?;
        Ok(EventedServer {
            addr,
            shared,
            acceptor: Some(acceptor),
            workers: Mutex::new(handles),
        })
    }

    /// Where the service listens.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Snapshot of the `serve_*` metrics, including the rolling windowed
    /// SLO gauges and trace/event accounting — the same view `STATS` and
    /// the ops plane serve.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.shared.observable_snapshot()
    }

    /// The trace store retaining this engine's sampled and slow traces.
    pub fn traces(&self) -> Arc<TraceStore> {
        self.shared.traces.clone()
    }

    /// Ops-plane hooks for mounting an [`crate::ops::OpsServer`] in front
    /// of this engine. Default readiness: the index has published at
    /// least one generation. Callers with store-backed startup (journal
    /// tailing) should override `ready` with their own conditions.
    pub fn ops_config(&self) -> OpsConfig {
        let snap = self.shared.clone();
        let ready = self.shared.clone();
        let addr = self.addr;
        let workers = self.shared.cfg.workers;
        OpsConfig {
            snapshot: Arc::new(move || snap.observable_snapshot()),
            ready: Arc::new(move || {
                Readiness::from_conditions(vec![(
                    "index_generation_published",
                    ready.checker.generation() > 0,
                )])
            }),
            varz_extra: Some(Arc::new(move || {
                json!({
                    "engine": "evented",
                    "serve_addr": addr.to_string(),
                    "workers": workers,
                })
            })),
            traces: Some(self.shared.traces.clone()),
        }
    }

    /// Stop accepting and tell workers to wind down. Safe to call twice.
    pub fn shutdown(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        for wake in &self.shared.wakes {
            let _ = lock(wake).write(&[1u8]);
        }
        if let Some(t) = self.acceptor.take() {
            let _ = t.join();
        }
    }

    /// Wait up to `timeout` for every worker to flush and exit after
    /// [`EventedServer::shutdown`]. Returns false on deadline, leaving
    /// stragglers running (they exit at their next poll tick).
    pub fn drain(&self, timeout: Duration) -> bool {
        let deadline = std::time::Instant::now() + timeout;
        loop {
            {
                let mut workers = lock(&self.workers);
                if workers.iter().all(|w| w.is_finished()) {
                    for w in workers.drain(..) {
                        let _ = w.join();
                    }
                    return true;
                }
            }
            if std::time::Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

impl Drop for EventedServer {
    fn drop(&mut self) {
        self.shutdown();
        self.drain(Duration::from_secs(2));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::ShardedIndex;
    use bytes::BytesMut;
    use std::io::{BufRead, BufReader};

    fn seeded_index() -> Arc<ShardedIndex> {
        let index = ShardedIndex::new(8);
        index.publish([
            ("https://evil.weebly.com/".to_string(), 0.97),
            ("https://bad.wixsite.com/login".to_string(), 0.91),
        ]);
        Arc::new(index)
    }

    fn read_reply(stream: &TcpStream) -> BinReply {
        let mut stream = stream;
        let mut buf = BytesMut::new();
        let mut chunk = [0u8; 1024];
        loop {
            if let Some(reply) = proto::decode_bin_reply(&mut buf).unwrap() {
                return reply;
            }
            let n = Read::read(&mut stream, &mut chunk).unwrap();
            assert!(n > 0, "server closed mid-reply");
            buf.extend_from_slice(&chunk[..n]);
        }
    }

    /// Read one `\n`-terminated line byte-by-byte so no bytes belonging
    /// to a following binary frame are buffered away.
    fn read_line_raw(stream: &TcpStream) -> String {
        let mut stream = stream;
        let mut line = Vec::new();
        let mut byte = [0u8; 1];
        loop {
            let n = Read::read(&mut stream, &mut byte).unwrap();
            assert!(n > 0, "server closed mid-line");
            if byte[0] == b'\n' {
                return String::from_utf8(line).unwrap();
            }
            line.push(byte[0]);
        }
    }

    #[test]
    fn line_protocol_end_to_end() {
        let mut server = EventedServer::start(seeded_index()).unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream
            .write_all(b"CHECK https://evil.weebly.com/\nCHECK https://fine.weebly.com/\nSTATS\n")
            .unwrap();
        let mut reader = BufReader::new(stream);
        let mut lines = Vec::new();
        for _ in 0..3 {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            lines.push(line);
        }
        assert!(lines[0].starts_with("PHISHING"), "{lines:?}");
        assert!(lines[1].starts_with("SAFE"), "{lines:?}");
        assert!(lines[2].starts_with("STATS {"), "{lines:?}");
        server.shutdown();
        assert!(server.drain(Duration::from_secs(2)));
    }

    #[test]
    fn binary_checkn_batches() {
        let server = EventedServer::start(seeded_index()).unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        // Handshake upgrades explicitly.
        stream.write_all(b"BINARY\n").unwrap();
        let line = read_line_raw(&stream);
        assert_eq!(line.trim(), HANDSHAKE_OK);
        let urls: Vec<String> = vec![
            "https://evil.weebly.com/".into(),
            "https://fine.weebly.com/".into(),
            "https://bad.wixsite.com/login".into(),
        ];
        let mut buf = BytesMut::new();
        proto::encode_bin_request(&mut buf, &BinRequest::CheckN(urls)).unwrap();
        stream.write_all(&buf).unwrap();
        match read_reply(&stream) {
            BinReply::VerdictN(vs) => {
                assert_eq!(vs.len(), 3);
                assert!(vs[0].is_phishing());
                assert!(!vs[1].is_phishing());
                assert!(vs[2].is_phishing());
            }
            other => panic!("expected VerdictN, got {other:?}"),
        }
        let snap = server.metrics();
        assert_eq!(snap.counter("serve_urls_checked_total", &[]), 3);
        assert_eq!(
            snap.counter("serve_requests_total", &[("kind", "checkn")]),
            1
        );
    }

    #[test]
    fn mixed_line_and_binary_on_one_connection() {
        let server = EventedServer::start(seeded_index()).unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        let mut buf = BytesMut::new();
        proto::encode_bin_request(
            &mut buf,
            &BinRequest::Add("https://new.weebly.com/".into(), 0.8),
        )
        .unwrap();
        stream
            .write_all(b"CHECK https://new.weebly.com/\n")
            .unwrap();
        stream.write_all(&buf).unwrap();
        let line = read_line_raw(&stream);
        assert!(line.starts_with("SAFE"), "{line:?}");
        match read_reply(&stream) {
            BinReply::Ok(generation) => assert!(generation >= 2),
            other => panic!("expected Ok, got {other:?}"),
        }
        // The ADD is now visible over the line protocol too.
        stream
            .write_all(b"CHECK https://new.weebly.com/\n")
            .unwrap();
        let line2 = read_line_raw(&stream);
        assert!(line2.starts_with("PHISHING"), "{line2:?}");
    }

    #[test]
    fn garbled_binary_frame_errors_and_closes() {
        let server = EventedServer::start(seeded_index()).unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        // Valid magic, unknown opcode.
        stream.write_all(&[proto::MAGIC, 0x7f, 0, 0, 0, 0]).unwrap();
        match read_reply(&stream) {
            BinReply::Error(_) => {}
            other => panic!("expected Error, got {other:?}"),
        }
        // Connection is closed afterwards.
        let mut rest = Vec::new();
        let n = stream.read_to_end(&mut rest).unwrap();
        assert_eq!(n, 0);
    }
}
