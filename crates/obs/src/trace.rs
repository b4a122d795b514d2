//! Per-request tracing with tail-based slow capture.
//!
//! Every traced request gets a [`TraceId`] and a flat span list recording
//! where its service time went (`accept`, `decode`, `lookup`, `respond`,
//! plus any `store_append` / `store_fsync` spans the durability layer
//! contributes). Traces are cheap enough to start unconditionally; what
//! gets *retained* is decided at finish time:
//!
//! * **slow capture** — a request whose total exceeds the rolling p99 of
//!   recent totals (floored at [`TraceConfig::slow_floor_secs`]) is
//!   always retained in the slow ring, served at `/traces/slow`.
//! * **sampling** — every [`TraceConfig::sample_every`]-th trace is
//!   retained in the recent ring regardless of speed, so the ops plane
//!   can show representative fast requests too.
//!
//! The rings use a lock-free claim index; each slot is a mutex around an
//! `Arc<Trace>` held only for a pointer swap, so writers never block on
//! readers for more than that.
//!
//! The active trace lives in a thread local ([`begin`] / [`span`] /
//! [`span_record`] / [`finish`]), which is exactly right for the serve
//! engines: a worker thread executes one request (batch) at a time, and
//! layers it calls into — the store's append/fsync path — can attach
//! spans without any plumbing through intermediate signatures. When no
//! trace is active every entry point is a cheap no-op.

use crate::sync::lock;
use crate::window::WindowedHistogram;
use serde_json::{json, Value};
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Globally unique (per process) trace identifier.
static NEXT_TRACE_ID: AtomicU64 = AtomicU64::new(1);

/// Identifier of one trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceId(pub u64);

impl TraceId {
    fn next() -> TraceId {
        TraceId(NEXT_TRACE_ID.fetch_add(1, Ordering::Relaxed))
    }
}

/// One completed span inside a trace.
#[derive(Debug, Clone)]
pub struct SpanRec {
    /// Stage name (`accept`, `decode`, `lookup`, `respond`,
    /// `store_append`, `store_fsync`, ...).
    pub name: &'static str,
    /// Offset of the span start from the trace start, seconds.
    pub start_secs: f64,
    /// Span duration, seconds.
    pub dur_secs: f64,
}

/// One completed, retained trace.
#[derive(Debug, Clone)]
pub struct Trace {
    /// Trace id.
    pub id: TraceId,
    /// Command that produced it (`check`, `checkn`, `add`, ...).
    pub command: &'static str,
    /// URLs carried by the request (batch size for `checkn`).
    pub urls: u32,
    /// Total service time, seconds.
    pub total_secs: f64,
    /// True when retained by slow capture (vs. sampling).
    pub slow: bool,
    /// Spans in completion order.
    pub spans: Vec<SpanRec>,
}

impl Trace {
    /// Render as JSON (durations in microseconds — the natural unit at
    /// serve latencies).
    pub fn to_json(&self) -> Value {
        json!({
            "id": self.id.0,
            "command": self.command,
            "urls": self.urls,
            "total_us": self.total_secs * 1e6,
            "slow": self.slow,
            "spans": self.spans.iter().map(|s| json!({
                "name": s.name,
                "start_us": s.start_secs * 1e6,
                "dur_us": s.dur_secs * 1e6,
            })).collect::<Vec<_>>(),
        })
    }
}

/// An in-flight trace. Usually managed through the thread-local API
/// ([`begin`] / [`finish`]); owned usage is possible for tests.
pub struct ActiveTrace {
    id: TraceId,
    command: &'static str,
    urls: u32,
    started: Instant,
    spans: Vec<SpanRec>,
}

impl ActiveTrace {
    /// Start a trace whose clock began `started` ago (lets the caller
    /// include time spent before the trace object existed, e.g. decode).
    pub fn begin_at(command: &'static str, urls: u32, started: Instant) -> ActiveTrace {
        ActiveTrace {
            id: TraceId::next(),
            command,
            urls,
            started,
            spans: Vec::with_capacity(8),
        }
    }

    /// Append a span that ended just now and lasted `dur_secs`.
    pub fn push_span(&mut self, name: &'static str, dur_secs: f64) {
        let end = self.started.elapsed().as_secs_f64();
        self.spans.push(SpanRec {
            name,
            start_secs: (end - dur_secs).max(0.0),
            dur_secs,
        });
    }
}

thread_local! {
    static CURRENT: RefCell<Option<ActiveTrace>> = const { RefCell::new(None) };
}

/// Begin a trace for the current thread's in-flight request, replacing
/// any unfinished one. `started` backdates the trace clock.
pub fn begin(command: &'static str, urls: u32, started: Instant) {
    CURRENT.with(|c| *c.borrow_mut() = Some(ActiveTrace::begin_at(command, urls, started)));
}

/// True when this thread has an active trace.
pub fn active() -> bool {
    CURRENT.with(|c| c.borrow().is_some())
}

/// Run `f` as a named span of the active trace. Without an active trace
/// this is just `f()` — no timestamps are taken.
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    if !active() {
        return f();
    }
    let t0 = Instant::now();
    let out = f();
    span_record(name, t0.elapsed().as_secs_f64());
    out
}

/// Attach an already-measured span (ending now) to the active trace, if
/// any. This is how layers that did their own timing — or that measured
/// work predating the trace, like socket wait — contribute spans.
pub fn span_record(name: &'static str, dur_secs: f64) {
    CURRENT.with(|c| {
        if let Some(t) = c.borrow_mut().as_mut() {
            t.push_span(name, dur_secs);
        }
    });
}

/// Finish the active trace and offer it to `store` for retention.
/// No-op when no trace is active.
pub fn finish(store: &TraceStore) {
    if let Some(t) = CURRENT.with(|c| c.borrow_mut().take()) {
        store.push(t);
    }
}

/// Abandon the active trace without retaining it.
pub fn discard() {
    CURRENT.with(|c| *c.borrow_mut() = None);
}

/// Retention policy knobs for a [`TraceStore`].
#[derive(Debug, Clone)]
pub struct TraceConfig {
    /// Capacity of the sampled recent-trace ring.
    pub recent_capacity: usize,
    /// Capacity of the slow-trace ring.
    pub slow_capacity: usize,
    /// Retain every Nth trace in the recent ring (1 = all, 0 = none).
    pub sample_every: u64,
    /// Totals at or below this are never classified slow, regardless of
    /// the rolling p99 (guards against capturing everything when the
    /// whole distribution is uniformly fast).
    pub slow_floor_secs: f64,
    /// Width of one rolling window feeding the p99 threshold.
    pub window_width: Duration,
    /// Number of windows in the threshold horizon.
    pub windows: usize,
}

impl Default for TraceConfig {
    fn default() -> TraceConfig {
        TraceConfig {
            recent_capacity: 128,
            slow_capacity: 64,
            sample_every: 64,
            slow_floor_secs: 0.0,
            window_width: Duration::from_secs(1),
            windows: 8,
        }
    }
}

/// A slot ring: lock-free claim index, per-slot pointer swap.
struct TraceRing {
    slots: Box<[Mutex<Option<Arc<Trace>>>]>,
    next: AtomicU64,
}

impl TraceRing {
    fn new(capacity: usize) -> TraceRing {
        TraceRing {
            slots: (0..capacity.max(1)).map(|_| Mutex::new(None)).collect(),
            next: AtomicU64::new(0),
        }
    }

    fn push(&self, trace: Arc<Trace>) {
        let idx = self.next.fetch_add(1, Ordering::Relaxed) % self.slots.len() as u64;
        *lock(&self.slots[idx as usize]) = Some(trace);
    }

    fn collect(&self) -> Vec<Arc<Trace>> {
        let mut out: Vec<Arc<Trace>> = self.slots.iter().filter_map(|s| lock(s).clone()).collect();
        // Newest first: ids are monotone.
        out.sort_by_key(|t| std::cmp::Reverse(t.id.0));
        out
    }
}

/// Bounded retention of completed traces; see the module docs.
pub struct TraceStore {
    recent: TraceRing,
    slow: TraceRing,
    /// Rolling distribution of request totals, feeding the p99 threshold.
    totals: WindowedHistogram,
    cfg: TraceConfig,
    started_total: AtomicU64,
    sampled_total: AtomicU64,
    slow_total: AtomicU64,
}

impl Default for TraceStore {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceStore {
    /// A trace store with default retention policy.
    pub fn new() -> TraceStore {
        TraceStore::with_config(TraceConfig::default())
    }

    /// A trace store with an explicit retention policy.
    pub fn with_config(cfg: TraceConfig) -> TraceStore {
        TraceStore {
            recent: TraceRing::new(cfg.recent_capacity),
            slow: TraceRing::new(cfg.slow_capacity),
            totals: WindowedHistogram::wall(cfg.windows, cfg.window_width),
            cfg,
            started_total: AtomicU64::new(0),
            sampled_total: AtomicU64::new(0),
            slow_total: AtomicU64::new(0),
        }
    }

    /// The current slow threshold in seconds: the rolling p99 of request
    /// totals, floored at the config's `slow_floor_secs`. Infinite until
    /// the first total is recorded — nothing is "slow" in a vacuum.
    pub fn slow_threshold_secs(&self) -> f64 {
        self.totals
            .quantile(0.99)
            .map(|q| q.max(self.cfg.slow_floor_secs))
            .unwrap_or(f64::INFINITY)
    }

    /// Finish `active`: classify against the rolling threshold, retain
    /// where policy says, then fold its total into the rolling window.
    pub fn push(&self, active: ActiveTrace) {
        let total = active.started.elapsed().as_secs_f64();
        let n = self.started_total.fetch_add(1, Ordering::Relaxed) + 1;
        // Classify against the threshold *before* this sample joins the
        // distribution, so a new outlier cannot hide behind itself.
        let slow = total > self.slow_threshold_secs();
        self.totals.record(total);
        let sampled = self.cfg.sample_every > 0 && n.is_multiple_of(self.cfg.sample_every);
        if !slow && !sampled {
            return;
        }
        let trace = Arc::new(Trace {
            id: active.id,
            command: active.command,
            urls: active.urls,
            total_secs: total,
            slow,
            spans: active.spans,
        });
        if slow {
            self.slow_total.fetch_add(1, Ordering::Relaxed);
            self.slow.push(trace.clone());
        }
        if sampled {
            self.sampled_total.fetch_add(1, Ordering::Relaxed);
            self.recent.push(trace);
        }
    }

    /// Retained slow traces, newest first.
    pub fn slow_traces(&self) -> Vec<Arc<Trace>> {
        self.slow.collect()
    }

    /// Sampled recent traces, newest first.
    pub fn recent_traces(&self) -> Vec<Arc<Trace>> {
        self.recent.collect()
    }

    /// JSON for `/traces/slow`.
    pub fn slow_json(&self) -> Value {
        json!({
            "slow_threshold_us": finite_us(self.slow_threshold_secs()),
            "traces": self.slow_traces().iter().map(|t| t.to_json()).collect::<Vec<_>>(),
        })
    }

    /// Inject drop/retention accounting into a metrics snapshot so the
    /// scrape surface reports it without in-process calls.
    pub fn counters_into(&self, snap: &mut crate::registry::MetricsSnapshot) {
        use crate::registry::MetricKey;
        snap.counters.insert(
            MetricKey::new("trace_requests_total", &[]),
            self.started_total.load(Ordering::Relaxed),
        );
        snap.counters.insert(
            MetricKey::new("trace_sampled_total", &[]),
            self.sampled_total.load(Ordering::Relaxed),
        );
        snap.counters.insert(
            MetricKey::new("trace_slow_captured_total", &[]),
            self.slow_total.load(Ordering::Relaxed),
        );
    }
}

fn finite_us(secs: f64) -> Value {
    if secs.is_finite() {
        json!(secs * 1e6)
    } else {
        Value::Null
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_request(store: &TraceStore, sleep: Duration) {
        begin("check", 1, Instant::now());
        span("lookup", || std::thread::sleep(sleep));
        finish(store);
    }

    #[test]
    fn no_active_trace_is_a_noop() {
        discard();
        assert!(!active());
        let out = span("lookup", || 42);
        assert_eq!(out, 42);
        span_record("store_append", 0.001);
        let store = TraceStore::new();
        finish(&store); // nothing to finish
        assert!(store.slow_traces().is_empty());
        assert!(store.recent_traces().is_empty());
    }

    #[test]
    fn slow_outlier_is_captured_with_spans() {
        let store = TraceStore::new();
        // Build a fast baseline so the rolling p99 sits at ~micros.
        for _ in 0..50 {
            run_request(&store, Duration::ZERO);
        }
        assert!(store.slow_threshold_secs() < 0.01);
        // One outlier far beyond the p99.
        begin("checkn", 16, Instant::now());
        span_record("accept", 0.0001);
        span_record("decode", 0.0002);
        span("lookup", || std::thread::sleep(Duration::from_millis(30)));
        span_record("respond", 0.0001);
        finish(&store);
        // Under CPU contention a baseline request can also blow past the
        // rolling p99 and be captured; only the deterministic outlier is
        // asserted on.
        let slow = store.slow_traces();
        let t = slow
            .iter()
            .find(|t| t.command == "checkn")
            .expect("the outlier must be captured");
        assert!(t.slow);
        assert_eq!(t.urls, 16);
        assert!(t.total_secs >= 0.03);
        let names: Vec<_> = t.spans.iter().map(|s| s.name).collect();
        assert_eq!(names, ["accept", "decode", "lookup", "respond"]);
        let json = store.slow_json();
        assert_eq!(json["traces"].as_array().unwrap().len(), slow.len());
        assert!(json["slow_threshold_us"].as_f64().is_some());
    }

    #[test]
    fn first_request_is_never_slow() {
        let store = TraceStore::new();
        assert_eq!(store.slow_threshold_secs(), f64::INFINITY);
        run_request(&store, Duration::from_millis(5));
        assert!(store.slow_traces().is_empty());
    }

    #[test]
    fn sampling_retains_every_nth() {
        let store = TraceStore::with_config(TraceConfig {
            sample_every: 10,
            ..TraceConfig::default()
        });
        for _ in 0..40 {
            run_request(&store, Duration::ZERO);
        }
        assert_eq!(store.recent_traces().len(), 4);
        let mut snap = crate::registry::MetricsSnapshot::empty();
        store.counters_into(&mut snap);
        assert_eq!(snap.counter("trace_requests_total", &[]), 40);
        assert_eq!(snap.counter("trace_sampled_total", &[]), 4);
    }

    #[test]
    fn slow_ring_is_bounded() {
        let store = TraceStore::with_config(TraceConfig {
            slow_capacity: 4,
            sample_every: 0,
            ..TraceConfig::default()
        });
        for _ in 0..30 {
            run_request(&store, Duration::ZERO);
        }
        for _ in 0..10 {
            run_request(&store, Duration::from_millis(8));
        }
        let slow = store.slow_traces();
        assert!(slow.len() <= 4, "ring overflowed: {}", slow.len());
        // Newest first.
        for pair in slow.windows(2) {
            assert!(pair[0].id.0 > pair[1].id.0);
        }
    }
}
