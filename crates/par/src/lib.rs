//! `freephish-par` — a from-scratch, deterministic parallel execution
//! layer for the reproduction's embarrassingly-parallel hot paths.
//!
//! The paper's heaviest computations — the Appendix-A median-of-minimum
//! Levenshtein sweep (Table 1) and the per-tick crawl→feature→classify
//! loop over every observed URL — are data-parallel maps. This crate
//! provides exactly that shape and nothing more, built on
//! `std::thread::scope` (no rayon, matching the repo's no-new-deps
//! convention):
//!
//! * [`par_map`] / [`par_map_indexed`] / [`par_map_range`] — chunked
//!   fan-out over a scoped worker pool, with results **collected in input
//!   order**. Each input index is computed exactly once by a pure closure,
//!   so the output is a deterministic function of the input regardless of
//!   thread count or chunk interleaving.
//! * The **determinism contract**: `FREEPHISH_THREADS=1` (or one available
//!   core) degrades to the exact serial `iter().map()` path — no threads,
//!   no chunking — and any other thread count produces bit-identical
//!   output, because closures must not share mutable state (the API only
//!   hands them `&T`). Seeded RNG draws therefore stay in the serial
//!   caller; workers receive pre-forked [`Rng64`] values as input items
//!   (see `freephish-ml::stacking` for the idiom).
//! * Worker-pool observability through `freephish-obs`: `par_jobs_total`,
//!   `par_tasks_total`, `par_serial_jobs_total`, a `par_queue_depth`
//!   histogram (chunks still unclaimed at each claim), and
//!   `par_workers_busy` / `par_threads_configured` gauges, exported via
//!   [`metrics_snapshot`].
//!
//! Thread-count resolution order: [`with_thread_override`] (scoped,
//! test-friendly) → the `FREEPHISH_THREADS` environment variable → the
//! host's parallelism. The first two are read on every map. The host's
//! parallelism is resolved once per process, at the first map that could
//! fan out, the way rayon sizes its global pool: on Linux each
//! `available_parallelism()` call re-reads the cgroup quota files, which
//! costs more than a small map's work. A map of 0 or 1 items runs serially
//! without resolving anything. A process that confines itself to a CPU
//! set must do so before its first fan-out for the pool to see it.
//!
//! [`Rng64`]: https://docs.rs/ (freephish-simclock)

pub mod pool;

pub use pool::{par_map, par_map_indexed, par_map_range, par_map_with};

use freephish_obs::{Counter, Gauge, Histogram, MetricsSnapshot, Registry};
use std::cell::Cell;
use std::sync::{Arc, OnceLock};

/// Handles for the worker-pool metrics, resolved once against a global
/// registry; the hot path only touches atomics.
pub(crate) struct ParMetrics {
    registry: Registry,
    /// Parallel map invocations that fanned out to workers.
    pub jobs: Arc<Counter>,
    /// Invocations that degraded to the serial path (1 thread or tiny input).
    pub serial_jobs: Arc<Counter>,
    /// Individual items processed (serial or parallel).
    pub tasks: Arc<Counter>,
    /// Chunks left unclaimed at each claim — the queue-depth distribution.
    pub queue_depth: Arc<Histogram>,
    /// Workers currently inside a map (utilization gauge).
    pub workers_busy: Arc<Gauge>,
    /// The thread count the last pool resolved.
    pub threads_configured: Arc<Gauge>,
}

impl ParMetrics {
    fn new() -> ParMetrics {
        let registry = Registry::new();
        ParMetrics {
            jobs: registry.counter("par_jobs_total", &[]),
            serial_jobs: registry.counter("par_serial_jobs_total", &[]),
            tasks: registry.counter("par_tasks_total", &[]),
            queue_depth: registry.histogram("par_queue_depth", &[]),
            workers_busy: registry.gauge("par_workers_busy", &[]),
            threads_configured: registry.gauge("par_threads_configured", &[]),
            registry,
        }
    }
}

static METRICS: OnceLock<ParMetrics> = OnceLock::new();

pub(crate) fn metrics() -> &'static ParMetrics {
    METRICS.get_or_init(ParMetrics::new)
}

/// Snapshot of the worker-pool metrics (`par_*`), mergeable into any other
/// [`MetricsSnapshot`] — the pipeline and bench harness fold this into
/// their own exports.
pub fn metrics_snapshot() -> MetricsSnapshot {
    metrics().registry.snapshot()
}

thread_local! {
    static THREAD_OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Run `f` with the pool's thread count pinned to `threads` on this thread
/// (nested maps included). This is how tests and benchmarks compare thread
/// counts in-process without touching the process-global environment.
pub fn with_thread_override<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    THREAD_OVERRIDE.with(|cell| {
        let prev = cell.replace(Some(threads.max(1)));
        let out = f();
        cell.set(prev);
        out
    })
}

/// The thread count maps resolve on this thread: the
/// [`with_thread_override`] scope if active, else `FREEPHISH_THREADS`,
/// else the host's parallelism (resolved once per process); always at
/// least 1.
pub fn configured_threads() -> usize {
    if let Some(n) = THREAD_OVERRIDE.with(Cell::get) {
        return n;
    }
    if let Some(n) = std::env::var("FREEPHISH_THREADS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
    {
        return n.max(1);
    }
    host_threads()
}

/// `available_parallelism()` of the first call, for the life of the process.
fn host_threads() -> usize {
    static HOST: OnceLock<usize> = OnceLock::new();
    *HOST.get_or_init(|| {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    })
}
