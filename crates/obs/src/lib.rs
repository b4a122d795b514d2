//! `freephish-obs` — the observability substrate for the FreePhish
//! reproduction.
//!
//! The paper is a *measurement* study, and the ROADMAP's north star is a
//! production-scale pipeline; this crate is the instrument panel both
//! demand, built from scratch on atomics + `std::sync` locks (no tracing /
//! metrics / prometheus dependencies):
//!
//! * [`metric`] — [`Counter`] and [`Gauge`], plain atomics, lock-free on
//!   the hot path.
//! * [`histogram`] — [`Histogram`], a log-bucketed latency/value histogram
//!   with quantile estimation and mergeable [`HistogramSnapshot`]s.
//! * [`registry`] — [`Registry`], a labeled get-or-create store handing
//!   out `Arc` handles; reads after registration never take the lock.
//! * [`timer`] — [`Stopwatch`] and the dual-clock [`Span`], which records
//!   wall-clock latency into a histogram *and* the [`SimTime`] at which
//!   the domain event occurred into a gauge.
//! * [`event`] — a bounded structured-event ring buffer with severity
//!   levels, filtered by the `FREEPHISH_LOG` environment variable
//!   (default `warn`, so instrumented code is silent in tests).
//! * [`procfs`] — process-level readings from `/proc`
//!   ([`process_rss_bytes`]), stamped into scrape snapshots so RSS-based
//!   SLO gates and dashboards share one number.
//! * [`window`] — [`WindowedHistogram`], rolling fixed-width windows of
//!   histograms for SLO-grade quantiles over the recent past.
//! * [`trace`](mod@trace) (module) — per-request [`TraceId`] span traces with a
//!   ring-buffer [`TraceStore`] and tail-based slow capture.
//! * [`export`] — Prometheus-style text exposition and a
//!   `serde_json::Value` snapshot, both over [`MetricsSnapshot`].
//!
//! Consumers: `freephish-core::pipeline` (per-stage counters + latency
//! histograms), the extension verdict service (connection/request/error
//! counters scrapeable over TCP via `STATS`), and the bench harness
//! (structured progress events + a `"metrics"` section in every
//! experiment JSON).

pub mod event;
pub mod export;
pub mod histogram;
pub mod metric;
pub mod procfs;
pub mod registry;
pub mod sync;
pub mod timer;
pub mod trace;
pub mod window;

pub use event::{global as global_events, Event, EventLog, Level};
pub use export::{to_json, to_prometheus};
pub use histogram::{Histogram, HistogramSnapshot};
pub use metric::{Counter, Gauge};
pub use procfs::{process_rss_bytes, rss_gauge_into};
pub use registry::{escape_label_value, MetricKey, MetricsSnapshot, Registry};
pub use timer::{Span, Stopwatch};
pub use trace::{Trace, TraceConfig, TraceId, TraceStore};
pub use window::WindowedHistogram;

use freephish_simclock::SimTime;

/// Emit a `trace`-level event to the global log.
pub fn trace(target: &'static str, message: impl Into<String>) {
    global_events().emit(Level::Trace, target, message, None);
}

/// Emit a `debug`-level event to the global log.
pub fn debug(target: &'static str, message: impl Into<String>) {
    global_events().emit(Level::Debug, target, message, None);
}

/// Emit an `info`-level event to the global log.
pub fn info(target: &'static str, message: impl Into<String>) {
    global_events().emit(Level::Info, target, message, None);
}

/// Emit a `warn`-level event to the global log.
pub fn warn(target: &'static str, message: impl Into<String>) {
    global_events().emit(Level::Warn, target, message, None);
}

/// Emit an `error`-level event to the global log.
pub fn error(target: &'static str, message: impl Into<String>) {
    global_events().emit(Level::Error, target, message, None);
}

/// Emit an event carrying the simulated time of the domain occurrence —
/// the second hand of the dual clock.
pub fn event_at(level: Level, target: &'static str, message: impl Into<String>, sim: SimTime) {
    global_events().emit(level, target, message, Some(sim));
}
