//! Bounded structured-event log with severity filtering.
//!
//! Events that pass the severity filter are echoed to stderr and retained
//! in a bounded ring buffer (oldest evicted first); events below it are
//! counted and dropped. The filter comes from the `FREEPHISH_LOG`
//! environment variable (`off`, `error`, `warn`, `info`, `debug`,
//! `trace`); the default is `warn`, so instrumented library code — and
//! the test suite — stays silent unless something is actually wrong or
//! the operator opts in with `FREEPHISH_LOG=info`.

use crate::sync::lock;
use freephish_simclock::SimTime;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::sync::OnceLock;

/// Event severity, ordered `Trace < Debug < Info < Warn < Error`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Level {
    /// Finest-grained tracing.
    Trace,
    /// Development diagnostics.
    Debug,
    /// Operational progress.
    Info,
    /// Something degraded but handled.
    Warn,
    /// Something failed.
    Error,
}

impl Level {
    /// Short uppercase tag for rendering.
    pub fn as_str(&self) -> &'static str {
        match self {
            Level::Trace => "TRACE",
            Level::Debug => "DEBUG",
            Level::Info => "INFO",
            Level::Warn => "WARN",
            Level::Error => "ERROR",
        }
    }

    /// Parse a filter spec; `None` for unrecognized values and `off`.
    pub fn parse(s: &str) -> Option<Level> {
        match s.trim().to_ascii_lowercase().as_str() {
            "trace" => Some(Level::Trace),
            "debug" => Some(Level::Debug),
            "info" => Some(Level::Info),
            "warn" | "warning" => Some(Level::Warn),
            "error" => Some(Level::Error),
            _ => None,
        }
    }
}

/// One structured event.
#[derive(Debug, Clone)]
pub struct Event {
    /// Monotonic sequence number (per log).
    pub seq: u64,
    /// Severity.
    pub level: Level,
    /// Emitting subsystem (`"harness"`, `"extension"`, `"pipeline"`...).
    pub target: &'static str,
    /// Human-readable message.
    pub message: String,
    /// Simulated time of the domain occurrence, when there is one.
    pub sim_time: Option<SimTime>,
}

impl Event {
    /// Render one line, `[freephish][LEVEL][target] message (sim t)`.
    pub fn render(&self) -> String {
        match self.sim_time {
            Some(t) => format!(
                "[freephish][{}][{}] {} (sim {})",
                self.level.as_str(),
                self.target,
                self.message,
                t
            ),
            None => format!(
                "[freephish][{}][{}] {}",
                self.level.as_str(),
                self.target,
                self.message
            ),
        }
    }
}

/// The bounded event log.
pub struct EventLog {
    /// Minimum retained severity; `None` = everything off.
    filter: Option<Level>,
    /// Echo passing events to stderr.
    echo: bool,
    capacity: usize,
    ring: Mutex<VecDeque<Event>>,
    seq: AtomicU64,
    suppressed: AtomicU64,
    evicted: AtomicU64,
}

impl EventLog {
    /// A log with the given retention capacity and the filter taken from
    /// `FREEPHISH_LOG` (default `warn`), echoing to stderr.
    pub fn from_env(capacity: usize) -> EventLog {
        let filter = match std::env::var("FREEPHISH_LOG") {
            Ok(s) if s.trim().eq_ignore_ascii_case("off") => None,
            Ok(s) => Level::parse(&s).or(Some(Level::Warn)),
            Err(_) => Some(Level::Warn),
        };
        EventLog::with_filter(capacity, filter, true)
    }

    /// A log with an explicit filter (for tests and embedded use).
    pub fn with_filter(capacity: usize, filter: Option<Level>, echo: bool) -> EventLog {
        EventLog {
            filter,
            echo,
            capacity: capacity.max(1),
            ring: Mutex::new(VecDeque::with_capacity(capacity.clamp(1, 4096))),
            seq: AtomicU64::new(0),
            suppressed: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
        }
    }

    /// True when `level` passes the filter — use to skip building
    /// expensive messages.
    #[inline]
    pub fn enabled(&self, level: Level) -> bool {
        matches!(self.filter, Some(f) if level >= f)
    }

    /// Emit an event; below-filter events are counted and dropped.
    pub fn emit(
        &self,
        level: Level,
        target: &'static str,
        message: impl Into<String>,
        sim_time: Option<SimTime>,
    ) {
        if !self.enabled(level) {
            self.suppressed.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let event = Event {
            seq: self.seq.fetch_add(1, Ordering::Relaxed),
            level,
            target,
            message: message.into(),
            sim_time,
        };
        if self.echo {
            eprintln!("{}", event.render());
        }
        let mut ring = lock(&self.ring);
        if ring.len() >= self.capacity {
            ring.pop_front();
            self.evicted.fetch_add(1, Ordering::Relaxed);
        }
        ring.push_back(event);
    }

    /// The retained events, oldest first.
    pub fn recent(&self) -> Vec<Event> {
        lock(&self.ring).iter().cloned().collect()
    }

    /// Events dropped by the severity filter.
    pub fn suppressed(&self) -> u64 {
        self.suppressed.load(Ordering::Relaxed)
    }

    /// Events evicted from the full ring.
    pub fn evicted(&self) -> u64 {
        self.evicted.load(Ordering::Relaxed)
    }

    /// Inject drop accounting into a metrics snapshot as
    /// `obs_events_suppressed_total` / `obs_events_evicted_total`, so a
    /// scraper can detect lossy logging without in-process calls.
    pub fn export_into(&self, snap: &mut crate::registry::MetricsSnapshot) {
        use crate::registry::MetricKey;
        snap.counters.insert(
            MetricKey::new("obs_events_suppressed_total", &[]),
            self.suppressed(),
        );
        snap.counters.insert(
            MetricKey::new("obs_events_evicted_total", &[]),
            self.evicted(),
        );
    }
}

/// The process-wide event log (capacity 1024, `FREEPHISH_LOG` filter).
pub fn global() -> &'static EventLog {
    static GLOBAL: OnceLock<EventLog> = OnceLock::new();
    GLOBAL.get_or_init(|| EventLog::from_env(1024))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn filter_orders_levels() {
        let log = EventLog::with_filter(16, Some(Level::Info), false);
        assert!(log.enabled(Level::Error));
        assert!(log.enabled(Level::Info));
        assert!(!log.enabled(Level::Debug));
        log.emit(Level::Debug, "t", "dropped", None);
        log.emit(Level::Warn, "t", "kept", None);
        assert_eq!(log.suppressed(), 1);
        let events = log.recent();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].message, "kept");
    }

    #[test]
    fn off_filter_drops_everything() {
        let log = EventLog::with_filter(16, None, false);
        log.emit(Level::Error, "t", "even errors", None);
        assert!(log.recent().is_empty());
        assert_eq!(log.suppressed(), 1);
    }

    #[test]
    fn ring_is_bounded() {
        let log = EventLog::with_filter(3, Some(Level::Trace), false);
        for i in 0..5 {
            log.emit(Level::Info, "t", format!("e{i}"), None);
        }
        let events = log.recent();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].message, "e2");
        assert_eq!(events[2].message, "e4");
        assert_eq!(log.evicted(), 2);
        // Sequence numbers keep counting across evictions.
        assert_eq!(events[2].seq, 4);
    }

    #[test]
    fn render_carries_sim_time() {
        let e = Event {
            seq: 0,
            level: Level::Warn,
            target: "pipeline",
            message: "site gone".into(),
            sim_time: Some(SimTime::from_mins(90)),
        };
        let line = e.render();
        assert!(line.contains("[WARN]"));
        assert!(line.contains("[pipeline]"));
        assert!(line.contains("site gone"));
        assert!(line.contains("sim "));
    }

    #[test]
    fn level_parsing() {
        assert_eq!(Level::parse("info"), Some(Level::Info));
        assert_eq!(Level::parse(" WARN "), Some(Level::Warn));
        assert_eq!(Level::parse("warning"), Some(Level::Warn));
        assert_eq!(Level::parse("nonsense"), None);
        assert_eq!(Level::parse("off"), None);
    }
}
