//! The labeled metrics registry.
//!
//! `Registry` hands out `Arc` handles keyed by `(name, labels)`; callers
//! cache the handle, so the registry lock is taken once per metric at
//! wiring time and never again on the hot path. `snapshot()` freezes the
//! whole registry into a [`MetricsSnapshot`] — an inert, mergeable value
//! that the exporters in [`crate::export`] can render without touching
//! live atomics.

use crate::histogram::{Histogram, HistogramSnapshot};
use crate::metric::{Counter, Gauge};
use crate::sync::{read, write};
use std::collections::BTreeMap;
use std::sync::{Arc, RwLock};

/// A metric identity: name plus ordered label pairs.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MetricKey {
    /// Metric name (`snake_case`, Prometheus-compatible).
    pub name: String,
    /// Label pairs, kept in the order given at registration.
    pub labels: Vec<(String, String)>,
}

impl MetricKey {
    /// Build a key from a name and label pairs.
    pub fn new(name: &str, labels: &[(&str, &str)]) -> MetricKey {
        MetricKey {
            name: name.to_string(),
            labels: labels
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
        }
    }

    /// Render as `name{k="v",...}` (bare name when unlabeled). Label
    /// values are escaped per the Prometheus exposition format: `\` →
    /// `\\`, `"` → `\"`, newline → `\n`.
    pub fn render(&self) -> String {
        if self.labels.is_empty() {
            return self.name.clone();
        }
        let labels: Vec<String> = self
            .labels
            .iter()
            .map(|(k, v)| format!("{k}=\"{}\"", escape_label_value(v)))
            .collect();
        format!("{}{{{}}}", self.name, labels.join(","))
    }
}

/// Escape a label value per the Prometheus text exposition format.
pub fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

#[derive(Default)]
struct Inner {
    counters: BTreeMap<MetricKey, Arc<Counter>>,
    gauges: BTreeMap<MetricKey, Arc<Gauge>>,
    histograms: BTreeMap<MetricKey, Arc<Histogram>>,
}

/// The registry. Cheap to share (`Arc<Registry>`); all methods take `&self`.
#[derive(Default)]
pub struct Registry {
    inner: RwLock<Inner>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Get or create the counter `name{labels}`.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        let key = MetricKey::new(name, labels);
        if let Some(c) = read(&self.inner).counters.get(&key) {
            return c.clone();
        }
        write(&self.inner)
            .counters
            .entry(key)
            .or_insert_with(|| Arc::new(Counter::new()))
            .clone()
    }

    /// Get or create the gauge `name{labels}`.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        let key = MetricKey::new(name, labels);
        if let Some(g) = read(&self.inner).gauges.get(&key) {
            return g.clone();
        }
        write(&self.inner)
            .gauges
            .entry(key)
            .or_insert_with(|| Arc::new(Gauge::new()))
            .clone()
    }

    /// Get or create the histogram `name{labels}`.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        let key = MetricKey::new(name, labels);
        if let Some(h) = read(&self.inner).histograms.get(&key) {
            return h.clone();
        }
        write(&self.inner)
            .histograms
            .entry(key)
            .or_insert_with(|| Arc::new(Histogram::new()))
            .clone()
    }

    /// Freeze the registry into an inert snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = read(&self.inner);
        MetricsSnapshot {
            counters: inner
                .counters
                .iter()
                .map(|(k, c)| (k.clone(), c.get()))
                .collect(),
            gauges: inner
                .gauges
                .iter()
                .map(|(k, g)| (k.clone(), g.get()))
                .collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|(k, h)| (k.clone(), h.snapshot()))
                .collect(),
        }
    }
}

/// A point-in-time copy of every metric in a registry. Mergeable, so
/// per-shard / per-run snapshots can be folded into one.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Counter values.
    pub counters: BTreeMap<MetricKey, u64>,
    /// Gauge values.
    pub gauges: BTreeMap<MetricKey, i64>,
    /// Histogram snapshots.
    pub histograms: BTreeMap<MetricKey, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// An empty snapshot.
    pub fn empty() -> MetricsSnapshot {
        MetricsSnapshot::default()
    }

    /// Fold `other` into `self`: counters and gauges add, histograms
    /// merge bucket-wise.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            *self.gauges.entry(k.clone()).or_insert(0) += v;
        }
        for (k, h) in &other.histograms {
            self.histograms
                .entry(k.clone())
                .or_insert_with(HistogramSnapshot::empty)
                .merge(h);
        }
    }

    /// Value of counter `name{labels}`, zero when absent.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        self.counters
            .get(&MetricKey::new(name, labels))
            .copied()
            .unwrap_or(0)
    }

    /// Value of gauge `name{labels}`, zero when absent.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> i64 {
        self.gauges
            .get(&MetricKey::new(name, labels))
            .copied()
            .unwrap_or(0)
    }

    /// Histogram `name{labels}`, if recorded.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Option<&HistogramSnapshot> {
        self.histograms.get(&MetricKey::new(name, labels))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_are_shared() {
        let r = Registry::new();
        let a = r.counter("reqs", &[("kind", "check")]);
        let b = r.counter("reqs", &[("kind", "check")]);
        a.inc();
        b.inc();
        assert_eq!(a.get(), 2);
        let other = r.counter("reqs", &[("kind", "stats")]);
        other.inc();
        let s = r.snapshot();
        assert_eq!(s.counter("reqs", &[("kind", "check")]), 2);
        assert_eq!(s.counter("reqs", &[("kind", "stats")]), 1);
        assert_eq!(s.counter("reqs", &[]), 0);
    }

    #[test]
    fn snapshot_covers_all_kinds() {
        let r = Registry::new();
        r.counter("c", &[]).add(3);
        r.gauge("g", &[]).set(-2);
        r.histogram("h", &[]).record(0.5);
        let s = r.snapshot();
        assert_eq!(s.counter("c", &[]), 3);
        assert_eq!(s.gauge("g", &[]), -2);
        assert_eq!(s.histogram("h", &[]).unwrap().count, 1);
    }

    #[test]
    fn merge_folds_everything() {
        let r1 = Registry::new();
        let r2 = Registry::new();
        r1.counter("c", &[]).add(2);
        r2.counter("c", &[]).add(5);
        r2.counter("only2", &[]).inc();
        r1.histogram("h", &[]).record(1.0);
        r2.histogram("h", &[]).record(3.0);
        let mut s = r1.snapshot();
        s.merge(&r2.snapshot());
        assert_eq!(s.counter("c", &[]), 7);
        assert_eq!(s.counter("only2", &[]), 1);
        let h = s.histogram("h", &[]).unwrap();
        assert_eq!(h.count, 2);
        assert_eq!(h.min, 1.0);
        assert_eq!(h.max, 3.0);
    }

    #[test]
    fn key_rendering() {
        assert_eq!(MetricKey::new("up", &[]).render(), "up");
        assert_eq!(
            MetricKey::new("stage_seconds", &[("stage", "crawl")]).render(),
            "stage_seconds{stage=\"crawl\"}"
        );
    }

    #[test]
    fn label_values_are_escaped() {
        let key = MetricKey::new("hits", &[("url", "https://a.b/\"x\"\\p\nq")]);
        assert_eq!(key.render(), "hits{url=\"https://a.b/\\\"x\\\"\\\\p\\nq\"}");
        // The rendered form contains no raw quote/newline inside the value.
        let rendered = key.render();
        assert!(!rendered.contains('\n'));
    }
}
