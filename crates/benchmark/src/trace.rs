//! In-memory spans recorded by the benchmark's own wrappers around calls into
//! each layer, and the self-time table built from them.
//!
//! The traced run keeps one request in flight, so the spans of a request nest
//! by containment: a span's parent is the innermost span of its track that
//! covers it. Work the program does on its own threads (classify batches and
//! the journal writes they cause) is recorded on the background track, which
//! nests separately and is not part of a request's blocking path.

use serde_json::json;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Track {
    /// The blocking path of the request in flight.
    Request,
    /// Work on the program's own threads, overlapping later requests.
    Background,
}

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub track: Track,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    // Relaxed everywhere: the flag publishes no data, and a span that races
    // the switch is either recorded or not.
    enabled: AtomicBool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            enabled: AtomicBool::new(false),
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Runs `f`, recording it as a span when tracing is on.
    pub fn span<R>(&self, name: &'static str, track: Track, f: impl FnOnce() -> R) -> R {
        if !self.enabled() {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.record(name, track, start, Instant::now());
        out
    }

    pub fn record(&self, name: &'static str, track: Track, start: Instant, end: Instant) {
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        let span = Span {
            name,
            track,
            start_ns: ns(start),
            end_ns: ns(end),
        };
        self.spans
            .lock()
            .expect("no span recorder panics while holding the lock")
            .push(span);
    }

    /// Removes and returns everything recorded so far.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(
            &mut *self
                .spans
                .lock()
                .expect("no span recorder panics while holding the lock"),
        )
    }
}

/// One row of the self-time table.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub name: &'static str,
    pub track: Track,
    pub count: u64,
    pub total_s: f64,
    /// Total time minus the part covered by child spans.
    pub self_s: f64,
}

/// Spans in start order with each one's parent, and the table over them.
pub struct Table {
    pub spans: Vec<Span>,
    pub parents: Vec<Option<usize>>,
    pub rows: Vec<Row>,
}

impl Table {
    pub fn build(mut spans: Vec<Span>) -> Table {
        // Start order, longest first on ties, so a parent precedes its children.
        spans.sort_by_key(|s| (s.start_ns, std::cmp::Reverse(s.end_ns)));
        let mut parents = vec![None; spans.len()];
        let mut child_ns = vec![0u64; spans.len()];
        let mut open: BTreeMap<Track, Vec<usize>> = BTreeMap::new();
        for (i, span) in spans.iter().enumerate() {
            let stack = open.entry(span.track).or_default();
            while let Some(&top) = stack.last() {
                if spans[top].end_ns >= span.end_ns {
                    parents[i] = Some(top);
                    child_ns[top] += span.end_ns - span.start_ns;
                    break;
                }
                stack.pop();
            }
            stack.push(i);
        }
        let mut rows: BTreeMap<(Track, &'static str), Row> = BTreeMap::new();
        for (span, children) in spans.iter().zip(&child_ns) {
            let total = span.end_ns - span.start_ns;
            let row = rows.entry((span.track, span.name)).or_insert(Row {
                name: span.name,
                track: span.track,
                count: 0,
                total_s: 0.0,
                self_s: 0.0,
            });
            row.count += 1;
            row.total_s += total as f64 / 1e9;
            row.self_s += total.saturating_sub(*children) as f64 / 1e9;
        }
        Table {
            spans,
            parents,
            rows: rows.into_values().collect(),
        }
    }

    pub fn row(&self, name: &str) -> Option<&Row> {
        self.rows.iter().find(|r| r.name == name)
    }

    /// Self time of `name` per span of it, in microseconds; 0 when absent.
    pub fn self_us_per_span(&self, name: &str) -> f64 {
        self.row(name)
            .map_or(0.0, |r| r.self_s * 1e6 / r.count as f64)
    }

    /// Writes the spans (`[name, start_ns, end_ns, parent]`, parent an index
    /// into the same list or null) and the table.
    pub fn write(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        let mut names: Vec<&'static str> = self.rows.iter().map(|r| r.name).collect();
        names.sort_unstable();
        names.dedup();
        let name_id = |name: &str| {
            names
                .iter()
                .position(|n| *n == name)
                .expect("every span has a row")
        };
        let spans: Vec<_> = self
            .spans
            .iter()
            .zip(&self.parents)
            .map(|(s, parent)| json!([name_id(s.name), s.start_ns, s.end_ns, parent]))
            .collect();
        let rows: Vec<_> = self
            .rows
            .iter()
            .map(|r| {
                json!({
                    "name": r.name,
                    "track": format!("{:?}", r.track),
                    "count": r.count,
                    "total_s": r.total_s,
                    "self_s": r.self_s,
                })
            })
            .collect();
        let doc =
            json!({ "workload": workload, "names": names, "self_time": rows, "spans": spans });
        std::fs::write(path, doc.to_string())
    }
}
