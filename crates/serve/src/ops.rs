//! The ops plane: a std-only HTTP/1.1 scrape endpoint on its own port.
//!
//! Production serving needs a second listener that never competes with
//! the data plane: Prometheus scrapes, readiness probes, and trace
//! inspection must work even while the verdict port is saturated or
//! load-shedding. [`OpsServer`] is that listener — one dedicated thread,
//! no protocol upgrades, no keep-alive, each request answered and the
//! connection closed. At scrape rates (a few requests per second at
//! most) that is the entire requirement, and it keeps the implementation
//! free of connection state machines.
//!
//! ## Endpoints
//!
//! | path           | content                                                  |
//! |----------------|----------------------------------------------------------|
//! | `/metrics`     | Prometheus text exposition of the engine snapshot        |
//! | `/varz`        | the same snapshot as JSON (plus engine-specific extras)  |
//! | `/healthz`     | liveness: `200 ok` whenever the thread can answer        |
//! | `/readyz`      | readiness: `200`/`503` from the engine's readiness hook  |
//! | `/events`      | the retained tail of the global structured-event log     |
//! | `/traces/slow` | tail-sampled slow traces from the engine's trace store   |
//!
//! The server does not know what engine it fronts. Everything it serves
//! comes through [`OpsConfig`] closures, so the evented server, the
//! cluster router, and tests can all mount the same plane. Scrape cost
//! is itself observable: the ops server keeps its own tiny registry
//! (`ops_requests_total{path=...}`, `ops_scrape_seconds`) and merges it
//! into every snapshot it serves.

use crate::sys::{poll_fds, PollFd, POLLIN};
use freephish_obs::{global_events, to_json, to_prometheus, MetricsSnapshot, TraceStore};
use serde_json::{json, Value};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Result of the readiness hook, served at `/readyz`.
#[derive(Debug, Clone)]
pub struct Readiness {
    /// True once the engine can serve correct answers.
    pub ready: bool,
    /// Named sub-conditions (`("index_published", true)`, ...), all of
    /// which must hold for `ready`.
    pub conditions: Vec<(&'static str, bool)>,
}

impl Readiness {
    /// Readiness from sub-conditions: ready iff all hold.
    pub fn from_conditions(conditions: Vec<(&'static str, bool)>) -> Readiness {
        Readiness {
            ready: conditions.iter().all(|(_, ok)| *ok),
            conditions,
        }
    }

    /// Always-ready (engines with no startup dependencies).
    pub fn ready() -> Readiness {
        Readiness {
            ready: true,
            conditions: Vec::new(),
        }
    }

    /// Append a named sub-condition and re-derive `ready` (all conditions
    /// must hold). This is how wrappers compose engine readiness with
    /// their own startup dependencies without re-stating the engine's.
    pub fn with_condition(mut self, name: &'static str, ok: bool) -> Readiness {
        self.conditions.push((name, ok));
        self.ready = self.conditions.iter().all(|(_, ok)| *ok);
        self
    }

    fn to_json(&self) -> Value {
        let mut conds = serde_json::Map::new();
        for (name, ok) in &self.conditions {
            conds.insert(name.to_string(), json!(*ok));
        }
        json!({ "ready": self.ready, "conditions": conds })
    }
}

/// What an engine exposes to its ops plane.
#[derive(Clone)]
pub struct OpsConfig {
    /// Full metrics snapshot of the engine (called per scrape).
    pub snapshot: Arc<dyn Fn() -> MetricsSnapshot + Send + Sync>,
    /// Readiness evaluation (called per `/readyz`).
    pub ready: Arc<dyn Fn() -> Readiness + Send + Sync>,
    /// Extra top-level `/varz` fields (engine identity, addresses, ...).
    pub varz_extra: Option<Arc<dyn Fn() -> Value + Send + Sync>>,
    /// Trace store backing `/traces/slow`; absent serves an empty list.
    pub traces: Option<Arc<TraceStore>>,
}

impl OpsConfig {
    /// A config serving a fixed snapshot and unconditional readiness —
    /// the minimal mountable plane, mostly for tests.
    pub fn fixed(snapshot: MetricsSnapshot) -> OpsConfig {
        OpsConfig {
            snapshot: Arc::new(move || snapshot.clone()),
            ready: Arc::new(Readiness::ready),
            varz_extra: None,
            traces: None,
        }
    }

    /// Derive a config whose `/readyz` additionally requires
    /// `condition()`: the engine's own conditions are preserved and the
    /// named one appended, so `/readyz` stays 503 until every layer —
    /// engine and wrapper alike — is up.
    pub fn with_ready_condition(
        self,
        name: &'static str,
        condition: Arc<dyn Fn() -> bool + Send + Sync>,
    ) -> OpsConfig {
        let inner = self.ready.clone();
        OpsConfig {
            ready: Arc::new(move || inner().with_condition(name, condition())),
            ..self
        }
    }

    /// Derive a config whose snapshot additionally merges `extra()` —
    /// how an engine surfaces a sidecar component's registry (e.g. a
    /// resolver pipeline's `resolver_*` series) through the same scrape.
    pub fn with_snapshot_merge(
        self,
        extra: Arc<dyn Fn() -> MetricsSnapshot + Send + Sync>,
    ) -> OpsConfig {
        let inner = self.snapshot.clone();
        OpsConfig {
            snapshot: Arc::new(move || {
                let mut snap = inner();
                snap.merge(&extra());
                snap
            }),
            ..self
        }
    }
}

/// Per-request/response limits. Scrapes are tiny; anything bigger is a
/// client error, not a use case.
const MAX_REQUEST_BYTES: usize = 8 * 1024;
const IO_TIMEOUT: Duration = Duration::from_secs(2);
const POLL_TICK_MS: i32 = 100;

struct OpsShared {
    cfg: OpsConfig,
    shutdown: AtomicBool,
    registry: freephish_obs::Registry,
}

impl OpsShared {
    /// Engine snapshot plus the ops plane's own metrics and the event
    /// log's drop accounting — one merged view per scrape.
    fn merged_snapshot(&self) -> MetricsSnapshot {
        let mut snap = (self.cfg.snapshot)();
        snap.merge(&self.registry.snapshot());
        global_events().export_into(&mut snap);
        if let Some(traces) = &self.cfg.traces {
            traces.counters_into(&mut snap);
        }
        // Stamped at scrape time so /varz and /metrics carry a current
        // RSS reading for every engine, with no sampler thread.
        freephish_obs::rss_gauge_into(&mut snap);
        snap
    }
}

/// The ops-plane HTTP listener. Binds at construction; serves until
/// dropped or [`OpsServer::shutdown`].
pub struct OpsServer {
    addr: SocketAddr,
    shared: Arc<OpsShared>,
    thread: Option<JoinHandle<()>>,
}

impl OpsServer {
    /// Bind `127.0.0.1:port` (0 = ephemeral) and start serving.
    pub fn start(port: u16, cfg: OpsConfig) -> std::io::Result<OpsServer> {
        let listener = TcpListener::bind(("127.0.0.1", port))?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(OpsShared {
            cfg,
            shutdown: AtomicBool::new(false),
            registry: freephish_obs::Registry::new(),
        });
        let s = shared.clone();
        let thread = std::thread::Builder::new()
            .name("serve-ops".to_string())
            .spawn(move || serve_loop(s, listener))?;
        Ok(OpsServer {
            addr,
            shared,
            thread: Some(thread),
        })
    }

    /// Where the ops plane listens.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop the listener thread. Safe to call twice.
    pub fn shutdown(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for OpsServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn serve_loop(s: Arc<OpsShared>, listener: TcpListener) {
    while !s.shutdown.load(Ordering::SeqCst) {
        let mut fds = [PollFd::new(listener.as_raw_fd(), POLLIN)];
        if poll_fds(&mut fds, POLL_TICK_MS).is_err() || !fds[0].has(POLLIN) {
            continue;
        }
        loop {
            match listener.accept() {
                Ok((stream, _)) => handle_connection(&s, stream),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    freephish_obs::warn("ops", format!("accept failed: {e}"));
                    break;
                }
            }
        }
    }
}

/// Serve exactly one request and close. Scrape clients are trusted local
/// tooling; the timeouts are there so a wedged client cannot wedge the
/// ops thread forever.
fn handle_connection(s: &Arc<OpsShared>, stream: TcpStream) {
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
    let mut stream = stream;
    let path = match read_request_path(&mut stream) {
        Ok(Some(path)) => path,
        Ok(None) => {
            let _ = write_response(&mut stream, 405, "text/plain", "only GET is served\n");
            return;
        }
        Err(_) => return,
    };
    let watch = freephish_obs::Stopwatch::start();
    let scrape_seconds = s.registry.histogram("ops_scrape_seconds", &[]);
    let (status, content_type, body) = route(s, &path);
    s.registry
        .counter("ops_requests_total", &[("path", normalize_path(&path))])
        .inc();
    let _ = write_response(&mut stream, status, content_type, &body);
    watch.record(&scrape_seconds);
}

/// Collapse unknown paths so the label set stays bounded.
fn normalize_path(path: &str) -> &'static str {
    match path {
        "/metrics" => "/metrics",
        "/varz" => "/varz",
        "/healthz" => "/healthz",
        "/readyz" => "/readyz",
        "/events" => "/events",
        "/traces/slow" => "/traces/slow",
        _ => "other",
    }
}

fn route(s: &Arc<OpsShared>, path: &str) -> (u16, &'static str, String) {
    match path {
        "/metrics" => (
            200,
            "text/plain; version=0.0.4",
            to_prometheus(&s.merged_snapshot()),
        ),
        "/varz" => {
            let mut varz = to_json(&s.merged_snapshot());
            if let Some(extra) = &s.cfg.varz_extra {
                if let (Some(obj), Some(add)) = (varz.as_object_mut(), extra().as_object()) {
                    for (k, v) in add.iter() {
                        obj.insert(k.clone(), v.clone());
                    }
                }
            }
            (200, "application/json", varz.to_string())
        }
        "/healthz" => (200, "text/plain", "ok\n".to_string()),
        "/readyz" => {
            let readiness = (s.cfg.ready)();
            let status = if readiness.ready { 200 } else { 503 };
            (status, "application/json", readiness.to_json().to_string())
        }
        "/events" => {
            let events: Vec<Value> = global_events()
                .recent()
                .iter()
                .map(|e| {
                    json!({
                        "seq": e.seq,
                        "level": e.level.as_str(),
                        "target": e.target,
                        "message": e.message,
                    })
                })
                .collect();
            let body = json!({
                "suppressed": global_events().suppressed(),
                "evicted": global_events().evicted(),
                "events": events,
            });
            (200, "application/json", body.to_string())
        }
        "/traces/slow" => {
            let body = match &s.cfg.traces {
                Some(t) => t.slow_json(),
                None => json!({ "slow_threshold_us": Value::Null, "traces": [] }),
            };
            (200, "application/json", body.to_string())
        }
        _ => (404, "text/plain", format!("no such endpoint: {path}\n")),
    }
}

/// Read one request head; `Ok(Some(path))` for a GET, `Ok(None)` for any
/// other method. The body (there should be none) is ignored.
fn read_request_path(stream: &mut TcpStream) -> std::io::Result<Option<String>> {
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 1024];
    while !buf.windows(4).any(|w| w == b"\r\n\r\n") && !buf.windows(2).any(|w| w == b"\n\n") {
        if buf.len() > MAX_REQUEST_BYTES {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "request head too large",
            ));
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            break;
        }
        buf.extend_from_slice(&chunk[..n]);
    }
    let head = String::from_utf8_lossy(&buf);
    let request_line = head.lines().next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    match (parts.next(), parts.next()) {
        (Some("GET"), Some(target)) => {
            // Strip any query string; the plane has no parameters yet.
            let path = target.split('?').next().unwrap_or(target);
            Ok(Some(path.to_string()))
        }
        _ => Ok(None),
    }
}

fn write_response(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    let reason = match status {
        200 => "OK",
        404 => "Not Found",
        405 => "Method Not Allowed",
        503 => "Service Unavailable",
        _ => "Unknown",
    };
    let head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// Minimal scrape client: `GET path` against `addr`, returning `(status,
/// body)`. Shared by the load generator, the CI smoke binary, and the
/// integration tests so they all exercise the same client path.
pub fn http_get(addr: SocketAddr, path: &str) -> std::io::Result<(u16, String)> {
    let stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    stream.set_write_timeout(Some(Duration::from_secs(5)))?;
    let mut stream = stream;
    stream.write_all(
        format!("GET {path} HTTP/1.1\r\nHost: ops\r\nConnection: close\r\n\r\n").as_bytes(),
    )?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let text = String::from_utf8_lossy(&raw).into_owned();
    let (head, body) = match text.split_once("\r\n\r\n") {
        Some((h, b)) => (h, b),
        None => {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "malformed HTTP response",
            ))
        }
    };
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::InvalidData, "malformed status line")
        })?;
    Ok((status, body.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use freephish_obs::Registry;

    fn sample_snapshot() -> MetricsSnapshot {
        let r = Registry::new();
        r.counter("serve_requests_total", &[("kind", "check")])
            .add(5);
        r.gauge("serve_connections_active", &[]).set(2);
        r.histogram("serve_service_seconds", &[]).record(0.003);
        r.snapshot()
    }

    #[test]
    fn metrics_and_varz_serve_the_snapshot() {
        let mut ops = OpsServer::start(0, OpsConfig::fixed(sample_snapshot())).unwrap();
        let (status, body) = http_get(ops.addr(), "/metrics").unwrap();
        assert_eq!(status, 200);
        assert!(
            body.contains("serve_requests_total{kind=\"check\"} 5"),
            "{body}"
        );
        assert!(body.contains("# TYPE serve_service_seconds histogram"));
        let (status, body) = http_get(ops.addr(), "/varz").unwrap();
        assert_eq!(status, 200);
        let varz: Value = serde_json::from_str(&body).unwrap();
        assert_eq!(varz["gauges"]["serve_connections_active"], 2);
        ops.shutdown();
    }

    #[test]
    fn rss_gauge_rides_every_scrape() {
        let ops = OpsServer::start(0, OpsConfig::fixed(MetricsSnapshot::empty())).unwrap();
        let (_, body) = http_get(ops.addr(), "/metrics").unwrap();
        let rss_line = body
            .lines()
            .find(|l| l.starts_with("process_rss_bytes "))
            .expect("metrics must carry process_rss_bytes");
        let rss: i64 = rss_line.split_whitespace().nth(1).unwrap().parse().unwrap();
        assert!(rss > 0);
        let (_, body) = http_get(ops.addr(), "/varz").unwrap();
        let v: Value = serde_json::from_str(&body).unwrap();
        assert!(v["gauges"]["process_rss_bytes"].as_i64().unwrap() > 0);
    }

    #[test]
    fn scrape_cost_is_itself_scrapeable() {
        let ops = OpsServer::start(0, OpsConfig::fixed(MetricsSnapshot::empty())).unwrap();
        let _ = http_get(ops.addr(), "/metrics").unwrap();
        let (_, body) = http_get(ops.addr(), "/metrics").unwrap();
        assert!(
            body.contains("ops_requests_total{path=\"/metrics\"} 1"),
            "second scrape must see the first accounted: {body}"
        );
        assert!(body.contains("# TYPE ops_scrape_seconds histogram"));
    }

    #[test]
    fn readiness_gates_the_status_code() {
        let ready = Arc::new(AtomicBool::new(false));
        let hook = ready.clone();
        let cfg = OpsConfig {
            snapshot: Arc::new(MetricsSnapshot::empty),
            ready: Arc::new(move || {
                Readiness::from_conditions(vec![
                    ("index_published", hook.load(Ordering::SeqCst)),
                    ("journal_tail_caught_up", true),
                ])
            }),
            varz_extra: None,
            traces: None,
        };
        let ops = OpsServer::start(0, cfg).unwrap();
        let (status, body) = http_get(ops.addr(), "/readyz").unwrap();
        assert_eq!(status, 503);
        let v: Value = serde_json::from_str(&body).unwrap();
        assert_eq!(v["ready"], false);
        assert_eq!(v["conditions"]["index_published"], false);
        ready.store(true, Ordering::SeqCst);
        let (status, body) = http_get(ops.addr(), "/readyz").unwrap();
        assert_eq!(status, 200);
        let v: Value = serde_json::from_str(&body).unwrap();
        assert_eq!(v["ready"], true);
    }

    #[test]
    fn composed_condition_gates_readyz_and_merged_snapshot_serves_extras() {
        let warm = Arc::new(AtomicBool::new(false));
        let hook = warm.clone();
        let extra_reg = Registry::new();
        extra_reg.counter("resolver_requests_total", &[]).add(3);
        let extra_snap = extra_reg.snapshot();
        let cfg = OpsConfig {
            snapshot: Arc::new(MetricsSnapshot::empty),
            ready: Arc::new(|| Readiness::from_conditions(vec![("index_published", true)])),
            varz_extra: None,
            traces: None,
        }
        .with_ready_condition(
            "classifier_warm",
            Arc::new(move || hook.load(Ordering::SeqCst)),
        )
        .with_snapshot_merge(Arc::new(move || extra_snap.clone()));
        let ops = OpsServer::start(0, cfg).unwrap();
        // Engine ready, wrapper condition not: composed /readyz is 503
        // and names both conditions.
        let (status, body) = http_get(ops.addr(), "/readyz").unwrap();
        assert_eq!(status, 503);
        let v: Value = serde_json::from_str(&body).unwrap();
        assert_eq!(v["conditions"]["index_published"], true);
        assert_eq!(v["conditions"]["classifier_warm"], false);
        warm.store(true, Ordering::SeqCst);
        let (status, _) = http_get(ops.addr(), "/readyz").unwrap();
        assert_eq!(status, 200);
        // The merged sidecar series comes out of the same scrape.
        let (_, body) = http_get(ops.addr(), "/metrics").unwrap();
        assert!(body.contains("resolver_requests_total 3"), "{body}");
    }

    #[test]
    fn healthz_events_and_unknown_paths() {
        let ops = OpsServer::start(0, OpsConfig::fixed(MetricsSnapshot::empty())).unwrap();
        let (status, body) = http_get(ops.addr(), "/healthz").unwrap();
        assert_eq!((status, body.as_str()), (200, "ok\n"));
        let (status, body) = http_get(ops.addr(), "/events").unwrap();
        assert_eq!(status, 200);
        let v: Value = serde_json::from_str(&body).unwrap();
        assert!(v["events"].is_array());
        let (status, _) = http_get(ops.addr(), "/nope").unwrap();
        assert_eq!(status, 404);
    }

    #[test]
    fn traces_slow_serves_the_store() {
        let traces = Arc::new(TraceStore::new());
        let cfg = OpsConfig {
            snapshot: Arc::new(MetricsSnapshot::empty),
            ready: Arc::new(Readiness::ready),
            varz_extra: Some(Arc::new(|| json!({ "engine": "test" }))),
            traces: Some(traces.clone()),
        };
        let ops = OpsServer::start(0, cfg).unwrap();
        let (status, body) = http_get(ops.addr(), "/traces/slow").unwrap();
        assert_eq!(status, 200);
        let v: Value = serde_json::from_str(&body).unwrap();
        assert_eq!(v["traces"].as_array().unwrap().len(), 0);
        let (_, body) = http_get(ops.addr(), "/varz").unwrap();
        let v: Value = serde_json::from_str(&body).unwrap();
        assert_eq!(v["engine"], "test");
        assert_eq!(v["counters"]["trace_requests_total"], 0);
    }
}
