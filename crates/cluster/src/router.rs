//! The cluster front-end: consistent-hash routing of verdict lookups
//! across N serve backends, with health checking and ring failover.
//!
//! A [`Router`] holds the shared placement state — the backend list,
//! the [`HashRing`], per-backend health flags
//! refreshed by a background `/readyz` prober — and hands out
//! per-thread [`RouterClient`]s that own their TCP connections. A
//! client routes each URL to its ring owner and fails over along the
//! ring's successor order when the owner is down, unreachable, or
//! shedding with `BUSY`; because successors are deterministic, every
//! router instance agrees on both the primary placement and the
//! failover path.
//!
//! `check_batch` is cluster-aware scatter/gather: URLs are grouped by
//! owning shard, one `CHECKN` frame (per [`MAX_BATCH`] chunk) is
//! written to every shard before any reply is read, and replies are
//! gathered in frame order so each URL's verdict lands back in its
//! request position. A shard that fails mid-gather only fails over its
//! own URLs — the rest of the batch is unaffected.
//!
//! A [`Router`] is itself a [`UrlChecker`], so the one serving engine
//! (`freephish_serve::EventedServer`) fronts it with the same verdict
//! wire the backends speak (line protocol plus `BINARY` upgrade), and
//! existing clients can point at a router instead of a single node
//! unchanged. Each engine call checks one client out of a pool, so a
//! poll worker holds at most one set of backend connections. The router
//! is read-only by design: `ADD` mutations belong on the primary's
//! journal, not sprayed at replicas, and are refused.

use crate::ring::HashRing;
use bytes::BytesMut;
use freephish_obs::sync::lock;
use freephish_obs::{Counter, Gauge, Histogram, MetricsSnapshot, Registry};
use freephish_serve::proto::{
    encode_bin_request, read_bin_reply, read_line_buffered, BinReply, BinRequest, HANDSHAKE_LINE,
    HANDSHAKE_OK, MAX_BATCH,
};
use freephish_serve::{http_get, UrlChecker, Verdict};
use std::io::{ErrorKind, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning for a router front-end.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Virtual nodes per backend on the hash ring.
    pub vnodes: usize,
    /// How often the health thread probes each backend.
    pub health_period: Duration,
    /// Bound on each backend connect attempt.
    pub connect_timeout: Duration,
    /// Read timeout while awaiting a backend reply.
    pub io_timeout: Duration,
    /// Ops-plane addresses probed via `GET /readyz`, parallel to the
    /// backend list. Backends without one (or when the list is empty)
    /// are probed with a bare TCP connect instead.
    pub ops_addrs: Vec<Option<SocketAddr>>,
}

impl Default for RouterConfig {
    fn default() -> RouterConfig {
        RouterConfig {
            vnodes: 64,
            health_period: Duration::from_millis(250),
            connect_timeout: Duration::from_millis(500),
            io_timeout: Duration::from_secs(5),
            ops_addrs: Vec::new(),
        }
    }
}

struct RouterMetrics {
    registry: Registry,
    requests: Arc<Counter>,
    urls_routed: Arc<Counter>,
    failovers: Arc<Counter>,
    shard_errors: Arc<Counter>,
    unroutable: Arc<Counter>,
    unhealthy: Arc<Gauge>,
    fanout_seconds: Arc<Histogram>,
}

impl RouterMetrics {
    fn new() -> RouterMetrics {
        let registry = Registry::new();
        RouterMetrics {
            requests: registry.counter("cluster_router_requests_total", &[]),
            urls_routed: registry.counter("cluster_router_urls_routed_total", &[]),
            failovers: registry.counter("cluster_router_failovers_total", &[]),
            shard_errors: registry.counter("cluster_router_shard_errors_total", &[]),
            unroutable: registry.counter("cluster_router_unroutable_total", &[]),
            unhealthy: registry.gauge("cluster_router_backends_unhealthy", &[]),
            fanout_seconds: registry.histogram("cluster_router_fanout_seconds", &[]),
            registry,
        }
    }
}

struct Shared {
    backends: Vec<SocketAddr>,
    ring: HashRing,
    healthy: Vec<AtomicBool>,
    cfg: RouterConfig,
    stop: AtomicBool,
    metrics: RouterMetrics,
}

impl Shared {
    fn is_healthy(&self, node: usize) -> bool {
        self.healthy[node].load(Ordering::Relaxed)
    }
}

/// Shared router state: ring, backend health, metrics. Cheap to clone
/// handles out of via [`Router::client`].
pub struct Router {
    shared: Arc<Shared>,
    /// Idle clients behind the [`UrlChecker`] face.
    pool: Mutex<Vec<RouterClient>>,
    health_thread: Option<JoinHandle<()>>,
}

impl Router {
    /// A router over `backends` with a background health prober.
    pub fn new(backends: Vec<SocketAddr>, cfg: RouterConfig) -> Router {
        assert!(!backends.is_empty(), "a router needs at least one backend");
        let n = backends.len();
        let shared = Arc::new(Shared {
            ring: HashRing::new(n, cfg.vnodes.max(1)),
            healthy: (0..n).map(|_| AtomicBool::new(true)).collect(),
            backends,
            cfg,
            stop: AtomicBool::new(false),
            metrics: RouterMetrics::new(),
        });
        let s = shared.clone();
        let health_thread = std::thread::Builder::new()
            .name("router-health".to_string())
            .spawn(move || health_loop(&s))
            .ok();
        Router {
            shared,
            pool: Mutex::new(Vec::new()),
            health_thread,
        }
    }

    /// A per-thread client with its own backend connections.
    pub fn client(&self) -> RouterClient {
        RouterClient {
            shared: self.shared.clone(),
            conns: (0..self.shared.backends.len()).map(|_| None).collect(),
        }
    }

    /// The backend a URL hashes to (before health/failover).
    pub fn owner_of(&self, url: &str) -> usize {
        self.shared.ring.node_for(url)
    }

    /// True while at least one backend passes health probes — the
    /// router can still answer (via failover) as long as this holds.
    pub fn any_backend_healthy(&self) -> bool {
        self.shared
            .healthy
            .iter()
            .any(|h| h.load(Ordering::Relaxed))
    }

    /// Snapshot of the `cluster_router_*` metrics.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.shared.metrics.registry.snapshot()
    }

    /// Stop the health thread; idempotent.
    pub fn shutdown(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.health_thread.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Router {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The serving engine's view of a router: every call routes as one
/// batch through a pooled [`RouterClient`].
impl UrlChecker for Router {
    fn check(&self, url: &str) -> Verdict {
        self.check_many(&[url.to_string()])[0]
    }

    /// Fails open, as the extension's navigation guard does: a URL no
    /// backend could answer is `Safe(0.0)`.
    fn check_many(&self, urls: &[String]) -> Vec<Verdict> {
        self.try_check_many(urls)
            .into_iter()
            .map(|r| r.unwrap_or(Verdict::Safe(0.0)))
            .collect()
    }

    fn try_check_many(&self, urls: &[String]) -> Vec<Result<Verdict, String>> {
        let pooled = lock(&self.pool).pop();
        let mut client = pooled.unwrap_or_else(|| self.client());
        let results = client.check_batch(urls);
        lock(&self.pool).push(client);
        results
    }

    fn add(&self, _url: &str, _score: f64) -> Result<u64, String> {
        Err("router is read-only; send writes to the primary".to_string())
    }
}

fn probe(shared: &Shared, node: usize) -> bool {
    if let Some(&Some(ops)) = shared.cfg.ops_addrs.get(node) {
        return matches!(http_get(ops, "/readyz"), Ok((200, _)));
    }
    TcpStream::connect_timeout(&shared.backends[node], shared.cfg.connect_timeout).is_ok()
}

fn health_loop(shared: &Shared) {
    while !shared.stop.load(Ordering::SeqCst) {
        let mut down = 0i64;
        for node in 0..shared.backends.len() {
            let up = probe(shared, node);
            let was = shared.healthy[node].swap(up, Ordering::Relaxed);
            if was != up {
                freephish_obs::info(
                    "cluster",
                    format!(
                        "backend {} ({}) is now {}",
                        node,
                        shared.backends[node],
                        if up { "healthy" } else { "unhealthy" }
                    ),
                );
            }
            if !up {
                down += 1;
            }
        }
        shared.metrics.unhealthy.set(down);
        let deadline = Instant::now() + shared.cfg.health_period;
        while Instant::now() < deadline && !shared.stop.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(20));
        }
    }
}

/// One shard's slice of a scattered batch: which backend, and which
/// positions of the caller's batch ride in each `CHECKN` chunk.
struct ShardPlan {
    node: usize,
    chunks: Vec<Vec<usize>>,
}

/// One backend connection and the reply bytes read off it but not yet
/// decoded: a shard may answer several pipelined frames in one segment,
/// so the buffer lives and dies with the stream.
struct Conn {
    stream: TcpStream,
    inbuf: BytesMut,
}

/// A router handle owning its own backend connections. Not `Sync`;
/// give each thread its own via [`Router::client`].
pub struct RouterClient {
    shared: Arc<Shared>,
    conns: Vec<Option<Conn>>,
}

impl RouterClient {
    fn conn(&mut self, node: usize) -> std::io::Result<&mut TcpStream> {
        if self.conns[node].is_none() {
            let shared = &self.shared;
            let mut stream =
                TcpStream::connect_timeout(&shared.backends[node], shared.cfg.connect_timeout)?;
            stream.set_nodelay(true).ok();
            stream.set_read_timeout(Some(shared.cfg.io_timeout))?;
            stream.write_all(format!("{HANDSHAKE_LINE}\n").as_bytes())?;
            let mut inbuf = BytesMut::new();
            let reply = read_line_buffered(&mut stream, &mut inbuf)?;
            if reply != HANDSHAKE_OK {
                return Err(std::io::Error::new(
                    ErrorKind::InvalidData,
                    format!("backend refused binary handshake: {reply}"),
                ));
            }
            self.conns[node] = Some(Conn { stream, inbuf });
        }
        Ok(&mut self.conns[node].as_mut().expect("just connected").stream)
    }

    fn read_reply(&mut self, node: usize) -> std::io::Result<BinReply> {
        let Conn { stream, inbuf } = self.conns[node]
            .as_mut()
            .ok_or_else(|| std::io::Error::from(ErrorKind::NotConnected))?;
        read_bin_reply(stream, inbuf)
    }

    /// Scatter a batch across its owning shards and gather verdicts
    /// back into request order. Each URL independently fails over along
    /// its ring successors; the result slot is `Err` only when every
    /// healthy backend refused it.
    pub fn check_batch(&mut self, urls: &[String]) -> Vec<Result<Verdict, String>> {
        let shared = self.shared.clone();
        let m = &shared.metrics;
        m.requests.inc();
        m.urls_routed.add(urls.len() as u64);
        let started = Instant::now();
        let mut out: Vec<Option<Result<Verdict, String>>> = urls.iter().map(|_| None).collect();
        // Each pending URL walks its own successor list; `next` is the
        // hop to try this round (0 = the ring owner).
        let mut pending: Vec<(usize, usize)> = (0..urls.len()).map(|i| (i, 0)).collect();
        while !pending.is_empty() {
            let mut plans: Vec<ShardPlan> = Vec::new();
            let mut carry: Vec<(usize, usize)> = Vec::new();
            for &(orig, mut next) in &pending {
                let succ = shared.ring.successors(&urls[orig]);
                while next < succ.len() && !shared.is_healthy(succ[next]) {
                    next += 1;
                }
                // Counted after the health skip, so a URL whose owner the
                // prober already marked down has failed over too.
                if next > 0 {
                    m.failovers.inc();
                }
                let Some(&node) = succ.get(next) else {
                    m.unroutable.inc();
                    out[orig] = Some(Err("no healthy backend".to_string()));
                    continue;
                };
                carry.push((orig, next));
                let plan = match plans.iter_mut().find(|p| p.node == node) {
                    Some(p) => p,
                    None => {
                        plans.push(ShardPlan {
                            node,
                            chunks: vec![Vec::new()],
                        });
                        plans.last_mut().expect("just pushed")
                    }
                };
                if plan.chunks.last().expect("non-empty").len() == MAX_BATCH {
                    plan.chunks.push(Vec::new());
                }
                plan.chunks.last_mut().expect("non-empty").push(orig);
            }
            pending = Vec::new();
            // Scatter: write every shard's frames before reading any
            // reply, so shards work concurrently.
            let mut write_ok: Vec<bool> = Vec::with_capacity(plans.len());
            for plan in &plans {
                write_ok.push(self.scatter(plan, urls).is_ok());
            }
            // Gather, in the same shard and chunk order the frames
            // were written.
            for (plan, wrote) in plans.iter().zip(write_ok) {
                let failed = if wrote {
                    self.gather(plan, &mut out)
                } else {
                    m.shard_errors.inc();
                    self.conns[plan.node] = None;
                    plan.chunks.iter().flatten().copied().collect()
                };
                for orig in failed {
                    let next = carry
                        .iter()
                        .find(|&&(o, _)| o == orig)
                        .map(|&(_, n)| n)
                        .unwrap_or(0);
                    pending.push((orig, next + 1));
                }
            }
        }
        m.fanout_seconds.record(started.elapsed().as_secs_f64());
        out.into_iter()
            .map(|slot| slot.unwrap_or_else(|| Err("unrouted url".to_string())))
            .collect()
    }

    fn scatter(&mut self, plan: &ShardPlan, urls: &[String]) -> Result<(), String> {
        let mut out = BytesMut::new();
        for chunk in &plan.chunks {
            let batch: Vec<String> = chunk.iter().map(|&i| urls[i].clone()).collect();
            encode_bin_request(&mut out, &BinRequest::CheckN(batch))?;
        }
        let stream = self.conn(plan.node).map_err(|e| e.to_string())?;
        stream.write_all(&out).map_err(|e| e.to_string())?;
        Ok(())
    }

    /// Read one reply per chunk; returns the original indexes that must
    /// fail over (all remaining chunks once the connection errors).
    fn gather(
        &mut self,
        plan: &ShardPlan,
        out: &mut [Option<Result<Verdict, String>>],
    ) -> Vec<usize> {
        let mut failed = Vec::new();
        let mut conn_dead = false;
        for chunk in &plan.chunks {
            if conn_dead {
                failed.extend_from_slice(chunk);
                continue;
            }
            match self.read_reply(plan.node) {
                Ok(BinReply::VerdictN(vs)) if vs.len() == chunk.len() => {
                    for (&orig, v) in chunk.iter().zip(vs) {
                        out[orig] = Some(Ok(v));
                    }
                }
                Ok(BinReply::Busy) => failed.extend_from_slice(chunk),
                Ok(other) => {
                    freephish_obs::warn(
                        "cluster",
                        format!("shard {} answered CHECKN with {other:?}", plan.node),
                    );
                    failed.extend_from_slice(chunk);
                    conn_dead = true;
                }
                Err(_) => {
                    failed.extend_from_slice(chunk);
                    conn_dead = true;
                }
            }
        }
        if conn_dead {
            // Transport or protocol failure — distinct from orderly
            // BUSY shedding, which only counts as a failover.
            self.shared.metrics.shard_errors.inc();
            self.conns[plan.node] = None;
        }
        failed
    }
}
