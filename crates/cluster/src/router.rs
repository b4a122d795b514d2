//! The cluster front-end: consistent-hash routing of verdict lookups
//! across N serve backends, with health checking and ring failover.
//!
//! A [`Router`] holds the shared placement state — the backend list,
//! the [`HashRing`](crate::ring::HashRing), per-backend health flags
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
//! [`RouterServer`] wraps all of this behind the same verdict wire the
//! backends speak (line protocol plus `BINARY` upgrade), so existing
//! clients can point at a router instead of a single node unchanged.
//! The router is read-only by design: `ADD` mutations belong on the
//! primary's journal, not sprayed at replicas, and are refused.

use crate::ring::HashRing;
use bytes::BytesMut;
use freephish_obs::{Counter, Gauge, Histogram, MetricsSnapshot, Registry};
use freephish_serve::proto::{
    decode_bin_reply, decode_request, encode_bin_request, encode_verdict, BinReply, BinRequest,
    Request, HANDSHAKE_LINE, HANDSHAKE_OK, MAX_BATCH,
};
use freephish_serve::{http_get, OpsConfig, Readiness, Verdict};
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
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
            stream.write_all(HANDSHAKE_LINE.as_bytes())?;
            stream.write_all(b"\n")?;
            let mut line = Vec::new();
            let mut byte = [0u8; 1];
            while line.last() != Some(&b'\n') {
                if line.len() > 256 {
                    return Err(std::io::Error::new(
                        ErrorKind::InvalidData,
                        "oversized handshake reply",
                    ));
                }
                stream.read_exact(&mut byte)?;
                line.push(byte[0]);
            }
            let reply = String::from_utf8_lossy(&line);
            if reply.trim() != HANDSHAKE_OK {
                return Err(std::io::Error::new(
                    ErrorKind::InvalidData,
                    format!("backend refused binary handshake: {}", reply.trim()),
                ));
            }
            self.conns[node] = Some(Conn {
                stream,
                inbuf: BytesMut::new(),
            });
        }
        Ok(&mut self.conns[node].as_mut().expect("just connected").stream)
    }

    fn read_reply(&mut self, node: usize) -> Result<BinReply, String> {
        let Conn { stream, inbuf } = self.conns[node]
            .as_mut()
            .ok_or_else(|| "connection lost".to_string())?;
        let mut chunk = [0u8; 16 * 1024];
        loop {
            if let Some(reply) = decode_bin_reply(inbuf)? {
                return Ok(reply);
            }
            match stream.read(&mut chunk) {
                Ok(0) => return Err("backend closed connection".to_string()),
                Ok(n) => inbuf.extend_from_slice(&chunk[..n]),
                Err(e) => return Err(format!("backend read failed: {e}")),
            }
        }
    }

    /// Route one URL: try its owner, then each ring successor, skipping
    /// unhealthy backends; `BUSY` and transport errors fail over.
    pub fn check(&mut self, url: &str) -> Result<Verdict, String> {
        let shared = self.shared.clone();
        let m = &shared.metrics;
        m.requests.inc();
        m.urls_routed.inc();
        let mut first = true;
        let mut last_err = "no healthy backend".to_string();
        for node in shared.ring.successors(url) {
            if !first {
                m.failovers.inc();
            }
            first = false;
            if !shared.is_healthy(node) {
                continue;
            }
            match self.try_check(node, url) {
                Ok(v) => return Ok(v),
                Err(e) => {
                    self.conns[node] = None;
                    last_err = e;
                }
            }
        }
        m.unroutable.inc();
        Err(last_err)
    }

    fn try_check(&mut self, node: usize, url: &str) -> Result<Verdict, String> {
        let mut out = BytesMut::new();
        encode_bin_request(&mut out, &BinRequest::Check(url.to_string()))?;
        let stream = self.conn(node).map_err(|e| e.to_string())?;
        stream.write_all(&out).map_err(|e| e.to_string())?;
        match self.read_reply(node)? {
            BinReply::Verdict(v) => Ok(v),
            BinReply::Busy => Err("backend busy".to_string()),
            BinReply::Error(msg) => Err(msg),
            other => Err(format!("unexpected reply to CHECK: {other:?}")),
        }
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
                // prober already marked down has failed over, as in `check`.
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

// ---------------------------------------------------------------------------
// Router server: the verdict wire, fronted by routing
// ---------------------------------------------------------------------------

/// A TCP front-end speaking the backend verdict protocol (line mode
/// plus `BINARY` upgrade) and answering every lookup through the ring.
pub struct RouterServer {
    router: Arc<Router>,
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl RouterServer {
    /// Bind `port` (0 picks a free one) and serve lookups via `router`.
    pub fn start(port: u16, router: Router) -> std::io::Result<RouterServer> {
        let listener = TcpListener::bind(("127.0.0.1", port))?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let router = Arc::new(router);
        let stop = Arc::new(AtomicBool::new(false));
        let (r, s) = (router.clone(), stop.clone());
        let handle = std::thread::Builder::new()
            .name("router-accept".to_string())
            .spawn(move || accept_loop(&listener, &r, &s))?;
        Ok(RouterServer {
            router,
            addr,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound front-end address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Snapshot of the underlying router's metrics.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.router.metrics_snapshot()
    }

    /// What this front-end exposes to an ops plane: the
    /// `cluster_router_*` series, and readiness that holds while any
    /// backend is healthy (with every backend down the ring has nowhere
    /// to fail over to, so `/readyz` goes 503).
    pub fn ops_config(&self) -> OpsConfig {
        let snap = self.router.clone();
        let ready = self.router.clone();
        OpsConfig {
            snapshot: Arc::new(move || snap.metrics_snapshot()),
            ready: Arc::new(move || {
                Readiness::ready()
                    .with_condition("any_backend_healthy", ready.any_backend_healthy())
            }),
            varz_extra: None,
            traces: None,
        }
    }

    /// Stop accepting; live connections drain on their own threads.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for RouterServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: &TcpListener, router: &Arc<Router>, stop: &Arc<AtomicBool>) {
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                let client = router.client();
                let stop = stop.clone();
                let _ = std::thread::Builder::new()
                    .name("router-conn".to_string())
                    .spawn(move || {
                        let _ = serve_conn(stream, client, &stop);
                    });
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(20)),
        }
    }
}

fn serve_conn(
    stream: TcpStream,
    mut client: RouterClient,
    stop: &AtomicBool,
) -> std::io::Result<()> {
    stream.set_nodelay(true).ok();
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    // Line mode until a BINARY handshake upgrades the connection.
    let mut line = String::new();
    loop {
        if stop.load(Ordering::SeqCst) {
            return Ok(());
        }
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Ok(());
        }
        if line.trim() == HANDSHAKE_LINE {
            writer.write_all(HANDSHAKE_OK.as_bytes())?;
            writer.write_all(b"\n")?;
            return serve_binary(reader, writer, client, stop);
        }
        let mut buf = BytesMut::from(line.as_bytes());
        match decode_request(&mut buf) {
            Ok(Some(Request::Check(url))) => match client.check(&url) {
                Ok(v) => writer.write_all(encode_verdict(&v).as_bytes())?,
                Err(msg) => writer.write_all(format!("ERROR {msg}\n").as_bytes())?,
            },
            Ok(Some(_)) => {
                writer.write_all(b"ERROR router is read-only; send writes to the primary\n")?;
            }
            Ok(None) => {}
            Err(msg) => writer.write_all(format!("ERROR {msg}\n").as_bytes())?,
        }
    }
}

fn serve_binary(
    mut reader: BufReader<TcpStream>,
    mut writer: TcpStream,
    mut client: RouterClient,
    stop: &AtomicBool,
) -> std::io::Result<()> {
    use freephish_serve::proto::{decode_bin_request, encode_bin_reply};
    let mut buf = BytesMut::from(&reader.buffer().to_vec()[..]);
    reader.consume(buf.len());
    let mut chunk = [0u8; 16 * 1024];
    let mut out = BytesMut::new();
    loop {
        loop {
            let req = match decode_bin_request(&mut buf) {
                Ok(Some(req)) => req,
                Ok(None) => break,
                Err(msg) => {
                    out.clear();
                    encode_bin_reply(&mut out, &BinReply::Error(msg));
                    writer.write_all(&out)?;
                    return Ok(());
                }
            };
            out.clear();
            let reply = match req {
                BinRequest::Check(url) => match client.check(&url) {
                    Ok(v) => BinReply::Verdict(v),
                    Err(msg) => BinReply::Error(msg),
                },
                BinRequest::CheckN(urls) => {
                    let results = client.check_batch(&urls);
                    match results.into_iter().collect::<Result<Vec<_>, _>>() {
                        Ok(vs) => BinReply::VerdictN(vs),
                        Err(msg) => BinReply::Error(msg),
                    }
                }
                _ => BinReply::Error("router is read-only; send writes to the primary".to_string()),
            };
            encode_bin_reply(&mut out, &reply);
            writer.write_all(&out)?;
        }
        if stop.load(Ordering::SeqCst) {
            return Ok(());
        }
        match reader.get_mut().read(&mut chunk) {
            Ok(0) => return Ok(()),
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}
