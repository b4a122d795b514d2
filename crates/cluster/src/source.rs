//! The primary side of replication: a listener that ships a store
//! directory's WAL to any number of followers.
//!
//! Each follower connection is one session, and a session is a
//! [`TailFollower`]: the store's own reader of its directory. The
//! follower says `HELLO` with its resume cursor. When the cursor is a
//! record boundary of a live segment the session **resumes** a follower
//! there, re-shipping nothing; otherwise (no cursor, a forged or
//! diverged one, or one whose segment is gone) it **bootstraps** a new
//! follower. It polls one segment at a time and maps each poll onto
//! frames: a (re)start becomes `RESET`, entering a segment becomes
//! `SEGMENT`, each record becomes `RECORD`, and a poll that ends on the
//! newest segment is followed by `TIP`. The source never writes the
//! store, so it can run inside the writing process or beside it.

use crate::wire::{decode_repl, encode_repl, ReplFrame};
use bytes::BytesMut;
use freephish_obs::sync::lock;
use freephish_obs::{Counter, Gauge, MetricsSnapshot, Registry};
use freephish_store::segment::{encode_frame_into, FRAME_OVERHEAD};
use freephish_store::{TailCursor, TailFollower};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long to wait for a connection's `HELLO` before dropping it.
const HELLO_TIMEOUT: Duration = Duration::from_secs(10);

/// Tuning for the replication source.
#[derive(Debug, Clone)]
pub struct SourceConfig {
    /// Port to bind on 127.0.0.1 (0 = ephemeral).
    pub port: u16,
    /// How often an idle session re-reads the directory for new bytes.
    pub poll_interval: Duration,
}

impl Default for SourceConfig {
    fn default() -> SourceConfig {
        SourceConfig {
            port: 0,
            poll_interval: Duration::from_millis(20),
        }
    }
}

struct SourceMetrics {
    registry: Registry,
    records_shipped: Arc<Counter>,
    bytes_shipped: Arc<Counter>,
    sessions_resume: Arc<Counter>,
    sessions_bootstrap: Arc<Counter>,
    followers: Arc<Gauge>,
}

impl SourceMetrics {
    fn new() -> SourceMetrics {
        let registry = Registry::new();
        SourceMetrics {
            records_shipped: registry.counter("cluster_source_records_shipped_total", &[]),
            bytes_shipped: registry.counter("cluster_source_bytes_shipped_total", &[]),
            sessions_resume: registry
                .counter("cluster_source_sessions_total", &[("mode", "resume")]),
            sessions_bootstrap: registry
                .counter("cluster_source_sessions_total", &[("mode", "bootstrap")]),
            followers: registry.gauge("cluster_source_followers", &[]),
            registry,
        }
    }
}

struct Shared {
    dir: PathBuf,
    cfg: SourceConfig,
    stop: AtomicBool,
    metrics: SourceMetrics,
}

/// The replication listener for one store directory.
pub struct ReplicationSource {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    sessions: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl ReplicationSource {
    /// Serve `dir` on 127.0.0.1 with default tuning (ephemeral port).
    pub fn start(dir: impl AsRef<Path>) -> std::io::Result<ReplicationSource> {
        ReplicationSource::start_with(dir, SourceConfig::default())
    }

    /// Serve `dir` with explicit tuning.
    pub fn start_with(
        dir: impl AsRef<Path>,
        cfg: SourceConfig,
    ) -> std::io::Result<ReplicationSource> {
        let listener = TcpListener::bind(("127.0.0.1", cfg.port))?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            dir: dir.as_ref().to_path_buf(),
            cfg,
            stop: AtomicBool::new(false),
            metrics: SourceMetrics::new(),
        });
        let sessions: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let s = shared.clone();
        let sess = sessions.clone();
        let acceptor = std::thread::Builder::new()
            .name("repl-source".to_string())
            .spawn(move || accept_loop(s, sess, listener))?;
        Ok(ReplicationSource {
            addr,
            shared,
            acceptor: Some(acceptor),
            sessions,
        })
    }

    /// Where followers connect.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Snapshot of the `cluster_source_*` metrics.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.shared.metrics.registry.snapshot()
    }

    /// A `'static` snapshot closure for merging the `cluster_source_*`
    /// series into an ops-plane scrape.
    pub fn snapshot_fn(&self) -> Arc<dyn Fn() -> MetricsSnapshot + Send + Sync> {
        let shared = self.shared.clone();
        Arc::new(move || shared.metrics.registry.snapshot())
    }

    /// Stop the listener and every session; idempotent.
    pub fn shutdown(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        for h in lock(&self.sessions).drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for ReplicationSource {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(shared: Arc<Shared>, sessions: Arc<Mutex<Vec<JoinHandle<()>>>>, l: TcpListener) {
    while !shared.stop.load(Ordering::SeqCst) {
        match l.accept() {
            Ok((stream, peer)) => {
                let s = shared.clone();
                let h = std::thread::Builder::new()
                    .name("repl-session".to_string())
                    .spawn(move || {
                        s.metrics.followers.inc();
                        if let Err(e) = run_session(&s, stream) {
                            freephish_obs::debug(
                                "cluster",
                                format!("replication session with {peer} ended: {e}"),
                            );
                        }
                        s.metrics.followers.dec();
                    });
                match h {
                    Ok(h) => lock(&sessions).push(h),
                    Err(e) => freephish_obs::warn("cluster", format!("spawn session: {e}")),
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(shared.cfg.poll_interval)
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => {
                freephish_obs::warn("cluster", format!("replication accept failed: {e}"));
                break;
            }
        }
    }
}

/// Read frames until one decodes, bounded by `deadline`.
fn read_frame(
    stream: &mut TcpStream,
    buf: &mut BytesMut,
    stop: &AtomicBool,
    deadline: Instant,
) -> std::io::Result<ReplFrame> {
    loop {
        if let Some(frame) = decode_repl(buf).map_err(invalid)? {
            return Ok(frame);
        }
        if stop.load(Ordering::SeqCst) {
            return Err(std::io::Error::other("source shutting down"));
        }
        if Instant::now() >= deadline {
            return Err(std::io::Error::new(ErrorKind::TimedOut, "no HELLO"));
        }
        let mut chunk = [0u8; 4096];
        match stream.read(&mut chunk) {
            Ok(0) => {
                return Err(std::io::Error::new(
                    ErrorKind::UnexpectedEof,
                    "follower closed",
                ))
            }
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {}
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

fn invalid(msg: String) -> std::io::Error {
    std::io::Error::new(ErrorKind::InvalidData, msg)
}

fn send(stream: &mut TcpStream, frame: &ReplFrame) -> std::io::Result<()> {
    let mut buf = BytesMut::new();
    encode_repl(&mut buf, frame).map_err(invalid)?;
    stream.write_all(&buf)
}

/// One follower session: handshake, then `TailFollower` polls shipped
/// as frames, a `TIP` once a poll ends on the newest segment.
fn run_session(shared: &Shared, mut stream: TcpStream) -> std::io::Result<()> {
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(Some(Duration::from_millis(100)))?;
    let mut buf = BytesMut::new();
    let hello = read_frame(
        &mut stream,
        &mut buf,
        &shared.stop,
        Instant::now() + HELLO_TIMEOUT,
    )?;
    let ReplFrame::Hello(cursor) = hello else {
        send(&mut stream, &ReplFrame::Error("expected HELLO".into())).ok();
        return Err(invalid(format!("expected HELLO, got {hello:?}")));
    };

    // Resume at the follower's cursor when it is a record boundary of a
    // live segment; otherwise the first poll bootstraps.
    let mut follower = match cursor.segment {
        Some(segment) => TailFollower::resume(
            &shared.dir,
            TailCursor {
                segment,
                offset: cursor.offset,
            },
        ),
        None => TailFollower::new(&shared.dir),
    };
    // The segment the follower was last told about.
    let mut announced = follower.cursor().map(|c| c.segment);
    match (announced, cursor.segment) {
        (Some(index), _) => {
            shared.metrics.sessions_resume.inc();
            send(&mut stream, &ReplFrame::Segment { index })?;
        }
        (None, Some(seg)) => {
            let at = format!("({seg}, {})", cursor.offset);
            let msg = format!("cursor {at} is no live record boundary; bootstrapping");
            freephish_obs::debug("cluster", msg);
        }
        (None, None) => {}
    }

    let mut out = BytesMut::new();
    while !shared.stop.load(Ordering::SeqCst) {
        // One segment a poll keeps a bootstrap's memory to one segment.
        let before = follower.cursor().map(|c| c.segment);
        let batch = follower.poll_segment().inspect_err(|e| {
            let msg = format!("primary WAL is unreadable: {e}");
            send(&mut stream, &ReplFrame::Error(msg)).ok();
        })?;
        if let Some(start) = batch.start {
            shared.metrics.sessions_bootstrap.inc();
            let first_segment = start.first_segment;
            encode_repl(&mut out, &ReplFrame::Reset { first_segment }).map_err(invalid)?;
            announced = None;
            announce(&mut out, &mut announced, first_segment)?;
        }
        let shipped = !batch.records.is_empty();
        for (pos, payload) in batch.records {
            announce(&mut out, &mut announced, pos.segment)?;
            let mut frame = Vec::with_capacity(FRAME_OVERHEAD as usize + payload.len());
            encode_frame_into(&mut frame, &payload);
            shared.metrics.records_shipped.inc();
            shared.metrics.bytes_shipped.add(frame.len() as u64);
            let record = ReplFrame::Record {
                segment: pos.segment,
                end_offset: pos.end_offset,
                frame,
            };
            encode_repl(&mut out, &record).map_err(invalid)?;
            if out.len() >= 64 << 10 {
                stream.write_all(&out)?;
                out.clear();
            }
        }
        // A segment the follower entered with no record in it yet.
        let now = follower.cursor().map(|c| c.segment);
        if let Some(segment) = now {
            announce(&mut out, &mut announced, segment)?;
        }
        // Tip for lag accounting; doubles as a liveness heartbeat and
        // detects followers that went away while we idle. A poll that
        // moved on to a segment not yet read reads it first.
        let moved = now != before;
        if let Some(tip) = batch.tip.filter(|_| !moved) {
            let frame = ReplFrame::Tip {
                segment: tip.segment,
                offset: tip.end_offset,
            };
            encode_repl(&mut out, &frame).map_err(invalid)?;
        }
        stream.write_all(&out)?;
        out.clear();
        if !shipped && !moved {
            std::thread::sleep(shared.cfg.poll_interval);
        }
    }
    Ok(())
}

/// Queue `SEGMENT` for `segment` unless the follower already has it.
fn announce(out: &mut BytesMut, announced: &mut Option<u32>, segment: u32) -> std::io::Result<()> {
    if *announced != Some(segment) {
        *announced = Some(segment);
        encode_repl(out, &ReplFrame::Segment { index: segment }).map_err(invalid)?;
    }
    Ok(())
}
