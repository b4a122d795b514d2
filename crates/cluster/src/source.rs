//! The primary side of replication: a listener that ships a store
//! directory's WAL to any number of followers.
//!
//! Each follower connection is one session: the follower says `HELLO`
//! with its resume cursor, the source decides between **resume** (the
//! cursor names a live segment at a valid record boundary — stream
//! from exactly there, re-shipping nothing) and **bootstrap** (no
//! usable cursor, or compaction has deleted the follower's segment —
//! ship the newest snapshot, or a `RESET`, then every live segment),
//! and then tails the directory, shipping records as the primary
//! appends them. The source never writes the store; it is a reader
//! exactly like [`freephish_store::TailFollower`], so it can run inside
//! the writing process or beside it.
//!
//! Cursor validation is strict: an offset that is not a record
//! boundary of the named segment (a forged or diverged cursor) demotes
//! the session to a bootstrap rather than shipping bytes that would
//! desynchronize the follower's framing.

use crate::wire::{decode_repl, encode_repl, ReplCursor, ReplFrame};
use bytes::BytesMut;
use freephish_obs::sync::lock;
use freephish_obs::{Counter, Gauge, MetricsSnapshot, Registry};
use freephish_store::segment::{
    encode_frame_into, parse_segment_name, scan_buffer, segment_file_name, Torn, FRAME_OVERHEAD,
    SEGMENT_HEADER_LEN,
};
use freephish_store::snapshot::{load_snapshot, parse_snapshot_name, snapshot_file_name};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning for the replication source.
#[derive(Debug, Clone)]
pub struct SourceConfig {
    /// Port to bind on 127.0.0.1 (0 = ephemeral).
    pub port: u16,
    /// How often an idle session re-reads the directory for new bytes.
    pub poll_interval: Duration,
    /// How long to wait for a connection's `HELLO` before dropping it.
    pub hello_timeout: Duration,
}

impl Default for SourceConfig {
    fn default() -> SourceConfig {
        SourceConfig {
            port: 0,
            poll_interval: Duration::from_millis(20),
            hello_timeout: Duration::from_secs(10),
        }
    }
}

/// List the indices of files in `dir` matching `parse`, sorted.
pub(crate) fn list_indexed(
    dir: &Path,
    parse: fn(&str) -> Option<u32>,
) -> std::io::Result<Vec<u32>> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let name = entry?.file_name();
        if let Some(idx) = name.to_str().and_then(parse) {
            out.push(idx);
        }
    }
    out.sort_unstable();
    Ok(out)
}

struct SourceMetrics {
    registry: Registry,
    records_shipped: Arc<Counter>,
    bytes_shipped: Arc<Counter>,
    snapshots_shipped: Arc<Counter>,
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
            snapshots_shipped: registry.counter("cluster_source_snapshots_shipped_total", &[]),
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

/// The record boundaries of a segment's current bytes: header end plus
/// each valid record's end offset, stopping at the first defect.
fn boundaries(bytes: &[u8]) -> Vec<u64> {
    let mut out = vec![SEGMENT_HEADER_LEN];
    if bytes.len() < SEGMENT_HEADER_LEN as usize {
        return out;
    }
    let (records, _) = scan_buffer(&bytes[SEGMENT_HEADER_LEN as usize..]);
    let mut off = SEGMENT_HEADER_LEN;
    for r in &records {
        off += FRAME_OVERHEAD + r.len() as u64;
        out.push(off);
    }
    out
}

/// One follower session: handshake, placement, then tail-and-ship.
fn run_session(shared: &Shared, mut stream: TcpStream) -> std::io::Result<()> {
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(Some(Duration::from_millis(100)))?;
    let mut buf = BytesMut::new();
    let hello = read_frame(
        &mut stream,
        &mut buf,
        &shared.stop,
        Instant::now() + shared.cfg.hello_timeout,
    )?;
    let ReplFrame::Hello(cursor) = hello else {
        send(&mut stream, &ReplFrame::Error("expected HELLO".into())).ok();
        return Err(invalid(format!("expected HELLO, got {hello:?}")));
    };

    let mut cursor = Some(cursor);
    loop {
        // (Re-)place the session: resume at the cursor when it is a
        // valid boundary of a live segment, bootstrap otherwise. The
        // loop re-enters here whenever compaction deletes the segment
        // being streamed.
        let (mut seg, mut off) = place(shared, &mut stream, cursor.take())?;
        send(&mut stream, &ReplFrame::Segment { index: seg })?;

        loop {
            if shared.stop.load(Ordering::SeqCst) {
                return Ok(());
            }
            let segs = list_indexed(&shared.dir, parse_segment_name)?;
            let Some(&first) = segs.first() else {
                std::thread::sleep(shared.cfg.poll_interval);
                continue;
            };
            if seg < first {
                // Compacted out from under this session: re-bootstrap.
                break;
            }
            let bytes = match std::fs::read(shared.dir.join(segment_file_name(seg))) {
                Ok(b) => b,
                Err(e) if e.kind() == ErrorKind::NotFound => break,
                Err(e) => return Err(e),
            };
            let mut shipped = false;
            if bytes.len() as u64 > off {
                let (records, torn) = scan_buffer(&bytes[off as usize..]);
                let mut out = BytesMut::new();
                for payload in &records {
                    off += FRAME_OVERHEAD + payload.len() as u64;
                    let mut frame = Vec::with_capacity(FRAME_OVERHEAD as usize + payload.len());
                    encode_frame_into(&mut frame, payload);
                    encode_repl(
                        &mut out,
                        &ReplFrame::Record {
                            segment: seg,
                            end_offset: off,
                            frame,
                        },
                    )
                    .map_err(invalid)?;
                    shared.metrics.records_shipped.inc();
                    shared
                        .metrics
                        .bytes_shipped
                        .add(FRAME_OVERHEAD + payload.len() as u64);
                    shipped = true;
                }
                match torn {
                    // A partial tail is the live append in progress.
                    None | Some(Torn::PartialFrame) => {}
                    Some(defect) => {
                        send(
                            &mut stream,
                            &ReplFrame::Error(format!("primary segment {seg} is corrupt")),
                        )
                        .ok();
                        return Err(invalid(format!(
                            "segment {seg} mid-file defect: {defect:?}"
                        )));
                    }
                }
                if shipped {
                    stream.write_all(&out)?;
                }
            }
            // Rotate once this segment is fully shipped and a later one
            // exists (the store only rotates after sealing the old
            // segment, so "a successor exists" marks it complete).
            let next = segs.iter().copied().find(|&s| s > seg);
            if let Some(next) = next {
                if off >= bytes.len() as u64 {
                    seg = next;
                    off = SEGMENT_HEADER_LEN;
                    send(&mut stream, &ReplFrame::Segment { index: seg })?;
                    continue;
                }
            }
            // Tip for lag accounting; doubles as a liveness heartbeat
            // and detects followers that went away while we idle.
            let tip_seg = *segs.last().expect("non-empty");
            let tip_len = std::fs::metadata(shared.dir.join(segment_file_name(tip_seg)))
                .map(|m| m.len())
                .unwrap_or(SEGMENT_HEADER_LEN);
            send(
                &mut stream,
                &ReplFrame::Tip {
                    segment: tip_seg,
                    offset: tip_len.max(SEGMENT_HEADER_LEN),
                },
            )?;
            if !shipped {
                std::thread::sleep(shared.cfg.poll_interval);
            }
        }
    }
}

/// Decide where a session starts. Returns `(segment, offset)` to stream
/// from, after sending any bootstrap frames.
fn place(
    shared: &Shared,
    stream: &mut TcpStream,
    cursor: Option<ReplCursor>,
) -> std::io::Result<(u32, u64)> {
    loop {
        let segs = list_indexed(&shared.dir, parse_segment_name)?;
        let Some(&first) = segs.first() else {
            // An empty directory: wait for the store to create it.
            if shared.stop.load(Ordering::SeqCst) {
                return Err(std::io::Error::other("source shutting down"));
            }
            std::thread::sleep(shared.cfg.poll_interval);
            continue;
        };

        // Resume: the cursor names a live segment at a valid boundary.
        if let Some(c) = cursor {
            if let Some(seg) = c.segment {
                if segs.contains(&seg) {
                    let bytes = std::fs::read(shared.dir.join(segment_file_name(seg)))?;
                    if boundaries(&bytes).contains(&c.offset) {
                        shared.metrics.sessions_resume.inc();
                        return Ok((seg, c.offset));
                    }
                    freephish_obs::warn(
                        "cluster",
                        format!(
                            "follower cursor ({seg}, {}) is not a record boundary; \
                             bootstrapping instead",
                            c.offset
                        ),
                    );
                }
            }
        }

        // Bootstrap: newest loadable snapshot plus all live segments,
        // or a bare RESET when no snapshot exists yet.
        shared.metrics.sessions_bootstrap.inc();
        let snaps = list_indexed(&shared.dir, parse_snapshot_name)?;
        let newest = snaps.iter().rev().find_map(|&seq| {
            load_snapshot(&shared.dir.join(snapshot_file_name(seq)), seq)
                .ok()
                .flatten()
                .map(|body| (seq, body))
        });
        match newest {
            Some((seq, body)) => {
                send(
                    stream,
                    &ReplFrame::Snapshot {
                        seq,
                        first_segment: first,
                        body,
                    },
                )?;
                shared.metrics.snapshots_shipped.inc();
            }
            None => send(
                stream,
                &ReplFrame::Reset {
                    first_segment: first,
                },
            )?,
        }
        return Ok((first, SEGMENT_HEADER_LEN));
    }
}
