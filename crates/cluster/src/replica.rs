//! The follower side of replication: a background thread that keeps a
//! local store directory a byte-faithful replica of a primary's WAL.
//!
//! The replica's directory *is* its cursor. On every (re)connect it
//! recovers locally exactly the way [`freephish_store::Store::open`]
//! does — scan segments in order, truncate the first defective tail,
//! delete anything after it — and sends the resulting `(segment,
//! offset)` as its `HELLO` cursor. The primary then resumes from that
//! boundary without re-shipping completed segments, or bootstraps the
//! follower from a snapshot when compaction has moved past it. Every
//! shipped record's CRC32 is re-verified before a byte is written, so
//! a replica is exactly as trustworthy as a local recovery scan.
//!
//! The replica only mirrors files; serving is layered on top by
//! pointing a [`freephish_serve::IndexPublisher`] (or any
//! `TailFollower`) at the same directory, which is how a follower node
//! feeds its `ShardedIndex`. That keeps the durability contract
//! legible: **a follower serves whatever valid prefix of the
//! primary's history it has applied** — never torn data, possibly
//! stale data — and [`Replica::caught_up`] reports when the prefix
//! has reached the primary's tip.

use crate::source::list_indexed;
use crate::wire::{decode_repl, encode_repl, verify_record_frame, ReplCursor, ReplFrame};
use bytes::BytesMut;
use freephish_obs::sync::lock;
use freephish_obs::{Counter, Gauge, Histogram, MetricsSnapshot, Registry};
use freephish_store::segment::{
    parse_segment_name, scan_segment, segment_file_name, SegmentWriter, SEGMENT_HEADER_LEN,
};
use freephish_store::snapshot::{
    fsync_dir, load_snapshot, parse_snapshot_name, snapshot_file_name, write_snapshot,
};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning for a follower replica.
#[derive(Debug, Clone)]
pub struct ReplicaConfig {
    /// Wait between reconnect attempts after a session drops.
    pub reconnect_backoff: Duration,
    /// Bound on each connect attempt.
    pub connect_timeout: Duration,
    /// Fdatasync the active segment every this many applied records
    /// (flushes happen at every tip regardless; an OS-buffered tail
    /// lost to a crash is simply re-fetched from the primary).
    pub sync_every_records: u64,
}

impl Default for ReplicaConfig {
    fn default() -> ReplicaConfig {
        ReplicaConfig {
            reconnect_backoff: Duration::from_millis(100),
            connect_timeout: Duration::from_millis(500),
            sync_every_records: 256,
        }
    }
}

struct ReplicaMetrics {
    registry: Registry,
    records_applied: Arc<Counter>,
    bytes_applied: Arc<Counter>,
    snapshots_applied: Arc<Counter>,
    reconnects: Arc<Counter>,
    sessions_resume: Arc<Counter>,
    sessions_bootstrap: Arc<Counter>,
    crc_failures: Arc<Counter>,
    lag_segments: Arc<Gauge>,
    lag_bytes: Arc<Gauge>,
    cursor_segment: Arc<Gauge>,
    cursor_offset: Arc<Gauge>,
    connected: Arc<Gauge>,
    catchup_seconds: Arc<Histogram>,
}

impl ReplicaMetrics {
    fn new() -> ReplicaMetrics {
        let registry = Registry::new();
        ReplicaMetrics {
            records_applied: registry.counter("cluster_replication_records_applied_total", &[]),
            bytes_applied: registry.counter("cluster_replication_bytes_applied_total", &[]),
            snapshots_applied: registry.counter("cluster_replication_snapshots_applied_total", &[]),
            reconnects: registry.counter("cluster_replication_reconnects_total", &[]),
            sessions_resume: registry
                .counter("cluster_replication_sessions_total", &[("mode", "resume")]),
            sessions_bootstrap: registry.counter(
                "cluster_replication_sessions_total",
                &[("mode", "bootstrap")],
            ),
            crc_failures: registry.counter("cluster_replication_crc_failures_total", &[]),
            lag_segments: registry.gauge("cluster_replication_lag_segments", &[]),
            lag_bytes: registry.gauge("cluster_replication_lag_bytes", &[]),
            cursor_segment: registry.gauge("cluster_replication_cursor_segment", &[]),
            cursor_offset: registry.gauge("cluster_replication_cursor_offset", &[]),
            connected: registry.gauge("cluster_replication_connected", &[]),
            catchup_seconds: registry.histogram("cluster_follower_catchup_seconds", &[]),
            registry,
        }
    }
}

struct Shared {
    dir: PathBuf,
    primary: SocketAddr,
    cfg: ReplicaConfig,
    stop: AtomicBool,
    caught_up: AtomicBool,
    metrics: ReplicaMetrics,
}

/// A live follower: one background thread mirroring `primary`'s WAL
/// into a local directory.
pub struct Replica {
    shared: Arc<Shared>,
    handle: Mutex<Option<JoinHandle<()>>>,
}

impl Replica {
    /// Start replicating `primary` into `dir` (created if absent).
    pub fn start(
        primary: SocketAddr,
        dir: impl AsRef<Path>,
        cfg: ReplicaConfig,
    ) -> std::io::Result<Replica> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        let shared = Arc::new(Shared {
            dir,
            primary,
            cfg,
            stop: AtomicBool::new(false),
            caught_up: AtomicBool::new(false),
            metrics: ReplicaMetrics::new(),
        });
        let s = shared.clone();
        let handle = std::thread::Builder::new()
            .name("repl-follower".to_string())
            .spawn(move || follower_loop(&s))?;
        Ok(Replica {
            shared,
            handle: Mutex::new(Some(handle)),
        })
    }

    /// The replica directory (point a `TailFollower` here to serve it).
    pub fn dir(&self) -> &Path {
        &self.shared.dir
    }

    /// True while the local prefix matches the primary's last reported
    /// tip. Goes false the moment new primary appends are observed and
    /// true again once they are applied.
    pub fn caught_up(&self) -> bool {
        self.shared.caught_up.load(Ordering::SeqCst)
    }

    /// Snapshot of the `cluster_replication_*` metrics.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.shared.metrics.registry.snapshot()
    }

    /// Total records applied across all sessions.
    pub fn records_applied(&self) -> u64 {
        self.shared.metrics.records_applied.get()
    }

    /// Stop the follower thread; idempotent. Takes `&self` so a replica
    /// shared behind an `Arc` (e.g. with ops-plane closures) can still
    /// be stopped deterministically.
    pub fn shutdown(&self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        if let Some(h) = lock(&self.handle).take() {
            let _ = h.join();
        }
    }
}

impl Drop for Replica {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Recover the local replica directory the way `Store::open` would:
/// scan segments in index order, truncate the first defective tail,
/// delete everything after it. Returns the resume cursor.
pub fn recover_local(dir: &Path) -> std::io::Result<ReplCursor> {
    let snapshot_seq = list_indexed(dir, parse_snapshot_name)?
        .into_iter()
        .rev()
        .find(|&seq| {
            load_snapshot(&dir.join(snapshot_file_name(seq)), seq)
                .ok()
                .flatten()
                .is_some()
        });
    let mut tail: Option<(u32, u64)> = None;
    let mut defective = false;
    for seg in list_indexed(dir, parse_segment_name)? {
        let path = dir.join(segment_file_name(seg));
        if defective {
            std::fs::remove_file(&path)?;
            continue;
        }
        let scan = scan_segment(&path)?;
        if !scan.header_ok {
            std::fs::remove_file(&path)?;
            defective = true;
            continue;
        }
        if scan.torn.is_some() {
            let f = std::fs::OpenOptions::new().write(true).open(&path)?;
            f.set_len(scan.good_len)?;
            defective = true;
        }
        tail = Some((seg, scan.good_len));
    }
    fsync_dir(dir)?;
    Ok(ReplCursor {
        snapshot_seq,
        segment: tail.map(|(s, _)| s),
        offset: tail.map(|(_, o)| o).unwrap_or(0),
    })
}

fn invalid(msg: String) -> std::io::Error {
    std::io::Error::new(ErrorKind::InvalidData, msg)
}

fn follower_loop(shared: &Shared) {
    while !shared.stop.load(Ordering::SeqCst) {
        match run_session(shared) {
            Ok(()) => return, // clean shutdown
            Err(e) => {
                shared.metrics.connected.set(0);
                shared.caught_up.store(false, Ordering::SeqCst);
                if shared.stop.load(Ordering::SeqCst) {
                    return;
                }
                freephish_obs::debug(
                    "cluster",
                    format!("replication session lost ({e}); reconnecting"),
                );
                shared.metrics.reconnects.inc();
                std::thread::sleep(shared.cfg.reconnect_backoff);
            }
        }
    }
}

/// Per-session apply state.
struct Applier<'a> {
    shared: &'a Shared,
    writer: Option<SegmentWriter>,
    /// Primary tip from the last `TIP` frame.
    tip: Option<(u32, u64)>,
    /// First frame decides the session mode (resume vs bootstrap).
    first_frame: bool,
    session_start: Instant,
    caught_up_recorded: bool,
    records_since_sync: u64,
}

impl Applier<'_> {
    fn cursor_now(&self) -> Option<(u32, u64)> {
        self.writer.as_ref().map(|w| (w.index(), w.len()))
    }

    fn note_session_mode(&mut self, bootstrap: bool) {
        if self.first_frame {
            self.first_frame = false;
            if bootstrap {
                self.shared.metrics.sessions_bootstrap.inc();
            } else {
                self.shared.metrics.sessions_resume.inc();
            }
        }
    }

    fn update_lag(&mut self) {
        let m = &self.shared.metrics;
        let (Some((tip_seg, tip_off)), Some((cur_seg, cur_off))) = (self.tip, self.cursor_now())
        else {
            return;
        };
        let lag_segments = i64::from(tip_seg) - i64::from(cur_seg);
        m.lag_segments.set(lag_segments.max(0));
        // Byte lag is exact within a segment; across segments we report
        // the tip segment's fill as a lower bound.
        let lag_bytes = if tip_seg == cur_seg {
            tip_off.saturating_sub(cur_off)
        } else {
            tip_off.saturating_sub(SEGMENT_HEADER_LEN)
        };
        m.lag_bytes.set(lag_bytes.min(i64::MAX as u64) as i64);
        let caught = lag_segments <= 0 && lag_bytes == 0;
        self.shared.caught_up.store(caught, Ordering::SeqCst);
        if caught && !self.caught_up_recorded {
            self.caught_up_recorded = true;
            m.catchup_seconds
                .record(self.session_start.elapsed().as_secs_f64());
        }
    }

    fn flush(&mut self, force_sync: bool) -> std::io::Result<()> {
        if let Some(w) = self.writer.as_mut() {
            if force_sync || self.records_since_sync >= self.shared.cfg.sync_every_records {
                w.sync()?;
                self.records_since_sync = 0;
            } else {
                w.flush()?;
            }
        }
        Ok(())
    }

    fn apply(&mut self, frame: ReplFrame) -> std::io::Result<()> {
        let dir = &self.shared.dir;
        let m = &self.shared.metrics;
        match frame {
            ReplFrame::Snapshot {
                seq,
                first_segment: _,
                body,
            } => {
                self.note_session_mode(true);
                // A bootstrap replaces local history wholesale: install
                // the image, then drop every local segment — the
                // primary re-ships the live ones next.
                self.writer = None;
                write_snapshot(dir, seq, &body)?;
                for seg in list_indexed(dir, parse_segment_name)? {
                    std::fs::remove_file(dir.join(segment_file_name(seg)))?;
                }
                for old in list_indexed(dir, parse_snapshot_name)? {
                    if old != seq {
                        std::fs::remove_file(dir.join(snapshot_file_name(old)))?;
                    }
                }
                fsync_dir(dir)?;
                m.snapshots_applied.inc();
            }
            ReplFrame::Reset { first_segment: _ } => {
                self.note_session_mode(true);
                self.writer = None;
                for seg in list_indexed(dir, parse_segment_name)? {
                    std::fs::remove_file(dir.join(segment_file_name(seg)))?;
                }
                for old in list_indexed(dir, parse_snapshot_name)? {
                    std::fs::remove_file(dir.join(snapshot_file_name(old)))?;
                }
                fsync_dir(dir)?;
            }
            ReplFrame::Segment { index } => {
                self.note_session_mode(false);
                self.flush(true)?;
                let path = dir.join(segment_file_name(index));
                self.writer = Some(if path.exists() {
                    // Resuming our own tail: recovery already truncated
                    // it to a record boundary.
                    let len = std::fs::metadata(&path)?.len();
                    SegmentWriter::open_append(dir, index, len)?
                } else {
                    SegmentWriter::create(dir, index)?
                });
                let w = self.writer.as_ref().expect("just set");
                m.cursor_segment.set(i64::from(w.index()));
                m.cursor_offset.set(w.len().min(i64::MAX as u64) as i64);
            }
            ReplFrame::Record {
                segment,
                end_offset,
                frame,
            } => {
                self.note_session_mode(false);
                let payload = verify_record_frame(&frame).map_err(|e| {
                    m.crc_failures.inc();
                    invalid(e)
                })?;
                let Some(w) = self.writer.as_mut() else {
                    return Err(invalid("RECORD before SEGMENT".to_string()));
                };
                if segment != w.index() {
                    return Err(invalid(format!(
                        "record for segment {segment} while appending {}",
                        w.index()
                    )));
                }
                if w.len() + frame.len() as u64 != end_offset {
                    return Err(invalid(format!(
                        "record ends at {end_offset} but local tail is at {}",
                        w.len()
                    )));
                }
                let framed = w.append(payload);
                self.records_since_sync += 1;
                m.records_applied.inc();
                m.bytes_applied.add(framed);
                m.cursor_offset.set(w.len().min(i64::MAX as u64) as i64);
                self.update_lag();
            }
            ReplFrame::Tip { segment, offset } => {
                self.tip = Some((segment, offset));
                self.flush(false)?;
                self.update_lag();
            }
            ReplFrame::Error(msg) => {
                return Err(invalid(format!("primary refused session: {msg}")));
            }
            ReplFrame::Hello(_) => {
                return Err(invalid("unexpected HELLO from primary".to_string()));
            }
        }
        Ok(())
    }
}

/// One connect → hello → apply-until-drop session. `Ok(())` only on
/// clean shutdown.
fn run_session(shared: &Shared) -> std::io::Result<()> {
    let cursor = recover_local(&shared.dir)?;
    let mut stream = TcpStream::connect_timeout(&shared.primary, shared.cfg.connect_timeout)?;
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(Some(Duration::from_millis(100)))?;
    let mut out = BytesMut::new();
    encode_repl(&mut out, &ReplFrame::Hello(cursor)).map_err(invalid)?;
    stream.write_all(&out)?;
    shared.metrics.connected.set(1);
    if let Some(seg) = cursor.segment {
        shared.metrics.cursor_segment.set(i64::from(seg));
        shared
            .metrics
            .cursor_offset
            .set(cursor.offset.min(i64::MAX as u64) as i64);
    }

    let mut applier = Applier {
        shared,
        writer: None,
        tip: None,
        first_frame: true,
        session_start: Instant::now(),
        caught_up_recorded: false,
        records_since_sync: 0,
    };
    let mut buf = BytesMut::new();
    let mut chunk = [0u8; 64 * 1024];
    loop {
        while let Some(frame) = decode_repl(&mut buf).map_err(invalid)? {
            applier.apply(frame)?;
        }
        if shared.stop.load(Ordering::SeqCst) {
            applier.flush(true)?;
            return Ok(());
        }
        match stream.read(&mut chunk) {
            Ok(0) => {
                applier.flush(true)?;
                return Err(std::io::Error::new(
                    ErrorKind::UnexpectedEof,
                    "primary closed",
                ));
            }
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                applier.flush(false)?;
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => {
                applier.flush(true)?;
                return Err(e);
            }
        }
    }
}
