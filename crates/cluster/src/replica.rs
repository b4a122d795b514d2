//! The follower side of replication: a background thread that keeps a
//! local store directory a byte-faithful replica of a primary's WAL.
//!
//! The replica writes its directory only through a [`Store`], opened
//! once (lock and recovery included) and held for its life, which never
//! rotates by size: `RECORD` appends, `SEGMENT` starts the next segment
//! and `RESET` deletes every segment and starts the primary's first. The
//! first `HELLO` sends the cursor recovery found (none for a fresh
//! directory), later ones the store's position; the primary resumes
//! there without re-shipping completed segments, or bootstraps the
//! follower (`RESET`, then every segment) when the cursor is no live
//! record boundary. Every shipped record is re-verified with the store's
//! frame decoder before it is appended. A failed store operation stops
//! the follower: a failed `fdatasync` must not be retried on the file.
//!
//! The replica only mirrors files; serving is layered on top by
//! pointing a [`freephish_serve::IndexPublisher`] (or any
//! `TailFollower`) at the same directory, which is how a follower node
//! feeds its `ShardedIndex`. That keeps the durability contract
//! legible: **a follower serves whatever valid prefix of the
//! primary's history it has applied** — never torn data, possibly
//! stale data — and [`Replica::caught_up`] reports when the prefix
//! has reached the primary's tip.

use crate::wire::{decode_repl, encode_repl, verify_record_frame, ReplCursor, ReplFrame};
use bytes::BytesMut;
use freephish_obs::sync::lock;
use freephish_obs::{Counter, Gauge, Histogram, MetricsSnapshot, Registry};
use freephish_store::segment::SEGMENT_HEADER_LEN;
use freephish_store::{RecordPos, Store, StoreOptions};
use std::io::{self, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Fdatasync the active segment every this many applied records
/// (flushes happen at every tip regardless; an OS-buffered tail lost to a
/// crash is simply re-fetched from the primary).
const SYNC_EVERY_RECORDS: u64 = 256;

/// Tuning for a follower replica.
#[derive(Debug, Clone)]
pub struct ReplicaConfig {
    /// Wait between reconnect attempts after a session drops.
    pub reconnect_backoff: Duration,
    /// Bound on each connect attempt.
    pub connect_timeout: Duration,
}

impl Default for ReplicaConfig {
    fn default() -> ReplicaConfig {
        ReplicaConfig {
            reconnect_backoff: Duration::from_millis(100),
            connect_timeout: Duration::from_millis(500),
        }
    }
}

struct ReplicaMetrics {
    registry: Registry,
    records_applied: Arc<Counter>,
    bytes_applied: Arc<Counter>,
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
/// into a local directory through the [`Store`] it owns, whose writer
/// lock is released once the thread stops.
pub struct Replica {
    shared: Arc<Shared>,
    handle: Mutex<Option<JoinHandle<()>>>,
}

impl Replica {
    /// Start replicating `primary` into `dir` (created if absent). Fails
    /// with `ResourceBusy` if another writer holds `dir`.
    pub fn start(
        primary: SocketAddr,
        dir: impl AsRef<Path>,
        cfg: ReplicaConfig,
    ) -> io::Result<Replica> {
        let dir = dir.as_ref().to_path_buf();
        // Only the primary's `SEGMENT` frames start a segment.
        let opts = StoreOptions {
            segment_max_bytes: u64::MAX,
        };
        let (store, recovered) = Store::open_with(&dir, opts, None)?;
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
            .spawn(move || follower_loop(&s, store, recovered.tail))?;
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

fn invalid(msg: String) -> io::Error {
    io::Error::new(ErrorKind::InvalidData, msg)
}

fn follower_loop(shared: &Shared, mut store: Store, mut cursor: Option<RecordPos>) {
    while !shared.stop.load(Ordering::SeqCst) {
        let session = run_session(shared, &mut store, cursor);
        cursor = Some(store.position());
        match session {
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
    store: &'a mut Store,
    /// Primary tip from the last `TIP` frame.
    tip: Option<(u32, u64)>,
    /// First frame decides the session mode (resume vs bootstrap).
    first_frame: bool,
    session_start: Instant,
    caught_up_recorded: bool,
    records_since_sync: u64,
}

impl Applier<'_> {
    /// Run `op` on the store. A failure stops the follower for good: a
    /// failed write or `fdatasync` must not be retried on the same file.
    fn write<T>(&mut self, op: impl FnOnce(&mut Store) -> io::Result<T>) -> io::Result<T> {
        op(self.store).inspect_err(|e| {
            let msg = format!("replica store failed ({e}); the follower stops");
            freephish_obs::warn("cluster", msg);
            self.shared.stop.store(true, Ordering::SeqCst);
        })
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
        let Some((tip_seg, tip_off)) = self.tip else {
            return;
        };
        let cur = self.store.position();
        let lag_segments = i64::from(tip_seg) - i64::from(cur.segment);
        m.lag_segments.set(lag_segments.max(0));
        // Byte lag is exact within a segment; across segments we report
        // the tip segment's fill as a lower bound.
        let lag_bytes = if tip_seg == cur.segment {
            tip_off.saturating_sub(cur.end_offset)
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

    fn flush(&mut self, force_sync: bool) -> io::Result<()> {
        if force_sync || self.records_since_sync >= SYNC_EVERY_RECORDS {
            self.write(Store::sync)?;
            self.records_since_sync = 0;
        } else {
            self.write(Store::flush)?;
        }
        Ok(())
    }

    fn apply(&mut self, frame: ReplFrame) -> io::Result<()> {
        let m = &self.shared.metrics;
        match frame {
            // A bootstrap replaces local history wholesale: drop every
            // local segment — the primary ships all of its own next.
            ReplFrame::Reset { first_segment } => {
                self.note_session_mode(true);
                self.write(|store| store.reset(first_segment))?;
            }
            // The segment being appended (where a resumed or reset
            // session starts), or the next one.
            ReplFrame::Segment { index } => {
                self.note_session_mode(false);
                let at = self.store.position().segment;
                if Some(index) == at.checked_add(1) {
                    self.write(Store::start_next_segment)?;
                    self.records_since_sync = 0;
                } else if index != at {
                    return Err(invalid(format!(
                        "segment {index} announced while appending {at}"
                    )));
                }
                let offset = self.store.position().end_offset;
                m.cursor_segment.set(i64::from(index));
                m.cursor_offset.set(offset.min(i64::MAX as u64) as i64);
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
                let at = self.store.position();
                if segment != at.segment {
                    return Err(invalid(format!(
                        "record for segment {segment} while appending {}",
                        at.segment
                    )));
                }
                if at.end_offset + frame.len() as u64 != end_offset {
                    return Err(invalid(format!(
                        "record ends at {end_offset} but local tail is at {}",
                        at.end_offset
                    )));
                }
                self.write(|store| store.append(payload))?;
                self.records_since_sync += 1;
                m.records_applied.inc();
                m.bytes_applied.add(frame.len() as u64);
                m.cursor_offset.set(end_offset.min(i64::MAX as u64) as i64);
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

/// One connect → hello → apply-until-drop session, from `tail` (`None`:
/// bootstrap me). `Ok(())` only on clean shutdown.
fn run_session(shared: &Shared, store: &mut Store, tail: Option<RecordPos>) -> io::Result<()> {
    let cursor = ReplCursor {
        segment: tail.map(|t| t.segment),
        offset: tail.map_or(0, |t| t.end_offset),
    };
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
        store,
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
                return Err(io::Error::new(ErrorKind::UnexpectedEof, "primary closed"));
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
