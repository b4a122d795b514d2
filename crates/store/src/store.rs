//! The store: a segmented write-ahead log with crash recovery that
//! replays every segment, truncating — never propagating — a torn tail.
//!
//! ## Durability model
//!
//! * [`Store::append`] buffers the framed record in memory. Nothing is
//!   promised until [`Store::sync`] returns: callers group appends into an
//!   atomic-enough unit (the pipeline syncs once per tick, at the
//!   checkpoint record) and the recovery contract is "some prefix of
//!   synced records, truncated at the first defect".
//! * [`Store::open`] scans segments in index order. At the first invalid
//!   frame it truncates that segment to its last good record and deletes
//!   any later segment, so the recovered state is always a valid prefix
//!   of what was appended.
//! * A store directory is its segments and nothing else. A directory that
//!   still holds a `snap-*.snap` file (written by an older version, which
//!   deleted the segments that file covered) is refused, never read as a
//!   partial history.
//! * One writer per directory: [`Store::open`] takes [`lock_dir`] before
//!   it recovers and holds it for the store's life, so a second writer is
//!   refused instead of truncating the first one's in-flight tail.
//!   Readers take no lock.

use crate::segment::{parse_segment_name, scan_segment, segment_file_name, SegmentWriter};
use std::fs::{File, OpenOptions, TryLockError};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Instrumentation hooks. The store is std-only; consumers bridge these
/// callbacks into their metrics registry (`freephish-core` wires them to
/// `freephish-obs` counters and histograms).
pub trait StoreObserver: Send + Sync {
    /// A record was appended (`framed_bytes` includes the frame header).
    fn on_append(&self, framed_bytes: u64) {
        let _ = framed_bytes;
    }
    /// Like [`StoreObserver::on_append`], carrying the append's wall
    /// duration. The default delegates to the untimed hook, so observers
    /// that don't track latency need not change.
    fn on_append_timed(&self, framed_bytes: u64, seconds: f64) {
        let _ = seconds;
        self.on_append(framed_bytes);
    }
    /// An fdatasync was issued.
    fn on_fsync(&self) {}
    /// Like [`StoreObserver::on_fsync`], carrying the fsync's wall
    /// duration. The default delegates to the untimed hook.
    fn on_fsync_timed(&self, seconds: f64) {
        let _ = seconds;
        self.on_fsync();
    }
    /// A new segment file was created.
    fn on_segment_created(&self) {}
    /// A recovery ran: `records` replayed, `truncated_bytes` dropped,
    /// `torn` whether a defective tail was found.
    fn on_recovery(&self, records: usize, truncated_bytes: u64, torn: bool) {
        let _ = (records, truncated_bytes, torn);
    }
}

/// Tuning knobs.
#[derive(Debug, Clone)]
pub struct StoreOptions {
    /// Rotate the active segment once it reaches this size.
    pub segment_max_bytes: u64,
}

impl Default for StoreOptions {
    fn default() -> StoreOptions {
        StoreOptions {
            segment_max_bytes: 4 << 20,
        }
    }
}

/// Position of a record in the WAL: its segment and the byte offset just
/// past its frame (a valid truncation point).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordPos {
    /// Segment index.
    pub segment: u32,
    /// Offset just past the record.
    pub end_offset: u64,
}

/// What recovery found.
#[derive(Debug)]
pub struct Recovered {
    /// Every WAL record, in append order, with positions.
    pub records: Vec<(RecordPos, Vec<u8>)>,
    /// Whether a torn/corrupt tail was found (and truncated).
    pub torn_tail: bool,
    /// Bytes dropped by tail truncation (including deleted later
    /// segments).
    pub truncated_bytes: u64,
}

/// The WAL store. Single writer per directory, enforced by
/// [`lock_dir`]; any number of [`crate::TailFollower`]s may read
/// concurrently.
pub struct Store {
    dir: PathBuf,
    opts: StoreOptions,
    writer: SegmentWriter,
    observer: Option<Arc<dyn StoreObserver>>,
    /// The directory's writer lock, released when the store drops.
    _lock: File,
}

/// The file in a store directory whose lock marks its writer.
const LOCK_FILE: &str = "LOCK";

/// Become `dir`'s one writer: an exclusive, non-blocking lock on
/// `dir/LOCK`, held until the returned file is closed (on drop, or when
/// the process dies). A directory another writer holds is a
/// `ResourceBusy` error naming it. The lock is advisory: it binds only
/// writers that take it, which every writer in this workspace does.
pub fn lock_dir(dir: &Path) -> io::Result<File> {
    let file = OpenOptions::new()
        .create(true)
        .truncate(false)
        .write(true)
        .open(dir.join(LOCK_FILE))?;
    match file.try_lock() {
        Ok(()) => Ok(file),
        Err(TryLockError::WouldBlock) => Err(io::Error::new(
            io::ErrorKind::ResourceBusy,
            format!(
                "{}: store directory already has a writer holding its {LOCK_FILE}; \
                 stop that writer first",
                dir.display()
            ),
        )),
        Err(TryLockError::Error(e)) => Err(e),
    }
}

/// Fsync a directory so renames/unlinks within it are durable.
pub fn fsync_dir(dir: &Path) -> io::Result<()> {
    File::open(dir)?.sync_all()
}

/// The indices of the segment files in `dir`, sorted. A `snap-*.snap`
/// file left by an older version is an `InvalidData` error naming it:
/// that version deleted the segments the file covered, so the segments
/// alone are not the directory's history.
pub fn list_segments(dir: &Path) -> io::Result<Vec<u32>> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(idx) = parse_segment_name(name) {
            out.push(idx);
        } else if name.starts_with("snap-") && name.ends_with(".snap") {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "{}: a store snapshot from an older version; the segments it \
                     covered are gone, so this directory is not a readable history",
                    entry.path().display()
                ),
            ));
        }
    }
    out.sort_unstable();
    Ok(out)
}

/// What the recovery scan ([`recover`]) found, besides the records it
/// handed over.
#[derive(Debug)]
pub struct Recovery {
    /// End of the last surviving segment — where appending resumes — or
    /// `None` when no segment survived.
    pub tail: Option<RecordPos>,
    /// Whether a torn/corrupt tail was found (and truncated).
    pub torn_tail: bool,
    /// Bytes dropped by tail truncation (including deleted later
    /// segments).
    pub truncated_bytes: u64,
}

/// The recovery scan [`Store::open`] runs, without opening a writer: scan
/// the segments in index order, truncating the first defective tail and
/// deleting every segment after it. Each surviving record goes to
/// `on_record` in append order, so the scan holds one segment's payloads
/// at a time. Afterwards the directory is a valid prefix of what was
/// appended, durably. It writes, so only the holder of [`lock_dir`] may
/// run it: another writer's in-flight record looks like a torn tail.
pub fn recover(dir: &Path, mut on_record: impl FnMut(RecordPos, Vec<u8>)) -> io::Result<Recovery> {
    let segments = list_segments(dir)?;
    let mut torn_tail = false;
    let mut truncated_bytes = 0u64;
    let mut tail = None;
    for (i, &idx) in segments.iter().enumerate() {
        let path = dir.join(segment_file_name(idx));
        let scan = scan_segment(&path)?;
        if !scan.header_ok {
            // The whole file is invalid (crash during creation, or
            // external damage): drop it and everything after.
            torn_tail = true;
            truncated_bytes += scan.file_len;
            let _ = std::fs::remove_file(&path);
        } else {
            for rec in scan.records {
                let pos = RecordPos {
                    segment: idx,
                    end_offset: rec.end_offset,
                };
                on_record(pos, rec.payload);
            }
            tail = Some(RecordPos {
                segment: idx,
                end_offset: scan.good_len,
            });
            if scan.torn.is_none() {
                continue;
            }
            torn_tail = true;
            truncated_bytes += scan.file_len - scan.good_len;
            let f = OpenOptions::new().write(true).open(&path)?;
            f.set_len(scan.good_len)?;
            f.sync_data()?;
        }
        // A defect poisons everything after it: later segments were
        // appended after the damaged point and must not be replayed.
        for &later in &segments[i + 1..] {
            let path = dir.join(segment_file_name(later));
            if let Ok(meta) = std::fs::metadata(&path) {
                truncated_bytes += meta.len();
            }
            let _ = std::fs::remove_file(&path);
        }
        // Deleted files must stay deleted: a later segment that
        // reappeared after a crash would replay records past the
        // truncation point.
        fsync_dir(dir)?;
        break;
    }
    Ok(Recovery {
        tail,
        torn_tail,
        truncated_bytes,
    })
}

impl Store {
    /// Open (or create) the store in `dir` with default options.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<(Store, Recovered)> {
        Store::open_with(dir, StoreOptions::default(), None)
    }

    /// Open with explicit options and an optional observer. Fails with
    /// `ResourceBusy` if another writer holds the directory ([`lock_dir`]).
    pub fn open_with(
        dir: impl AsRef<Path>,
        opts: StoreOptions,
        observer: Option<Arc<dyn StoreObserver>>,
    ) -> io::Result<(Store, Recovered)> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        let lock = lock_dir(&dir)?;
        let mut records = Vec::new();
        let found = recover(&dir, |pos, payload| records.push((pos, payload)))?;

        // Reopen the last surviving segment for append, or start fresh.
        let writer = match found.tail {
            Some(tail) => SegmentWriter::open_append(&dir, tail.segment, tail.end_offset)?,
            None => {
                let w = SegmentWriter::create(&dir, 0)?;
                fsync_dir(&dir)?;
                w
            }
        };

        if let Some(obs) = &observer {
            obs.on_recovery(records.len(), found.truncated_bytes, found.torn_tail);
        }
        let recovered = Recovered {
            records,
            torn_tail: found.torn_tail,
            truncated_bytes: found.truncated_bytes,
        };
        Ok((
            Store {
                dir,
                opts,
                writer,
                observer,
                _lock: lock,
            },
            recovered,
        ))
    }

    /// Append one record (buffered; durable only after [`Store::sync`]).
    pub fn append(&mut self, payload: &[u8]) -> io::Result<()> {
        if self.writer.len() >= self.opts.segment_max_bytes {
            self.rotate()?;
        }
        let t0 = Instant::now();
        let framed = self.writer.append(payload);
        if let Some(obs) = &self.observer {
            obs.on_append_timed(framed, t0.elapsed().as_secs_f64());
        }
        Ok(())
    }

    /// Write buffered records to the file without fsync (makes them
    /// visible to tail followers).
    pub fn flush(&mut self) -> io::Result<()> {
        self.writer.flush()
    }

    /// Flush and fdatasync the active segment.
    pub fn sync(&mut self) -> io::Result<()> {
        let t0 = Instant::now();
        self.writer.sync()?;
        if let Some(obs) = &self.observer {
            obs.on_fsync_timed(t0.elapsed().as_secs_f64());
        }
        Ok(())
    }

    fn rotate(&mut self) -> io::Result<()> {
        let t0 = Instant::now();
        self.writer.sync()?;
        if let Some(obs) = &self.observer {
            obs.on_fsync_timed(t0.elapsed().as_secs_f64());
        }
        let next = self.writer.index() + 1;
        self.writer = SegmentWriter::create(&self.dir, next)?;
        fsync_dir(&self.dir)?;
        if let Some(obs) = &self.observer {
            obs.on_segment_created();
        }
        Ok(())
    }

    /// Drop every WAL record after `pos` (from [`Recovered::records`]).
    /// Used by consumers whose logical unit spans several records (the run
    /// journal truncates to its last checkpoint).
    pub fn truncate_after(&mut self, pos: RecordPos) -> io::Result<()> {
        self.writer.flush()?;
        for idx in list_segments(&self.dir)? {
            if idx > pos.segment {
                let _ = std::fs::remove_file(self.dir.join(segment_file_name(idx)));
            }
        }
        let f = OpenOptions::new()
            .write(true)
            .open(self.dir.join(segment_file_name(pos.segment)))?;
        f.set_len(pos.end_offset)?;
        f.sync_data()?;
        self.writer = SegmentWriter::open_append(&self.dir, pos.segment, pos.end_offset)?;
        fsync_dir(&self.dir)?;
        Ok(())
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Current append position (end of the active segment, including
    /// buffered records).
    pub fn position(&self) -> RecordPos {
        RecordPos {
            segment: self.writer.index(),
            end_offset: self.writer.len(),
        }
    }
}

impl Drop for Store {
    fn drop(&mut self) {
        // Best effort: push buffered frames to the OS. A real crash (the
        // scenario recovery exists for) skips this, and recovery copes.
        let _ = self.writer.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::SEGMENT_HEADER_LEN;
    use crate::testutil::TempDir;
    use std::io::Write;

    fn payloads(n: usize) -> Vec<Vec<u8>> {
        (0..n)
            .map(|i| format!("record-{i}-{}", "x".repeat(i % 37)).into_bytes())
            .collect()
    }

    fn reopen(dir: &Path) -> (Store, Vec<Vec<u8>>, bool) {
        let (store, rec) = Store::open(dir).unwrap();
        let combined: Vec<Vec<u8>> = rec.records.into_iter().map(|(_, p)| p).collect();
        (store, combined, rec.torn_tail)
    }

    #[test]
    fn append_sync_reopen_round_trip() {
        let dir = TempDir::new("store-roundtrip");
        let want = payloads(50);
        {
            let (mut store, rec) = Store::open(dir.path()).unwrap();
            assert!(rec.records.is_empty());
            for p in &want {
                store.append(p).unwrap();
            }
            store.sync().unwrap();
        }
        let (_, got, torn) = reopen(dir.path());
        assert!(!torn);
        assert_eq!(got, want);
    }

    #[test]
    fn unsynced_tail_may_be_lost_but_prefix_survives() {
        let dir = TempDir::new("store-unsynced");
        let want = payloads(10);
        {
            let (mut store, _) = Store::open(dir.path()).unwrap();
            for p in &want[..7] {
                store.append(p).unwrap();
            }
            store.sync().unwrap();
            for p in &want[7..] {
                store.append(p).unwrap();
            }
            // No sync: Drop flushes best-effort, so normally all 10
            // survive — but only 7 are *promised*.
        }
        let (_, got, _) = reopen(dir.path());
        assert!(got.len() >= 7);
        assert_eq!(&got[..], &want[..got.len()]);
    }

    #[test]
    fn rotation_spreads_records_across_segments() {
        let dir = TempDir::new("store-rotate");
        let opts = StoreOptions {
            segment_max_bytes: 256,
        };
        let want = payloads(40);
        {
            let (mut store, _) = Store::open_with(dir.path(), opts, None).unwrap();
            for p in &want {
                store.append(p).unwrap();
            }
            store.sync().unwrap();
            assert!(store.position().segment > 2, "should have rotated");
        }
        let (_, got, torn) = reopen(dir.path());
        assert!(!torn);
        assert_eq!(got, want);
    }

    #[test]
    fn torn_tail_truncated_and_reopen_appends_cleanly() {
        let dir = TempDir::new("store-torn");
        let want = payloads(12);
        {
            let (mut store, _) = Store::open(dir.path()).unwrap();
            for p in &want {
                store.append(p).unwrap();
            }
            store.sync().unwrap();
        }
        // Tear the last record.
        let seg = dir.path().join(segment_file_name(0));
        let bytes = std::fs::read(&seg).unwrap();
        std::fs::write(&seg, &bytes[..bytes.len() - 2]).unwrap();

        let (mut store, got, torn) = reopen(dir.path());
        assert!(torn);
        assert_eq!(got, want[..11].to_vec());
        // The truncated store keeps working.
        store.append(b"after recovery").unwrap();
        store.sync().unwrap();
        drop(store);
        let (_, got2, torn2) = reopen(dir.path());
        assert!(!torn2);
        assert_eq!(got2.len(), 12);
        assert_eq!(got2[11], b"after recovery");
    }

    #[test]
    fn corruption_in_middle_segment_drops_later_segments() {
        let dir = TempDir::new("store-midcorrupt");
        let opts = StoreOptions {
            segment_max_bytes: 128,
        };
        let want = payloads(30);
        {
            let (mut store, _) = Store::open_with(dir.path(), opts, None).unwrap();
            for p in &want {
                store.append(p).unwrap();
            }
            store.sync().unwrap();
            assert!(store.position().segment >= 2);
        }
        // Flip a bit in segment 1's first record payload.
        let seg = dir.path().join(segment_file_name(1));
        let mut bytes = std::fs::read(&seg).unwrap();
        let flip_at = SEGMENT_HEADER_LEN as usize + 9;
        bytes[flip_at] ^= 0x10;
        std::fs::write(&seg, &bytes).unwrap();

        let (_, got, torn) = reopen(dir.path());
        assert!(torn);
        assert!(!got.is_empty() && got.len() < want.len());
        assert_eq!(&got[..], &want[..got.len()]);
        // Later segments are gone.
        assert!(!dir.path().join(segment_file_name(2)).exists());
    }

    #[test]
    fn truncate_after_drops_suffix() {
        let dir = TempDir::new("store-truncafter");
        let want = payloads(10);
        let (mut store, _) = Store::open(dir.path()).unwrap();
        for p in &want {
            store.append(p).unwrap();
        }
        store.sync().unwrap();
        drop(store);
        let (mut store, rec) = Store::open(dir.path()).unwrap();
        let cut = rec.records[5].0;
        store.truncate_after(cut).unwrap();
        store.append(b"replacement").unwrap();
        store.sync().unwrap();
        drop(store);
        let (_, got, torn) = reopen(dir.path());
        assert!(!torn);
        assert_eq!(got.len(), 7);
        assert_eq!(&got[..6], &want[..6]);
        assert_eq!(got[6], b"replacement");
    }

    #[test]
    fn recover_repairs_the_directory_without_opening_a_writer() {
        let dir = TempDir::new("store-recover");
        assert!(recover(dir.path(), |_, _| {}).unwrap().tail.is_none());
        assert!(list_segments(dir.path()).unwrap().is_empty());

        let (mut store, _) = Store::open(dir.path()).unwrap();
        for p in payloads(6) {
            store.append(&p).unwrap();
        }
        store.sync().unwrap();
        let end = store.position();
        drop(store);
        let seg = dir.path().join(segment_file_name(0));
        let bytes = std::fs::read(&seg).unwrap();
        std::fs::write(&seg, [&bytes[..], &[7, 0, 0]].concat()).unwrap();

        let mut seen = Vec::new();
        let found = recover(dir.path(), |pos, _| seen.push(pos)).unwrap();
        assert!(found.torn_tail);
        assert_eq!(found.truncated_bytes, 3);
        assert_eq!(found.tail, Some(end));
        assert_eq!(seen.len(), 6);
        assert_eq!(std::fs::metadata(&seg).unwrap().len(), end.end_offset);
    }

    #[test]
    fn a_second_writer_is_refused_and_every_synced_append_survives() {
        let dir = TempDir::new("store-second-writer");
        let want = payloads(200);
        let (mut first, _) = Store::open(dir.path()).unwrap();
        let refused = |at: usize| {
            let err = Store::open(dir.path())
                .err()
                .expect("second writer refused");
            assert_eq!(
                err.kind(),
                io::ErrorKind::ResourceBusy,
                "after {at} appends"
            );
            assert!(
                err.to_string().contains(&dir.path().display().to_string()),
                "{err}"
            );
        };
        refused(0);
        let seg = dir.path().join(segment_file_name(0));
        for (i, p) in want.iter().enumerate() {
            first.append(p).unwrap();
            first.sync().unwrap();
            if i == want.len() / 2 {
                // The first writer mid-append, as the refused opener sees
                // it: half a frame on disk, which recovery would truncate.
                let synced = std::fs::metadata(&seg).unwrap().len();
                let mut f = OpenOptions::new().append(true).open(&seg).unwrap();
                f.write_all(&[7, 0, 0]).unwrap();
                refused(i + 1);
                assert_eq!(std::fs::metadata(&seg).unwrap().len(), synced + 3);
                f.set_len(synced).unwrap();
            }
        }
        drop(first);
        let (_, got, torn) = reopen(dir.path());
        assert!(!torn, "a refused open must not recover, or truncate");
        assert_eq!(got, want);
        // The lock file stays behind and is not a segment.
        assert!(dir.path().join(LOCK_FILE).exists());
        assert_eq!(list_segments(dir.path()).unwrap(), vec![0]);
    }

    #[test]
    fn a_directory_holding_a_snapshot_file_is_refused() {
        let dir = TempDir::new("store-old-snapshot");
        let (mut store, _) = Store::open(dir.path()).unwrap();
        store.append(b"kept").unwrap();
        store.sync().unwrap();
        drop(store);
        std::fs::write(dir.path().join("snap-0000000003.snap"), b"FPSN").unwrap();

        for err in [
            recover(dir.path(), |_, _| {}).unwrap_err(),
            Store::open(dir.path()).err().expect("open refuses"),
        ] {
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert!(err.to_string().contains("snap-0000000003.snap"), "{err}");
        }
        // Nothing was read as a partial history, or deleted.
        assert!(dir.path().join(segment_file_name(0)).exists());
    }

    #[test]
    fn observer_sees_appends_fsyncs_and_recovery() {
        use std::sync::atomic::{AtomicU64, Ordering};
        #[derive(Default)]
        struct Counting {
            appends: AtomicU64,
            bytes: AtomicU64,
            fsyncs: AtomicU64,
            recoveries: AtomicU64,
        }
        impl StoreObserver for Counting {
            fn on_append(&self, framed: u64) {
                self.appends.fetch_add(1, Ordering::Relaxed);
                self.bytes.fetch_add(framed, Ordering::Relaxed);
            }
            fn on_fsync(&self) {
                self.fsyncs.fetch_add(1, Ordering::Relaxed);
            }
            fn on_recovery(&self, _records: usize, _truncated: u64, _torn: bool) {
                self.recoveries.fetch_add(1, Ordering::Relaxed);
            }
        }
        let dir = TempDir::new("store-observer");
        let obs = Arc::new(Counting::default());
        {
            let (mut store, _) = Store::open_with(
                dir.path(),
                StoreOptions::default(),
                Some(obs.clone() as Arc<dyn StoreObserver>),
            )
            .unwrap();
            store.append(b"abc").unwrap();
            store.append(b"defg").unwrap();
            store.sync().unwrap();
        }
        assert_eq!(obs.appends.load(Ordering::Relaxed), 2);
        assert_eq!(obs.bytes.load(Ordering::Relaxed), (3 + 8) + (4 + 8));
        assert!(obs.fsyncs.load(Ordering::Relaxed) >= 1);
        assert_eq!(obs.recoveries.load(Ordering::Relaxed), 1);
    }
}
