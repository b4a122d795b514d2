//! Read-side tailing of a store directory owned by another writer.
//!
//! A [`TailFollower`] incrementally delivers records as the writer flushes
//! them, surviving segment rotation. It never writes to the directory. It
//! is the one reader every consumer of a live directory uses: the verdict
//! service's index publisher, the index baker and the cluster's
//! replication sessions.
//!
//! ## Delivery semantics
//!
//! * The first successful poll starts at the first segment and delivers
//!   records, each with its [`RecordPos`]; the batch's [`TailStart`] says
//!   where it started.
//! * A poll reads only the bytes past the follower's offset, so a record
//!   is decoded and checksummed once, when it is delivered.
//! * A partial frame at the end of the active segment means the writer is
//!   mid-append (or crashed mid-append): the follower waits; it never
//!   truncates another writer's file.
//! * If the segment the follower was reading disappears (the writer's
//!   recovery or [`crate::Store::truncate_after`] deleted it), the
//!   follower starts over at the first segment and **redelivers** —
//!   consumers must apply records idempotently (the verdict checker's map
//!   insert is).
//! * A full frame with a bad checksum or an impossible length (a zeroed
//!   region reads as length 0), and a missing segment index between two
//!   present ones, are genuine corruption: the follower poisons itself
//!   and every subsequent poll errors. Writers delete segments newest
//!   first, so a truncation in progress never looks like a gap.
//! * A directory holding a snapshot file from an older version is refused
//!   ([`list_segments`]): every poll errors, naming the file.

use crate::segment::{header_ok, scan_frames, segment_file_name, Torn, SEGMENT_HEADER_LEN};
use crate::store::{list_segments, RecordPos};
use std::fs::File;
use std::io::{self, Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};

/// Where a poll (re)started the follower.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TailStart {
    /// The first segment, where the records start.
    pub first_segment: u32,
}

/// What one poll produced.
#[derive(Debug, Default)]
pub struct TailBatch {
    /// Set when this poll (re)started the follower: on the first poll,
    /// or after the segment it was reading disappeared.
    pub start: Option<TailStart>,
    /// New records with their positions, in append order.
    pub records: Vec<(RecordPos, Vec<u8>)>,
    /// The newest segment this poll listed and its length in bytes: the
    /// writer's append position as far as the files show it.
    pub tip: Option<RecordPos>,
}

impl TailBatch {
    /// True when the poll found nothing new.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

/// A resumable position in a store directory: how far into which segment
/// the reader has consumed.
///
/// Produced by [`TailFollower::cursor`] and persisted by consumers (the
/// baked-index header stamps one) so a restarting process can
/// [`TailFollower::resume`] instead of replaying from the first segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TailCursor {
    /// The segment being consumed.
    pub segment: u32,
    /// Byte offset of the next unread frame within `segment` (at least
    /// the segment header length).
    pub offset: u64,
}

/// Incremental reader over a store directory written by someone else.
#[derive(Debug)]
pub struct TailFollower {
    dir: PathBuf,
    segment: Option<u32>,
    offset: u64,
    poisoned: bool,
}

impl TailFollower {
    /// Follow `dir`. No I/O happens until [`TailFollower::poll`]; the
    /// directory does not need to exist yet.
    pub fn new(dir: impl AsRef<Path>) -> TailFollower {
        TailFollower {
            dir: dir.as_ref().to_path_buf(),
            segment: None,
            offset: SEGMENT_HEADER_LEN,
            poisoned: false,
        }
    }

    /// Resume following `dir` from a previously captured [`TailCursor`]:
    /// the first poll delivers only records past the cursor. That takes a
    /// cursor at a record boundary of a live segment — where one of its
    /// records (or its header) ends — so this reads the segment up to the
    /// cursor. Any other cursor (one whose segment is gone, or a forged or
    /// diverged one) falls back to a start from the first segment: the
    /// follower has no [`TailFollower::cursor`] until its first poll
    /// starts it over.
    pub fn resume(dir: impl AsRef<Path>, cursor: TailCursor) -> TailFollower {
        let mut follower = TailFollower::new(dir);
        let (seg, offset) = (cursor.segment, cursor.offset.max(SEGMENT_HEADER_LEN));
        let bytes = std::fs::read(follower.dir.join(segment_file_name(seg))).unwrap_or_default();
        // The frames up to the offset must end there exactly.
        if header_ok(&bytes, seg)
            && offset <= bytes.len() as u64
            && scan_frames(&bytes[..offset as usize], SEGMENT_HEADER_LEN as usize).1 == offset
        {
            follower.segment = Some(seg);
            follower.offset = offset;
        }
        follower
    }

    /// The directory being followed.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The current consumption position, or `None` until a poll has
    /// started the follower on a segment (an unstarted follower has no
    /// position worth persisting).
    pub fn cursor(&self) -> Option<TailCursor> {
        if self.poisoned {
            return None;
        }
        Some(TailCursor {
            segment: self.segment?,
            offset: self.offset,
        })
    }

    /// Deliver everything new since the last poll. Only the bytes past
    /// the follower's offset are read and checked: records already
    /// delivered are not decoded again.
    pub fn poll(&mut self) -> io::Result<TailBatch> {
        self.poll_segments(false)
    }

    /// [`TailFollower::poll`], reading at most one segment: a poll that
    /// finishes its segment moves to the next one and stops there. A
    /// batch then holds one segment's records, so a reader streaming a
    /// large directory — a replication session — keeps one segment in
    /// memory, not the WAL.
    pub fn poll_segment(&mut self) -> io::Result<TailBatch> {
        self.poll_segments(true)
    }

    fn poll_segments(&mut self, one: bool) -> io::Result<TailBatch> {
        if self.poisoned {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "tail follower poisoned by earlier corruption",
            ));
        }
        let mut batch = TailBatch::default();
        if !self.dir.exists() {
            return Ok(batch);
        }
        let segments = list_segments(&self.dir)?;

        // (Re)start at the first segment on first poll, or when the
        // segment we were reading is gone — once a segment exists.
        if self.segment.is_none_or(|s| !segments.contains(&s)) {
            self.segment = None;
            let Some(&first) = segments.first() else {
                return Ok(batch);
            };
            batch.start = Some(TailStart {
                first_segment: first,
            });
            self.segment = Some(first);
            self.offset = SEGMENT_HEADER_LEN;
        }

        while let Some(seg) = self.segment {
            // At the header, read (and check) the whole file; past it,
            // read only what is new.
            let from = if self.offset == SEGMENT_HEADER_LEN {
                0
            } else {
                self.offset
            };
            let mut bytes = Vec::new();
            let read = File::open(self.dir.join(segment_file_name(seg))).and_then(|mut file| {
                file.seek(SeekFrom::Start(from))?;
                file.read_to_end(&mut bytes)
            });
            if let Err(e) = read {
                if e.kind() != io::ErrorKind::NotFound {
                    return Err(e);
                }
                // The segment was deleted under us; restart next poll.
                self.segment = None;
                break;
            }
            if from == 0 && !header_ok(&bytes, seg) {
                // The writer has created the file but not yet written the
                // header; wait. If a later segment already exists the
                // header can never complete — that is corruption.
                if segments.iter().any(|&i| i > seg) {
                    self.poisoned = true;
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("segment {seg} has an invalid header"),
                    ));
                }
                break;
            }
            let start = (self.offset - from) as usize;
            let (records, good_len, torn) = scan_frames(&bytes, start);
            batch.records.extend(records.into_iter().map(|rec| {
                let pos = RecordPos {
                    segment: seg,
                    end_offset: from + rec.end_offset,
                };
                (pos, rec.payload)
            }));
            self.offset = from + good_len;
            match torn {
                // Writer mid-append (or a crashed writer whose recovery
                // will truncate): wait, never consume past it.
                Some(Torn::PartialFrame) => break,
                Some(t) => {
                    self.poisoned = true;
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("segment {seg} corrupt: {t}"),
                    ));
                }
                None => match segments.iter().copied().find(|&i| i > seg) {
                    Some(next) if next == seg + 1 => {
                        self.segment = Some(next);
                        self.offset = SEGMENT_HEADER_LEN;
                        if one {
                            break;
                        }
                    }
                    Some(next) => {
                        // A listing that raced a newest-first deletion
                        // shows a later segment that is gone by now; one
                        // still there means `seg + 1` is a hole.
                        let exists = |i| self.dir.join(segment_file_name(i)).exists();
                        if !exists(seg + 1) && exists(next) {
                            self.poisoned = true;
                            return Err(io::Error::new(
                                io::ErrorKind::InvalidData,
                                format!("segment {} is missing before segment {next}", seg + 1),
                            ));
                        }
                        break;
                    }
                    None => break,
                },
            }
        }

        if let Some(&newest) = segments.last() {
            let len =
                std::fs::metadata(self.dir.join(segment_file_name(newest))).map_or(0, |m| m.len());
            batch.tip = Some(RecordPos {
                segment: newest,
                end_offset: len.max(SEGMENT_HEADER_LEN),
            });
        }
        Ok(batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{Store, StoreOptions};
    use crate::testutil::TempDir;

    fn payloads(batch: &TailBatch) -> Vec<Vec<u8>> {
        batch.records.iter().map(|(_, p)| p.clone()).collect()
    }

    fn opts(max: u64) -> StoreOptions {
        StoreOptions {
            segment_max_bytes: max,
        }
    }

    #[test]
    fn missing_dir_yields_empty_batches() {
        let dir = TempDir::new("tail-missing");
        let mut f = TailFollower::new(dir.path().join("nothing-here"));
        assert!(f.poll().unwrap().is_empty());
        assert!(f.poll().unwrap().is_empty());
    }

    #[test]
    fn follows_appends_across_polls_and_rotations() {
        let dir = TempDir::new("tail-follow");
        let (mut store, _) = Store::open_with(dir.path(), opts(128), None).unwrap();
        let mut follower = TailFollower::new(dir.path());

        store.append(b"one").unwrap();
        store.append(b"two").unwrap();
        store.flush().unwrap();
        let b1 = follower.poll().unwrap();
        assert_eq!(payloads(&b1), vec![b"one".to_vec(), b"two".to_vec()]);

        // Nothing new: empty batch.
        assert!(follower.poll().unwrap().is_empty());

        // Push past the rotation threshold.
        for i in 0..20 {
            store.append(format!("rec-{i:02}").as_bytes()).unwrap();
        }
        store.flush().unwrap();
        assert!(store.position().segment > 0, "should have rotated");
        let b2 = follower.poll().unwrap();
        let got = payloads(&b2);
        assert_eq!(got.len(), 20);
        assert_eq!(got[0], b"rec-00");
        assert_eq!(got[19], b"rec-19");
    }

    #[test]
    fn unflushed_records_are_invisible() {
        let dir = TempDir::new("tail-unflushed");
        let (mut store, _) = Store::open(dir.path()).unwrap();
        let mut follower = TailFollower::new(dir.path());
        store.append(b"buffered").unwrap();
        assert!(follower.poll().unwrap().is_empty());
        store.flush().unwrap();
        assert_eq!(
            payloads(&follower.poll().unwrap()),
            vec![b"buffered".to_vec()]
        );
    }

    #[test]
    fn partial_frame_waits_instead_of_erroring() {
        let dir = TempDir::new("tail-partial");
        let (mut store, _) = Store::open(dir.path()).unwrap();
        store.append(b"whole").unwrap();
        store.flush().unwrap();
        // Simulate a torn in-flight append by writing half a frame
        // directly after the good record.
        let seg = dir.path().join(segment_file_name(0));
        let mut bytes = std::fs::read(&seg).unwrap();
        bytes.extend_from_slice(&[9, 0, 0]); // 3 of 8 header bytes
        std::fs::write(&seg, &bytes).unwrap();

        let mut follower = TailFollower::new(dir.path());
        let batch = follower.poll().unwrap();
        assert_eq!(payloads(&batch), vec![b"whole".to_vec()]);
        // Still waiting, not erroring.
        assert!(follower.poll().unwrap().is_empty());
    }

    #[test]
    fn cursor_resume_skips_consumed_records() {
        let dir = TempDir::new("tail-resume");
        let (mut store, _) = Store::open_with(dir.path(), opts(4096), None).unwrap();
        let mut follower = TailFollower::new(dir.path());
        assert_eq!(follower.cursor(), None, "no position before first poll");

        store.append(b"seen-1").unwrap();
        store.append(b"seen-2").unwrap();
        store.flush().unwrap();
        assert_eq!(follower.poll().unwrap().records.len(), 2);
        let cursor = follower.cursor().expect("started by the poll");
        drop(follower);

        store.append(b"fresh").unwrap();
        store.flush().unwrap();
        let mut resumed = TailFollower::resume(dir.path(), cursor);
        let batch = resumed.poll().unwrap();
        assert!(batch.start.is_none(), "resume does not start over");
        assert_eq!(payloads(&batch), vec![b"fresh".to_vec()]);
        assert!(resumed.poll().unwrap().is_empty());
    }

    #[test]
    fn full_frame_corruption_poisons() {
        let dir = TempDir::new("tail-poison");
        let (mut store, _) = Store::open(dir.path()).unwrap();
        store.append(b"aaaa").unwrap();
        store.append(b"bbbb").unwrap();
        store.flush().unwrap();
        let seg = dir.path().join(segment_file_name(0));
        let mut bytes = std::fs::read(&seg).unwrap();
        let n = bytes.len();
        bytes[n - 1] ^= 0x01;
        std::fs::write(&seg, &bytes).unwrap();

        let mut follower = TailFollower::new(dir.path());
        assert!(follower.poll().is_err());
        assert!(follower.poll().is_err(), "stays poisoned");
    }

    #[test]
    fn batches_carry_positions_start_and_tip() {
        let dir = TempDir::new("tail-positions");
        let (mut store, _) = Store::open_with(dir.path(), opts(128), None).unwrap();
        for i in 0..12 {
            store.append(format!("rec-{i:02}").as_bytes()).unwrap();
        }
        store.flush().unwrap();

        let mut follower = TailFollower::new(dir.path());
        let batch = follower.poll().unwrap();
        assert_eq!(batch.start, Some(TailStart { first_segment: 0 }));
        assert_eq!(batch.tip, Some(store.position()));
        // The same positions recovery reports.
        drop(store);
        let (store, recovered) = Store::open(dir.path()).unwrap();
        assert_eq!(batch.records, recovered.records);
        let last = batch.records.last().unwrap().0;
        assert_eq!(follower.cursor().unwrap().segment, last.segment);
        assert_eq!(follower.cursor().unwrap().offset, last.end_offset);

        let idle = follower.poll().unwrap();
        assert!(idle.is_empty() && idle.start.is_none());
        assert_eq!(idle.tip, Some(store.position()));
    }

    #[test]
    fn poll_segment_reads_one_segment_at_a_time() {
        let dir = TempDir::new("tail-one-segment");
        let (mut store, _) = Store::open_with(dir.path(), opts(128), None).unwrap();
        for i in 0..30 {
            store.append(format!("rec-{i:02}").as_bytes()).unwrap();
        }
        store.flush().unwrap();
        let all = TailFollower::new(dir.path()).poll().unwrap().records;

        let mut follower = TailFollower::new(dir.path());
        let mut got = Vec::new();
        loop {
            let batch = follower.poll_segment().unwrap();
            if batch.is_empty() {
                break;
            }
            let segments: Vec<u32> = batch.records.iter().map(|(pos, _)| pos.segment).collect();
            assert!(segments.windows(2).all(|w| w[0] == w[1]), "{segments:?}");
            got.extend(batch.records);
        }
        assert!(store.position().segment > 1, "several segments");
        assert_eq!(got, all);
    }

    #[test]
    fn delivered_records_are_not_read_again() {
        let dir = TempDir::new("tail-past-offset");
        let (mut store, _) = Store::open(dir.path()).unwrap();
        store.append(b"aaaa").unwrap();
        store.flush().unwrap();
        let mut follower = TailFollower::new(dir.path());
        assert_eq!(payloads(&follower.poll().unwrap()), vec![b"aaaa".to_vec()]);

        // Damage the delivered record: later polls read past it only.
        let seg = dir.path().join(segment_file_name(0));
        let mut bytes = std::fs::read(&seg).unwrap();
        let n = bytes.len();
        bytes[n - 1] ^= 0x01;
        std::fs::write(&seg, &bytes).unwrap();
        store.append(b"bbbb").unwrap();
        store.flush().unwrap();
        assert_eq!(payloads(&follower.poll().unwrap()), vec![b"bbbb".to_vec()]);
    }

    #[test]
    fn resume_starts_over_unless_the_cursor_is_a_live_record_boundary() {
        let dir = TempDir::new("tail-boundary");
        let (mut store, _) = Store::open(dir.path()).unwrap();
        for p in [&b"one"[..], b"two", b"three"] {
            store.append(p).unwrap();
        }
        store.flush().unwrap();
        let resumed =
            |segment, offset| TailFollower::resume(dir.path(), TailCursor { segment, offset });

        // After "one" (8-byte header, 8-byte frame header, 3 bytes).
        let mut follower = resumed(0, 19);
        assert_eq!(follower.cursor().unwrap().offset, 19);
        let batch = follower.poll().unwrap();
        assert!(batch.start.is_none());
        assert_eq!(payloads(&batch), vec![b"two".to_vec(), b"three".to_vec()]);
        assert!(resumed(0, SEGMENT_HEADER_LEN).cursor().is_some());

        // Inside a record, past the end, no such segment: the first poll
        // starts over and delivers everything.
        for (segment, offset) in [(0, 20), (0, 1000), (7, 8)] {
            let mut follower = resumed(segment, offset);
            assert_eq!(follower.cursor(), None, "{segment} {offset}");
            let batch = follower.poll().unwrap();
            assert!(batch.start.is_some());
            assert_eq!(batch.records.len(), 3);
        }
    }

    #[test]
    fn a_missing_segment_poisons() {
        let dir = TempDir::new("tail-gap");
        let (mut store, _) = Store::open_with(dir.path(), opts(128), None).unwrap();
        for i in 0..30 {
            store.append(format!("rec-{i:02}").as_bytes()).unwrap();
        }
        store.flush().unwrap();
        assert!(store.position().segment > 2);
        std::fs::remove_file(dir.path().join(segment_file_name(1))).unwrap();

        let mut follower = TailFollower::new(dir.path());
        let err = follower.poll().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("segment 1 is missing"), "{err}");
        assert!(follower.poll().is_err(), "stays poisoned");
    }

    #[test]
    fn a_suffix_deleted_newest_first_never_looks_like_a_gap() {
        let dir = TempDir::new("tail-suffix");
        let (mut store, _) = Store::open_with(dir.path(), opts(128), None).unwrap();
        for i in 0..40 {
            store.append(format!("rec-{i:02}").as_bytes()).unwrap();
        }
        store.flush().unwrap();
        drop(store);
        let segments = list_segments(dir.path()).unwrap();
        assert!(segments.len() > 4);
        // One follower at the end, one a segment at a time behind it.
        let mut ahead = TailFollower::new(dir.path());
        let mut behind = TailFollower::new(dir.path());
        ahead.poll().unwrap();
        behind.poll_segment().unwrap();
        for &idx in segments[1..].iter().rev() {
            std::fs::remove_file(dir.path().join(segment_file_name(idx))).unwrap();
            ahead.poll().unwrap();
            behind.poll_segment().unwrap();
        }
        behind.poll().unwrap();
        assert_eq!(ahead.cursor(), behind.cursor());
        assert_eq!(ahead.cursor().unwrap().segment, segments[0]);
    }

    #[test]
    fn a_directory_holding_a_snapshot_file_is_refused() {
        let dir = TempDir::new("tail-old-snapshot");
        let (mut store, _) = Store::open(dir.path()).unwrap();
        store.append(b"kept").unwrap();
        store.flush().unwrap();
        std::fs::write(dir.path().join("snap-0000000000.snap"), b"FPSN").unwrap();

        let mut follower = TailFollower::new(dir.path());
        for _ in 0..2 {
            let err = follower.poll().unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert!(err.to_string().contains("snap-0000000000.snap"), "{err}");
        }
    }
}
