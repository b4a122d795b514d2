//! The mmap loader and lookup path.
//!
//! Two opens with different trust models:
//!
//! * [`SnapshotIndex::open`] — the serve path. Maps the file lazily,
//!   validates the header (magic, version, CRC) and checks the declared
//!   geometry against the real file length; cost is independent of file
//!   size, which is what makes a 10M-entry restart a millisecond affair.
//! * [`SnapshotIndex::open_verified`] — the distrustful path (tools,
//!   post-crash inspection, property tests). Prefaults the mapping and
//!   additionally runs the full [`BodySum`] pass, refusing any flipped
//!   record or heap byte with a typed [`IndexError::BodyChecksum`].
//!   Also available after a fast open as [`SnapshotIndex::verify`].
//!
//! Either way, nothing in this module panics on untrusted bytes: every
//! lookup is bounds-checked, so even corruption the fast open cannot see
//! (or a hypothetical checksum collision) yields a wrong-but-safe answer,
//! never an out-of-range read.

use crate::format::{
    bucket_of, key_hash, BodySum, Header, IndexError, BUCKET_ENTRY_LEN, HEADER_LEN, RECORD_LEN,
};
use crate::mmap::Mmap;
use freephish_store::tail::TailCursor;
use std::fs::File;
use std::path::Path;

/// Keys one staged probe keeps in flight: enough independent misses to
/// fill the core's outstanding-load slots, few enough that a lane's state
/// stays in registers and L1. Chosen by measuring `hit_baked`.
pub const PROBE_LANE: usize = 16;

/// One decoded fixed-width record.
struct Record {
    hash: u64,
    key_off: usize,
    key_len: usize,
    score: f64,
}

impl Record {
    /// This record's key bytes, or `None` when they lie outside the heap.
    fn key<'h>(&self, heap: &'h [u8]) -> Option<&'h [u8]> {
        heap.get(self.key_off..self.key_off.checked_add(self.key_len)?)
    }
}

/// An immutable verdict index served from a memory-mapped bake file.
pub struct SnapshotIndex {
    map: Mmap,
    header: Header,
    heap_off: usize,
    buckets_off: usize,
}

impl SnapshotIndex {
    /// Map and validate `path` for serving: header parse, CRC and
    /// geometry checks only. O(1) in file size — pages fault in as
    /// lookups touch them.
    pub fn open(path: impl AsRef<Path>) -> Result<SnapshotIndex, IndexError> {
        SnapshotIndex::open_inner(path.as_ref(), false)
    }

    /// Map `path` prefaulted and additionally verify the body checksum
    /// over every record, heap and bucket byte. One memory-bandwidth
    /// pass; use when the file's integrity is in question.
    pub fn open_verified(path: impl AsRef<Path>) -> Result<SnapshotIndex, IndexError> {
        let idx = SnapshotIndex::open_inner(path.as_ref(), true)?;
        idx.verify()?;
        Ok(idx)
    }

    fn open_inner(path: &Path, populate: bool) -> Result<SnapshotIndex, IndexError> {
        let file = File::open(path)?;
        let file_len = file.metadata()?.len();
        if file_len < HEADER_LEN as u64 {
            return Err(IndexError::TooSmall { len: file_len });
        }
        let map = if populate {
            Mmap::map_readonly_populated(&file, file_len as usize)?
        } else {
            Mmap::map_readonly(&file, file_len as usize)?
        };
        let bytes = map.as_slice();
        let header = Header::decode(bytes)?;
        let expected = header.expected_len();
        if expected != file_len || header.total_len != file_len {
            return Err(IndexError::LengthMismatch {
                expected: expected.min(header.total_len),
                found: file_len,
            });
        }
        let heap_off = HEADER_LEN + header.entry_count as usize * RECORD_LEN;
        let buckets_off = heap_off + header.keyheap_len as usize;
        Ok(SnapshotIndex {
            map,
            header,
            heap_off,
            buckets_off,
        })
    }

    /// Re-run the body checksum over the live mapping. The write-once +
    /// atomic-rename file contract means a pass here proves the bytes the
    /// bake wrote are the bytes being served.
    pub fn verify(&self) -> Result<(), IndexError> {
        let mut sum = BodySum::new();
        sum.update(&self.map.as_slice()[HEADER_LEN..]);
        let found = sum.finish();
        if found != self.header.body_sum {
            return Err(IndexError::BodyChecksum {
                expected: self.header.body_sum,
                found,
            });
        }
        Ok(())
    }

    /// Look up one URL; `Some(score)` with the exact baked f64 bits. The
    /// one-key case of [`SnapshotIndex::get_many`].
    pub fn get(&self, url: &str) -> Option<f64> {
        let mut out = [None];
        self.probe::<_, 1>(&[url], &mut out, &[0]);
        out[0]
    }

    /// Answer every `None` slot of `out` with the baked score of the key
    /// in the same slot of `keys`; slots already `Some` are left alone, so
    /// a caller that resolved part of a batch elsewhere (the serve
    /// overlay's delta) hands over only what it missed. A slot stays
    /// `None` when its key is not baked.
    ///
    /// The unanswered slots are probed [`PROBE_LANE`] at a time, in
    /// stages over the lane, so the cache and TLB misses of different keys
    /// are in flight together instead of queueing one key's dependent
    /// chain behind another's.
    ///
    /// # Panics
    ///
    /// When `keys` and `out` differ in length.
    pub fn get_many<K: AsRef<str>>(&self, keys: &[K], out: &mut [Option<f64>]) {
        assert_eq!(keys.len(), out.len(), "one answer slot per key");
        let mut lane = [0usize; PROBE_LANE];
        let mut n = 0;
        for slot in 0..keys.len() {
            if out[slot].is_some() {
                continue;
            }
            lane[n] = slot;
            n += 1;
            if n == PROBE_LANE {
                self.probe::<_, PROBE_LANE>(keys, out, &lane);
                n = 0;
            }
        }
        if n > 0 {
            self.probe::<_, PROBE_LANE>(keys, out, &lane[..n]);
        }
    }

    /// The one probe loop: answer the slots `lane` names, at most `N`. A
    /// key costs three dependent misses (bucket table, record, key heap);
    /// each stage makes one of them for every key of the lane before the
    /// next stage needs any of their results. The loads within a stage do
    /// not depend on each other, so the core keeps them in flight
    /// together. The lane's state is `N` wide, so [`SnapshotIndex::get`]
    /// (`N = 1`) sets up one key's worth of it.
    fn probe<K: AsRef<str>, const N: usize>(
        &self,
        keys: &[K],
        out: &mut [Option<f64>],
        lane: &[usize],
    ) {
        debug_assert!(lane.len() <= N);
        let bytes = self.map.as_slice();
        let Some(heap) = bytes.get(self.heap_off..self.buckets_off) else {
            return;
        };
        let entries = self.header.entry_count as usize;
        let mut hash = [0u64; N];
        // Per key, records `next..end` are still to scan; the scan stops
        // early at a record hashing above the key.
        let mut next = [0usize; N];
        let mut end = [0usize; N];

        // Stage 1: hash every key and read its bucket's bounds. A corrupt
        // bucket table reads as an empty bucket.
        for (j, &slot) in lane.iter().enumerate() {
            let h = key_hash(keys[slot].as_ref().as_bytes());
            let bucket = bucket_of(h, self.header.bucket_count) as usize;
            hash[j] = h;
            if let (Some(lo), Some(hi)) =
                (self.bucket_offset(bucket), self.bucket_offset(bucket + 1))
            {
                if lo <= hi && hi <= entries {
                    (next[j], end[j]) = (lo, hi);
                }
            }
        }

        // Stage 2: read each bucket's first record. Nothing branches on
        // what it holds until stage 3.
        let mut first = [None; N];
        for j in 0..lane.len() {
            if next[j] < end[j] {
                first[j] = self.record(next[j]).map(|rec| rec.hash);
            }
        }

        // Stage 3: step past the records that hash below the key (records
        // are hash-sorted within a bucket, so `next` stops on the first
        // candidate and a larger hash empties the span), then touch the
        // candidate's key in the heap. Its first byte is kept, and stage 4
        // checks it before comparing the whole key.
        let mut lead = [None; N];
        for j in 0..lane.len() {
            let mut rec_hash = first[j];
            while next[j] < end[j] {
                match rec_hash {
                    Some(h) if h < hash[j] => {
                        next[j] += 1;
                        rec_hash = self.record(next[j]).map(|rec| rec.hash);
                    }
                    Some(h) if h == hash[j] => break,
                    _ => end[j] = next[j],
                }
            }
            if next[j] < end[j] {
                let rec = self.record(next[j]);
                lead[j] = rec.and_then(|rec| rec.key(heap)?.first().copied());
            }
        }

        // Stage 4: compare keys and take the scores. Records after the
        // first candidate are other keys of the same hash: rare, and
        // compared in place.
        for (j, &slot) in lane.iter().enumerate() {
            let key = keys[slot].as_ref().as_bytes();
            let mut i = next[j];
            if i < end[j] && lead[j] != key.first().copied() {
                i += 1;
            }
            while i < end[j] {
                let Some(rec) = self.record(i).filter(|rec| rec.hash == hash[j]) else {
                    break;
                };
                if rec.key(heap) == Some(key) {
                    out[slot] = Some(rec.score);
                    break;
                }
                i += 1;
            }
        }
    }

    fn bucket_offset(&self, i: usize) -> Option<usize> {
        let off = self.buckets_off + i * BUCKET_ENTRY_LEN;
        let raw = self.map.as_slice().get(off..off + BUCKET_ENTRY_LEN)?;
        Some(u32::from_le_bytes(raw.try_into().unwrap()) as usize)
    }

    /// Record `i`, or `None` when it lies outside the mapping.
    fn record(&self, i: usize) -> Option<Record> {
        let off = HEADER_LEN + i * RECORD_LEN;
        let rec = self.map.as_slice().get(off..off + RECORD_LEN)?;
        Some(Record {
            hash: u64::from_le_bytes(rec[0..8].try_into().unwrap()),
            key_off: u32::from_le_bytes(rec[8..12].try_into().unwrap()) as usize,
            key_len: u32::from_le_bytes(rec[12..16].try_into().unwrap()) as usize,
            score: f64::from_bits(u64::from_le_bytes(rec[16..24].try_into().unwrap())),
        })
    }

    /// Number of baked entries.
    pub fn len(&self) -> u64 {
        self.header.entry_count
    }

    /// True when the bake contained no verdicts.
    pub fn is_empty(&self) -> bool {
        self.header.entry_count == 0
    }

    /// Whole-file size in bytes.
    pub fn file_bytes(&self) -> u64 {
        self.header.total_len
    }

    /// The journal position the bake drained to. A restarting node
    /// resumes its tail follower here instead of replaying the WAL.
    pub fn cursor(&self) -> Option<TailCursor> {
        self.header.cursor
    }

    /// Iterate every baked `(url, score)` pair, in hash order. Keys that
    /// are not valid UTF-8 (impossible for our writer) are skipped.
    pub fn iter(&self) -> impl Iterator<Item = (&str, f64)> + '_ {
        let heap = &self.map.as_slice()[self.heap_off..self.buckets_off];
        (0..self.header.entry_count as usize).filter_map(move |i| {
            let rec = self.record(i)?;
            let key = std::str::from_utf8(rec.key(heap)?).ok()?;
            Some((key, rec.score))
        })
    }
}
