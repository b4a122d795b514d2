//! The external-merge writer: bake millions of `(url, score)` entries
//! into the immutable index format without ever materializing the full
//! map in memory.
//!
//! A run is one key arena plus fixed 24-byte records `(hash, arena
//! offset, key length, score bits)` — the file's record layout — so an
//! entry costs its key bytes plus 24 and adding one allocates nothing.
//! Append order is implicit: the run's number, then the key's arena
//! offset. When a run's bytes reach the budget, or its arena would pass
//! `u32::MAX`, it is sorted by `(hash, key, append order)` and spilled as
//! records each followed by its key bytes.
//!
//! [`IndexWriter::finish`] merges the spilled runs and the in-memory run
//! (always the last source) through reused buffers, keeping the last
//! write of every key (journal semantics). Records stream straight into
//! the output file behind a placeholder header while bucket occupancy is
//! counted; only the key heap passes through one temporary file before it
//! is appended. The body checksum is folded in as bytes go out, and the
//! file is fsynced and published with an atomic rename — a reader either
//! sees the old index or the complete new one, never a torn bake. Spilled
//! runs, the heap temporary and a half-written output are removed on
//! every exit path.
//!
//! Peak memory is the run budget plus 4 bytes per bucket for the
//! occupancy counts; `loadgen --soak` gates a bake's RSS growth at those
//! plus 48 MB (176 MB at 10M entries).

use crate::format::{bucket_of, key_hash, BodySum, Header, HEADER_LEN, RECORD_LEN};
use freephish_store::segment::scan_buffer;
use freephish_store::tail::TailCursor;
use freephish_store::TailFollower;
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Default in-memory run budget before a spill: key bytes plus 24 per
/// entry.
pub const DEFAULT_RUN_BYTES: usize = 64 * 1024 * 1024;

/// The key heap's temporary file, under the spill directory.
const HEAP_TMP: &str = "keyheap.tmp";

/// What one bake produced.
#[derive(Debug, Clone)]
pub struct BakeSummary {
    /// Deduplicated entries in the final index.
    pub entries: u64,
    /// Final file size in bytes.
    pub file_bytes: u64,
    /// Runs spilled to disk during the build (0 = fit in memory).
    pub spill_runs: usize,
    /// The journal position the bake drained to, if baked from a journal.
    pub cursor: Option<TailCursor>,
}

/// One entry as the file stores it. In a run, `off` is the key's arena
/// offset (its append order); in the file, its key-heap offset.
#[derive(Clone, Copy, Default)]
struct Record {
    hash: u64,
    off: u32,
    len: u32,
    score: u64,
}

impl Record {
    fn encode(&self) -> [u8; RECORD_LEN] {
        let mut b = [0u8; RECORD_LEN];
        b[0..8].copy_from_slice(&self.hash.to_le_bytes());
        b[8..12].copy_from_slice(&self.off.to_le_bytes());
        b[12..16].copy_from_slice(&self.len.to_le_bytes());
        b[16..24].copy_from_slice(&self.score.to_le_bytes());
        b
    }

    fn decode(b: &[u8; RECORD_LEN]) -> Record {
        let u32_at = |i: usize| u32::from_le_bytes(b[i..i + 4].try_into().unwrap());
        let u64_at = |i: usize| u64::from_le_bytes(b[i..i + 8].try_into().unwrap());
        Record {
            hash: u64_at(0),
            off: u32_at(8),
            len: u32_at(12),
            score: u64_at(16),
        }
    }
}

fn key_of<'a>(keys: &'a [u8], rec: &Record) -> &'a [u8] {
    &keys[rec.off as usize..][..rec.len as usize]
}

fn invalid(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidInput, what)
}

/// One sorted run feeding the merge — a spilled file, or (`file: None`)
/// the in-memory run — positioned on its current record `rec`, whose key
/// bytes are in `key`.
struct Source {
    file: Option<BufReader<File>>,
    left: usize,
    rec: Record,
    key: Vec<u8>,
}

impl Source {
    /// Step to the next record; `false` once the run is exhausted.
    fn advance(&mut self, recs: &[Record], keys: &[u8]) -> io::Result<bool> {
        if self.left == 0 {
            return Ok(false);
        }
        self.key.clear();
        match &mut self.file {
            Some(file) => {
                let mut fixed = [0u8; RECORD_LEN];
                file.read_exact(&mut fixed)?;
                self.rec = Record::decode(&fixed);
                self.key.resize(self.rec.len as usize, 0);
                file.read_exact(&mut self.key)?;
            }
            None => {
                self.rec = recs[recs.len() - self.left];
                self.key.extend_from_slice(key_of(keys, &self.rec));
            }
        }
        self.left -= 1;
        Ok(true)
    }
}

/// Streaming builder for one index file.
pub struct IndexWriter {
    spill_dir: PathBuf,
    keys: Vec<u8>,
    recs: Vec<Record>,
    max_run_bytes: usize,
    /// Spilled runs: file and record count, in append order.
    runs: Vec<(PathBuf, usize)>,
    total_added: u64,
    cursor: Option<TailCursor>,
}

impl IndexWriter {
    /// Create a writer spilling oversized runs into `spill_dir` (created
    /// if missing; its temporary files are removed when the writer is
    /// finished or dropped).
    pub fn create(spill_dir: impl AsRef<Path>) -> io::Result<IndexWriter> {
        IndexWriter::with_run_bytes(spill_dir, DEFAULT_RUN_BYTES)
    }

    /// Create with an explicit in-memory run budget (tests use tiny
    /// budgets to force multi-run merges).
    pub fn with_run_bytes(
        spill_dir: impl AsRef<Path>,
        max_run_bytes: usize,
    ) -> io::Result<IndexWriter> {
        let spill_dir = spill_dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&spill_dir)?;
        Ok(IndexWriter {
            spill_dir,
            keys: Vec::new(),
            recs: Vec::new(),
            max_run_bytes: max_run_bytes.max(1),
            runs: Vec::new(),
            total_added: 0,
            cursor: None,
        })
    }

    /// Record the journal position this bake covers; stored in the header
    /// so a restarting consumer can resume its tail follower there.
    pub fn set_cursor(&mut self, cursor: Option<TailCursor>) {
        self.cursor = cursor;
    }

    /// Add one entry. Later adds of the same URL shadow earlier ones,
    /// exactly like journal replay.
    pub fn add(&mut self, url: &str, score: f64) -> io::Result<()> {
        let len = u32::try_from(url.len()).map_err(|_| invalid("key exceeds 4 GiB"))?;
        if self.keys.len() + url.len() > u32::MAX as usize {
            self.spill()?;
        }
        self.recs.push(Record {
            hash: key_hash(url.as_bytes()),
            off: self.keys.len() as u32,
            len,
            score: score.to_bits(),
        });
        self.keys.extend_from_slice(url.as_bytes());
        if url.is_empty() {
            // An offset is an append order, so an empty key takes a byte too.
            self.keys.push(0);
        }
        self.total_added += 1;
        if self.keys.len() + self.recs.len() * RECORD_LEN >= self.max_run_bytes {
            self.spill()?;
        }
        Ok(())
    }

    fn sort_run(&mut self) {
        let keys = &self.keys;
        self.recs.sort_unstable_by(|a, b| {
            (a.hash, key_of(keys, a), a.off).cmp(&(b.hash, key_of(keys, b), b.off))
        });
    }

    fn spill(&mut self) -> io::Result<()> {
        self.sort_run();
        let path = self
            .spill_dir
            .join(format!("run-{:05}.tmp", self.runs.len()));
        // Listed before it exists, so a failed spill is cleaned up too.
        self.runs.push((path.clone(), self.recs.len()));
        let mut w = BufWriter::with_capacity(1 << 20, File::create(&path)?);
        for rec in &self.recs {
            w.write_all(&rec.encode())?;
            w.write_all(key_of(&self.keys, rec))?;
        }
        w.flush()?;
        self.recs.clear();
        self.keys.clear();
        Ok(())
    }

    /// Merge, deduplicate, and atomically publish the index at `out_path`.
    /// On error nothing is published and `<out_path>.mapidx.tmp` is gone.
    pub fn finish(mut self, out_path: impl AsRef<Path>) -> io::Result<BakeSummary> {
        let out_path = out_path.as_ref();
        let tmp_path = out_path.with_extension("mapidx.tmp");
        let header = match self
            .write_to(&tmp_path)
            .and_then(|header| std::fs::rename(&tmp_path, out_path).map(|()| header))
        {
            Ok(header) => header,
            Err(e) => {
                let _ = std::fs::remove_file(&tmp_path);
                return Err(e);
            }
        };
        if let Some(parent) = out_path.parent() {
            if let Ok(d) = File::open(parent) {
                let _ = d.sync_all();
            }
        }
        Ok(BakeSummary {
            entries: header.entry_count,
            file_bytes: header.total_len,
            spill_runs: self.runs.len(),
            cursor: self.cursor,
        })
    }

    /// Write the whole index to `path` and fsync it.
    fn write_to(&mut self, path: &Path) -> io::Result<Header> {
        self.sort_run();
        // Bucket count from the pre-dedup total: an upper bound, so the
        // table can only be sparser than load factor 1. Never zero.
        let bucket_count = self.total_added.next_power_of_two().clamp(1, 1 << 31);

        let source = |file, left| Source {
            file,
            left,
            rec: Record::default(),
            key: Vec::new(),
        };
        let mut sources = Vec::with_capacity(self.runs.len() + 1);
        for (run, count) in &self.runs {
            let file = BufReader::with_capacity(1 << 18, File::open(run)?);
            sources.push(source(Some(file), *count));
        }
        sources.push(source(None, self.recs.len()));
        // Sources still holding a record, in append order.
        let mut live = Vec::with_capacity(sources.len());
        for (i, src) in sources.iter_mut().enumerate() {
            if src.advance(&self.recs, &self.keys)? {
                live.push(i);
            }
        }

        let mut out = BufWriter::with_capacity(1 << 20, File::create(path)?);
        out.write_all(&[0u8; HEADER_LEN])?;
        let mut heap = BufWriter::with_capacity(
            1 << 20,
            File::options()
                .read(true)
                .write(true)
                .create(true)
                .truncate(true)
                .open(self.spill_dir.join(HEAP_TMP))?,
        );
        let mut sum = BodySum::new();
        let mut counts: Vec<u32> = vec![0; bucket_count as usize];
        let (mut entries, mut heap_len) = (0u64, 0u64);
        let mut key = Vec::new();
        while !live.is_empty() {
            // A linear scan: one source per spilled run, nine at 10M entries.
            let mut min = live[0];
            for &i in &live[1..] {
                if (sources[i].rec.hash, &sources[i].key)
                    < (sources[min].rec.hash, &sources[min].key)
                {
                    min = i;
                }
            }
            let hash = sources[min].rec.hash;
            key.clear();
            key.extend_from_slice(&sources[min].key);
            // Drain every copy of this key, runs in append order and each
            // run's copies by offset: the last one wins.
            let mut score = 0;
            let mut next = 0;
            while next < live.len() {
                let src = &mut sources[live[next]];
                let mut more = true;
                while more && src.rec.hash == hash && src.key == key {
                    score = src.rec.score;
                    more = src.advance(&self.recs, &self.keys)?;
                }
                if more {
                    next += 1;
                } else {
                    live.remove(next);
                }
            }
            if heap_len + key.len() as u64 > u32::MAX as u64 {
                return Err(invalid("key heap exceeds 4 GiB (u32 offsets)"));
            }
            let rec = Record {
                hash,
                off: heap_len as u32,
                len: key.len() as u32,
                score,
            }
            .encode();
            sum.update(&rec);
            out.write_all(&rec)?;
            heap.write_all(&key)?;
            heap_len += key.len() as u64;
            counts[bucket_of(hash, bucket_count) as usize] += 1;
            entries += 1;
        }
        if entries >= u32::MAX as u64 {
            return Err(invalid("entry count exceeds u32 offsets"));
        }

        // The key heap follows the records, then the prefix-summed bucket
        // table; the checksum is folded in on the way out.
        let mut heap = heap.into_inner().map_err(|e| e.into_error())?;
        heap.seek(SeekFrom::Start(0))?;
        let mut chunk = [0u8; 1 << 16];
        loop {
            let n = heap.read(&mut chunk)?;
            if n == 0 {
                break;
            }
            sum.update(&chunk[..n]);
            out.write_all(&chunk[..n])?;
        }
        let mut running: u32 = 0;
        sum.update(&running.to_le_bytes());
        out.write_all(&running.to_le_bytes())?;
        for group in counts.chunks(chunk.len() / 4) {
            for (count, slot) in group.iter().zip(chunk.chunks_exact_mut(4)) {
                running += count;
                slot.copy_from_slice(&running.to_le_bytes());
            }
            sum.update(&chunk[..group.len() * 4]);
            out.write_all(&chunk[..group.len() * 4])?;
        }
        out.flush()?;
        let mut file = out.into_inner().map_err(|e| e.into_error())?;

        let header = Header {
            entry_count: entries,
            bucket_count,
            keyheap_len: heap_len,
            cursor: self.cursor,
            body_sum: sum.finish(),
            total_len: file.stream_position()?,
        };
        file.seek(SeekFrom::Start(0))?;
        file.write_all(&header.encode())?;
        file.sync_all()?;
        Ok(header)
    }
}

impl Drop for IndexWriter {
    /// Spilled runs and the key-heap temporary go whether the bake was
    /// finished, failed, or abandoned.
    fn drop(&mut self) {
        for (run, _) in &self.runs {
            let _ = std::fs::remove_file(run);
        }
        let _ = std::fs::remove_file(self.spill_dir.join(HEAP_TMP));
    }
}

/// Bake the full durable state of a store journal into `out_path`,
/// streaming through `decode` (the same payload-decoder contract the
/// serve layer's `IndexPublisher` uses) and recording the drained journal
/// cursor in the header. Spill files live under `<out_path>.spill`, which
/// is removed whether the bake succeeds or fails.
pub fn bake_journal<F>(
    store_dir: impl AsRef<Path>,
    out_path: impl AsRef<Path>,
    mut decode: F,
) -> io::Result<BakeSummary>
where
    F: FnMut(&[u8]) -> io::Result<Option<(String, f64)>>,
{
    let out_path = out_path.as_ref();
    let spill_dir = out_path.with_extension("spill");
    let baked = IndexWriter::create(&spill_dir).and_then(|mut writer| {
        let mut follower = TailFollower::new(store_dir.as_ref());
        loop {
            let batch = follower.poll()?;
            if batch.is_empty() {
                break;
            }
            if let Some(snapshot) = &batch.snapshot {
                let (frames, torn) = scan_buffer(snapshot);
                if torn.is_some() {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "journal snapshot framing is corrupt",
                    ));
                }
                for frame in frames {
                    if let Some((url, score)) = decode(&frame)? {
                        writer.add(&url, score)?;
                    }
                }
            }
            for payload in &batch.records {
                if let Some((url, score)) = decode(payload)? {
                    writer.add(&url, score)?;
                }
            }
        }
        writer.set_cursor(follower.cursor());
        writer.finish(out_path)
    });
    let _ = std::fs::remove_dir_all(&spill_dir);
    baked
}
