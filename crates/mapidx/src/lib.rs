//! # freephish-mapidx
//!
//! The immutable, mmap-loadable verdict index: the persistence layer that
//! lets a serve node carrying a 10M-entry blocklist restart in
//! milliseconds instead of replaying its WAL.
//!
//! The run journal (`freephish-store`) is the source of truth, but replay
//! cost grows linearly with history — at million-site cardinality a cold
//! start spends seconds rebuilding a map the previous process already
//! had. This crate bakes the journal's *net state* into a write-once file
//! ([`format`](mod@format)) that a restarting node maps ([`read`]) instead of
//! replaying:
//!
//! * [`write`](mod@write) — [`IndexWriter`], an external-merge builder: bounded
//!   in-memory runs spilled sorted to disk, k-way merged with
//!   last-write-wins dedup, and published by atomic rename. Memory never
//!   scales with entry count. [`bake_journal`] streams a store directory
//!   through the same payload-decoder contract the serve layer uses and
//!   stamps the drained journal cursor into the header.
//! * [`read`] — [`SnapshotIndex`]: `mmap(2)` the file, validate the
//!   CRC-checked header and geometry, then serve bounds-checked lookups
//!   straight off the mapping. The serve-path open is O(1) in file size
//!   (pages fault lazily); `open_verified` adds the memory-bandwidth
//!   body checksum for distrustful readers. Corrupt or truncated files
//!   are refused with a typed [`IndexError`]; nothing panics on
//!   untrusted bytes.
//! * [`format`](mod@format) — the shared layout: hash-sorted fixed-width records, a
//!   key heap, and a prefix-sum bucket table for O(1) lookups.
//!
//! The serve layer's one verdict index (`ShardedIndex`) holds a
//! [`SnapshotIndex`] as its base level, under its live RCU delta (fed from
//! the journal tail *after* the baked cursor): a lookup reads the delta's
//! levels first and the base last, as DESIGN.md §10 and §15 describe.

pub mod format;
pub mod mmap;
pub mod read;
pub mod write;

pub use format::{key_hash, BodySum, Header, IndexError};
pub use read::SnapshotIndex;
pub use write::{bake_journal, BakeSummary, IndexWriter, DEFAULT_RUN_BYTES};

#[cfg(test)]
mod tests {
    use super::*;
    use freephish_store::testutil::TempDir;

    fn bake(dir: &TempDir, entries: &[(&str, f64)], run_bytes: usize) -> SnapshotIndex {
        let out = dir.path().join("verdicts.mapidx");
        let mut w = IndexWriter::with_run_bytes(dir.path().join("spill"), run_bytes).unwrap();
        for (url, score) in entries {
            w.add(url, *score).unwrap();
        }
        let summary = w.finish(&out).unwrap();
        let idx = SnapshotIndex::open(&out).unwrap();
        assert_eq!(idx.len(), summary.entries);
        assert_eq!(idx.file_bytes(), summary.file_bytes);
        idx
    }

    #[test]
    fn roundtrips_entries_bit_identically() {
        let dir = TempDir::new("mapidx-roundtrip");
        let entries: Vec<(String, f64)> = (0..500)
            .map(|i| {
                (
                    format!("https://site{i}.weebly.com/login"),
                    0.5 + (i as f64) * 1e-6,
                )
            })
            .collect();
        let refs: Vec<(&str, f64)> = entries.iter().map(|(u, s)| (u.as_str(), *s)).collect();
        let idx = bake(&dir, &refs, DEFAULT_RUN_BYTES);
        assert_eq!(idx.len(), 500);
        for (url, score) in &entries {
            let got = idx.get(url).unwrap();
            assert_eq!(got.to_bits(), score.to_bits(), "{url}");
        }
        assert_eq!(idx.get("https://unknown.weebly.com/"), None);
    }

    #[test]
    fn later_adds_shadow_earlier_ones() {
        let dir = TempDir::new("mapidx-lww");
        let idx = bake(
            &dir,
            &[
                ("https://a.weebly.com/", 0.11),
                ("https://b.wixsite.com/x", 0.5),
                ("https://a.weebly.com/", 0.99),
            ],
            DEFAULT_RUN_BYTES,
        );
        assert_eq!(idx.len(), 2);
        assert_eq!(
            idx.get("https://a.weebly.com/").unwrap().to_bits(),
            0.99f64.to_bits()
        );
    }

    #[test]
    fn tiny_run_budget_forces_spills_and_merges_identically() {
        let dir_a = TempDir::new("mapidx-spill-a");
        let dir_b = TempDir::new("mapidx-spill-b");
        let entries: Vec<(String, f64)> = (0..2000)
            .map(|i| {
                (
                    format!("https://s{}.000webhostapp.com/p", i % 700),
                    i as f64,
                )
            })
            .collect();
        let refs: Vec<(&str, f64)> = entries.iter().map(|(u, s)| (u.as_str(), *s)).collect();
        // 1 KiB budget spills dozens of runs; the big budget never spills.
        let spilled = bake(&dir_a, &refs, 1024);
        let in_mem = bake(&dir_b, &refs, DEFAULT_RUN_BYTES);
        assert_eq!(spilled.len(), 700);
        assert_eq!(spilled.len(), in_mem.len());
        for i in 0..700 {
            let url = format!("https://s{i}.000webhostapp.com/p");
            assert_eq!(
                spilled.get(&url).map(f64::to_bits),
                in_mem.get(&url).map(f64::to_bits),
                "{url}"
            );
            // Last write wins: the highest index that hit this slot.
            let want = (1300..2000).find(|j| j % 700 == i).unwrap() as f64;
            assert_eq!(spilled.get(&url), Some(want));
        }
    }

    #[test]
    fn empty_bake_loads_and_misses_cleanly() {
        let dir = TempDir::new("mapidx-empty");
        let idx = bake(&dir, &[], DEFAULT_RUN_BYTES);
        assert!(idx.is_empty());
        assert_eq!(idx.get("https://anything.weebly.com/"), None);
        assert_eq!(idx.cursor(), None);
    }

    #[test]
    fn iter_yields_every_entry_once() {
        let dir = TempDir::new("mapidx-iter");
        let idx = bake(
            &dir,
            &[
                ("https://a.weebly.com/", 0.9),
                ("https://b.weebly.com/", 0.8),
                ("https://c.weebly.com/", 0.7),
            ],
            DEFAULT_RUN_BYTES,
        );
        let mut got: Vec<(String, f64)> = idx.iter().map(|(k, v)| (k.to_string(), v)).collect();
        got.sort_by(|a, b| a.0.cmp(&b.0));
        assert_eq!(
            got,
            vec![
                ("https://a.weebly.com/".to_string(), 0.9),
                ("https://b.weebly.com/".to_string(), 0.8),
                ("https://c.weebly.com/".to_string(), 0.7),
            ]
        );
    }

    /// Files left under `dir`, recursively (directories not counted).
    fn files_under(dir: &std::path::Path) -> usize {
        std::fs::read_dir(dir).map_or(0, |entries| {
            entries
                .map(|e| e.unwrap().path())
                .map(|p| if p.is_dir() { files_under(&p) } else { 1 })
                .sum()
        })
    }

    #[test]
    fn a_failed_finish_removes_its_runs_heap_and_output_temporaries() {
        let dir = TempDir::new("mapidx-fail-finish");
        let spill = dir.path().join("spill");
        let mut w = IndexWriter::with_run_bytes(&spill, 1024).unwrap();
        for i in 0..500 {
            w.add(&format!("https://f{i}.weebly.com/"), 0.5).unwrap();
        }
        // The key heap's temporary cannot be created: the output's
        // temporary already exists when this fails.
        std::fs::create_dir(spill.join("keyheap.tmp")).unwrap();
        let out = dir.path().join("idx.mapidx");
        assert!(w.finish(&out).is_err());
        assert_eq!(files_under(&spill), 0, "runs left behind");
        assert!(!dir.path().join("idx.mapidx.tmp").exists());
        assert!(!out.exists());
    }

    #[test]
    fn a_failed_journal_bake_leaves_no_temporary_files() {
        use freephish_store::Store;
        let dir = TempDir::new("mapidx-fail-journal");
        let store_dir = dir.path().join("journal");
        let (mut store, _) = Store::open(&store_dir).unwrap();
        for i in 0..2_000 {
            store
                .append(format!("https://j{i}.weebly.com/ 0.5").as_bytes())
                .unwrap();
        }
        store.flush().unwrap();
        let decode = |payload: &[u8]| -> std::io::Result<Option<(String, f64)>> {
            let (url, score) = std::str::from_utf8(payload)
                .unwrap()
                .split_once(' ')
                .unwrap();
            Ok(Some((url.to_string(), score.parse().unwrap())))
        };
        let out = dir.path().join("idx.mapidx");
        std::fs::write(&out, b"an index already published").unwrap();
        // A directory where the output's temporary file goes.
        let tmp = dir.path().join("idx.mapidx.tmp");
        std::fs::create_dir(&tmp).unwrap();
        assert!(bake_journal(&store_dir, &out, decode).is_err());
        assert!(
            !dir.path().join("idx.spill").exists(),
            "spill dir left behind"
        );
        assert_eq!(files_under(&tmp), 0);
        assert_eq!(std::fs::read(&out).unwrap(), b"an index already published");
    }

    #[test]
    fn bake_journal_records_cursor_and_resumes() {
        use freephish_store::{Store, StoreOptions, TailFollower};
        let dir = TempDir::new("mapidx-bake-journal");
        let store_dir = dir.path().join("journal");
        let opts = StoreOptions {
            segment_max_bytes: 256,
        };
        let (mut store, _) = Store::open_with(&store_dir, opts, None).unwrap();
        // Payloads are "url score" text; decoder splits them.
        for i in 0..50 {
            store
                .append(format!("https://j{i}.weebly.com/ 0.{i:02}").as_bytes())
                .unwrap();
        }
        store.flush().unwrap();
        let decode = |payload: &[u8]| -> std::io::Result<Option<(String, f64)>> {
            let text = std::str::from_utf8(payload).unwrap();
            let (url, score) = text.split_once(' ').unwrap();
            Ok(Some((url.to_string(), score.parse().unwrap())))
        };
        let out = dir.path().join("baked.mapidx");
        let summary = bake_journal(&store_dir, &out, decode).unwrap();
        assert_eq!(summary.entries, 50);
        let cursor = summary.cursor.expect("bake of a live journal has a cursor");

        let idx = SnapshotIndex::open(&out).unwrap();
        assert_eq!(idx.cursor(), Some(cursor));
        assert!(idx.get("https://j7.weebly.com/").is_some());

        // A follower resumed at the baked cursor sees only post-bake appends.
        store.append(b"https://after.weebly.com/ 0.99").unwrap();
        store.flush().unwrap();
        let mut follower = TailFollower::resume(&store_dir, cursor);
        let batch = follower.poll().unwrap();
        assert!(batch.start.is_none(), "resume does not start over");
        let payloads: Vec<_> = batch.records.into_iter().map(|(_, p)| p).collect();
        assert_eq!(payloads, vec![b"https://after.weebly.com/ 0.99".to_vec()]);
    }
}
