//! Store-backed verdict checking: the live-updatable replacement for a
//! static [`crate::extension::KnownSetChecker`].
//!
//! An [`EventedStoreChecker`] follows a pipeline run's journal directory
//! *read-only* (the pipeline process is the WAL's single writer): reads
//! resolve against a `freephish-serve` [`ShardedIndex`] (RCU-style
//! snapshots, no lock held during lookups) and the main journal is
//! ingested by an [`IndexPublisher`] built from
//! [`journal_payload_decoder`], so the verdict service hot-reloads as the
//! pipeline appends detections. Manual `ADD`s from the wire protocol are
//! durably journaled in a *sidecar* store ([`SidecarAdds`], at
//! `<dir>/extd-adds`) owned by the daemon — never in the main journal —
//! preserving single-writer integrity on both logs.
//!
//! Snapshot redelivery (the tail follower re-reads history after the
//! pipeline compacts its WAL) is harmless here: applying a verdict twice
//! is an idempotent map insert.
//!
//! At million-entry scale the checker accepts a *baked baseline*
//! (`freephish-mapidx`, see [`bake_index`]): an immutable mmap-loadable
//! image of the main journal's net state, loaded in milliseconds. Live
//! state shadows the baseline bit-identically — the journal is later in
//! time than any bake of its prefix — and the tail follower resumes from
//! the cursor stamped in the bake's header, so restart cost stops
//! scaling with journal history (DESIGN.md §15).

use crate::extension::{UrlChecker, Verdict};
use crate::journal::{decode_event, encode_event, obs_store_observer, AddEvent, RunEvent};
use freephish_mapidx::{bake_journal, BakeSummary, SnapshotIndex};
use freephish_serve::{IndexPublisher, OverlayIndex, PayloadDecoder, ShardedIndex};
use freephish_store::segment::scan_buffer;
use freephish_store::{Store, StoreOptions, TailCursor, TailFollower};
use parking_lot::Mutex;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Name of the sidecar store directory holding manual additions.
pub const ADDS_SUBDIR: &str = "extd-adds";

/// The daemon-owned durable journal of manual `ADD`s, kept in a sidecar
/// store (`<dir>/extd-adds`) so the pipeline's run journal keeps its
/// single writer.
pub struct SidecarAdds {
    store: Store,
}

impl SidecarAdds {
    /// Open (or create) the sidecar under `dir`. Returns the store plus
    /// every previously journaled `(url, score)` addition, in order.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<(SidecarAdds, Vec<(String, f64)>)> {
        let (store, recovered) = Store::open_with(
            dir.as_ref().join(ADDS_SUBDIR),
            StoreOptions::default(),
            Some(obs_store_observer()),
        )?;
        let mut entries = Vec::new();
        let mut apply = |payload: &[u8]| -> io::Result<()> {
            match decode_event(payload)? {
                RunEvent::Add(a) => {
                    entries.push((a.url, a.score));
                    Ok(())
                }
                _ => Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "sidecar store holds a non-ADD record",
                )),
            }
        };
        if let Some(snapshot) = &recovered.snapshot {
            let (frames, torn) = scan_buffer(snapshot);
            if torn.is_some() {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "sidecar snapshot framing is corrupt",
                ));
            }
            for frame in frames {
                apply(&frame)?;
            }
        }
        for (_, payload) in &recovered.records {
            apply(payload)?;
        }
        Ok((SidecarAdds { store }, entries))
    }

    /// Durably journal one manual addition (append + fsync).
    pub fn append(&mut self, url: &str, score: f64) -> io::Result<()> {
        let ev = RunEvent::Add(AddEvent {
            url: url.to_string(),
            score,
        });
        self.store.append(&encode_event(&ev))?;
        self.store.sync()
    }

    /// Flush + fsync (shutdown path).
    pub fn sync(&mut self) -> io::Result<()> {
        self.store.sync()
    }

    /// The sidecar store directory.
    pub fn dir(&self) -> &Path {
        self.store.dir()
    }
}

/// Decode one run-journal payload into an optional `(url, score)` entry:
/// the [`PayloadDecoder`] that lets a `freephish-serve`
/// [`IndexPublisher`] (which knows nothing of the journal schema) ingest
/// this crate's run journals.
pub fn journal_payload_decoder() -> PayloadDecoder {
    Box::new(|payload: &[u8]| match decode_event(payload)? {
        RunEvent::Verdict(v) => Ok(Some((v.url, v.score))),
        RunEvent::Add(a) => Ok(Some((a.url, a.score))),
        // The journal's bookkeeping records carry no verdicts.
        RunEvent::Meta(_) | RunEvent::Report(_) | RunEvent::Checkpoint(_) => Ok(None),
    })
}

/// Bake the *main* run journal at `store_dir` into an immutable
/// mmap-loadable index file at `out_path` (temp file + atomic rename),
/// recording the drained journal cursor in the header so a restarting
/// node resumes its tail follower there instead of replaying.
///
/// Sidecar `ADD`s (`<dir>/extd-adds`) are deliberately *not* baked: the
/// sidecar is replayed into the live delta on every open, and its
/// entries shadow the baseline bit-identically, so the bake stays a pure
/// function of the single-writer main journal.
pub fn bake_index(
    store_dir: impl AsRef<Path>,
    out_path: impl AsRef<Path>,
) -> io::Result<BakeSummary> {
    bake_journal(store_dir, out_path, journal_payload_decoder())
}

/// Load a baked index, mapping loader errors into `io::Error` for the
/// daemon's `io::Result` plumbing.
fn open_snapshot_index(path: &Path) -> io::Result<SnapshotIndex> {
    SnapshotIndex::open(path).map_err(|e| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{}: {e}", path.display()),
        )
    })
}

/// A [`UrlChecker`] backed by a run-journal store directory plus a
/// durable sidecar for manual additions. Reads take RCU-style snapshots
/// of a `freephish-serve` [`ShardedIndex`], so batches resolve against
/// one consistent generation.
///
/// Main-journal ingestion happens through the [`IndexPublisher`] returned
/// by [`EventedStoreChecker::publisher`]; poll it from the serve loop.
pub struct EventedStoreChecker {
    dir: PathBuf,
    overlay: Arc<OverlayIndex>,
    base_cursor: Option<TailCursor>,
    adds: Mutex<SidecarAdds>,
}

impl EventedStoreChecker {
    /// Open against the run journal at `dir`. Recovers previously
    /// journaled manual additions from the sidecar into the index
    /// immediately; pair with [`EventedStoreChecker::publisher`] to ingest
    /// (and hot-reload) the main journal.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<EventedStoreChecker> {
        EventedStoreChecker::open_with_base(dir, None)
    }

    /// Like [`EventedStoreChecker::open`], but with an optional baked
    /// baseline: reads go through the two-level [`OverlayIndex`] (live
    /// delta over the mmap), and [`EventedStoreChecker::publisher`]
    /// resumes the journal tail from the bake's cursor, so a restart
    /// replays only the suffix.
    pub fn open_with_base(
        dir: impl AsRef<Path>,
        index_file: Option<&Path>,
    ) -> io::Result<EventedStoreChecker> {
        let dir = dir.as_ref().to_path_buf();
        let (adds, recovered) = SidecarAdds::open(&dir)?;
        let delta = Arc::new(ShardedIndex::with_default_shards());
        if !recovered.is_empty() {
            delta.publish(recovered);
        }
        let mut base_cursor = None;
        let overlay = match index_file {
            Some(path) => {
                let idx = open_snapshot_index(path)?;
                base_cursor = idx.cursor();
                Arc::new(OverlayIndex::with_base(idx, delta))
            }
            None => Arc::new(OverlayIndex::new(delta)),
        };
        Ok(EventedStoreChecker {
            dir,
            overlay,
            base_cursor,
            adds: Mutex::new(adds),
        })
    }

    /// An [`IndexPublisher`] tailing the main run journal into this
    /// checker's delta — resumed at the baseline's cursor when one was
    /// loaded.
    pub fn publisher(&self) -> IndexPublisher {
        let follower = match self.base_cursor {
            Some(cursor) => TailFollower::resume(&self.dir, cursor),
            None => TailFollower::new(&self.dir),
        };
        IndexPublisher::with_follower(follower, self.overlay.delta(), journal_payload_decoder())
    }

    /// The live delta index (what the publisher feeds).
    pub fn index(&self) -> Arc<ShardedIndex> {
        self.overlay.delta()
    }

    /// The two-level read path the serve layer mounts.
    pub fn overlay(&self) -> Arc<OverlayIndex> {
        self.overlay.clone()
    }

    /// The run-journal directory this checker follows.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Swap in a freshly baked baseline (re-bake completion). The delta
    /// is deliberately left intact — its entries shadow the new baseline
    /// bit-identically; it shrinks on the next restart, which resumes
    /// from the new bake's cursor.
    pub fn set_base(&self, base: SnapshotIndex) {
        self.overlay.set_base(base);
    }

    /// Durably journal a manual addition in the sidecar and publish it.
    pub fn add_durable(&self, url: &str, score: f64) -> io::Result<u64> {
        self.adds.lock().append(url, score)?;
        self.overlay.add(url, score).map_err(io::Error::other)
    }

    /// Flush + fsync the sidecar (shutdown path).
    pub fn sync(&self) -> io::Result<()> {
        self.adds.lock().sync()
    }

    /// Number of known-phishing URLs. With a baseline loaded this is an
    /// upper bound: delta entries that shadow baked ones count twice.
    pub fn len(&self) -> usize {
        self.overlay.delta().len() + self.overlay.base_len() as usize
    }

    /// True when nothing is known yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl UrlChecker for EventedStoreChecker {
    fn check(&self, url: &str) -> Verdict {
        self.overlay.check(url)
    }

    fn check_many(&self, urls: &[String]) -> Vec<Verdict> {
        self.overlay.check_many(urls)
    }

    fn add(&self, url: &str, score: f64) -> Result<u64, String> {
        self.add_durable(url, score)
            .map_err(|e| format!("store write failed: {e}"))
    }

    fn generation(&self) -> u64 {
        self.overlay.generation()
    }
}

/// What a `--store DIR` resolves to: the checker plus the periodic work
/// a serve loop must do to hot-reload it. The daemon (and any embedder)
/// drives it with one [`StoreBacking::open_with`] → repeated
/// [`StoreBacking::poll`] → final [`StoreBacking::sync`].
pub struct StoreBacking {
    checker: Arc<EventedStoreChecker>,
    publisher: IndexPublisher,
}

impl StoreBacking {
    /// Open `dir` with an optional baked-index baseline (`--index-file`),
    /// perform one catch-up read (so the checker starts current — with a
    /// baseline mounted it covers only the journal suffix past the bake's
    /// cursor), and durably journal any `seed_entries` (a `--blocklist`
    /// file) through the sidecar.
    pub fn open_with(
        dir: impl AsRef<Path>,
        seed_entries: Vec<(String, f64)>,
        index_file: Option<&Path>,
    ) -> io::Result<StoreBacking> {
        let checker = Arc::new(EventedStoreChecker::open_with_base(dir, index_file)?);
        let mut publisher = checker.publisher();
        publisher.poll()?;
        for (url, score) in seed_entries {
            checker.add_durable(&url, score)?;
        }
        Ok(StoreBacking { checker, publisher })
    }

    /// Re-bake the main journal into `out_path` and swap the fresh
    /// baseline into the serving overlay without a restart. Returns the
    /// bake summary.
    pub fn rebake(&self, out_path: &Path) -> io::Result<BakeSummary> {
        let summary = bake_index(self.checker.dir(), out_path)?;
        self.checker.set_base(open_snapshot_index(out_path)?);
        Ok(summary)
    }

    /// The checker to mount on the serving engine.
    pub fn checker(&self) -> Arc<dyn UrlChecker> {
        self.checker.clone()
    }

    /// Known phishing URLs currently loaded.
    pub fn len(&self) -> usize {
        self.checker.len()
    }

    /// True when no verdicts are loaded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Ingest whatever the pipeline has appended since the last poll.
    /// The caller's readiness flag should track the result: `Ok` means
    /// the journal tail is caught up.
    pub fn poll(&mut self) -> io::Result<()> {
        self.publisher.poll().map(|_| ())
    }

    /// Flush the sidecar ADD journal.
    pub fn sync(&self) -> io::Result<()> {
        self.checker.sync()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::{CheckpointEvent, RunJournal, RunMeta, VerdictEvent};
    use freephish_fwbsim::history::Platform;
    use freephish_store::testutil::TempDir;
    use freephish_webgen::FwbKind;

    fn meta() -> RunMeta {
        RunMeta {
            seed: 9,
            days: 1,
            scale: 0.01,
            benign_fraction: 0.0,
            threshold: 0.5,
            end_secs: 86_400,
        }
    }

    fn verdict(n: u64) -> VerdictEvent {
        VerdictEvent {
            url: format!("https://v{n}.weebly.com/"),
            fwb: FwbKind::Weebly,
            platform: Platform::Twitter,
            post: n,
            observed_at_secs: n * 600,
            score: 0.9,
        }
    }

    fn tick(journal: &mut RunJournal, t: u64) {
        journal.append_verdict(verdict(t)).unwrap();
        journal
            .checkpoint(CheckpointEvent {
                tick_secs: t * 600,
                scanned: t,
                observed: t,
                detections_total: t,
            })
            .unwrap();
    }

    #[test]
    fn hot_reloads_verdicts_from_a_live_journal() {
        let dir = TempDir::new("storechecker-live");
        let mut journal = RunJournal::create(dir.path(), &meta()).unwrap();
        let checker = EventedStoreChecker::open(dir.path()).unwrap();
        let mut publisher = checker.publisher();
        // Only the Meta bookkeeping record exists: nothing to publish.
        assert_eq!(publisher.poll().unwrap(), 0);
        assert_eq!(checker.generation(), 0);

        tick(&mut journal, 1);
        assert_eq!(publisher.poll().unwrap(), 1);
        assert_eq!(checker.generation(), 1);
        assert!(checker.check("https://v1.weebly.com/").is_phishing());
        assert!(!checker.check("https://v2.weebly.com/").is_phishing());

        // Batches resolve against the published index too.
        let verdicts = checker.check_many(&[
            "https://v1.weebly.com/".to_string(),
            "https://v2.weebly.com/".to_string(),
        ]);
        assert!(verdicts[0].is_phishing());
        assert!(!verdicts[1].is_phishing());

        // More ticks, picked up incrementally.
        tick(&mut journal, 2);
        assert_eq!(publisher.poll().unwrap(), 1);
        assert!(checker.check("https://v2.weebly.com/").is_phishing());
    }

    #[test]
    fn survives_journal_compaction_via_snapshot_redelivery() {
        let dir = TempDir::new("storechecker-compact");
        let mut journal = RunJournal::create(dir.path(), &meta()).unwrap();
        journal.snapshot_every_ticks = 2;
        let checker = EventedStoreChecker::open(dir.path()).unwrap();
        let mut publisher = checker.publisher();
        for t in 1..=6u64 {
            tick(&mut journal, t);
            // Poll on every tick so the follower crosses compactions.
            publisher.poll().unwrap();
        }
        for t in 1..=6u64 {
            assert!(
                checker
                    .check(&format!("https://v{t}.weebly.com/"))
                    .is_phishing(),
                "verdict {t} lost across compaction"
            );
        }
    }

    #[test]
    fn manual_adds_are_durable_across_reopen() {
        let dir = TempDir::new("storechecker-adds");
        // No run journal at all: the checker still works, sidecar-only.
        {
            let checker = EventedStoreChecker::open(dir.path()).unwrap();
            checker
                .add_durable("https://manual.wixsite.com/a", 0.88)
                .unwrap();
            checker
                .add_durable("https://manual.wixsite.com/b", 0.77)
                .unwrap();
            assert_eq!(checker.len(), 2);
            checker.sync().unwrap();
        }
        let checker = EventedStoreChecker::open(dir.path()).unwrap();
        assert_eq!(checker.len(), 2);
        assert!(checker.check("https://manual.wixsite.com/a").is_phishing());
        assert!(checker.check("https://manual.wixsite.com/b").is_phishing());
        assert!(checker.generation() > 0);
    }

    #[test]
    fn sidecar_never_touches_the_main_journal() {
        let dir = TempDir::new("storechecker-singlewriter");
        let mut journal = RunJournal::create(dir.path(), &meta()).unwrap();
        let checker = EventedStoreChecker::open(dir.path()).unwrap();
        checker
            .add_durable("https://manual.weebly.com/", 0.8)
            .unwrap();
        // The pipeline's journal still opens cleanly — nothing foreign was
        // appended to it.
        journal
            .checkpoint(CheckpointEvent {
                tick_secs: 600,
                scanned: 0,
                observed: 0,
                detections_total: 0,
            })
            .unwrap();
        drop(journal);
        let (_, rec) = RunJournal::open(dir.path()).unwrap();
        assert_eq!(rec.dropped_events, 0);
        assert!(rec.events.iter().all(|e| !matches!(e, RunEvent::Add(_))));
    }
}
