//! Store-backed verdict checking: one node type for every daemon mode
//! that serves a run-journal directory (`--store DIR`).
//!
//! An [`EventedStoreChecker`] reads `DIR` the same way whoever writes it:
//! lookups resolve against a `freephish-serve` [`ShardedIndex`] delta
//! (RCU-style snapshots, no lock held during lookups), optionally over a
//! baked mmap baseline, and the main journal is ingested by an
//! [`IndexPublisher`] built from [`journal_payload_decoder`], so the
//! verdict service hot-reloads as records land. What differs between
//! modes is only *who writes `DIR`'s main WAL* — the node's
//! [`WriteRole`] — and therefore where a wire `ADD` (or an inline
//! classify-on-miss verdict) is journaled before it is acknowledged:
//!
//! * [`WriteRole::Sidecar`] — another process (the pipeline) is the WAL's
//!   single writer; the node journals additions in its own store at
//!   `DIR/extd-adds`, never in the main journal, and replays that sidecar
//!   into the delta on open.
//! * [`WriteRole::Owner`] — this process is the single writer (a cluster
//!   primary, DESIGN.md §14): additions are appended to the main WAL,
//!   which is the history a replication source ships to followers.
//! * [`WriteRole::ReadOnly`] — a replication session owns `DIR` (a
//!   follower): the node holds no store and refuses additions.
//!
//! Either way an addition is append + fsync before `OK`, then a publish
//! into the delta for read-your-writes. Redelivery — the tail follower
//! re-reading history after a compaction, or an owner's tail re-reading
//! its own appends — is harmless: applying a verdict twice is an
//! idempotent map insert.
//!
//! At million-entry scale the node accepts a *baked baseline*
//! (`freephish-mapidx`, see [`bake_index`]): an immutable mmap-loadable
//! image of the main journal's net state, loaded in milliseconds. Live
//! state shadows the baseline bit-identically — the journal is later in
//! time than any bake of its prefix — and the tail follower resumes from
//! the cursor stamped in the bake's header, so restart cost stops
//! scaling with journal history (DESIGN.md §15).

use crate::extension::{UrlChecker, Verdict};
use crate::journal::{decode_event, encode_event, obs_store_observer, AddEvent, RunEvent};
use freephish_mapidx::{bake_journal, BakeSummary, SnapshotIndex};
use freephish_obs::sync::lock;
use freephish_serve::{IndexPublisher, OverlayIndex, PayloadDecoder, ShardedIndex};
use freephish_store::segment::scan_buffer;
use freephish_store::{Recovered, Store, StoreOptions, TailCursor, TailFollower};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// Name of the sidecar store directory holding a [`WriteRole::Sidecar`]
/// node's additions.
pub const ADDS_SUBDIR: &str = "extd-adds";

/// What a [`WriteRole::ReadOnly`] node answers an `ADD` with.
const READ_ONLY_REFUSAL: &str = "read-only follower replica; send ADDs to the primary";

/// Who writes the main WAL of the directory a node serves, and so where
/// the node's own additions go.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteRole {
    /// Another process writes `DIR`; additions go to `DIR/extd-adds`.
    Sidecar,
    /// This process is `DIR`'s single writer; additions go to `DIR`.
    Owner,
    /// A replication session writes `DIR`; additions are refused.
    ReadOnly,
}

/// Every `(url, score)` a recovered sidecar store holds, in order.
fn replay_adds(recovered: &Recovered) -> io::Result<Vec<(String, f64)>> {
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
    Ok(entries)
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

/// The store-backed node: a [`UrlChecker`] over a run-journal directory,
/// with durable additions wherever its [`WriteRole`] puts them. Reads
/// take RCU-style snapshots of a `freephish-serve` [`ShardedIndex`], so
/// batches resolve against one consistent generation.
///
/// A daemon (or any embedder) drives it with one
/// [`EventedStoreChecker::open_as`], one [`EventedStoreChecker::publisher`]
/// polled from its serve loop, an optional periodic
/// [`EventedStoreChecker::rebake`], and a final
/// [`EventedStoreChecker::sync`].
pub struct EventedStoreChecker {
    dir: PathBuf,
    overlay: Arc<OverlayIndex>,
    base_cursor: Option<TailCursor>,
    /// The store additions are journaled in; `None` when read-only.
    wal: Option<Mutex<Store>>,
}

impl EventedStoreChecker {
    /// Open the run journal at `dir` as a [`WriteRole::Sidecar`] node
    /// with no baseline.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<EventedStoreChecker> {
        EventedStoreChecker::open_with_base(dir, None)
    }

    /// [`EventedStoreChecker::open_as`] in the [`WriteRole::Sidecar`]
    /// role.
    pub fn open_with_base(
        dir: impl AsRef<Path>,
        index_file: Option<&Path>,
    ) -> io::Result<EventedStoreChecker> {
        EventedStoreChecker::open_as(dir, WriteRole::Sidecar, index_file)
    }

    /// Open the run journal at `dir`, journaling additions where `role`
    /// says. A sidecar's previously journaled additions are replayed
    /// into the index immediately; pair with
    /// [`EventedStoreChecker::publisher`] to ingest (and hot-reload) the
    /// main journal. With a baked `index_file`, reads go through the
    /// two-level [`OverlayIndex`] (live delta over the mmap) and the
    /// publisher resumes the journal tail from the bake's cursor, so a
    /// restart replays only the suffix.
    pub fn open_as(
        dir: impl AsRef<Path>,
        role: WriteRole,
        index_file: Option<&Path>,
    ) -> io::Result<EventedStoreChecker> {
        let dir = dir.as_ref().to_path_buf();
        let delta = Arc::new(ShardedIndex::with_default_shards());
        let open_store =
            |at: PathBuf| Store::open_with(at, StoreOptions::default(), Some(obs_store_observer()));
        let wal = match role {
            WriteRole::Sidecar => {
                let (store, recovered) = open_store(dir.join(ADDS_SUBDIR))?;
                let adds = replay_adds(&recovered)?;
                if !adds.is_empty() {
                    delta.publish(adds);
                }
                Some(store)
            }
            // The owner's history reaches the delta the way everyone
            // else's does: through the publisher's tail.
            WriteRole::Owner => Some(open_store(dir.clone())?.0),
            WriteRole::ReadOnly => None,
        };
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
            wal: wal.map(Mutex::new),
        })
    }

    /// An [`IndexPublisher`] tailing the main run journal into this
    /// node's delta — resumed at the baseline's cursor when one was
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

    /// Re-bake the main journal into `out_path` and swap the fresh
    /// baseline into the serving overlay without a restart. The delta is
    /// deliberately left intact — its entries shadow the new baseline
    /// bit-identically; it shrinks on the next restart, which resumes
    /// from the new bake's cursor.
    pub fn rebake(&self, out_path: &Path) -> io::Result<BakeSummary> {
        let summary = bake_index(&self.dir, out_path)?;
        self.overlay.set_base(open_snapshot_index(out_path)?);
        Ok(summary)
    }

    /// Durably journal an addition (append + fsync in the store the
    /// node's role names) and publish it. A read-only node refuses.
    pub fn add_durable(&self, url: &str, score: f64) -> io::Result<u64> {
        let Some(wal) = &self.wal else {
            return Err(io::Error::new(
                io::ErrorKind::PermissionDenied,
                READ_ONLY_REFUSAL,
            ));
        };
        let ev = RunEvent::Add(AddEvent {
            url: url.to_string(),
            score,
        });
        {
            let mut wal = lock(wal);
            wal.append(&encode_event(&ev))?;
            wal.sync()?;
        }
        self.overlay.add(url, score).map_err(io::Error::other)
    }

    /// Flush + fsync the node's store (shutdown path).
    pub fn sync(&self) -> io::Result<()> {
        match &self.wal {
            Some(wal) => lock(wal).sync(),
            None => Ok(()),
        }
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
        if self.wal.is_none() {
            return Err(READ_ONLY_REFUSAL.to_string());
        }
        self.add_durable(url, score)
            .map_err(|e| format!("store write failed: {e}"))
    }

    fn generation(&self) -> u64 {
        self.overlay.generation()
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
        let checker = EventedStoreChecker::open(dir.path()).unwrap();
        let mut publisher = checker.publisher();
        for t in 1..=6u64 {
            tick(&mut journal, t);
            // Poll on every tick so the follower crosses compactions.
            publisher.poll().unwrap();
        }
        assert!(
            !journal.snapshots_written.is_empty(),
            "no compaction happened"
        );
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
