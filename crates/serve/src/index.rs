//! The one verdict index behind the evented engine's read path: a
//! sharded, generation-swapped live delta over an optional baked base.
//!
//! The whole index is one immutable image — a generation, the delta's
//! distinct-URL count, one image per shard and the optional baked
//! [`SnapshotIndex`] — behind a single `Arc`. A reader takes an
//! [`IndexSnapshot`] (one `Arc` clone, under a lock held for nothing else)
//! once per *batch* and resolves every URL against it, so a batch never
//! sees half of a publish or of a base swap, and a snapshot's generation
//! always matches its contents.
//!
//! An image answers through levels, newest first: every shard's *head* of
//! recent entries, then its *frozen* table, both a [`KeyTable`], then the
//! base. [`ShardedIndex::publish`] copies only the touched shards' heads
//! and inserts the batch; every frozen table, untouched shard and the
//! base are shared with the previous image. When a head outgrows √n
//! entries (n the shard's frozen size, floor 16) it *folds* into a new
//! frozen table — a copy of that shard, whose URLs stay shared, per √n
//! entries — so a publish costs O(batch + √n) amortized and stays flat as
//! the index grows. [`ShardedIndex::set_base`] swaps in a fresh bake and
//! shares every shard. A publish and a base swap are one generation each,
//! so loading a base makes a node ready before its first publish.
//! Writers serialize on a writer lock and build the next image outside
//! the lock readers take, which is held only to swap the `Arc`.
//!
//! The delta shadows the base bit-identically: a bake is the net state of
//! a journal prefix, and the delta holds what was journaled after it. A
//! base swap leaves the delta alone — each delta entry the new bake also
//! holds shadows it with identical bits, and dropping them would race
//! in-flight reads; the delta shrinks on the next restart, which resumes
//! the journal tail at the new bake's cursor.
//!
//! One routine answers every read, a frame or a single URL. Each URL is
//! keyed once with [`url_key`]: the shard comes from the low bits, each
//! table's slot and tag from the high half. A lane of [`PROBE_LANE`] URLs
//! at a time, every level fills only the slots still empty, in the
//! [`KeyTable`]'s stages, so the cache misses of a lane's URLs overlap;
//! the base then answers what the delta left, in its own stages. An empty
//! delta hashes nothing.
//!
//! [`IndexPublisher`] closes the loop with the durability layer: it tails
//! a `freephish-store` directory another process is writing (the pipeline
//! run journal) and publishes each poll's decoded verdicts as one new
//! generation. Payload decoding is a caller-supplied closure so this crate
//! stays below `freephish-core` (which owns the journal record schema).

use crate::keytable::{url_key, KeyTable, Lane, Lookup};
use crate::verdict::{UrlChecker, Verdict};
use freephish_mapidx::read::PROBE_LANE;
use freephish_mapidx::SnapshotIndex;
use freephish_obs::sync::{lock, read, write};
use freephish_store::TailFollower;
use std::io;
use std::path::Path;
use std::sync::{Arc, Mutex, RwLock};

/// Default shard count; a power of two so the hash folds with a mask.
pub const DEFAULT_SHARDS: usize = 16;

/// The smallest head a shard folds at, so a near-empty shard does not
/// copy its frozen map for every few entries.
const MIN_HEAD_CAP: usize = 16;

/// How many head entries a shard holds before folding: √frozen, so the
/// O(n) fold is paid once per √n entries and the per-publish head copy
/// stays O(√n).
fn head_cap(frozen: usize) -> usize {
    frozen.isqrt().max(MIN_HEAD_CAP)
}

/// One shard's immutable image.
struct Shard {
    /// Entries newer than `frozen`, which they shadow; never more than
    /// `head_cap`.
    head: KeyTable<f64>,
    frozen: Arc<KeyTable<f64>>,
    /// Distinct URLs across `head` and `frozen`.
    len: usize,
}

/// A shard's levels, newest first.
const LEVELS: [fn(&Shard) -> &KeyTable<f64>; 2] = [|s| &s.head, |s| &s.frozen];

impl Shard {
    fn empty() -> Shard {
        Shard {
            head: KeyTable::new(),
            frozen: Arc::new(KeyTable::new()),
            len: 0,
        }
    }

    /// This shard with `batch` applied: a non-empty run of (key, URL,
    /// score) entries in publish order, of which the last for a URL wins.
    fn with(&self, batch: Vec<(u64, Arc<str>, f64)>) -> Shard {
        let grown = self.head.len() + batch.len();
        if grown > head_cap(self.frozen.len()) {
            // Fold. The copy shares every URL and re-places entries by
            // their stored tags, so no URL is hashed again; inserting head
            // then batch in order lets the newest entry for a URL win.
            let mut frozen = self.frozen.with_room(grown);
            frozen.insert_all(&self.head);
            for (key, url, score) in batch {
                frozen.insert(key, url, score);
            }
            return Shard {
                head: KeyTable::new(),
                len: frozen.len(),
                frozen: Arc::new(frozen),
            };
        }

        let mut head = self.head.with_room(batch.len());
        let mut len = self.len;
        for (key, url, score) in batch {
            let frozen = self.frozen.get(key, &url).is_some();
            if head.insert(key, url, score).is_none() && !frozen {
                len += 1;
            }
        }
        Shard {
            head,
            frozen: self.frozen.clone(),
            len,
        }
    }
}

/// The whole index at one generation.
#[derive(Clone)]
struct Image {
    /// Publishes plus base swaps.
    generation: u64,
    /// Distinct URLs in the delta.
    len: usize,
    mask: usize,
    shards: Vec<Arc<Shard>>,
    base: Option<Arc<SnapshotIndex>>,
}

impl Image {
    /// Answer every `None` slot of `out` with the score of the URL in the
    /// same slot of `urls`, level by level, newest first; slots already
    /// `Some` are left alone, and a slot stays `None` when no level holds
    /// its URL.
    fn get_many<K: AsRef<str>>(&self, urls: &[K], out: &mut [Option<f64>]) {
        assert_eq!(urls.len(), out.len(), "one answer slot per URL");
        // An empty delta answers nothing, so it need not hash: a node
        // serving from a fresh bake has an empty delta.
        if self.len > 0 {
            for first in (0..urls.len()).step_by(PROBE_LANE) {
                let lane = first..urls.len().min(first + PROBE_LANE);
                let mut keys = [0; PROBE_LANE];
                for slot in lane.clone().filter(|&slot| out[slot].is_none()) {
                    keys[slot - first] = url_key(urls[slot].as_ref());
                }
                for level in LEVELS {
                    let mut probe = Lane::new(level(&self.shards[0]));
                    for slot in lane.clone() {
                        if out[slot].is_some() {
                            continue;
                        }
                        let key = keys[slot - first];
                        let table = level(&self.shards[key as usize & self.mask]);
                        if !table.is_empty() {
                            probe.push(Lookup { table, key, slot }, urls, out);
                        }
                    }
                    probe.flush(urls, out);
                }
            }
        }
        if let Some(base) = &self.base {
            base.get_many(urls, out);
        }
    }

    /// The one-URL case of [`Image::get_many`].
    fn get(&self, url: &str) -> Option<f64> {
        let mut out = [None];
        self.get_many(&[url], &mut out);
        out[0]
    }
}

/// A score, or the absence of one, as the verdict it serves.
fn verdict(score: Option<f64>) -> Verdict {
    match score {
        Some(score) => Verdict::Phishing(score),
        None => Verdict::Safe(0.0),
    }
}

/// A sharded, generation-swapped map from URL to phishing score over an
/// optional baked base.
pub struct ShardedIndex {
    /// The published image. Readers hold this lock only to clone the
    /// `Arc`, writers only to swap it.
    current: RwLock<Arc<Image>>,
    /// Serializes writers, so each builds on the image the previous one
    /// swapped in.
    writer: Mutex<()>,
}

impl ShardedIndex {
    /// An empty index with `shards` shards (rounded up to a power of two,
    /// minimum 1) and no base.
    pub fn new(shards: usize) -> ShardedIndex {
        let n = shards.max(1).next_power_of_two();
        let empty = Arc::new(Shard::empty());
        ShardedIndex {
            current: RwLock::new(Arc::new(Image {
                generation: 0,
                len: 0,
                mask: n - 1,
                shards: vec![empty; n],
                base: None,
            })),
            writer: Mutex::new(()),
        }
    }

    /// An index with [`DEFAULT_SHARDS`] shards.
    pub fn with_default_shards() -> ShardedIndex {
        ShardedIndex::new(DEFAULT_SHARDS)
    }

    fn image(&self) -> Arc<Image> {
        read(&self.current).clone()
    }

    /// Publish `next` as the following generation and return it. The
    /// caller holds the writer lock.
    fn swap_in(&self, mut next: Image) -> u64 {
        next.generation += 1;
        let generation = next.generation;
        *write(&self.current) = Arc::new(next);
        generation
    }

    /// Publish a batch of (url, score) entries into the delta as one new
    /// generation; of one URL's entries the last wins. Readers keep
    /// whatever snapshot they already hold and never wait for the new
    /// image to be built. Returns the new generation.
    pub fn publish(&self, batch: impl IntoIterator<Item = (String, f64)>) -> u64 {
        let _writer = lock(&self.writer);
        let mut next = Image::clone(&self.image());
        let mut by_shard: Vec<Vec<(u64, Arc<str>, f64)>> =
            next.shards.iter().map(|_| Vec::new()).collect();
        for (url, score) in batch {
            let key = url_key(&url);
            // Each `String` becomes the shared `Arc<str>` as it is read
            // and is freed at once: holding a whole batch of them until
            // their shard takes them made a 65,536-entry publish 30–60%
            // slower (2 vCPU Xeon @ 2.10 GHz).
            by_shard[key as usize & next.mask].push((key, url.into(), score));
        }
        for (slot, entries) in next.shards.iter_mut().zip(by_shard) {
            if entries.is_empty() {
                continue;
            }
            let shard = slot.with(entries);
            next.len = next.len - slot.len + shard.len;
            *slot = Arc::new(shard);
        }
        self.swap_in(next)
    }

    /// Swap in a freshly baked base as one new generation, sharing every
    /// shard of the delta, which keeps shadowing it. In-flight reads keep
    /// the image they hold. Returns the new generation.
    pub fn set_base(&self, base: SnapshotIndex) -> u64 {
        let _writer = lock(&self.writer);
        let mut next = Image::clone(&self.image());
        next.base = Some(Arc::new(base));
        self.swap_in(next)
    }

    /// Take a consistent read snapshot: one `Arc` clone.
    pub fn snapshot(&self) -> IndexSnapshot {
        IndexSnapshot {
            image: self.image(),
        }
    }

    /// Distinct URLs in the delta (point-in-time); the base is counted by
    /// [`ShardedIndex::base_len`].
    pub fn len(&self) -> usize {
        self.image().len
    }

    /// True when the delta holds no URL.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Entries in the current base (0 when none is loaded).
    pub fn base_len(&self) -> u64 {
        self.image().base.as_ref().map_or(0, |base| base.len())
    }
}

impl UrlChecker for ShardedIndex {
    fn check(&self, url: &str) -> Verdict {
        self.snapshot().check(url)
    }

    fn check_many(&self, urls: &[String]) -> Vec<Verdict> {
        // One snapshot for the whole batch: every URL is judged against
        // the same generation even while publishes land concurrently.
        let mut scores = vec![None; urls.len()];
        self.snapshot().score_many(urls, &mut scores);
        scores.into_iter().map(verdict).collect()
    }

    fn add(&self, url: &str, score: f64) -> Result<u64, String> {
        Ok(self.publish([(url.to_string(), score)]))
    }

    fn generation(&self) -> u64 {
        self.image().generation
    }
}

/// An immutable point-in-time image of the index.
pub struct IndexSnapshot {
    image: Arc<Image>,
}

impl IndexSnapshot {
    /// Judge one URL against this snapshot.
    pub fn check(&self, url: &str) -> Verdict {
        verdict(self.image.get(url))
    }

    /// The exact stored score for `url`, or `None` when absent — unlike
    /// [`IndexSnapshot::check`], which folds a miss into `Safe(0.0)`.
    pub fn score(&self, url: &str) -> Option<f64> {
        self.image.get(url)
    }

    /// Answer every `None` slot of `out` with the exact stored score of
    /// the URL in the same slot of `urls`; slots already `Some` are left
    /// alone, and a slot stays `None` when its URL is absent. The levels
    /// are probed in stages, so a frame's cache misses overlap.
    ///
    /// # Panics
    ///
    /// When `urls` and `out` differ in length.
    pub fn score_many<K: AsRef<str>>(&self, urls: &[K], out: &mut [Option<f64>]) {
        self.image.get_many(urls, out);
    }

    /// The generation this snapshot was taken at.
    pub fn generation(&self) -> u64 {
        self.image.generation
    }
}

/// Decodes one journal payload into an optional (url, score) entry.
/// Non-verdict bookkeeping records return `Ok(None)`.
pub type PayloadDecoder = Box<dyn FnMut(&[u8]) -> io::Result<Option<(String, f64)>> + Send>;

/// Tails a store directory and publishes decoded verdicts into a
/// [`ShardedIndex`], one generation per non-empty poll.
pub struct IndexPublisher {
    follower: TailFollower,
    index: Arc<ShardedIndex>,
    decode: PayloadDecoder,
}

impl IndexPublisher {
    /// Follow `dir`, feeding `index` through `decode`. No I/O until the
    /// first [`IndexPublisher::poll`]; the directory may not exist yet.
    pub fn new(dir: impl AsRef<Path>, index: Arc<ShardedIndex>, decode: PayloadDecoder) -> Self {
        IndexPublisher {
            follower: TailFollower::new(dir),
            index,
            decode,
        }
    }

    /// Feed `index` from an existing follower — typically one resumed at
    /// a baked-index cursor (`TailFollower::resume`), so a restarting
    /// node publishes only the journal suffix the bake did not cover.
    pub fn with_follower(
        follower: TailFollower,
        index: Arc<ShardedIndex>,
        decode: PayloadDecoder,
    ) -> Self {
        IndexPublisher {
            follower,
            index,
            decode,
        }
    }

    /// Ingest everything journaled since the last poll and publish it as
    /// one new generation. Returns the number of entries published. A
    /// redelivery (the follower starting over after its segment vanished)
    /// is harmless: publishing an entry twice is an idempotent overwrite.
    pub fn poll(&mut self) -> io::Result<usize> {
        let batch = self.follower.poll()?;
        let mut entries = Vec::new();
        for (_, payload) in &batch.records {
            if let Some(entry) = (self.decode)(payload)? {
                entries.push(entry);
            }
        }
        let published = entries.len();
        if published > 0 {
            self.index.publish(entries);
        }
        Ok(published)
    }

    /// The index this publisher feeds.
    pub fn index(&self) -> Arc<ShardedIndex> {
        self.index.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use freephish_mapidx::IndexWriter;
    use freephish_simclock::Rng64;
    use freephish_store::testutil::TempDir;
    use std::collections::HashMap;

    #[test]
    fn publish_and_check() {
        let index = ShardedIndex::new(8);
        assert!(index.is_empty());
        let g1 = index.publish([
            ("https://a.weebly.com/".to_string(), 0.9),
            ("https://b.wixsite.com/".to_string(), 0.8),
        ]);
        assert_eq!(g1, 1);
        assert_eq!(index.len(), 2);
        assert!(index.check("https://a.weebly.com/").is_phishing());
        assert!(!index.check("https://c.weebly.com/").is_phishing());
        let verdicts = index.check_many(&[
            "https://a.weebly.com/".to_string(),
            "https://c.weebly.com/".to_string(),
            "https://b.wixsite.com/".to_string(),
        ]);
        assert!(verdicts[0].is_phishing());
        assert!(!verdicts[1].is_phishing());
        assert!(verdicts[2].is_phishing());
    }

    #[test]
    fn snapshots_are_immune_to_later_publishes() {
        let index = ShardedIndex::new(4);
        index.publish([("https://old.weebly.com/".to_string(), 0.7)]);
        let snap = index.snapshot();
        index.publish([("https://new.weebly.com/".to_string(), 0.9)]);
        // The old snapshot does not see the new entry; a fresh one does.
        assert!(!snap.check("https://new.weebly.com/").is_phishing());
        assert!(index
            .snapshot()
            .check("https://new.weebly.com/")
            .is_phishing());
        assert!(snap.generation() < index.generation());
    }

    #[test]
    fn add_bumps_generation() {
        let index = ShardedIndex::with_default_shards();
        assert_eq!(index.generation(), 0);
        let g = index.add("https://x.weebly.com/", 0.85).unwrap();
        assert_eq!(g, 1);
        assert_eq!(index.generation(), 1);
        assert!(index.check("https://x.weebly.com/").is_phishing());
    }

    #[test]
    fn concurrent_readers_and_writers() {
        let index = Arc::new(ShardedIndex::new(8));
        let mut handles = Vec::new();
        for w in 0..4 {
            let idx = index.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..200 {
                    idx.publish([(format!("https://w{w}-{i}.weebly.com/"), 0.9)]);
                }
            }));
        }
        for _ in 0..4 {
            let idx = index.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..200 {
                    let urls = vec![
                        format!("https://w0-{i}.weebly.com/"),
                        format!("https://w3-{i}.weebly.com/"),
                    ];
                    let _ = idx.check_many(&urls);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(index.len(), 4 * 200);
        assert_eq!(index.generation(), 4 * 200);
    }

    #[test]
    fn every_snapshot_equals_a_map_model_at_its_generation() {
        let mut rng = Rng64::new(0x1DE5_0030);
        let index = ShardedIndex::new(4);
        let mut model: HashMap<String, f64> = HashMap::new();
        let mut published: Vec<String> = Vec::new();
        let mut snapshots: Vec<(IndexSnapshot, u64, HashMap<String, f64>)> = Vec::new();
        let (mut folds, mut oversize_batches) = (0, 0);

        for _ in 0..400 {
            // Mostly small batches, so heads fill and fold one entry at a
            // time; some up to 300, beyond any shard's cap.
            let size = if rng.chance(0.7) {
                1 + rng.index(8)
            } else {
                1 + rng.index(300)
            };
            let mut batch = Vec::with_capacity(size);
            for _ in 0..size {
                let url = if !published.is_empty() && rng.chance(0.2) {
                    rng.choose(&published).clone()
                } else {
                    let url = format!("https://s{}.weebly.com/p", published.len());
                    published.push(url.clone());
                    url
                };
                batch.push((url, rng.f64()));
            }

            let before = index.image();
            let mut per_shard = vec![0; before.shards.len()];
            for (url, _) in &batch {
                per_shard[url_key(url) as usize & before.mask] += 1;
            }
            if per_shard
                .iter()
                .zip(&before.shards)
                .any(|(&n, s)| n > head_cap(s.frozen.len()))
            {
                oversize_batches += 1;
            }
            model.extend(batch.iter().cloned());
            let generation = index.publish(batch);
            let after = index.image();
            folds += before
                .shards
                .iter()
                .zip(&after.shards)
                .filter(|(b, a)| !Arc::ptr_eq(&b.frozen, &a.frozen))
                .count();
            assert_eq!(index.len(), model.len());
            assert_eq!(index.generation(), generation);

            if rng.chance(0.1) {
                snapshots.push((index.snapshot(), generation, model.clone()));
            }
        }
        assert!(folds >= 50, "only {folds} folds");
        assert!(
            oversize_batches >= 10,
            "only {oversize_batches} oversize batches"
        );
        assert!(snapshots.len() >= 20, "only {} snapshots", snapshots.len());

        // Snapshots are checked after every publish has landed: each must
        // still equal the model as it stood at its own generation.
        let unseen: Vec<String> = (0..200)
            .map(|i| format!("https://unseen{i}.weebly.com/"))
            .collect();
        for (snap, generation, at) in &snapshots {
            assert_eq!(snap.generation(), *generation);
            for url in published.iter().chain(&unseen) {
                assert_eq!(
                    snap.score(url),
                    at.get(url).copied(),
                    "{url} at {generation}"
                );
            }
        }
    }

    fn baked(dir: &TempDir, name: &str, entries: &[(&str, f64)]) -> SnapshotIndex {
        let out = dir.path().join(name);
        let mut w = IndexWriter::create(dir.path().join(format!("{name}.spill"))).unwrap();
        for (url, score) in entries {
            w.add(url, *score).unwrap();
        }
        w.finish(&out).unwrap();
        SnapshotIndex::open(&out).unwrap()
    }

    #[test]
    fn delta_shadows_base_and_misses_fall_through() {
        let dir = TempDir::new("index-base-shadow");
        let base = baked(
            &dir,
            "base.mapidx",
            &[
                ("https://baked.weebly.com/", 0.70),
                ("https://shadowed.weebly.com/", 0.10),
            ],
        );
        let index = ShardedIndex::new(4);
        index.set_base(base);
        assert_eq!(index.base_len(), 2);

        // Base-only entry resolves from the mmap.
        assert_eq!(
            index.check("https://baked.weebly.com/"),
            Verdict::Phishing(0.70)
        );
        // A live ADD shadows the baked score.
        index.add("https://shadowed.weebly.com/", 0.95).unwrap();
        assert_eq!(
            index.check("https://shadowed.weebly.com/"),
            Verdict::Phishing(0.95)
        );
        // Unknown URLs miss both levels.
        assert_eq!(
            index.check("https://unknown.weebly.com/"),
            Verdict::Safe(0.0)
        );

        let batch: Vec<String> = [
            "https://baked.weebly.com/",
            "https://shadowed.weebly.com/",
            "https://unknown.weebly.com/",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let verdicts = index.check_many(&batch);
        assert_eq!(verdicts[0], Verdict::Phishing(0.70));
        assert_eq!(verdicts[1], Verdict::Phishing(0.95));
        assert_eq!(verdicts[2], Verdict::Safe(0.0));
    }

    #[test]
    fn loading_a_base_flips_generation_without_any_publish() {
        let dir = TempDir::new("index-base-gen");
        let index = ShardedIndex::new(4);
        assert_eq!(index.generation(), 0, "empty index is not ready");
        let base = baked(&dir, "base.mapidx", &[("https://a.weebly.com/", 0.9)]);
        index.set_base(base);
        assert_eq!(index.generation(), 1);
    }

    #[test]
    fn rebake_swap_keeps_delta_shadowing_intact() {
        let dir = TempDir::new("index-base-rebake");
        let base1 = baked(&dir, "b1.mapidx", &[("https://old.weebly.com/", 0.5)]);
        let index = ShardedIndex::new(4);
        index.set_base(base1);
        index.add("https://old.weebly.com/", 0.91).unwrap();
        index.add("https://live.weebly.com/", 0.88).unwrap();

        // Re-bake folds the journal (delta) into a new base; the delta is
        // deliberately left alone.
        let base2 = baked(
            &dir,
            "b2.mapidx",
            &[
                ("https://old.weebly.com/", 0.91),
                ("https://live.weebly.com/", 0.88),
            ],
        );
        let before = index.generation();
        index.set_base(base2);
        assert!(index.generation() > before);
        assert_eq!(
            index.check("https://old.weebly.com/"),
            Verdict::Phishing(0.91)
        );
        assert_eq!(
            index.check("https://live.weebly.com/"),
            Verdict::Phishing(0.88)
        );
    }

    /// A verdict's block decision and exact score bits.
    fn bits(v: &Verdict) -> (bool, u64) {
        (v.is_phishing(), v.score().to_bits())
    }

    #[test]
    fn check_many_equals_check_for_every_frame_size_and_across_base_swaps() {
        let dir = TempDir::new("index-base-frames");
        // Four kinds of URL, interleaved: base-only, delta-shadowed,
        // delta-only and absent. The second base re-scores the base-only
        // URLs and bakes some URLs the first one lacked.
        let url = |i: usize| format!("https://f{i}.weebly.com/");
        let bake = |name: &str, scale: f64| {
            let entries: Vec<(String, f64)> = (0..300)
                .filter(|i| i % 4 < 2 || (scale > 1.0 && i % 8 == 3))
                .map(|i| (url(i), scale * i as f64 / 1000.0))
                .collect();
            let refs: Vec<(&str, f64)> = entries.iter().map(|(u, s)| (u.as_str(), *s)).collect();
            baked(&dir, name, &refs)
        };
        let index = ShardedIndex::new(4);
        index.set_base(bake("b1.mapidx", 1.0));
        for i in (0..300).filter(|i| i % 4 == 1 || i % 4 == 2) {
            index.add(&url(i), 0.9 + i as f64 / 1e6).unwrap();
        }
        // A shuffle of the first 200 URLs that wraps, so a frame of more
        // than 200 URLs repeats some.
        let pool: Vec<String> = (0..256).map(|i| url(i * 7 % 200)).collect();
        let sizes = [0, 1, PROBE_LANE - 1, PROBE_LANE, PROBE_LANE + 1, 256];
        for (round, n) in sizes.iter().chain(&sizes).enumerate() {
            if round == sizes.len() {
                index.set_base(bake("b2.mapidx", 2.0));
            }
            let frame = &pool[..*n];
            let many: Vec<_> = index.check_many(frame).iter().map(bits).collect();
            let one: Vec<_> = frame.iter().map(|u| bits(&index.check(u))).collect();
            assert_eq!(many, one, "frame of {n} URLs, round {round}");
        }
    }
}
