//! The sharded, generation-swapped verdict index behind the evented
//! engine's read path.
//!
//! The whole index is one immutable image — a generation, the distinct-URL
//! count and one image per shard — behind a single `Arc`. A reader takes an
//! [`IndexSnapshot`] (one `Arc` clone, under a lock held for nothing else)
//! once per *batch* and resolves every URL against it, so a batch never
//! sees half of a publish and a snapshot's generation always matches its
//! contents.
//!
//! A shard image is a *frozen* `Arc<KeyTable>` shadowed by a small *head*
//! of recent entries kept sorted by URL key, plus a bit filter over the
//! head's keys. [`ShardedIndex::publish`] copies only the touched
//! shards' heads and the batch; every frozen table and untouched shard is
//! shared with the previous image. When a head outgrows √n entries (n the
//! shard's frozen size, floor 16) it *folds* into a new frozen table — a
//! copy of that shard, whose URLs stay shared, per √n entries — so a
//! publish costs O(batch + √n) amortized where it used to clone the shard,
//! and stays flat as the index grows. Publishers serialize on a writer
//! lock and build the next image outside the lock readers take, which is
//! held only to swap the `Arc`.
//!
//! A lookup computes the URL's [`url_key`] once and takes every level's
//! bits from it: the shard from the low bits, the head filter from bits 16
//! to 32 (the head is binary-searched only on a filter hit), and the
//! frozen table's slot and tag from the high half. A batch
//! ([`IndexSnapshot::score_many`]) probes the frozen tables a lane of keys
//! at a time, in the [`KeyTable`]'s stages, so the cache misses of a
//! frame's URLs overlap.
//!
//! [`IndexPublisher`] closes the loop with the durability layer: it tails
//! a `freephish-store` directory another process is writing (the pipeline
//! run journal) and publishes each poll's decoded verdicts as one new
//! generation. Payload decoding is a caller-supplied closure so this crate
//! stays below `freephish-core` (which owns the journal record schema).

use crate::keytable::{url_key, KeyTable, Lane, Lookup};
use crate::verdict::{UrlChecker, Verdict};
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

/// A URL's key; its low bits pick the shard.
fn hash_url(url: &str) -> u64 {
    url_key(url)
}

/// How many head entries a shard holds before folding: √frozen, so the
/// O(n) fold is paid once per √n entries and the per-publish head copy
/// stays O(√n).
fn head_cap(frozen: usize) -> usize {
    frozen.isqrt().max(MIN_HEAD_CAP)
}

#[derive(Clone)]
struct HeadEntry {
    hash: u64,
    url: Arc<str>,
    score: f64,
}

impl HeadEntry {
    /// The head's sort key: hash first, so lookups search by the hash
    /// they already hold; the URL orders (rare) equal hashes.
    fn key(&self) -> (u64, &str) {
        (self.hash, &self.url)
    }
}

/// The filter word and bit for `hash` in a filter of `words` words (a
/// power of two). Uses bits 16 and up: the shard index uses the low bits,
/// and a filter reaches past bit 32, into the frozen table's tag, only
/// once one shard holds over sixteen million entries.
fn filter_bit(words: usize, hash: u64) -> (usize, u64) {
    let bit = (hash >> 16) as usize & (words * 64 - 1);
    (bit / 64, 1 << (bit % 64))
}

/// One shard's immutable image.
struct Shard {
    frozen: Arc<KeyTable<f64>>,
    /// Entries newer than `frozen`, which they shadow; sorted by
    /// [`HeadEntry::key`], one per URL, never more than `head_cap`.
    head: Vec<HeadEntry>,
    /// About eight bits per head entry (empty with the head), so a URL
    /// absent from the head searches it about one time in eight.
    filter: Vec<u64>,
    /// Distinct URLs across `frozen` and `head`.
    len: usize,
}

impl Shard {
    fn empty() -> Shard {
        Shard {
            frozen: Arc::new(KeyTable::new()),
            head: Vec::new(),
            filter: Vec::new(),
            len: 0,
        }
    }

    /// `url`'s score in the head, which shadows the frozen table.
    fn head_get(&self, hash: u64, url: &str) -> Option<f64> {
        if self.filter.is_empty() {
            return None;
        }
        let (word, bit) = filter_bit(self.filter.len(), hash);
        if self.filter[word] & bit == 0 {
            return None;
        }
        let start = self.head.partition_point(|e| e.hash < hash);
        self.head[start..]
            .iter()
            .take_while(|e| e.hash == hash)
            .find(|e| &*e.url == url)
            .map(|e| e.score)
    }

    /// This shard with `batch` applied: a non-empty run of entries in
    /// publish order, of which the last for a URL wins.
    fn with(&self, mut batch: Vec<HeadEntry>) -> Shard {
        if self.head.len() + batch.len() > head_cap(self.frozen.len()) {
            // Fold. The copy shares every URL and re-places entries by
            // their stored keys, so no URL is hashed again; inserting head
            // then batch in order lets the newest entry for a URL win.
            let mut frozen = self.frozen.with_room(self.head.len() + batch.len());
            for e in self.head.iter().cloned().chain(batch) {
                frozen.insert(e.hash, e.url, e.score);
            }
            return Shard {
                len: frozen.len(),
                frozen: Arc::new(frozen),
                head: Vec::new(),
                filter: Vec::new(),
            };
        }

        // A stable sort keeps one URL's entries in batch order; the dedup
        // then carries the last one's score into the survivor.
        batch.sort_by(|a, b| a.key().cmp(&b.key()));
        batch.dedup_by(|later, kept| {
            let same = later.key() == kept.key();
            if same {
                kept.score = later.score;
            }
            same
        });
        let mut len = self.len;
        let mut head = Vec::with_capacity(self.head.len() + batch.len());
        let mut old = self.head.iter().peekable();
        for entry in batch {
            while let Some(e) = old.next_if(|e| e.key() < entry.key()) {
                head.push(e.clone());
            }
            let overwrites_head = old.next_if(|e| e.key() == entry.key()).is_some();
            if !overwrites_head && self.frozen.get(entry.hash, &entry.url).is_none() {
                len += 1;
            }
            head.push(entry);
        }
        head.extend(old.cloned());
        let mut filter = vec![0u64; (head.len() * 8).div_ceil(64).next_power_of_two()];
        for e in &head {
            let (word, bit) = filter_bit(filter.len(), e.hash);
            filter[word] |= bit;
        }
        Shard {
            frozen: self.frozen.clone(),
            head,
            filter,
            len,
        }
    }
}

/// The whole index at one generation.
struct Image {
    generation: u64,
    len: usize,
    mask: usize,
    shards: Vec<Arc<Shard>>,
}

impl Image {
    fn get(&self, url: &str) -> Option<f64> {
        if self.len == 0 {
            return None;
        }
        let key = hash_url(url);
        let shard = &self.shards[key as usize & self.mask];
        shard
            .head_get(key, url)
            .or_else(|| shard.frozen.get(key, url))
    }

    /// Answer every `None` slot of `out` with the score of the URL in the
    /// same slot of `urls`. A URL's key is computed once, its shard's head
    /// is checked at once, and the frozen tables are probed a lane at a
    /// time.
    fn get_many<K: AsRef<str>>(&self, urls: &[K], out: &mut [Option<f64>]) {
        assert_eq!(urls.len(), out.len(), "one answer slot per URL");
        // An empty image answers nothing, so it need not hash: an overlay
        // serving from a fresh bake has an empty delta.
        if self.len == 0 {
            return;
        }
        let mut lane = Lane::new(&self.shards[0].frozen);
        for slot in 0..urls.len() {
            if out[slot].is_some() {
                continue;
            }
            let url = urls[slot].as_ref();
            let key = hash_url(url);
            let shard = &self.shards[key as usize & self.mask];
            match shard.head_get(key, url) {
                Some(score) => out[slot] = Some(score),
                None => lane.push(
                    Lookup {
                        table: &shard.frozen,
                        key,
                        slot,
                    },
                    urls,
                    out,
                ),
            }
        }
        lane.flush(urls, out);
    }
}

/// A sharded, generation-swapped map from URL to phishing score.
pub struct ShardedIndex {
    /// The published image. Readers hold this lock only to clone the
    /// `Arc`, publishers only to swap it.
    current: RwLock<Arc<Image>>,
    /// Serializes publishers, so each builds on the image the previous one
    /// swapped in.
    writer: Mutex<()>,
}

impl ShardedIndex {
    /// An empty index with `shards` shards (rounded up to a power of two,
    /// minimum 1).
    pub fn new(shards: usize) -> ShardedIndex {
        let n = shards.max(1).next_power_of_two();
        let empty = Arc::new(Shard::empty());
        ShardedIndex {
            current: RwLock::new(Arc::new(Image {
                generation: 0,
                len: 0,
                mask: n - 1,
                shards: vec![empty; n],
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

    /// Publish a batch of (url, score) entries as one new generation; of
    /// one URL's entries the last wins. Readers keep whatever snapshot
    /// they already hold and never wait for the new image to be built.
    /// Returns the new generation.
    pub fn publish(&self, batch: impl IntoIterator<Item = (String, f64)>) -> u64 {
        let _writer = lock(&self.writer);
        let prev = self.image();
        let mut by_shard: Vec<Vec<HeadEntry>> = prev.shards.iter().map(|_| Vec::new()).collect();
        for (url, score) in batch {
            let hash = hash_url(&url);
            by_shard[hash as usize & prev.mask].push(HeadEntry {
                hash,
                url: url.into(),
                score,
            });
        }
        let mut shards = prev.shards.clone();
        let mut len = prev.len;
        for (slot, entries) in shards.iter_mut().zip(by_shard) {
            if entries.is_empty() {
                continue;
            }
            let next = slot.with(entries);
            len = len - slot.len + next.len;
            *slot = Arc::new(next);
        }
        let generation = prev.generation + 1;
        *write(&self.current) = Arc::new(Image {
            generation,
            len,
            mask: prev.mask,
            shards,
        });
        generation
    }

    /// Take a consistent read snapshot: one `Arc` clone.
    pub fn snapshot(&self) -> IndexSnapshot {
        IndexSnapshot {
            image: self.image(),
        }
    }

    /// The exact stored score for `url`, or `None` when absent — unlike
    /// [`UrlChecker::check`], which folds a miss into `Safe(0.0)`. The
    /// overlay read path needs the distinction to fall through to its
    /// mmap baseline.
    pub fn score(&self, url: &str) -> Option<f64> {
        self.image().get(url)
    }

    /// Distinct URLs in the index (point-in-time).
    pub fn len(&self) -> usize {
        self.image().len
    }

    /// True when no URL is known.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
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
        scores
            .into_iter()
            .map(|score| match score {
                Some(score) => Verdict::Phishing(score),
                None => Verdict::Safe(0.0),
            })
            .collect()
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
        match self.image.get(url) {
            Some(score) => Verdict::Phishing(score),
            None => Verdict::Safe(0.0),
        }
    }

    /// The exact stored score for `url`, or `None` when absent (see
    /// [`ShardedIndex::score`]).
    pub fn score(&self, url: &str) -> Option<f64> {
        self.image.get(url)
    }

    /// Answer every `None` slot of `out` with the exact stored score of
    /// the URL in the same slot of `urls`; slots already `Some` are left
    /// alone, and a slot stays `None` when its URL is absent. The frozen
    /// tables are probed in stages, so a frame's cache misses overlap.
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
    use freephish_simclock::Rng64;
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
                per_shard[hash_url(url) as usize & before.mask] += 1;
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
}
