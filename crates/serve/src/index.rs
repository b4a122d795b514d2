//! The sharded, generation-swapped verdict index behind the evented
//! engine's read path.
//!
//! Reads are RCU-style: each shard holds an `Arc<HashMap>` behind a
//! `RwLock` that is only ever held long enough to clone the
//! `Arc`. A reader takes an [`IndexSnapshot`] — one `Arc` per shard plus
//! the generation — once per *batch* and resolves every URL against that
//! immutable image, so a concurrent publish never blocks or tears a
//! batch. Writers ([`ShardedIndex::publish`]) build a new map per touched
//! shard (clone-on-write) and swap the `Arc`, bumping the generation
//! once per publish.
//!
//! [`IndexPublisher`] closes the loop with the durability layer: it tails
//! a `freephish-store` directory another process is writing (the pipeline
//! run journal) and publishes each poll's decoded verdicts as one new
//! generation, without ever blocking readers. Payload decoding is a
//! caller-supplied closure so this crate stays below `freephish-core`
//! (which owns the journal record schema).

use crate::verdict::{UrlChecker, Verdict};
use freephish_obs::sync::{read, write};
use freephish_store::segment::scan_buffer;
use freephish_store::TailFollower;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// Default shard count; a power of two so the hash folds with a mask.
pub const DEFAULT_SHARDS: usize = 16;

type Shard = Arc<HashMap<String, f64>>;

/// A sharded, generation-swapped map from URL to phishing score.
pub struct ShardedIndex {
    shards: Vec<RwLock<Shard>>,
    mask: usize,
    generation: AtomicU64,
}

fn shard_of(url: &str, mask: usize) -> usize {
    let mut h = DefaultHasher::new();
    url.hash(&mut h);
    (h.finish() as usize) & mask
}

impl ShardedIndex {
    /// An empty index with `shards` shards (rounded up to a power of two,
    /// minimum 1).
    pub fn new(shards: usize) -> ShardedIndex {
        let n = shards.max(1).next_power_of_two();
        ShardedIndex {
            shards: (0..n)
                .map(|_| RwLock::new(Arc::new(HashMap::new())))
                .collect(),
            mask: n - 1,
            generation: AtomicU64::new(0),
        }
    }

    /// An index with [`DEFAULT_SHARDS`] shards.
    pub fn with_default_shards() -> ShardedIndex {
        ShardedIndex::new(DEFAULT_SHARDS)
    }

    /// Publish a batch of (url, score) entries as one new generation.
    /// Touched shards are rebuilt copy-on-write and swapped; readers keep
    /// whatever snapshot they already hold. Returns the new generation.
    pub fn publish(&self, batch: impl IntoIterator<Item = (String, f64)>) -> u64 {
        let mut by_shard: HashMap<usize, Vec<(String, f64)>> = HashMap::new();
        for (url, score) in batch {
            by_shard
                .entry(shard_of(&url, self.mask))
                .or_default()
                .push((url, score));
        }
        for (shard, entries) in by_shard {
            // Hold the write lock across clone-and-swap: concurrent
            // publishers to the same shard must serialize, or the later
            // swap silently discards the earlier one's entries. Readers
            // only ever hold the lock long enough to clone the Arc.
            let mut slot = write(&self.shards[shard]);
            let mut next: HashMap<String, f64> = (**slot).clone();
            next.extend(entries);
            *slot = Arc::new(next);
        }
        self.generation.fetch_add(1, Ordering::SeqCst) + 1
    }

    /// Take a consistent read snapshot: one `Arc` clone per shard.
    pub fn snapshot(&self) -> IndexSnapshot {
        IndexSnapshot {
            shards: self.shards.iter().map(|s| read(s).clone()).collect(),
            mask: self.mask,
            generation: self.generation.load(Ordering::SeqCst),
        }
    }

    /// The exact stored score for `url`, or `None` when absent — unlike
    /// [`UrlChecker::check`], which folds a miss into `Safe(0.0)`. The
    /// overlay read path needs the distinction to fall through to its
    /// mmap baseline.
    pub fn score(&self, url: &str) -> Option<f64> {
        let shard = read(&self.shards[shard_of(url, self.mask)]).clone();
        shard.get(url).copied()
    }

    /// Total entries across shards (point-in-time).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| read(s).len()).sum()
    }

    /// True when no URL is known.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl UrlChecker for ShardedIndex {
    fn check(&self, url: &str) -> Verdict {
        let shard = read(&self.shards[shard_of(url, self.mask)]).clone();
        match shard.get(url) {
            Some(&score) => Verdict::Phishing(score),
            None => Verdict::Safe(0.0),
        }
    }

    fn check_many(&self, urls: &[String]) -> Vec<Verdict> {
        // One snapshot for the whole batch: every URL is judged against
        // the same generation even while publishes land concurrently.
        let snap = self.snapshot();
        urls.iter().map(|u| snap.check(u)).collect()
    }

    fn add(&self, url: &str, score: f64) -> Result<u64, String> {
        Ok(self.publish([(url.to_string(), score)]))
    }

    fn generation(&self) -> u64 {
        self.generation.load(Ordering::SeqCst)
    }
}

/// An immutable point-in-time image of the index.
pub struct IndexSnapshot {
    shards: Vec<Shard>,
    mask: usize,
    generation: u64,
}

impl IndexSnapshot {
    /// Judge one URL against this snapshot.
    pub fn check(&self, url: &str) -> Verdict {
        match self.shards[shard_of(url, self.mask)].get(url) {
            Some(&score) => Verdict::Phishing(score),
            None => Verdict::Safe(0.0),
        }
    }

    /// The exact stored score for `url`, or `None` when absent (see
    /// [`ShardedIndex::score`]).
    pub fn score(&self, url: &str) -> Option<f64> {
        self.shards[shard_of(url, self.mask)].get(url).copied()
    }

    /// The generation this snapshot was taken at.
    pub fn generation(&self) -> u64 {
        self.generation
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
    /// one new generation. Returns the number of entries published.
    /// Snapshot redelivery after compaction is harmless: publishing an
    /// entry twice is an idempotent overwrite.
    pub fn poll(&mut self) -> io::Result<usize> {
        let batch = self.follower.poll()?;
        let mut entries = Vec::new();
        if let Some(snapshot) = &batch.snapshot {
            let (frames, torn) = scan_buffer(snapshot);
            if torn.is_some() {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "journal snapshot framing is corrupt",
                ));
            }
            for frame in frames {
                if let Some(entry) = (self.decode)(&frame)? {
                    entries.push(entry);
                }
            }
        }
        for payload in &batch.records {
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
}
