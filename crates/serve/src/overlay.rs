//! The two-level read path: an immutable mmap baseline overlaid by the
//! live RCU delta.
//!
//! A node carrying a 10M-entry blocklist cannot afford to replay its WAL
//! on every restart. Instead it maps a baked [`SnapshotIndex`]
//! (`freephish-mapidx`) as the *baseline* and keeps the journal suffix
//! since the bake in the ordinary [`ShardedIndex`] *delta*. Lookups
//! consult the delta first — a journaled `ADD` that shadows a baked entry
//! wins, bit-identically to full journal replay, because the journal is
//! later in time than any bake of its prefix — and fall through to the
//! baseline on a miss.
//!
//! ## Re-bake lifecycle
//!
//! A background re-bake writes a fresh index file (temp + atomic rename)
//! and swaps it in with [`OverlayIndex::set_base`]. The delta is *not*
//! reset in-process: every delta entry now also present in the new base
//! shadows it with identical bits, so leaving them is correct, and
//! dropping them would race in-flight reads. The delta shrinks on the
//! *next restart*, when the publisher resumes from the new base's journal
//! cursor and only replays the suffix.
//!
//! The overlay's generation is the delta generation plus the number of
//! base swaps, so loading a baseline flips readiness (`generation > 0`)
//! even before the first journal publish.

use crate::index::ShardedIndex;
use crate::verdict::{UrlChecker, Verdict};
use freephish_mapidx::SnapshotIndex;
use freephish_obs::sync::{read, write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// A [`UrlChecker`] that resolves URLs against a live delta first, then
/// an optional mmap-backed baseline.
pub struct OverlayIndex {
    base: RwLock<Option<Arc<SnapshotIndex>>>,
    delta: Arc<ShardedIndex>,
    base_epoch: AtomicU64,
}

impl OverlayIndex {
    /// An overlay with no baseline yet: behaves exactly like `delta`.
    pub fn new(delta: Arc<ShardedIndex>) -> OverlayIndex {
        OverlayIndex {
            base: RwLock::new(None),
            delta,
            base_epoch: AtomicU64::new(0),
        }
    }

    /// An overlay seeded with a loaded baseline.
    pub fn with_base(base: SnapshotIndex, delta: Arc<ShardedIndex>) -> OverlayIndex {
        let overlay = OverlayIndex::new(delta);
        overlay.set_base(base);
        overlay
    }

    /// Swap in a freshly baked baseline (re-bake completion). In-flight
    /// batch reads keep the `Arc` they already cloned.
    pub fn set_base(&self, base: SnapshotIndex) {
        *write(&self.base) = Some(Arc::new(base));
        self.base_epoch.fetch_add(1, Ordering::SeqCst);
    }

    /// The live delta this overlay writes through to.
    pub fn delta(&self) -> Arc<ShardedIndex> {
        self.delta.clone()
    }

    /// Entries in the current baseline (0 when none is loaded).
    pub fn base_len(&self) -> u64 {
        read(&self.base).as_ref().map_or(0, |b| b.len())
    }

    /// How many times a baseline has been swapped in.
    pub fn base_epoch(&self) -> u64 {
        self.base_epoch.load(Ordering::SeqCst)
    }

    fn base_arc(&self) -> Option<Arc<SnapshotIndex>> {
        read(&self.base).clone()
    }
}

impl UrlChecker for OverlayIndex {
    fn check(&self, url: &str) -> Verdict {
        if let Some(score) = self.delta.score(url) {
            return Verdict::Phishing(score);
        }
        match self.base_arc().and_then(|b| b.get(url)) {
            Some(score) => Verdict::Phishing(score),
            None => Verdict::Safe(0.0),
        }
    }

    fn check_many(&self, urls: &[String]) -> Vec<Verdict> {
        // One delta snapshot and one base Arc for the whole batch: every
        // URL is judged against a single consistent two-level image.
        let delta = self.delta.snapshot();
        let base = self.base_arc();
        urls.iter()
            .map(|u| {
                match delta
                    .score(u)
                    .or_else(|| base.as_ref().and_then(|b| b.get(u)))
                {
                    Some(score) => Verdict::Phishing(score),
                    None => Verdict::Safe(0.0),
                }
            })
            .collect()
    }

    fn add(&self, url: &str, score: f64) -> Result<u64, String> {
        self.delta
            .add(url, score)
            .map(|g| g + self.base_epoch.load(Ordering::SeqCst))
    }

    fn generation(&self) -> u64 {
        self.delta.generation() + self.base_epoch.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use freephish_mapidx::IndexWriter;
    use freephish_store::testutil::TempDir;

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
        let dir = TempDir::new("overlay-shadow");
        let base = baked(
            &dir,
            "base.mapidx",
            &[
                ("https://baked.weebly.com/", 0.70),
                ("https://shadowed.weebly.com/", 0.10),
            ],
        );
        let overlay = OverlayIndex::with_base(base, Arc::new(ShardedIndex::new(4)));
        assert_eq!(overlay.base_len(), 2);

        // Base-only entry resolves from the mmap.
        assert_eq!(
            overlay.check("https://baked.weebly.com/"),
            Verdict::Phishing(0.70)
        );
        // A live ADD shadows the baked score.
        overlay.add("https://shadowed.weebly.com/", 0.95).unwrap();
        assert_eq!(
            overlay.check("https://shadowed.weebly.com/"),
            Verdict::Phishing(0.95)
        );
        // Unknown URLs miss both levels.
        assert_eq!(
            overlay.check("https://unknown.weebly.com/"),
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
        let verdicts = overlay.check_many(&batch);
        assert_eq!(verdicts[0], Verdict::Phishing(0.70));
        assert_eq!(verdicts[1], Verdict::Phishing(0.95));
        assert_eq!(verdicts[2], Verdict::Safe(0.0));
    }

    #[test]
    fn loading_a_base_flips_generation_without_any_publish() {
        let dir = TempDir::new("overlay-gen");
        let overlay = OverlayIndex::new(Arc::new(ShardedIndex::new(4)));
        assert_eq!(overlay.generation(), 0, "empty overlay is not ready");
        let base = baked(&dir, "base.mapidx", &[("https://a.weebly.com/", 0.9)]);
        overlay.set_base(base);
        assert_eq!(overlay.generation(), 1);
        assert_eq!(overlay.base_epoch(), 1);
    }

    #[test]
    fn rebake_swap_keeps_delta_shadowing_intact() {
        let dir = TempDir::new("overlay-rebake");
        let base1 = baked(&dir, "b1.mapidx", &[("https://old.weebly.com/", 0.5)]);
        let overlay = OverlayIndex::with_base(base1, Arc::new(ShardedIndex::new(4)));
        overlay.add("https://old.weebly.com/", 0.91).unwrap();
        overlay.add("https://live.weebly.com/", 0.88).unwrap();

        // Re-bake folds the journal (delta) into a new baseline; the
        // delta is deliberately left alone.
        let base2 = baked(
            &dir,
            "b2.mapidx",
            &[
                ("https://old.weebly.com/", 0.91),
                ("https://live.weebly.com/", 0.88),
            ],
        );
        let before = overlay.generation();
        overlay.set_base(base2);
        assert!(overlay.generation() > before);
        assert_eq!(
            overlay.check("https://old.weebly.com/"),
            Verdict::Phishing(0.91)
        );
        assert_eq!(
            overlay.check("https://live.weebly.com/"),
            Verdict::Phishing(0.88)
        );
    }
}
