//! Million-site worlds: streaming, bounded-memory world generation for
//! soak testing the serve path at paper scale and beyond.
//!
//! The measurement worlds built by [`crate::world`] materialise every
//! site up front, which is right for six-month ecosystem simulations of a
//! few thousand sites but breaks down when the question becomes "does the
//! verdict service hold its SLOs with ten million known URLs?". This
//! module answers that with a different representation: a
//! [`ScaleWorld`] never stores sites at all. Each site is a pure function
//! of `(seed, index)` (via [`freephish_fwbsim::ScaleSampler`]), so
//! iterating a 10M-site world allocates one URL at a time and resident
//! memory stays flat no matter the world size — the property the soak
//! harness's RSS gate checks.
//!
//! Two consumers:
//!
//! * the soak harness streams [`ScaleWorld::iter`] /
//!   [`ScaleWorld::chunks`] to drive mixed `CHECK`/`CHECKN`/`ADD` traffic
//!   with realistic heavy-tailed URL shapes;
//! * [`ScaleWorld::bake_index`] streams the world's verdicts straight
//!   into a [`freephish_mapidx`] snapshot file through the external-merge
//!   writer, producing the 10M-entry index whose mmap load time the
//!   `mapidx_load_ms` gate bounds.

use std::io;
use std::path::Path;

use crate::groundtruth::LabeledSite;
use crate::models::SnapshotFetcher;
use freephish_fwbsim::scale::{self, site_index, URL_CAPACITY};
use freephish_fwbsim::{ScaleSampler, ScaleSite, ScaleStats};
use freephish_mapidx::{BakeSummary, IndexWriter};

/// Shape of a scale world. `Default` gives the soak harness's baseline:
/// one million sites with the paper's Table 4 / Figure 5 distributions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScaleWorldConfig {
    /// Number of sites in the world.
    pub sites: u64,
    /// Root seed; worlds with equal configs are identical.
    pub seed: u64,
    /// Zipf exponent for brand targeting (Figure 5 head-heaviness).
    pub brand_zipf_s: f64,
    /// Fraction of sites that are phishing pages.
    pub phish_fraction: f64,
}

impl Default for ScaleWorldConfig {
    fn default() -> Self {
        ScaleWorldConfig {
            sites: 1_000_000,
            seed: 0x00F2_EE7A_7E25,
            brand_zipf_s: scale::DEFAULT_BRAND_ZIPF_S,
            phish_fraction: scale::DEFAULT_PHISH_FRACTION,
        }
    }
}

/// A virtual world of `cfg.sites` FWB-hosted sites. Holds only the
/// sampler (a few hundred bytes); every site is regenerated on demand.
#[derive(Debug, Clone)]
pub struct ScaleWorld {
    cfg: ScaleWorldConfig,
    sampler: ScaleSampler,
}

impl ScaleWorld {
    /// Build the world's sampler. O(1) in `cfg.sites`.
    pub fn new(cfg: ScaleWorldConfig) -> ScaleWorld {
        ScaleWorld {
            cfg,
            sampler: ScaleSampler::with_shape(cfg.seed, cfg.brand_zipf_s, cfg.phish_fraction),
        }
    }

    /// The configuration this world was built from.
    pub fn config(&self) -> ScaleWorldConfig {
        self.cfg
    }

    /// Number of sites in the world.
    pub fn len(&self) -> u64 {
        self.cfg.sites
    }

    /// Whether the world is empty.
    pub fn is_empty(&self) -> bool {
        self.cfg.sites == 0
    }

    /// Site `index` (mod world size, so load generators can wrap freely).
    pub fn site_at(&self, index: u64) -> ScaleSite {
        debug_assert!(self.cfg.sites > 0, "site_at on an empty world");
        self.sampler.site_at(index % self.cfg.sites.max(1))
    }

    /// The verdict-store entry for site `index`: `(url, score)`. The URL
    /// is one allocation of [`URL_CAPACITY`] bytes.
    pub fn verdict_at(&self, index: u64) -> (String, f64) {
        let mut url = String::with_capacity(URL_CAPACITY);
        let score = self.verdict_into(index, &mut url);
        (url, score)
    }

    /// [`ScaleWorld::verdict_at`] into a caller's buffer: renders site
    /// `index`'s URL into `url` (cleared first) and returns its score, so
    /// a loop over the world reuses one `String` and allocates nothing.
    pub fn verdict_into(&self, index: u64, url: &mut String) -> f64 {
        debug_assert!(self.cfg.sites > 0, "verdict_into on an empty world");
        self.sampler.render_at(index % self.cfg.sites.max(1), url)
    }

    /// Stream every site in index order. Constant memory: one
    /// [`ScaleSite`] alive at a time.
    pub fn iter(&self) -> impl Iterator<Item = ScaleSite> + '_ {
        (0..self.cfg.sites).map(move |i| self.sampler.site_at(i))
    }

    /// Stream the world in bounded chunks (for batch APIs like `CHECKN`).
    /// Peak memory is one chunk, not the world.
    pub fn chunks(&self, chunk: usize) -> impl Iterator<Item = Vec<ScaleSite>> + '_ {
        assert!(chunk > 0, "chunk size must be positive");
        let chunk = chunk as u64;
        let n = self.cfg.sites.div_ceil(chunk);
        (0..n).map(move |c| {
            let lo = c * chunk;
            let hi = (lo + chunk).min(self.cfg.sites);
            (lo..hi).map(|i| self.sampler.site_at(i)).collect()
        })
    }

    /// Survey the world's distribution by visiting every `stride`-th site.
    /// Memory is the fixed counter set in [`ScaleStats`]; time is
    /// `sites / stride` site generations.
    pub fn survey(&self, stride: u64) -> ScaleStats {
        let stride = stride.max(1);
        let mut stats = ScaleStats::new();
        let mut i = 0;
        while i < self.cfg.sites {
            stats.record(&self.sampler.site_at(i));
            i += stride;
        }
        stats
    }

    /// Stream `entries` verdicts (wrapping over the world if `entries >
    /// sites`) into a mapidx snapshot file at `out_path`. This is the
    /// scale path for building multi-million-entry baked baselines
    /// without a journal: the external-merge writer spills sorted runs,
    /// so peak memory is the writer's run budget, not the entry count.
    /// One `String` carries every URL, so the loop allocates nothing;
    /// the spill directory is removed whether the bake succeeds or fails.
    pub fn bake_index(&self, entries: u64, out_path: &Path) -> io::Result<BakeSummary> {
        let spill = out_path.with_extension("spill");
        let baked = IndexWriter::create(&spill).and_then(|mut writer| {
            let mut url = String::with_capacity(URL_CAPACITY);
            for i in 0..entries {
                let score = self.verdict_into(i, &mut url);
                writer.add(&url, score)?;
            }
            writer.finish(out_path)
        });
        let _ = std::fs::remove_dir_all(&spill);
        baked
    }
}

/// A [`ScaleWorld`]'s pages, for a node without a crawler: site `i`'s
/// page is body `i % n` of its label's pool of `n` bodies, taken from a
/// labelled corpus (the one the node's models trained on). A URL that is
/// not a site of the world has no page.
pub struct ScaleWorldFetcher {
    world: ScaleWorld,
    /// Benign bodies, then phishing ones: indexed by label.
    bodies: [Vec<String>; 2],
}

impl ScaleWorldFetcher {
    /// Serve `world` with the bodies of `corpus`, split by label. Panics
    /// if either label has no body.
    pub fn new(world: ScaleWorld, corpus: &[LabeledSite]) -> ScaleWorldFetcher {
        let bodies = [0, 1].map(|label| {
            let sites = corpus.iter().filter(|s| s.label == label);
            sites.map(|s| s.site.html.clone()).collect::<Vec<_>>()
        });
        assert!(
            bodies.iter().all(|pool| !pool.is_empty()),
            "a world fetcher needs bodies of both labels"
        );
        ScaleWorldFetcher { world, bodies }
    }
}

impl SnapshotFetcher for ScaleWorldFetcher {
    fn fetch(&self, url: &str) -> Option<String> {
        let index = site_index(url)?;
        let site = self.world.site_at(index);
        let pool = &self.bodies[usize::from(site.phishing)];
        (site.url == url).then(|| pool[(index % pool.len() as u64) as usize].clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use freephish_mapidx::SnapshotIndex;
    use freephish_simclock::{fnv1a_from as fnv, FNV1A_OFFSET as FNV_OFFSET};
    use freephish_store::testutil::TempDir;

    fn small(sites: u64) -> ScaleWorld {
        ScaleWorld::new(ScaleWorldConfig {
            sites,
            ..ScaleWorldConfig::default()
        })
    }

    #[test]
    fn world_fetcher_serves_sites_by_label_and_nothing_else() {
        let corpus = crate::groundtruth::build(&crate::groundtruth::GroundTruthConfig {
            n_phish: 3,
            n_benign: 2,
            seed: 5,
        });
        let w = small(1_000);
        let fetcher = ScaleWorldFetcher::new(w.clone(), &corpus);
        for i in [0, 1, 2, 500, 999] {
            let site = w.site_at(i);
            let (label, n) = if site.phishing { (1, 3) } else { (0, 2) };
            let pool: Vec<_> = corpus.iter().filter(|s| s.label == label).collect();
            let want = &pool[(i % n) as usize].site.html;
            assert_eq!(fetcher.fetch(&site.url).as_ref(), Some(want));
        }
        assert_eq!(fetcher.fetch("https://www.paypal.com/signin"), None);
        // A well-formed name whose index renders a different URL.
        let other = w.site_at(7).url.replace("-7", "-8");
        assert_eq!(fetcher.fetch(&other), None);
    }

    #[test]
    fn iter_matches_random_access() {
        let w = small(500);
        for (i, site) in w.iter().enumerate() {
            assert_eq!(site, w.site_at(i as u64));
        }
    }

    #[test]
    fn chunks_cover_the_world_exactly_once() {
        let w = small(1_003);
        let mut seen = 0u64;
        for (c, chunk) in w.chunks(100).enumerate() {
            assert!(chunk.len() <= 100);
            for (j, site) in chunk.iter().enumerate() {
                assert_eq!(site.index, c as u64 * 100 + j as u64);
            }
            seen += chunk.len() as u64;
        }
        assert_eq!(seen, w.len());
    }

    #[test]
    fn indices_wrap_modulo_world_size() {
        let w = small(64);
        assert_eq!(w.site_at(3), w.site_at(67));
        assert_eq!(w.verdict_at(10), w.verdict_at(74));
    }

    #[test]
    fn survey_counts_every_strided_site() {
        let w = small(10_000);
        let stats = w.survey(10);
        assert_eq!(stats.total(), 1_000);
        assert!(stats.phishing > 0 && stats.benign > 0);
        assert!(stats.brand_head_share(10) > 0.2);
    }

    #[test]
    fn baked_index_serves_the_worlds_verdicts_bit_identically() {
        let dir = std::env::temp_dir().join(format!("fp-scalebake-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("world.mapidx");
        let w = small(2_000);
        let summary = w.bake_index(2_000, &out).unwrap();
        assert!(summary.entries <= 2_000, "dedup can only shrink");
        let idx = SnapshotIndex::open(&out).unwrap();
        for i in (0..2_000).step_by(37) {
            let (url, score) = w.verdict_at(i);
            let got = idx.get(&url).expect("baked entry present");
            assert_eq!(
                got.to_bits(),
                score.to_bits(),
                "bit-identical score for {url}"
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn verdicts_are_the_sites_url_and_score() {
        let mut url = String::from("a stale URL");
        for seed in [1, 7, ScaleWorldConfig::default().seed] {
            let w = ScaleWorld::new(ScaleWorldConfig {
                sites: 1 << 40,
                seed,
                ..ScaleWorldConfig::default()
            });
            let mut rng = freephish_simclock::Rng64::new(seed);
            for _ in 0..10_000 {
                let i = rng.next_u64();
                let site = w.site_at(i);
                let (got_url, score) = w.verdict_at(i);
                assert_eq!(got_url, site.url, "seed {seed} index {i}");
                assert_eq!(
                    score.to_bits(),
                    site.score.to_bits(),
                    "seed {seed} index {i}"
                );
                assert_eq!(w.verdict_into(i, &mut url).to_bits(), score.to_bits());
                assert_eq!(url, got_url);
            }
        }
    }

    /// The default world's first 100,000 verdicts, pinned: a change to the
    /// sampler's draws or the URL renderer changes every bake downstream.
    #[test]
    fn the_default_world_does_not_change() {
        let w = ScaleWorld::new(ScaleWorldConfig::default());
        let mut url = String::new();
        let digest = (0..100_000).fold(FNV_OFFSET, |h, i| {
            let score = w.verdict_into(i, &mut url);
            fnv(fnv(h, url.as_bytes()), &score.to_bits().to_le_bytes())
        });
        assert_eq!(digest, 0xf6fd_c500_de4c_685b);
    }

    /// A seed-1 bake of 20,000 entries, pinned byte for byte: the writer's
    /// run layout, spill and merge may change, the file may not.
    #[test]
    fn a_bake_is_byte_for_byte_the_recorded_file() {
        let dir = TempDir::new("scalebake-golden");
        let out = dir.path().join("golden.mapidx");
        let w = ScaleWorld::new(ScaleWorldConfig {
            sites: 20_000,
            seed: 1,
            ..ScaleWorldConfig::default()
        });
        w.bake_index(20_000, &out).unwrap();
        let bytes = std::fs::read(&out).unwrap();
        assert_eq!(bytes.len(), 1_412_075);
        assert_eq!(fnv(FNV_OFFSET, &bytes), 0xfc8f_9720_c531_477a);
    }

    #[test]
    fn a_failed_bake_leaves_no_temporary_files() {
        let dir = TempDir::new("scalebake-fail");
        let out = dir.path().join("idx.mapidx");
        let w = small(200_000);
        w.bake_index(1_000, &out).unwrap();
        let before = std::fs::read(&out).unwrap();
        // A directory where the output's temporary file goes.
        let tmp = dir.path().join("idx.mapidx.tmp");
        std::fs::create_dir(&tmp).unwrap();
        assert!(w.bake_index(200_000, &out).is_err());
        assert!(
            !dir.path().join("idx.spill").exists(),
            "spill dir left behind"
        );
        assert_eq!(std::fs::read_dir(&tmp).unwrap().count(), 0);
        assert_eq!(
            std::fs::read(&out).unwrap(),
            before,
            "the old index changed"
        );
    }

    #[test]
    fn worlds_are_reproducible_across_instances() {
        let a = small(100);
        let b = small(100);
        assert_eq!(
            a.iter().map(|s| s.url).collect::<Vec<_>>(),
            b.iter().map(|s| s.url).collect::<Vec<_>>()
        );
    }
}
