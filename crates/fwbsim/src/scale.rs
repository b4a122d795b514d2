//! Scale-mode site sampler: million-site worlds with the paper's
//! heavy-tailed shape, generated *streaming* so resident memory stays
//! bounded no matter how many sites are asked for.
//!
//! Two distributions drive the shape:
//!
//! * **FWB choice** follows Table 4's per-service URL counts
//!   ([`FwbDescriptor::paper_url_count`]): Weebly and Wix dominate, the
//!   tail services host a trickle. Sampling is O(1) via a Walker alias
//!   table built once over the 17 services.
//! * **Brand targeting** follows Figure 5: a Zipf law over the 109-brand
//!   catalog ([`BRANDS`]) so a handful of consumer platforms absorb most
//!   of the phishing pages.
//!
//! The crucial property for scale worlds is *random access*: every site is
//! a pure function of `(seed, index)` ([`ScaleSampler::site_at`]), derived
//! through the same fork discipline as the rest of the simulator. Nothing
//! is materialised — a 10M-site world is 10M calls, and
//! [`ScaleSampler::render_at`] renders each URL into one reused buffer —
//! so the soak harness can stream one chunk at a time and assert that RSS
//! stays flat.

use freephish_simclock::{Rng64, Zipf};
use freephish_webgen::{Brand, FwbKind, ALL_FWBS, BRANDS};

/// Default Zipf exponent for brand popularity; matches the campaign
/// generators elsewhere in the simulator (head brand ≈ 12% of pages).
pub const DEFAULT_BRAND_ZIPF_S: f64 = 1.05;

/// Default fraction of sites that are phishing pages; the remainder are
/// the benign hobby/business sites that make FWBs "free waters" in the
/// first place.
pub const DEFAULT_PHISH_FRACTION: f64 = 0.2;

/// Bytes to reserve for one rendered URL: room for the longest FWB prefix,
/// brand token, action and a six-digit base-36 tag (worlds of up to 2
/// billion sites), so a URL renders without regrowing its buffer.
pub const URL_CAPACITY: usize = 64;

/// Walker alias table: O(1) sampling from a fixed discrete distribution.
///
/// Built once per sampler over the 17 FWB weights; `sample` costs one
/// index draw plus one f64 draw regardless of table size.
#[derive(Debug, Clone)]
struct AliasTable {
    prob: Vec<f64>,
    alias: Vec<usize>,
}

impl AliasTable {
    fn new(weights: &[u64]) -> AliasTable {
        assert!(!weights.is_empty(), "alias table needs at least one weight");
        let total: u64 = weights.iter().sum();
        assert!(total > 0, "alias table needs a positive total weight");
        let n = weights.len();
        let mut scaled: Vec<f64> = weights
            .iter()
            .map(|&w| w as f64 * n as f64 / total as f64)
            .collect();
        let mut prob = vec![0.0; n];
        let mut alias = vec![0usize; n];
        let mut small: Vec<usize> = Vec::new();
        let mut large: Vec<usize> = Vec::new();
        for (i, &p) in scaled.iter().enumerate() {
            if p < 1.0 {
                small.push(i);
            } else {
                large.push(i);
            }
        }
        while !small.is_empty() && !large.is_empty() {
            let (s, l) = (small.pop().unwrap(), large.pop().unwrap());
            prob[s] = scaled[s];
            alias[s] = l;
            scaled[l] = (scaled[l] + scaled[s]) - 1.0;
            if scaled[l] < 1.0 {
                small.push(l);
            } else {
                large.push(l);
            }
        }
        for i in large.into_iter().chain(small) {
            prob[i] = 1.0;
        }
        AliasTable { prob, alias }
    }

    fn sample(&self, rng: &mut Rng64) -> usize {
        let i = rng.index(self.prob.len());
        if rng.f64() < self.prob[i] {
            i
        } else {
            self.alias[i]
        }
    }
}

/// One generated site in a scale world. Owns only its name and URL;
/// everything else is `Copy` or a `'static` catalog reference.
#[derive(Debug, Clone, PartialEq)]
pub struct ScaleSite {
    /// Position in the world; `site_at(index)` regenerates this site.
    pub index: u64,
    /// Which free website builder hosts it.
    pub fwb: FwbKind,
    /// Spoofed brand — `Some` only for phishing sites.
    pub brand: Option<&'static Brand>,
    /// Subdomain / path label on the FWB.
    pub site_name: String,
    /// Full URL as the FWB would serve it.
    pub url: String,
    /// Whether the site is a phishing page.
    pub phishing: bool,
    /// Classifier-style score: phishing in `[0.5, 1.0)`, benign in
    /// `[0.0, 0.5)`. Deterministic, so baked indexes and journal replays
    /// can be compared bit-for-bit.
    pub score: f64,
}

/// A site name, `{word}-{word}-{base36 index}`, rendered on the stack.
/// The base-36 index keeps names unique and short: a 10M-site world adds
/// only ~5 characters per name. The longest brand token (15 bytes),
/// action (7) and a `u64` tag (13) take 37 of its 48 bytes.
struct SiteName {
    buf: [u8; 48],
    len: usize,
}

impl SiteName {
    fn new(words: [&str; 2], index: u64) -> SiteName {
        let mut name = SiteName {
            buf: [0; 48],
            len: 0,
        };
        for word in words {
            name.push(word.as_bytes());
            name.push(b"-");
        }
        const DIGITS: &[u8; 36] = b"0123456789abcdefghijklmnopqrstuvwxyz";
        let mut tag = [0u8; 13];
        let (mut i, mut n) = (tag.len(), index);
        loop {
            i -= 1;
            tag[i] = DIGITS[(n % 36) as usize];
            n /= 36;
            if n == 0 {
                break;
            }
        }
        name.push(&tag[i..]);
        name
    }

    fn push(&mut self, bytes: &[u8]) {
        self.buf[self.len..self.len + bytes.len()].copy_from_slice(bytes);
        self.len += bytes.len();
    }

    fn as_str(&self) -> &str {
        std::str::from_utf8(&self.buf[..self.len]).expect("site names are ASCII")
    }
}

/// The inverse of [`SiteName`]: the index a scale-world URL was rendered
/// from (its site name ends in `-<index in base 36>`), or `None` for a
/// URL of another shape. It does not check that the URL is that site's;
/// render the index and compare for that.
pub fn site_index(url: &str) -> Option<u64> {
    let rest = url.strip_prefix("https://")?;
    // `https://<site>.<host>/` or `https://<host>/<prefix>/<site>`.
    let site = match rest.strip_suffix('/') {
        Some(host) => host.split('.').next()?,
        None => rest.rsplit('/').next()?,
    };
    u64::from_str_radix(site.rsplit_once('-')?.1, 36).ok()
}

/// What site `index` is before any string is rendered: the RNG draws
/// that define it, made once, in one fixed order.
struct SiteDraw {
    fwb: FwbKind,
    brand: Option<&'static Brand>,
    /// The name's two words: brand token and action, or the benign pair.
    words: [&'static str; 2],
    score: f64,
}

const PHISH_ACTIONS: &[&str] = &[
    "login", "verify", "secure", "support", "account", "update", "billing", "auth", "help",
    "signin", "confirm", "service",
];

const BENIGN_WORDS_A: &[&str] = &[
    "sunny", "blue", "maple", "little", "happy", "north", "green", "river", "cedar", "golden",
    "quiet", "bright", "rustic", "coastal", "urban", "family",
];

const BENIGN_WORDS_B: &[&str] = &[
    "bakery",
    "photos",
    "garden",
    "studio",
    "crafts",
    "travel",
    "yoga",
    "books",
    "kitchen",
    "music",
    "fitness",
    "design",
    "wedding",
    "portfolio",
    "cafe",
    "blog",
];

/// Streaming, random-access generator of heavy-tailed FWB site worlds.
#[derive(Debug, Clone)]
pub struct ScaleSampler {
    stream_seed: u64,
    fwb_table: AliasTable,
    brand_zipf: Zipf,
    phish_fraction: f64,
}

impl ScaleSampler {
    /// Build a sampler with the default brand exponent and phishing mix.
    pub fn new(seed: u64) -> ScaleSampler {
        ScaleSampler::with_shape(seed, DEFAULT_BRAND_ZIPF_S, DEFAULT_PHISH_FRACTION)
    }

    /// Build a sampler with explicit distribution knobs.
    pub fn with_shape(seed: u64, brand_zipf_s: f64, phish_fraction: f64) -> ScaleSampler {
        assert!(
            (0.0..=1.0).contains(&phish_fraction),
            "phish_fraction must be in [0, 1]"
        );
        let weights: Vec<u64> = ALL_FWBS.iter().map(|d| d.paper_url_count).collect();
        ScaleSampler {
            // One draw from the seeded root, mirroring `Rng64::fork`: the
            // per-index streams stay independent of any other subsystem
            // seeded from the same root.
            stream_seed: Rng64::new(seed).next_u64(),
            fwb_table: AliasTable::new(&weights),
            brand_zipf: Zipf::new(BRANDS.len(), brand_zipf_s),
            phish_fraction,
        }
    }

    /// Per-index generator, identical to `root.fork(index)` but without
    /// mutating shared state — this is what makes `site_at` `&self` and
    /// safe to call from many threads at once.
    fn rng_at(&self, index: u64) -> Rng64 {
        Rng64::new(self.stream_seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// The draws behind site `index`. Field order is draw order: FWB,
    /// phishing coin, then brand and action or the two benign words, then
    /// the score.
    fn draw(&self, index: u64) -> SiteDraw {
        let mut rng = self.rng_at(index);
        let fwb = ALL_FWBS[self.fwb_table.sample(&mut rng)].kind;
        if rng.chance(self.phish_fraction) {
            let brand = &BRANDS[self.brand_zipf.sample(&mut rng)];
            SiteDraw {
                fwb,
                brand: Some(brand),
                words: [brand.token, PHISH_ACTIONS[rng.index(PHISH_ACTIONS.len())]],
                score: 0.5 + rng.f64() * 0.5,
            }
        } else {
            SiteDraw {
                fwb,
                brand: None,
                words: [
                    BENIGN_WORDS_A[rng.index(BENIGN_WORDS_A.len())],
                    BENIGN_WORDS_B[rng.index(BENIGN_WORDS_B.len())],
                ],
                score: rng.f64() * 0.5,
            }
        }
    }

    /// Generate site `index` of the world. Pure in `(seed, index)`: the
    /// same pair always yields the same site, so worlds never need to be
    /// materialised to be revisited. Site names embed the index (base36),
    /// so distinct indices are distinct sites — a world of N sites is N
    /// *unique* URLs, which bakes and dedup tests rely on.
    pub fn site_at(&self, index: u64) -> ScaleSite {
        let draw = self.draw(index);
        let name = SiteName::new(draw.words, index);
        let mut url = String::with_capacity(URL_CAPACITY);
        draw.fwb.push_site_url(name.as_str(), &mut url);
        ScaleSite {
            index,
            fwb: draw.fwb,
            brand: draw.brand,
            site_name: name.as_str().to_owned(),
            url,
            phishing: draw.brand.is_some(),
            score: draw.score,
        }
    }

    /// Render site `index`'s URL into `url` (cleared first) and return its
    /// score: `site_at(index)`'s URL and score, with no allocation once
    /// `url` has grown to fit a URL.
    pub fn render_at(&self, index: u64, url: &mut String) -> f64 {
        let draw = self.draw(index);
        url.clear();
        draw.fwb
            .push_site_url(SiteName::new(draw.words, index).as_str(), url);
        draw.score
    }
}

/// Bounded-memory distribution survey of a (sampled) world pass: 17 FWB
/// counters + 109 brand counters + two totals, regardless of world size.
#[derive(Debug, Clone)]
pub struct ScaleStats {
    /// Sites seen per FWB, indexed as in [`ALL_FWBS`].
    pub per_fwb: Vec<u64>,
    /// Phishing pages seen per brand, indexed as in [`BRANDS`].
    pub per_brand: Vec<u64>,
    /// Phishing sites seen.
    pub phishing: u64,
    /// Benign sites seen.
    pub benign: u64,
}

impl ScaleStats {
    /// Empty survey.
    pub fn new() -> ScaleStats {
        ScaleStats {
            per_fwb: vec![0; ALL_FWBS.len()],
            per_brand: vec![0; BRANDS.len()],
            phishing: 0,
            benign: 0,
        }
    }

    /// Fold one site into the counters.
    pub fn record(&mut self, site: &ScaleSite) {
        let fwb_idx = ALL_FWBS
            .iter()
            .position(|d| d.kind == site.fwb)
            .expect("site FWB comes from ALL_FWBS");
        self.per_fwb[fwb_idx] += 1;
        if site.phishing {
            self.phishing += 1;
            if let Some(brand) = site.brand {
                if let Some(i) = BRANDS.iter().position(|b| b.token == brand.token) {
                    self.per_brand[i] += 1;
                }
            }
        } else {
            self.benign += 1;
        }
    }

    /// Total sites surveyed.
    pub fn total(&self) -> u64 {
        self.phishing + self.benign
    }

    /// Fraction of phishing pages landing on the `k` most-hit brands —
    /// the Figure 5 head-concentration number.
    pub fn brand_head_share(&self, k: usize) -> f64 {
        if self.phishing == 0 {
            return 0.0;
        }
        let mut counts = self.per_brand.clone();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let head: u64 = counts.iter().take(k).sum();
        head as f64 / self.phishing as f64
    }
}

impl Default for ScaleStats {
    fn default() -> Self {
        ScaleStats::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn site_index_inverts_the_site_name() {
        let mut rng = Rng64::new(0x51DE);
        let mut url = String::new();
        for seed in 0..16 {
            let sampler = ScaleSampler::new(seed);
            let indices = [0, 1, 35, 36, 1 << 40, u64::MAX];
            for index in indices
                .into_iter()
                .chain((0..500).map(|_| rng.next_u64() >> rng.index(64)))
            {
                sampler.render_at(index, &mut url);
                assert_eq!(site_index(&url), Some(index), "{url}");
            }
        }
        assert_eq!(site_index("https://www.paypal.com/signin"), None);
        assert_eq!(site_index("http://sunny-cafe-1.weebly.com/"), None);
    }

    #[test]
    fn site_at_is_pure_in_seed_and_index() {
        let a = ScaleSampler::new(7);
        let b = ScaleSampler::new(7);
        for i in [0u64, 1, 17, 9_999_999] {
            assert_eq!(a.site_at(i), b.site_at(i));
        }
        let c = ScaleSampler::new(8);
        assert_ne!(a.site_at(3).url, c.site_at(3).url);
    }

    #[test]
    fn urls_round_trip_through_fwb_classification() {
        let s = ScaleSampler::new(42);
        for i in 0..500 {
            let site = s.site_at(i);
            assert_eq!(
                FwbKind::classify_url(&site.url),
                Some(site.fwb),
                "url {} should classify back to its FWB",
                site.url
            );
        }
    }

    #[test]
    fn fwb_distribution_tracks_paper_url_counts() {
        let s = ScaleSampler::new(3);
        let mut stats = ScaleStats::new();
        let n = 60_000u64;
        for i in 0..n {
            stats.record(&s.site_at(i));
        }
        let total_weight: u64 = ALL_FWBS.iter().map(|d| d.paper_url_count).sum();
        for (i, d) in ALL_FWBS.iter().enumerate() {
            let expected = d.paper_url_count as f64 / total_weight as f64;
            let observed = stats.per_fwb[i] as f64 / n as f64;
            assert!(
                (observed - expected).abs() < 0.01,
                "{}: observed {observed:.4}, expected {expected:.4}",
                d.display_name
            );
        }
    }

    #[test]
    fn brand_targeting_is_head_heavy() {
        let s = ScaleSampler::with_shape(11, DEFAULT_BRAND_ZIPF_S, 1.0);
        let mut stats = ScaleStats::new();
        for i in 0..40_000 {
            stats.record(&s.site_at(i));
        }
        assert_eq!(stats.benign, 0);
        let head10 = stats.brand_head_share(10);
        let uniform10 = 10.0 / BRANDS.len() as f64;
        assert!(
            head10 > 2.0 * uniform10,
            "top-10 brands should dominate: head share {head10:.3} vs uniform {uniform10:.3}"
        );
    }

    #[test]
    fn phish_fraction_is_respected() {
        let s = ScaleSampler::with_shape(5, DEFAULT_BRAND_ZIPF_S, 0.2);
        let mut stats = ScaleStats::new();
        for i in 0..50_000 {
            stats.record(&s.site_at(i));
        }
        let frac = stats.phishing as f64 / stats.total() as f64;
        assert!(
            (frac - 0.2).abs() < 0.01,
            "phish fraction {frac:.4} should be near 0.2"
        );
        for b in BRANDS {
            assert!(b.token.chars().all(|c| c.is_ascii_alphanumeric()));
        }
    }

    #[test]
    fn scores_separate_phishing_from_benign() {
        let s = ScaleSampler::new(9);
        for i in 0..2_000 {
            let site = s.site_at(i);
            if site.phishing {
                assert!((0.5..1.0).contains(&site.score), "score {}", site.score);
                assert!(site.brand.is_some());
            } else {
                assert!((0.0..0.5).contains(&site.score), "score {}", site.score);
                assert!(site.brand.is_none());
            }
        }
    }

    #[test]
    fn urls_are_unique_per_index() {
        let s = ScaleSampler::new(21);
        let mut seen = std::collections::HashSet::new();
        for i in 0..20_000u64 {
            assert!(seen.insert(s.site_at(i).url), "index {i} repeated a URL");
        }
        let tag = |i| SiteName::new(["a", "b"], i).as_str().to_owned();
        assert_eq!(tag(0), "a-b-0");
        assert_eq!(tag(35), "a-b-z");
        assert_eq!(tag(36), "a-b-10");
        // The longest words and tag fit the stack name.
        let longest = |words: &[&'static str]| *words.iter().max_by_key(|w| w.len()).unwrap();
        let tokens: Vec<&'static str> = BRANDS.iter().map(|b| b.token).collect();
        let name = SiteName::new([longest(&tokens), longest(PHISH_ACTIONS)], u64::MAX);
        assert_eq!(name.as_str(), "americanexpress-service-3w5e11264sgsf");
        let benign = SiteName::new([longest(BENIGN_WORDS_A), longest(BENIGN_WORDS_B)], u64::MAX);
        assert!(benign.len <= name.len);
    }

    #[test]
    fn alias_table_handles_degenerate_weights() {
        let t = AliasTable::new(&[5]);
        let mut rng = Rng64::new(1);
        for _ in 0..100 {
            assert_eq!(t.sample(&mut rng), 0);
        }
        let t2 = AliasTable::new(&[0, 0, 7]);
        for _ in 0..100 {
            assert_eq!(t2.sample(&mut rng), 2);
        }
    }
}
