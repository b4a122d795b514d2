//! Ground-truth corpus construction (Section 4.2, "Ground truth
//! collection").
//!
//! The paper trains on 4,656 manually verified phishing URLs from the D1
//! dataset plus an equal number of manually verified benign FWB sites. The
//! reproduction builds the same corpus synthetically: phishing sites drawn
//! across the FWB mix with the Section 3 evasion-feature rates (44.7%
//! noindex, roughly half obfuscating the banner) and a small share of
//! Section 5.5 evasive variants; benign sites over mundane topics.

use crate::features::{FeatureSet, FeatureVector};
use freephish_ml::Dataset;
use freephish_simclock::{Rng64, Zipf};
use freephish_urlparse::Url;
use freephish_webgen::page::{benign_site_name, phishy_site_name, BENIGN_TOPICS};
use freephish_webgen::{FwbKind, GeneratedSite, PageKind, PageSpec, ALL_FWBS, BRANDS};

/// Corpus parameters.
#[derive(Debug, Clone)]
pub struct GroundTruthConfig {
    /// Number of phishing examples (paper: 4,656).
    pub n_phish: usize,
    /// Number of benign examples (paper: 4,656).
    pub n_benign: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for GroundTruthConfig {
    fn default() -> Self {
        GroundTruthConfig {
            n_phish: 4656,
            n_benign: 4656,
            seed: 0xD1,
        }
    }
}

impl GroundTruthConfig {
    /// A small corpus for fast tests.
    pub fn tiny() -> Self {
        GroundTruthConfig {
            n_phish: 250,
            n_benign: 250,
            seed: 0xD1,
        }
    }
}

/// One labelled example.
#[derive(Debug, Clone)]
pub struct LabeledSite {
    /// The generated site.
    pub site: GeneratedSite,
    /// 1 = phishing, 0 = benign.
    pub label: u8,
}

/// Sample an FWB weighted by how often attackers abuse it.
fn sample_fwb(rng: &mut Rng64) -> FwbKind {
    let weights: Vec<f64> = ALL_FWBS.iter().map(|d| d.paper_url_count as f64).collect();
    ALL_FWBS[rng.choose_weighted(&weights)].kind
}

/// Build one phishing site spec.
pub fn phishing_spec(rng: &mut Rng64, brand_zipf: &Zipf, seed: u64) -> PageSpec {
    let fwb = sample_fwb(rng);
    let brand = brand_zipf.sample(rng);
    // Section 5.5: a minority of attacks carry no credential fields.
    let kind = match rng.f64() {
        x if x < 0.80 => PageKind::CredentialPhish { brand },
        x if x < 0.88 => PageKind::TwoStep {
            brand,
            target_url: format!("https://{}-portal.top/login", BRANDS[brand].token),
        },
        x if x < 0.93 => PageKind::IframeEmbed {
            brand,
            iframe_url: format!("https://{}-frame.icu/embed", BRANDS[brand].token),
        },
        _ => PageKind::DriveBy {
            brand,
            payload_url: format!("https://cdn-{}.click/payload.iso", BRANDS[brand].token),
        },
    };
    // Evasive operators are the stealth-conscious ones: mostly opaque
    // names, heavier use of noindex and banner hiding (the two signals only
    // the augmented feature set can see).
    let evasive = kind.is_evasive();
    let site_name = if evasive && rng.chance(0.85) {
        let len = 9 + rng.index(5);
        freephish_webgen::template::rand_token(rng, len)
    } else {
        phishy_site_name(&BRANDS[brand], rng)
    };
    PageSpec {
        fwb,
        kind,
        site_name,
        noindex: rng.chance(if evasive { 0.62 } else { 0.40 }),
        obfuscate_banner: rng.chance(if evasive { 0.72 } else { 0.47 }),
        seed,
    }
}

/// Build one benign site spec. About 15% are brand-adjacent (fan pages,
/// setup guides) — the benign class that trips brand-keyed detectors.
pub fn benign_spec(rng: &mut Rng64, seed: u64) -> PageSpec {
    let fwb = sample_fwb(rng);
    let (kind, site_name) = if rng.chance(0.15) {
        let brand = rng.index(BRANDS.len());
        // Half of fan sites name themselves after the brand; the rest use
        // scene vocabulary or opaque handles, like phishing sites do.
        let name = if rng.chance(0.5) {
            let style = *rng.choose(&["fans", "guide", "tips", "review"]);
            format!("{}-{style}", BRANDS[brand].token)
        } else {
            let word = *rng.choose(&[
                "streamwatchers",
                "dealhunters-blog",
                "techreview-corner",
                "setup-helpdesk",
                "gadget-notes",
            ]);
            format!("{word}{}", rng.range_u64(1, 999))
        };
        (PageKind::BenignFan { brand }, name)
    } else {
        let topic = rng.index(BENIGN_TOPICS.len());
        (PageKind::Benign { topic }, benign_site_name(topic, rng))
    };
    PageSpec {
        fwb,
        kind,
        site_name,
        // Legitimate small sites rarely opt out of indexing or fight the
        // banner.
        noindex: rng.chance(0.03),
        obfuscate_banner: rng.chance(0.02),
        seed,
    }
}

/// Build the labelled corpus.
pub fn build(config: &GroundTruthConfig) -> Vec<LabeledSite> {
    let mut rng = Rng64::new(config.seed);
    let zipf = Zipf::new(BRANDS.len(), 1.05);
    let mut out = Vec::with_capacity(config.n_phish + config.n_benign);
    for i in 0..config.n_phish {
        let spec = phishing_spec(&mut rng, &zipf, config.seed.wrapping_add(i as u64));
        out.push(LabeledSite {
            site: spec.generate(),
            label: 1,
        });
    }
    for i in 0..config.n_benign {
        let spec = benign_spec(&mut rng, config.seed.wrapping_add(0x10_0000 + i as u64));
        out.push(LabeledSite {
            site: spec.generate(),
            label: 0,
        });
    }
    rng.shuffle(&mut out);
    out
}

/// Featurise a labelled corpus into an ML dataset.
pub fn to_dataset(sites: &[LabeledSite], set: FeatureSet) -> Dataset {
    let mut data = Dataset::new(FeatureVector::feature_names(set));
    for ls in sites {
        let url = Url::parse(&ls.site.url).expect("generated URLs parse");
        let v = FeatureVector::extract_fast(set, &url, &ls.site.html);
        data.push(v.values, ls.label);
    }
    data
}

#[cfg(test)]
mod tests {
    use super::*;
    use freephish_htmlparse::parse;

    #[test]
    fn corpus_sizes_and_balance() {
        let corpus = build(&GroundTruthConfig::tiny());
        assert_eq!(corpus.len(), 500);
        let phish = corpus.iter().filter(|l| l.label == 1).count();
        assert_eq!(phish, 250);
    }

    #[test]
    fn corpus_is_shuffled() {
        let corpus = build(&GroundTruthConfig::tiny());
        // Not all phishing first: the first 250 entries contain both labels.
        let head_benign = corpus[..250].iter().filter(|l| l.label == 0).count();
        assert!(head_benign > 50);
    }

    #[test]
    fn phishing_specs_have_evasion_rates() {
        let mut rng = Rng64::new(1);
        let zipf = Zipf::new(BRANDS.len(), 1.05);
        let specs: Vec<PageSpec> = (0..2000)
            .map(|i| phishing_spec(&mut rng, &zipf, i))
            .collect();
        let noindex = specs.iter().filter(|s| s.noindex).count() as f64 / 2000.0;
        assert!((0.40..0.50).contains(&noindex), "noindex rate {noindex}");
        let evasive = specs.iter().filter(|s| s.kind.is_evasive()).count() as f64 / 2000.0;
        assert!((0.14..0.27).contains(&evasive), "evasive rate {evasive}");
    }

    #[test]
    fn dataset_round_trip() {
        let corpus = build(&GroundTruthConfig {
            n_phish: 40,
            n_benign: 40,
            seed: 9,
        });
        let data = to_dataset(&corpus, FeatureSet::Augmented);
        assert_eq!(data.len(), 80);
        assert_eq!(data.n_features(), 20);
        assert!((data.positive_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn dataset_rows_equal_the_dom_extraction_bit_for_bit() {
        let corpus = build(&GroundTruthConfig::tiny());
        for set in [FeatureSet::Base, FeatureSet::Augmented] {
            let data = to_dataset(&corpus, set);
            assert_eq!(data.len(), corpus.len());
            for (i, ls) in corpus.iter().enumerate() {
                let url = Url::parse(&ls.site.url).unwrap();
                let dom = FeatureVector::extract(set, &url, &parse(&ls.site.html));
                let bits = |row: &[f64]| row.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(data.row(i)),
                    bits(&dom.values),
                    "{set:?} row {i}: {}",
                    ls.site.url
                );
            }
        }
    }

    #[test]
    fn deterministic() {
        let a = build(&GroundTruthConfig::tiny());
        let b = build(&GroundTruthConfig::tiny());
        assert!(a
            .iter()
            .zip(&b)
            .all(|(x, y)| x.site.url == y.site.url && x.label == y.label));
    }

    #[test]
    fn fwb_mix_tracks_abuse_weights() {
        let corpus = build(&GroundTruthConfig {
            n_phish: 2000,
            n_benign: 0,
            seed: 3,
        });
        let weebly = corpus
            .iter()
            .filter(|l| l.site.spec.fwb == FwbKind::Weebly)
            .count();
        let hpage = corpus
            .iter()
            .filter(|l| l.site.spec.fwb == FwbKind::Hpage)
            .count();
        assert!(weebly > hpage * 10, "weebly={weebly} hpage={hpage}");
    }
}
