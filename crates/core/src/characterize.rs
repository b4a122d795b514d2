//! Section 3 characterization: the population statistics that explain *why*
//! FWB phishing evades the ecosystem.
//!
//! Given a set of FWB phishing sites (and the world's registries), this
//! module computes the numbers Section 3 reports: the share hosted on
//! `.com` FWBs (89%), the WHOIS median domain age (13.7 years vs 71 days
//! for self-hosted), the `noindex` rate (44.7%), the search-index rate
//! (4.1%), CT-log invisibility (100%), and banner-obfuscation prevalence.

use crate::world::World;
use freephish_htmlparse::parse;
use freephish_simclock::stats::median_u64;
use freephish_urlparse::{Host, Url};
use freephish_webgen::fwb::UrlShape;
use freephish_webgen::GeneratedSite;

/// The Section 3 report.
#[derive(Debug, Clone)]
pub struct Characterization {
    /// Sites analysed.
    pub n: usize,
    /// Fraction on FWBs that give a free `.com` registrable domain.
    pub on_com_tld: f64,
    /// Median WHOIS age, days (resolves to the FWB's domain).
    pub median_domain_age_days: Option<u64>,
    /// Fraction with a robots-noindex meta tag.
    pub noindex_rate: f64,
    /// Fraction present in the search index.
    pub indexed_rate: f64,
    /// Fraction whose host appears in the CT log (FWB sites inherit the
    /// service certificate, so this is 0).
    pub ct_visible_rate: f64,
    /// Fraction that hide the FWB banner (among sites on banner-carrying
    /// services).
    pub banner_obfuscation_rate: f64,
}

/// Per-site facts gathered by one parallel worker, reduced serially below.
/// Keeping the reduction serial (and in input order) makes the report
/// identical at every thread count — `ages` feeds a median, so even its
/// ordering is preserved.
struct SiteFacts {
    on_com: bool,
    age: Option<u64>,
    ct_visible: bool,
    noindex: bool,
    indexed: bool,
    bannered: bool,
    obfuscated: bool,
}

/// Characterize a set of FWB-hosted sites at observation day `now_day`.
/// Per-site work (URL parse, HTML parse, registry probes) fans out across
/// the `freephish-par` pool; the counting reduce stays serial.
pub fn characterize(world: &World, sites: &[GeneratedSite], now_day: u64) -> Characterization {
    let n = sites.len();
    let facts = freephish_par::par_map(sites, |s| {
        let d = s.spec.fwb.descriptor();
        let (age, ct_visible) = match Url::parse(&s.url) {
            Ok(url) => match url.host() {
                Host::Domain(host) => (
                    world.whois.age_days(host, now_day),
                    world.ctlog.covers_host(host),
                ),
                _ => (None, false),
            },
            Err(_) => (None, false),
        };
        let doc = parse(&s.html);
        SiteFacts {
            on_com: d.offers_com_tld,
            age,
            ct_visible,
            noindex: doc.has_noindex_meta(),
            indexed: world.search.contains(&s.url),
            bannered: d.has_banner,
            obfuscated: d.has_banner && doc.has_obfuscated_banner(),
        }
    });

    let mut on_com = 0usize;
    let mut ages = Vec::new();
    let mut noindex = 0usize;
    let mut indexed = 0usize;
    let mut ct_visible = 0usize;
    let mut bannered = 0usize;
    let mut obfuscated = 0usize;
    for f in facts {
        on_com += usize::from(f.on_com);
        if let Some(age) = f.age {
            ages.push(age);
        }
        ct_visible += usize::from(f.ct_visible);
        noindex += usize::from(f.noindex);
        indexed += usize::from(f.indexed);
        bannered += usize::from(f.bannered);
        obfuscated += usize::from(f.obfuscated);
    }

    let frac = |x: usize| if n == 0 { 0.0 } else { x as f64 / n as f64 };
    Characterization {
        n,
        on_com_tld: frac(on_com),
        median_domain_age_days: median_u64(&ages),
        noindex_rate: frac(noindex),
        indexed_rate: frac(indexed),
        ct_visible_rate: frac(ct_visible),
        banner_obfuscation_rate: if bannered == 0 {
            0.0
        } else {
            obfuscated as f64 / bannered as f64
        },
    }
}

/// Median WHOIS age of the self-hosted population at day `now_day` — the
/// paper's 71-day contrast number.
pub fn self_hosted_median_age(world: &World, now_day: u64) -> Option<u64> {
    let ages: Vec<u64> = world
        .self_hosted
        .sites()
        .iter()
        .filter_map(|s| world.whois.age_days(&s.domain, now_day))
        .collect();
    median_u64(&ages)
}

/// Does `url`'s path-based FWB shape hide it from registrable-domain
/// blocklisting? (Path-based services like Google Sites put every attack
/// under one host, so domain-level blocking would break the whole service.)
pub fn is_collateral_protected(url: &str) -> bool {
    freephish_webgen::FwbKind::classify_url(url)
        .map(|k| k.descriptor().url_shape == UrlShape::PathBased)
        .unwrap_or(false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{self, CampaignConfig, RecordClass};
    use crate::world::World;

    fn characterized() -> (Characterization, Option<u64>) {
        let mut world = World::new(11);
        let records = campaign::run(
            &CampaignConfig {
                scale: 0.03,
                days: 60,
                benign_fraction: 0.0,
                seed: 11,
            },
            &mut world,
        );
        // Rebuild the generated sites for the FWB phishing records.
        let sites: Vec<_> = records
            .iter()
            .filter(|r| matches!(r.class, RecordClass::FwbPhish(_)))
            .filter_map(|r| {
                let fwb = match r.class {
                    RecordClass::FwbPhish(f) => f,
                    _ => unreachable!(),
                };
                world
                    .host(fwb)
                    .site_by_url(&r.url)
                    .map(|id| world.host(fwb).site(id).site.clone())
            })
            .collect();
        let c = characterize(&world, &sites, 60);
        let sh = self_hosted_median_age(&world, 60);
        (c, sh)
    }

    #[test]
    fn section3_statistics_reproduced() {
        let (c, sh_age) = characterized();
        assert!(c.n > 700);
        // ~89% on .com FWBs.
        assert!(
            (0.80..0.97).contains(&c.on_com_tld),
            "com rate {}",
            c.on_com_tld
        );
        // Median domain age in years ≈ 13.7 (paper) — ours should be a
        // decade-plus because the hosting FWBs are old.
        let age = c.median_domain_age_days.unwrap();
        assert!(age > 3650, "median age {age} days");
        // noindex ≈ 44.7%.
        assert!(
            (0.38..0.52).contains(&c.noindex_rate),
            "noindex {}",
            c.noindex_rate
        );
        // Indexed ≈ 4.1%.
        assert!(c.indexed_rate < 0.09, "indexed {}", c.indexed_rate);
        // CT invisibility is structural: zero FWB sites visible.
        assert_eq!(c.ct_visible_rate, 0.0);
        // Banner obfuscation ≈ 52% of bannered sites.
        assert!((0.40..0.64).contains(&c.banner_obfuscation_rate));
        // Self-hosted median age is days-young.
        let sh = sh_age.unwrap();
        assert!(sh < 120, "self-hosted median age {sh}");
        assert!(age > sh * 30);
    }

    #[test]
    fn characterization_bit_identical_across_thread_counts() {
        let (c1, _) = freephish_par::with_thread_override(1, characterized);
        let (c8, _) = freephish_par::with_thread_override(8, characterized);
        assert_eq!(c1.n, c8.n);
        assert_eq!(c1.on_com_tld.to_bits(), c8.on_com_tld.to_bits());
        assert_eq!(c1.median_domain_age_days, c8.median_domain_age_days);
        assert_eq!(c1.noindex_rate.to_bits(), c8.noindex_rate.to_bits());
        assert_eq!(c1.indexed_rate.to_bits(), c8.indexed_rate.to_bits());
        assert_eq!(c1.ct_visible_rate.to_bits(), c8.ct_visible_rate.to_bits());
        assert_eq!(
            c1.banner_obfuscation_rate.to_bits(),
            c8.banner_obfuscation_rate.to_bits()
        );
    }

    #[test]
    fn collateral_protection_for_path_based() {
        assert!(is_collateral_protected(
            "https://sites.google.com/view/fake-login"
        ));
        assert!(!is_collateral_protected("https://evil.weebly.com/"));
        assert!(!is_collateral_protected("https://nonfwb.example.com/"));
    }

    #[test]
    fn empty_population() {
        let world = World::new(12);
        let c = characterize(&world, &[], 10);
        assert_eq!(c.n, 0);
        assert_eq!(c.on_com_tld, 0.0);
        assert!(c.median_domain_age_days.is_none());
    }
}
