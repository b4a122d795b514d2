//! The PhishIntention-style baseline: layout + credential intention +
//! dynamic analysis.
//!
//! PhishIntention (Liu et al. 2022) combines brand recognition, credential-
//! taking intention detection, and *dynamic* analysis of the page's
//! interaction flow. That last part is what lets it catch evasive attacks
//! the static models miss (the paper notes it is the only baseline that
//! recognises two-step link-outs), and also what makes it an order of
//! magnitude slower per URL (Table 2: 11.3 s median vs 1.9–2.8 s for the
//! rest).
//!
//! The reproduction follows the same architecture: a static pass (brand
//! evidence + credential intention + banner/noindex forensics), then a
//! dynamic pass that fetches and analyses every link and iframe target up
//! to a budget, looking for credential harvesting one hop away.

use super::{PhishDetector, SnapshotFetcher};
use freephish_htmlparse::{parse, Document};
use freephish_urlparse::lexical::{best_brand_match, BrandMatch};
use freephish_urlparse::Url;
use freephish_webgen::brands::{brand_tokens, BRANDS};

/// How many outbound targets the dynamic pass will fetch per page.
const DYNAMIC_FETCH_BUDGET: usize = 8;

/// The PhishIntention-style detector. Rule-based with calibrated evidence
/// weights; no training phase (the original ships pretrained vision
/// models — here the "pretraining" is the brand catalog).
pub struct IntentionStyle;

/// Brand evidence, the way a logo/headline recogniser sees it: page title,
/// image alt text and headings — *not* body prose, where benign sites
/// routinely mention brands ("follow us on Facebook").
fn page_brand_evidence(doc: &Document) -> Option<&'static str> {
    let mut hay = doc.title().unwrap_or_default();
    for e in doc.elements_by_tag("img") {
        if let Some(alt) = e.attr("alt") {
            hay.push(' ');
            hay.push_str(alt);
        }
    }
    for tag in ["h1", "h2"] {
        for e in doc.elements_by_tag(tag) {
            hay.push(' ');
            hay.push_str(&doc.text_of(e.id));
        }
    }
    crate::features::text_mentions_brand(&hay).map(|b| b.token)
}

/// Does `url`'s registrable domain belong to the brand itself?
fn domain_is_brand(url: &Url, brand_token: &str) -> bool {
    url.host()
        .registrable_domain()
        .map(|d| d.contains(brand_token))
        .unwrap_or(false)
}

/// Absolute outbound targets (links + iframes) of a page.
fn outbound_targets(doc: &Document) -> Vec<String> {
    let mut out: Vec<String> = doc
        .links()
        .iter()
        .filter(|h| h.starts_with("http://") || h.starts_with("https://"))
        .map(|h| h.to_string())
        .collect();
    for f in doc.iframes() {
        if let Some(src) = f.attr("src") {
            if src.starts_with("http") {
                out.push(src.to_string());
            }
        }
    }
    out
}

impl IntentionStyle {
    /// Create the detector.
    pub fn new() -> IntentionStyle {
        IntentionStyle
    }

    /// Static evidence score in [0, 1].
    fn static_score(&self, url: &Url, doc: &Document) -> f64 {
        let mut score: f64 = 0.0;

        let brand = page_brand_evidence(doc);
        let url_brand = best_brand_match(url, &brand_tokens());

        // Credential intention on a brand page not hosted by the brand: the
        // canonical phishing signature.
        let has_credentials = !doc.credential_inputs().is_empty() || doc.has_login_form();
        if let Some(b) = brand {
            if !domain_is_brand(url, b) {
                score += if has_credentials { 0.75 } else { 0.25 };
            }
        } else if has_credentials {
            // Credential fields with no recognisable brand: mildly odd.
            score += 0.2;
        }

        // URL impersonation (exact/misspelled brand token in a non-brand
        // domain).
        if let Some((i, m)) = url_brand {
            if !domain_is_brand(url, BRANDS[i].token) {
                score += match m {
                    BrandMatch::Exact | BrandMatch::Misspelled => 0.2,
                    BrandMatch::Embedded => 0.1,
                    BrandMatch::None => 0.0,
                };
            }
        }

        // Forensic tells: hidden banner, noindex, meta refresh, download
        // bait.
        if doc.has_obfuscated_banner() {
            score += 0.15;
        }
        if doc.has_noindex_meta() {
            score += 0.1;
        }
        let has_refresh = doc.elements_by_tag("meta").iter().any(|m| {
            m.attr("http-equiv")
                .map(|h| h.eq_ignore_ascii_case("refresh"))
                .unwrap_or(false)
        });
        let has_download = doc
            .elements()
            .iter()
            .any(|e| e.tag == "a" && e.attr("download").is_some());
        if has_refresh && has_download {
            score += 0.5; // drive-by pattern
        }
        score.min(1.0)
    }

    /// Dynamic pass: fetch outbound targets; credential harvesting one hop
    /// away (or an unreachable lone call-to-action) is evasive-phishing
    /// evidence.
    fn dynamic_score(&self, url: &Url, doc: &Document, fetcher: &dyn SnapshotFetcher) -> f64 {
        let targets = outbound_targets(doc);
        let own = url.host().registrable_domain().unwrap_or_default();
        let mut score: f64 = 0.0;
        let mut external_unreachable = 0usize;
        let mut external_total = 0usize;

        for t in targets.iter().take(DYNAMIC_FETCH_BUDGET) {
            let Ok(target_url) = Url::parse(t) else {
                continue;
            };
            let external = target_url
                .host()
                .registrable_domain()
                .map(|d| d != own)
                .unwrap_or(true);
            if !external {
                continue;
            }
            external_total += 1;
            match fetcher.fetch(t) {
                Some(html) => {
                    let linked = parse(&html);
                    if linked.has_login_form() || !linked.credential_inputs().is_empty() {
                        // Two-step / iframe harvesting confirmed.
                        score += 0.8;
                    }
                }
                None => external_unreachable += 1,
            }
        }

        // A page whose dominant interactive content is an external
        // call-to-action to an untrusted domain that cannot be resolved is
        // the two-step shape even when the target is down.
        let cta = crate::evasion::external_cta_candidates(url, doc);
        let interactive = doc.links().len() + doc.inputs().len();
        if !cta.is_empty()
            && external_unreachable == external_total
            && external_total > 0
            && interactive <= 8
            && (page_brand_evidence(doc).is_some() || crate::evasion::has_lure_language(doc))
        {
            score += 0.45;
        }
        score.min(1.0)
    }
}

impl Default for IntentionStyle {
    fn default() -> Self {
        Self::new()
    }
}

impl PhishDetector for IntentionStyle {
    fn name(&self) -> &'static str {
        "PhishIntention"
    }

    fn score(&self, url: &str, html: &str, fetcher: &dyn SnapshotFetcher) -> f64 {
        let Ok(parsed) = Url::parse(url) else {
            return 0.5;
        };
        let doc = parse(html);
        let s = self.static_score(&parsed, &doc);
        let d = self.dynamic_score(&parsed, &doc, fetcher);
        // Independent evidence combination.
        1.0 - (1.0 - s) * (1.0 - d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::NoFetch;
    use crate::resolver::MapFetcher;
    use freephish_webgen::{FwbKind, PageKind, PageSpec};

    fn gen(kind: PageKind) -> freephish_webgen::GeneratedSite {
        PageSpec {
            fwb: FwbKind::GoogleSites,
            kind,
            site_name: "intent-test".into(),
            noindex: false,
            obfuscate_banner: false,
            seed: 11,
        }
        .generate()
    }

    #[test]
    fn credential_phish_scores_high() {
        let site = gen(PageKind::CredentialPhish { brand: 4 });
        let m = IntentionStyle::new();
        let s = m.score(&site.url, &site.html, &NoFetch);
        assert!(s > 0.7, "score={s}");
    }

    #[test]
    fn benign_page_scores_low() {
        let site = gen(PageKind::Benign { topic: 2 });
        let m = IntentionStyle::new();
        let s = m.score(&site.url, &site.html, &NoFetch);
        assert!(s < 0.5, "score={s}");
    }

    #[test]
    fn twostep_caught_via_dynamic_fetch() {
        let target = "https://evil-harvest.top/login".to_string();
        let site = gen(PageKind::TwoStep {
            brand: 1,
            target_url: target.clone(),
        });
        // The linked page harvests credentials.
        let web = MapFetcher::new();
        web.insert(
            target,
            r#"<html><body><form><input type="password"></form></body></html>"#,
        );
        let m = IntentionStyle::new();
        let s = m.score(&site.url, &site.html, &web);
        assert!(s > 0.7, "score={s}");
    }

    #[test]
    fn twostep_still_suspicious_when_target_down() {
        let site = gen(PageKind::TwoStep {
            brand: 1,
            target_url: "https://gone.top/login".into(),
        });
        let m = IntentionStyle::new();
        let s = m.score(&site.url, &site.html, &NoFetch);
        assert!(s > 0.5, "score={s}");
    }

    #[test]
    fn driveby_pattern_detected() {
        let site = gen(PageKind::DriveBy {
            brand: 1,
            payload_url: "https://cdn.click/x.iso".into(),
        });
        let m = IntentionStyle::new();
        let s = m.score(&site.url, &site.html, &NoFetch);
        assert!(s > 0.5, "score={s}");
    }

    #[test]
    fn brand_on_own_domain_is_fine() {
        // A PayPal-looking login on paypal.com itself must not fire.
        let html = r#"<html><head><title>PayPal — Sign In</title></head>
            <body><h1>Sign in to PayPal</h1>
            <form><input type="email"><input type="password"></form></body></html>"#;
        let m = IntentionStyle::new();
        let s = m.score("https://www.paypal.com/signin", html, &NoFetch);
        assert!(s < 0.5, "score={s}");
    }

    #[test]
    fn unparseable_url_neutral() {
        let m = IntentionStyle::new();
        assert_eq!(m.score(":::", "<p>x</p>", &NoFetch), 0.5);
    }
}
