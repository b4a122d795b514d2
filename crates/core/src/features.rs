//! The pre-processing module: feature extraction.
//!
//! Section 4.2 of the paper: the classifier builds on the StackModel
//! feature set (Li et al. 2019) — 8 URL features and 12 HTML features —
//! with two adjustments for FWB attacks: the `https` and multi-TLD features
//! are dropped (useless: *every* FWB site is https with a single TLD) and
//! two FWB-specific features are added — **obfuscated FWB banner** and
//! **noindex meta tag**.
//!
//! [`FeatureSet::Base`] is the original 20-feature StackModel layout used
//! by the Table 2 baseline; [`FeatureSet::Augmented`] is FreePhish's.

use freephish_htmlparse::{Document, PageFacts};
use freephish_urlparse::lexical::{
    best_brand_match_in, digit_ratio, host_dot_count, host_hyphen_count, prepare_brands,
    sensitive_word_count, suspicious_symbol_count, BrandCatalog, BrandMatch,
};
use freephish_urlparse::{legacy, swar, Url};
use freephish_webgen::brands::{brand_tokens, BRANDS};
use std::collections::HashMap;
use std::sync::OnceLock;

/// Which feature layout to extract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FeatureSet {
    /// The original StackModel's 20 features (includes `https` presence and
    /// multi-TLD count; no FWB features).
    Base,
    /// FreePhish's 20 features: base minus {https, multi-TLD} plus
    /// {obfuscated banner, noindex}.
    Augmented,
}

/// An extracted feature vector plus its layout.
#[derive(Debug, Clone)]
pub struct FeatureVector {
    /// The layout this vector follows.
    pub set: FeatureSet,
    /// Values, ordered as [`feature_names`](FeatureVector::feature_names).
    pub values: Vec<f64>,
}

/// The full brand catalog, compiled once per process (lower-casing and
/// byte-bag fingerprints hoisted out of the per-URL hot path).
fn brand_catalog() -> &'static BrandCatalog {
    static CATALOG: OnceLock<BrandCatalog> = OnceLock::new();
    CATALOG.get_or_init(|| prepare_brands(&brand_tokens()))
}

/// Map a brand-match verdict to its ordinal feature value.
fn brand_score(brand: Option<(usize, BrandMatch)>) -> f64 {
    match brand {
        Some((_, BrandMatch::Exact)) => 3.0,
        Some((_, BrandMatch::Misspelled)) => 2.0,
        Some((_, BrandMatch::Embedded)) => 1.0,
        _ => 0.0,
    }
}

/// The eight URL-based features shared by both layouts (public so the
/// benchmark can time the URL-lexical stage in isolation).
pub fn url_features(url: &Url) -> Vec<f64> {
    let s = url.as_string();
    let brand = best_brand_match_in(url, brand_catalog());
    vec![
        s.len() as f64,
        suspicious_symbol_count(&s) as f64,
        sensitive_word_count(&s) as f64,
        brand_score(brand),
        digit_ratio(&s),
        host_dot_count(url) as f64,
        host_hyphen_count(url) as f64,
        f64::from(url.host().is_ip()),
    ]
}

/// The seed's URL feature stage, retained verbatim for equivalence
/// testing: scalar char scans and per-brand re-tokenisation
/// with the Wagner–Fischer reference kernel. Produces the same vector as
/// [`url_features`] bit for bit (the urlparse equivalence tests pin each
/// pair of implementations together).
pub fn url_features_legacy(url: &Url) -> Vec<f64> {
    let s = url.as_string();
    let brand = legacy::best_brand_match(url, &brand_tokens());
    vec![
        s.len() as f64,
        legacy::suspicious_symbol_count(&s) as f64,
        legacy::sensitive_word_count(&s) as f64,
        brand_score(brand),
        legacy::digit_ratio(&s),
        legacy::host_dot_count(url) as f64,
        legacy::host_hyphen_count(url) as f64,
        f64::from(url.host().is_ip()),
    ]
}

/// Brand lookups compiled for free-text scanning: a token → lowest-brand-
/// index map for whole-word hits, plus the (index, lowered name, byte bag)
/// list for long-name substring hits.
struct TextBrandIndex {
    token_index: HashMap<&'static str, usize>,
    long_names: Vec<(usize, String, u64)>,
}

fn text_brand_index() -> &'static TextBrandIndex {
    static INDEX: OnceLock<TextBrandIndex> = OnceLock::new();
    INDEX.get_or_init(|| {
        let mut token_index = HashMap::new();
        let mut long_names = Vec::new();
        for (i, b) in BRANDS.iter().enumerate() {
            token_index.entry(b.token).or_insert(i);
            if b.name.len() >= 5 {
                let lower = b.name.to_ascii_lowercase();
                let bag = swar::byte_bag(&lower);
                long_names.push((i, lower, bag));
            }
        }
        TextBrandIndex {
            token_index,
            long_names,
        }
    })
}

/// Does free text mention a catalog brand? Short brand tokens only match
/// as whole words (otherwise "ing" matches "planting"); names of five or
/// more characters may match as substrings ("bank of america" inside a
/// sentence). Returns the first matching brand in catalog order.
pub fn text_mentions_brand(text: &str) -> Option<&'static freephish_webgen::Brand> {
    let index = text_brand_index();
    let lower = text.to_ascii_lowercase();
    // First catalog brand matching = lowest matching index across both the
    // whole-word and substring criteria.
    let mut best: Option<usize> = None;
    for w in lower.split(|c: char| !c.is_ascii_alphanumeric()) {
        if let Some(&i) = index.token_index.get(w) {
            best = Some(best.map_or(i, |b| b.min(i)));
        }
    }
    let bag = swar::byte_bag(&lower);
    for (i, name, nbag) in &index.long_names {
        // `long_names` is in catalog order, so no later entry can win.
        if best.is_some_and(|b| b <= *i) {
            break;
        }
        // A clear bag bit proves a byte of the name is absent from the
        // text, so the substring scan can be skipped outright.
        if nbag & !bag == 0 && lower.contains(name.as_str()) {
            best = Some(*i);
        }
    }
    best.map(|i| &BRANDS[i])
}

/// The registrable domain link partitioning counts as "internal".
fn own_domain(url: &Url) -> String {
    url.host()
        .registrable_domain()
        .unwrap_or_else(|| url.host().to_string())
}

/// Multi-TLD count: how many known TLD tokens appear inside the host labels
/// (self-hosted attacks stack them: `paypal.com.verify-account.xyz`).
fn multi_tld_count(url: &Url) -> usize {
    const TLD_TOKENS: &[&str] = &["com", "net", "org", "info", "biz"];
    url.host()
        .labels()
        .iter()
        .rev()
        .skip(1) // the real TLD does not count
        .filter(|l| TLD_TOKENS.contains(&l.to_ascii_lowercase().as_str()))
        .count()
}

impl FeatureVector {
    /// Hot-path extraction for a snapshot (URL + raw HTML): all twelve HTML
    /// signals come from one [`PageFacts`] streaming pass over borrowed
    /// span tokens — no DOM is built, no per-query arena scans run. The
    /// URL half is shared with [`FeatureVector::extract`], and `PageFacts`
    /// is property-tested equal to the DOM queries, so the resulting vector
    /// is bit-identical to the DOM path.
    pub fn extract_fast(set: FeatureSet, url: &Url, html: &str) -> FeatureVector {
        let facts = PageFacts::extract(html, &own_domain(url));
        Self::from_facts(set, url, &facts)
    }

    /// Assemble a vector from pre-extracted page facts.
    pub fn from_facts(set: FeatureSet, url: &Url, facts: &PageFacts) -> FeatureVector {
        Self::assemble(set, url, url_features(url), facts)
    }

    /// Extract features for a snapshot (URL + parsed page): the DOM query
    /// twin of [`FeatureVector::extract_fast`].
    pub fn extract(set: FeatureSet, url: &Url, doc: &Document) -> FeatureVector {
        let facts = PageFacts::from_document(doc, &own_domain(url));
        Self::from_facts(set, url, &facts)
    }

    /// The retained seed extraction path: [`url_features_legacy`] (scalar
    /// scans, per-brand re-tokenisation, Wagner–Fischer) plus the per-query
    /// DOM walks. Bit-identical to [`FeatureVector::extract`]; the oracle
    /// the equivalence tests run the pre-rewrite pipeline through.
    pub fn extract_legacy(set: FeatureSet, url: &Url, doc: &Document) -> FeatureVector {
        let facts = PageFacts::from_document(doc, &own_domain(url));
        Self::assemble(set, url, url_features_legacy(url), &facts)
    }

    /// The one place the 20-column layout is written: the eight URL
    /// columns (from either URL stage), ten shared HTML columns, then the
    /// two the layouts disagree on.
    fn assemble(
        set: FeatureSet,
        url: &Url,
        mut values: Vec<f64>,
        facts: &PageFacts,
    ) -> FeatureVector {
        let title_brand = facts
            .title
            .as_deref()
            .map(|t| text_mentions_brand(t).is_some())
            .unwrap_or(false);
        values.extend([
            facts.n_links as f64,
            facts.n_internal_links as f64,
            facts.n_external_links as f64,
            facts.n_empty_links as f64,
            f64::from(facts.has_login_form),
            facts.n_credential_inputs as f64,
            // HTML length proxied by node count (stable across formatting).
            facts.dom_nodes as f64,
            facts.n_forms as f64,
            facts.n_iframes as f64,
            f64::from(title_brand),
        ]);
        match set {
            FeatureSet::Base => {
                values.push(f64::from(url.is_https()));
                values.push(multi_tld_count(url) as f64);
            }
            FeatureSet::Augmented => {
                values.push(f64::from(facts.banner_obfuscated));
                values.push(f64::from(facts.has_noindex));
            }
        }
        FeatureVector { set, values }
    }

    /// Column names, aligned with [`FeatureVector::values`].
    pub fn feature_names(set: FeatureSet) -> Vec<String> {
        let mut names: Vec<String> = [
            // URL features
            "url_len",
            "suspicious_symbols",
            "sensitive_words",
            "brand_match",
            "digit_ratio",
            "host_dots",
            "host_hyphens",
            "ip_host",
            // HTML features
            "n_links",
            "n_internal_links",
            "n_external_links",
            "n_empty_links",
            "has_login_form",
            "n_credential_inputs",
            "dom_nodes",
            "n_forms",
            "n_iframes",
            "title_brand",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        match set {
            FeatureSet::Base => {
                names.push("has_https".into());
                names.push("multi_tld".into());
            }
            FeatureSet::Augmented => {
                names.push("banner_obfuscated".into());
                names.push("has_noindex".into());
            }
        }
        names
    }

    /// Number of features in a layout (20 for both, by construction).
    pub fn width(set: FeatureSet) -> usize {
        Self::feature_names(set).len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use freephish_htmlparse::parse;
    use freephish_webgen::{FwbKind, PageKind, PageSpec};

    fn snapshot(kind: PageKind, noindex: bool, obf: bool) -> (Url, Document) {
        let site = PageSpec {
            fwb: FwbKind::Weebly,
            kind,
            site_name: "feat-test".into(),
            noindex,
            obfuscate_banner: obf,
            seed: 5,
        }
        .generate();
        (Url::parse(&site.url).unwrap(), parse(&site.html))
    }

    #[test]
    fn text_brand_scan_matches_naive_reference() {
        // The original find-first walk, kept as the oracle for the indexed
        // scan (token map + byte-bag-gated substring pass).
        fn naive(text: &str) -> Option<&'static freephish_webgen::Brand> {
            let lower = text.to_ascii_lowercase();
            let words: std::collections::HashSet<&str> = lower
                .split(|c: char| !c.is_ascii_alphanumeric())
                .filter(|w| !w.is_empty())
                .collect();
            BRANDS.iter().find(|b| {
                words.contains(b.token)
                    || (b.name.len() >= 5 && lower.contains(&b.name.to_ascii_lowercase()))
            })
        }
        let mut samples: Vec<String> = vec![
            "".into(),
            "Sign in to PayPal".into(),
            "paypal".into(),
            "planting tips for spring".into(),
            "Bank of America — verify your account".into(),
            "netflix and microsoft and att".into(),
            "NETFLIX!".into(),
            "unrelated gardening blog".into(),
            "chase CHASE Chase".into(),
        ];
        // Every brand's own name and token must round-trip.
        for b in BRANDS.iter() {
            samples.push(format!("Welcome to {}", b.name));
            samples.push(format!("{} support desk", b.token));
        }
        for s in &samples {
            let got = text_mentions_brand(s).map(|b| b.token);
            let want = naive(s).map(|b| b.token);
            assert_eq!(got, want, "text={s:?}");
        }
    }

    #[test]
    fn legacy_extract_is_bit_identical_to_extract() {
        for kind in [
            PageKind::CredentialPhish { brand: 4 },
            PageKind::Benign { topic: 2 },
        ] {
            let (url, doc) = snapshot(kind, true, true);
            for set in [FeatureSet::Base, FeatureSet::Augmented] {
                let fast = FeatureVector::extract(set, &url, &doc);
                let legacy = FeatureVector::extract_legacy(set, &url, &doc);
                let fast_bits: Vec<u64> = fast.values.iter().map(|v| v.to_bits()).collect();
                let legacy_bits: Vec<u64> = legacy.values.iter().map(|v| v.to_bits()).collect();
                assert_eq!(fast_bits, legacy_bits, "set={set:?}");
            }
        }
    }

    #[test]
    fn widths_are_20() {
        assert_eq!(FeatureVector::width(FeatureSet::Base), 20);
        assert_eq!(FeatureVector::width(FeatureSet::Augmented), 20);
    }

    #[test]
    fn vector_matches_names_width() {
        let (url, doc) = snapshot(PageKind::CredentialPhish { brand: 4 }, false, false);
        for set in [FeatureSet::Base, FeatureSet::Augmented] {
            let v = FeatureVector::extract(set, &url, &doc);
            assert_eq!(v.values.len(), FeatureVector::width(set));
        }
    }

    #[test]
    fn phish_page_fires_login_features() {
        let (url, doc) = snapshot(PageKind::CredentialPhish { brand: 4 }, false, false);
        let v = FeatureVector::extract(FeatureSet::Augmented, &url, &doc);
        let names = FeatureVector::feature_names(FeatureSet::Augmented);
        let get = |n: &str| v.values[names.iter().position(|x| x == n).unwrap()];
        assert_eq!(get("has_login_form"), 1.0);
        assert!(get("n_credential_inputs") >= 2.0);
        assert_eq!(get("title_brand"), 1.0);
    }

    #[test]
    fn benign_page_does_not_fire_login_features() {
        let (url, doc) = snapshot(PageKind::Benign { topic: 0 }, false, false);
        let v = FeatureVector::extract(FeatureSet::Augmented, &url, &doc);
        let names = FeatureVector::feature_names(FeatureSet::Augmented);
        let get = |n: &str| v.values[names.iter().position(|x| x == n).unwrap()];
        assert_eq!(get("has_login_form"), 0.0);
        assert_eq!(get("title_brand"), 0.0);
    }

    #[test]
    fn fwb_features_fire() {
        let (url, doc) = snapshot(PageKind::CredentialPhish { brand: 0 }, true, true);
        let v = FeatureVector::extract(FeatureSet::Augmented, &url, &doc);
        let names = FeatureVector::feature_names(FeatureSet::Augmented);
        let get = |n: &str| v.values[names.iter().position(|x| x == n).unwrap()];
        assert_eq!(get("banner_obfuscated"), 1.0);
        assert_eq!(get("has_noindex"), 1.0);
    }

    #[test]
    fn base_set_has_https_feature() {
        let (url, doc) = snapshot(PageKind::Benign { topic: 1 }, false, false);
        let v = FeatureVector::extract(FeatureSet::Base, &url, &doc);
        let names = FeatureVector::feature_names(FeatureSet::Base);
        let get = |n: &str| v.values[names.iter().position(|x| x == n).unwrap()];
        assert_eq!(get("has_https"), 1.0); // FWB sites are always https
        assert_eq!(get("multi_tld"), 0.0);
    }

    #[test]
    fn multi_tld_detects_stacked_tlds() {
        let url = Url::parse("https://paypal.com.verify-login.xyz/x").unwrap();
        assert_eq!(multi_tld_count(&url), 1);
        let clean = Url::parse("https://a.weebly.com/").unwrap();
        assert_eq!(multi_tld_count(&clean), 0);
    }

    #[test]
    fn brand_feature_from_url() {
        let url = Url::parse("https://paypal-login.weebly.com/").unwrap();
        let doc = parse("<html><body></body></html>");
        let v = FeatureVector::extract(FeatureSet::Augmented, &url, &doc);
        let names = FeatureVector::feature_names(FeatureSet::Augmented);
        let get = |n: &str| v.values[names.iter().position(|x| x == n).unwrap()];
        assert_eq!(get("brand_match"), 3.0); // exact token
    }

    #[test]
    fn extract_fast_is_bit_identical_to_dom_extract() {
        for kind in [
            PageKind::CredentialPhish { brand: 0 },
            PageKind::CredentialPhish { brand: 4 },
            PageKind::Benign { topic: 0 },
            PageKind::Benign { topic: 2 },
        ] {
            for (noindex, obf) in [(false, false), (true, true), (true, false)] {
                let (url, site_html) = {
                    let site = PageSpec {
                        fwb: FwbKind::Weebly,
                        kind: kind.clone(),
                        site_name: "fast-eq".into(),
                        noindex,
                        obfuscate_banner: obf,
                        seed: 11,
                    }
                    .generate();
                    (Url::parse(&site.url).unwrap(), site.html)
                };
                let doc = parse(&site_html);
                for set in [FeatureSet::Base, FeatureSet::Augmented] {
                    let slow = FeatureVector::extract(set, &url, &doc);
                    let fast = FeatureVector::extract_fast(set, &url, &site_html);
                    let slow_bits: Vec<u64> = slow.values.iter().map(|v| v.to_bits()).collect();
                    let fast_bits: Vec<u64> = fast.values.iter().map(|v| v.to_bits()).collect();
                    assert_eq!(slow_bits, fast_bits, "kind={kind:?} set={set:?}");
                }
            }
        }
    }

    #[test]
    fn obfuscated_banner_detector() {
        let hidden = parse(r#"<div class="wsite-banner" style="visibility:hidden">x</div>"#);
        assert!(hidden.has_obfuscated_banner());
        let visible = parse(r#"<div class="wsite-banner">x</div>"#);
        assert!(!visible.has_obfuscated_banner());
        let unrelated = parse(r#"<div class="content" style="display:none">x</div>"#);
        assert!(!unrelated.has_obfuscated_banner());
    }
}
