//! Cross-crate checks: generated pages must parse with freephish-htmlparse
//! and expose the signals the feature extractor relies on; generated URLs
//! must parse with freephish-urlparse.

use freephish_htmlparse::parse;
use freephish_simclock::prop::check;
use freephish_simclock::Rng64;
use freephish_urlparse::Url;
use freephish_webgen::page::{benign_site_name, phishy_site_name};
use freephish_webgen::{FwbKind, GeneratedSite, PageKind, PageSpec, BRANDS};

fn gen(fwb: FwbKind, kind: PageKind, seed: u64) -> GeneratedSite {
    PageSpec {
        fwb,
        kind,
        site_name: "integration-site".into(),
        noindex: false,
        obfuscate_banner: false,
        seed,
    }
    .generate()
}

#[test]
fn generated_urls_parse_for_every_fwb() {
    let mut rng = Rng64::new(1);
    for fwb in FwbKind::all() {
        let name = phishy_site_name(&BRANDS[0], &mut rng);
        let url = fwb.site_url(&name);
        let parsed = Url::parse(&url).unwrap_or_else(|e| panic!("{url}: {e}"));
        assert!(parsed.is_https());
        assert_eq!(FwbKind::classify_url(&url), Some(fwb));
    }
}

#[test]
fn credential_pages_expose_login_signal_on_every_fwb() {
    for (i, fwb) in FwbKind::all().enumerate() {
        let site = gen(
            fwb,
            PageKind::CredentialPhish {
                brand: i % BRANDS.len(),
            },
            i as u64,
        );
        let doc = parse(&site.html);
        assert!(doc.has_login_form(), "{fwb}: no login form detected");
        assert!(!doc.credential_inputs().is_empty());
        assert!(doc.title().is_some());
    }
}

#[test]
fn non_portal_benign_pages_have_no_password() {
    for (i, fwb) in FwbKind::all().enumerate() {
        let topic = i % freephish_webgen::page::FIRST_PORTAL_TOPIC;
        let site = gen(fwb, PageKind::Benign { topic }, i as u64);
        let doc = parse(&site.html);
        assert!(
            !doc.has_login_form(),
            "{fwb}: benign page has password field"
        );
    }
}

#[test]
fn portal_benign_pages_have_legit_login() {
    // Member-portal topics carry a real login form — the hard benign class.
    let site = gen(
        FwbKind::Weebly,
        PageKind::Benign {
            topic: freephish_webgen::page::FIRST_PORTAL_TOPIC,
        },
        9,
    );
    let doc = parse(&site.html);
    assert!(doc.has_login_form());
}

#[test]
fn banner_obfuscation_detectable_by_parser() {
    let mut spec = PageSpec {
        fwb: FwbKind::Weebly,
        kind: PageKind::CredentialPhish { brand: 0 },
        site_name: "x".into(),
        noindex: true,
        obfuscate_banner: true,
        seed: 3,
    };
    let doc = parse(&spec.generate().html);
    assert!(doc.has_noindex_meta());
    let hidden_banner = doc.elements().iter().any(|e| {
        e.attr("class")
            .map(|c| c.contains("banner"))
            .unwrap_or(false)
            && e.is_hidden_by_style()
    });
    assert!(hidden_banner, "obfuscated banner not detectable");

    spec.obfuscate_banner = false;
    spec.noindex = false;
    let doc2 = parse(&spec.generate().html);
    assert!(!doc2.has_noindex_meta());
    let visible_banner = doc2.elements().iter().any(|e| {
        e.attr("class")
            .map(|c| c.contains("banner"))
            .unwrap_or(false)
            && !e.is_hidden_by_style()
    });
    assert!(visible_banner);
}

#[test]
fn iframe_page_parses_with_external_iframe() {
    let site = gen(
        FwbKind::GoogleSites,
        PageKind::IframeEmbed {
            brand: 3,
            iframe_url: "https://attacker.example.org/frame".into(),
        },
        9,
    );
    let doc = parse(&site.html);
    let iframes = doc.iframes();
    assert_eq!(iframes.len(), 1);
    assert_eq!(
        iframes[0].attr("src"),
        Some("https://attacker.example.org/frame")
    );
}

#[test]
fn twostep_page_external_link_detectable() {
    let site = gen(
        FwbKind::GoogleSites,
        PageKind::TwoStep {
            brand: 1,
            target_url: "https://attacker.example.org/login".into(),
        },
        11,
    );
    let doc = parse(&site.html);
    assert!(doc.links().contains(&"https://attacker.example.org/login"));
    assert!(doc.credential_inputs().is_empty());
}

/// Any spec generates HTML that the parser accepts and that contains a
/// parseable URL, for all page kinds and services.
#[test]
fn any_spec_generates_parseable_site() {
    check(256, |g| {
        let fwb = FwbKind::all().nth(g.usize_in(0..17)).unwrap();
        let (brand, topic) = (g.usize_in(0..109), g.usize_in(0..12));
        let kind = match g.usize_in(0..5) {
            0 => PageKind::Benign { topic },
            1 => PageKind::CredentialPhish { brand },
            2 => PageKind::TwoStep {
                brand,
                target_url: "https://e.example.net/x".into(),
            },
            3 => PageKind::IframeEmbed {
                brand,
                iframe_url: "https://e.example.net/f".into(),
            },
            _ => PageKind::DriveBy {
                brand,
                payload_url: "https://e.example.net/p.iso".into(),
            },
        };
        let (seed, noindex, obfuscate_banner) = (g.u64(), g.bool(), g.bool());
        let mut rng = Rng64::new(seed);
        let site_name = match &kind {
            PageKind::Benign { topic } => benign_site_name(*topic, &mut rng),
            other => phishy_site_name(other.brand().unwrap(), &mut rng),
        };
        let site = PageSpec {
            fwb,
            kind,
            site_name,
            noindex,
            obfuscate_banner,
            seed,
        }
        .generate();
        assert!(Url::parse(&site.url).is_ok(), "bad url {}", site.url);
        let doc = parse(&site.html);
        assert!(!doc.is_empty());
        assert!(doc.title().is_some());
        // noindex flows through for every page kind.
        assert_eq!(doc.has_noindex_meta(), noindex);
    });
}
