//! Property tests over the framework layer: the wire protocol, feature
//! extraction, and the evasion heuristics must be total; campaign
//! generation must be deterministic and well-formed.

use bytes::BytesMut;
use freephish_core::evasion::classify_evasion;
use freephish_core::extension::{decode_request, decode_verdict, encode_verdict, Verdict};
use freephish_core::features::{url_features, url_features_legacy, FeatureSet, FeatureVector};
use freephish_htmlparse::parse;
use freephish_simclock::prop::{check, Gen};
use freephish_urlparse::Url;
use freephish_webgen::BRANDS;

/// The request decoder never panics on arbitrary bytes and always
/// consumes through the newline when it returns anything.
#[test]
fn request_decoder_total() {
    check(256, |g| {
        let data = g.vec(0..200, |g| g.u8());
        let mut buf = BytesMut::from(&data[..]);
        let before = buf.len();
        match decode_request(&mut buf) {
            Ok(None) => assert_eq!(buf.len(), before),
            Ok(Some(_)) | Err(_) => assert!(buf.len() < before || before == 0),
        }
    });
}

/// Verdict encode/decode round-trips for all scores.
#[test]
fn verdict_round_trip() {
    check(256, |g| {
        let score = g.f64_in(0.0..1.0);
        let v = if g.bool() {
            Verdict::Phishing(score)
        } else {
            Verdict::Safe(score)
        };
        let decoded = decode_verdict(&encode_verdict(&v)).unwrap();
        match (v, decoded) {
            (Verdict::Phishing(a), Verdict::Phishing(b)) | (Verdict::Safe(a), Verdict::Safe(b)) => {
                assert!((a - b).abs() < 1e-3)
            }
            _ => panic!("verdict kind flipped"),
        }
    });
}

/// The verdict decoder never panics on arbitrary lines.
#[test]
fn verdict_decoder_total() {
    check(256, |g| {
        let _ = decode_verdict(&g.text(0..101));
    });
}

/// Feature extraction is total on arbitrary HTML and produces finite
/// values of the declared width.
#[test]
fn feature_extraction_total() {
    check(256, |g| {
        let url = Url::parse("https://fuzz.weebly.com/x").unwrap();
        let doc = parse(&g.text(0..401));
        for set in [FeatureSet::Base, FeatureSet::Augmented] {
            let v = FeatureVector::extract(set, &url, &doc);
            assert_eq!(v.values.len(), FeatureVector::width(set));
            assert!(v.values.iter().all(|x| x.is_finite()));
        }
    });
}

/// `s` after `edits` random substitutions, insertions or deletions over
/// `[a-z0-9]`, never left empty.
fn edited(g: &mut Gen, s: &str, edits: usize) -> String {
    let mut out: Vec<char> = s.chars().collect();
    for _ in 0..edits {
        let c = g.string("a-z0-9", 1..2).chars().next().unwrap();
        let at = g.usize_in(0..out.len() + 1);
        match g.usize_in(0..3) {
            0 if at < out.len() => out[at] = c,
            1 if out.len() > 1 && at < out.len() => {
                out.remove(at);
            }
            _ => out.insert(at, c),
        }
    }
    out.into_iter().collect()
}

/// A URL token aimed at the brand feature: a catalog brand verbatim, with
/// one or two edits, embedded in a longer token, or unrelated.
fn brandish_token(g: &mut Gen) -> String {
    let brand = g.pick(BRANDS).token;
    match g.usize_in(0..4) {
        0 => brand.to_string(),
        1 => {
            let edits = g.usize_in(1..3);
            edited(g, brand, edits)
        }
        2 => format!(
            "{}{brand}{}",
            g.string("a-z0-9", 0..4),
            g.string("a-z0-9", 1..4)
        ),
        _ => g.string("a-z0-9", 1..12),
    }
}

/// The allocation-free URL stage (piecewise string scans, token-major
/// brand index) equals the seed's per-brand Wagner–Fischer stage bit for
/// bit, on URLs made of the real 109-brand catalog's names: exact, one or
/// two edits off, embedded, or absent, in any host, path, query and case,
/// with ports, fragments and IPv4 hosts.
#[test]
fn url_features_equal_legacy_on_brand_urls() {
    check(256, |g| {
        let host = match g.usize_in(0..4) {
            0 => format!("{}.{}", g.u8(), g.u8()) + &format!(".{}.{}", g.u8(), g.u8()),
            1 => format!("{}-{}.weebly.com", brandish_token(g), brandish_token(g)),
            _ => format!("{}.{}.com", brandish_token(g), brandish_token(g)),
        };
        let mut s = format!("{}://{host}", g.pick(&["http", "https"]));
        if g.usize_in(0..4) == 0 {
            s += &format!(":{}", g.u16());
        }
        for _ in 0..g.usize_in(0..3) {
            let token = brandish_token(g);
            s += "/";
            s += &if g.bool() {
                token.to_ascii_uppercase()
            } else {
                token
            };
        }
        if g.bool() {
            s += &format!(
                "?{}={}&{}",
                g.pick(&["id", "login", "x"]),
                brandish_token(g),
                g.u8()
            );
        }
        if g.usize_in(0..4) == 0 {
            s += &format!("#{}", g.pick(&["top", "Verify", "a@b"]));
        }
        let url = Url::parse(&s).expect("constructed URL must parse");
        let bits = |v: [f64; 8]| v.map(f64::to_bits);
        assert_eq!(
            bits(url_features(&url)),
            bits(url_features_legacy(&url)),
            "url={s}"
        );
    });
}

/// The evasion heuristics are total on arbitrary HTML.
#[test]
fn evasion_total() {
    check(256, |g| {
        let url = Url::parse("https://fuzz.blogspot.com/").unwrap();
        let _ = classify_evasion(&url, &parse(&g.text(0..401)));
    });
}

/// Constructed malicious iframes are always classified; same-domain
/// iframes never are.
#[test]
fn iframe_heuristic_contract() {
    check(256, |g| {
        let token = g.string("a-z", 3..11);
        let url = Url::parse("https://victim.blogspot.com/").unwrap();
        let evil = parse(&format!(
            r#"<iframe src="https://{token}-attack.icu/f"></iframe><p>notice</p>"#
        ));
        assert!(freephish_core::evasion::detect_iframe_embed(&url, &evil).is_some());
        let same = parse(&format!(
            r#"<iframe src="https://{token}.blogspot.com/w"></iframe>"#
        ));
        assert!(freephish_core::evasion::detect_iframe_embed(&url, &same).is_none());
    });
}

#[test]
fn campaign_is_deterministic_and_well_formed() {
    use freephish_core::campaign::{self, CampaignConfig};
    use freephish_core::world::World;
    let cfg = CampaignConfig {
        scale: 0.005,
        days: 10,
        benign_fraction: 0.2,
        seed: 99,
    };
    let mut w1 = World::new(99);
    let mut w2 = World::new(99);
    let a = campaign::run(&cfg, &mut w1);
    let b = campaign::run(&cfg, &mut w2);
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.url, y.url);
        assert_eq!(x.posted_at, y.posted_at);
        assert_eq!(x.platform, y.platform);
        // Every record's post exists on its platform and was posted at the
        // recorded time.
        let post = w1.feed(x.platform).post(x.post).expect("post exists");
        assert_eq!(post.posted_at, x.posted_at);
        assert!(post.text.contains(&x.url));
    }
}
