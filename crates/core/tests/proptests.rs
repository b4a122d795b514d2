//! Property tests over the framework layer: the wire protocol, feature
//! extraction, and the evasion heuristics must be total; campaign
//! generation must be deterministic and well-formed.

use bytes::BytesMut;
use freephish_core::evasion::classify_evasion;
use freephish_core::extension::{decode_request, decode_verdict, encode_verdict, Verdict};
use freephish_core::features::{FeatureSet, FeatureVector};
use freephish_htmlparse::parse;
use freephish_simclock::prop::check;
use freephish_urlparse::Url;

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
