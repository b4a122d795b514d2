//! The VisualPhishNet-style baseline: visual similarity to a protected-
//! brand gallery.
//!
//! VisualPhishNet (Abdelnabi et al. 2020) embeds page screenshots with a
//! triplet network and flags a page as phishing when it is visually similar
//! to a *protected brand's genuine page* while not being hosted on that
//! brand's domain. Without a renderer or GPU, the reproduction computes a
//! deterministic structural *layout signature* from the DOM and applies the
//! same decision rule against a gallery of authentic brand login pages
//! (generated by `freephish_webgen::authentic`). The detection threshold is
//! fitted on the training corpus.
//!
//! The family's FWB weakness (Table 2: accuracy 0.76) is reproduced
//! organically: FWB spoofs are built from the *builder's* template, not the
//! brand's design system, so many sit far from the gallery and are missed,
//! while benign member-portal pages that do resemble generic login layouts
//! cause false alarms.

use super::{PhishDetector, SnapshotFetcher};
use crate::groundtruth::LabeledSite;
use freephish_htmlparse::{parse, Document};
use freephish_ml::knn::{Knn, Metric};
use freephish_simclock::fnv_shaped;
use freephish_urlparse::Url;
use freephish_webgen::authentic::authentic_login_page;
use freephish_webgen::BRANDS;

/// Signature dimensionality: 8 tag categories + 6 structural counts +
/// 16 hashed classes. Deliberately *structural only*: a screenshot
/// embedding sees layout and chrome, not the semantics of the text.
pub const SIGNATURE_DIM: usize = 30;

/// Compute the layout signature of a parsed page.
pub fn layout_signature(doc: &Document) -> Vec<f64> {
    let mut v = vec![0.0f64; SIGNATURE_DIM];
    let elements = doc.elements();
    let n = elements.len().max(1) as f64;
    for e in &elements {
        let cat = match e.tag {
            "div" | "section" | "main" | "article" => 0,
            "h1" | "h2" | "h3" | "h4" => 1,
            "p" | "span" | "li" => 2,
            "a" => 3,
            "img" | "picture" | "svg" => 4,
            "form" | "input" | "button" | "select" | "textarea" => 5,
            "iframe" | "embed" | "object" => 6,
            _ => 7,
        };
        v[cat] += 1.0 / n;
        // Hashed class vocabulary: the visual chrome's CSS dialect.
        for class in e.classes() {
            v[14 + (fnv_shaped(class.as_bytes()) % 16) as usize] += 1.0 / n;
        }
    }
    // Structural counts (log-scaled so big pages don't dominate).
    v[8] = (doc.links().len() as f64 + 1.0).ln();
    v[9] = (doc.forms().len() as f64 + 1.0).ln();
    v[10] = (doc.inputs().len() as f64 + 1.0).ln();
    v[11] = (doc.iframes().len() as f64 + 1.0).ln();
    v[12] = (doc.visible_text().len() as f64 + 1.0).ln();
    v[13] = (doc.len() as f64 + 1.0).ln();
    v
}

/// A trained VisualPhishNet-style model: the brand gallery plus a fitted
/// similarity threshold.
pub struct VisualStyle {
    gallery: Knn,
    /// Distance below which a page "looks like" a protected brand.
    threshold: f64,
}

/// Is `url` hosted on the brand's own registrable domain?
fn on_brand_domain(url: &str, brand_idx: u32) -> bool {
    let Ok(parsed) = Url::parse(url) else {
        return false;
    };
    let Some(reg) = parsed.host().registrable_domain() else {
        return false;
    };
    BRANDS
        .get(brand_idx as usize)
        .map(|b| b.domain.ends_with(&reg) || reg.ends_with(b.domain))
        .unwrap_or(false)
}

impl VisualStyle {
    /// Build the gallery from the 109 authentic brand pages and fit the
    /// decision threshold on the training corpus.
    pub fn train(corpus: &[LabeledSite]) -> VisualStyle {
        let mut gallery = Knn::new(Metric::Cosine);
        for (i, b) in BRANDS.iter().enumerate() {
            let doc = parse(&authentic_login_page(b));
            gallery.add(layout_signature(&doc), i as u32);
        }

        // Fit the threshold: sweep candidate distances, maximise training
        // accuracy of the rule "dist-to-gallery <= θ (off-brand) → phish".
        let dists: Vec<(f64, u8)> = corpus
            .iter()
            .map(|ls| {
                let sig = layout_signature(&parse(&ls.site.html));
                let d = gallery
                    .nearest(&sig, 1)
                    .first()
                    .map(|&(_, d)| d)
                    .unwrap_or(1.0);
                (d, ls.label)
            })
            .collect();
        let mut best = (0.15f64, 0usize);
        let mut theta = 0.01;
        while theta < 0.9 {
            let correct = dists
                .iter()
                .filter(|&&(d, y)| u8::from(d <= theta) == y)
                .count();
            if correct > best.1 {
                best = (theta, correct);
            }
            theta += 0.01;
        }
        VisualStyle {
            gallery,
            threshold: best.0,
        }
    }

    /// The fitted threshold (exposed for ablations).
    pub fn threshold(&self) -> f64 {
        self.threshold
    }
}

impl PhishDetector for VisualStyle {
    fn name(&self) -> &'static str {
        "VisualPhishNet"
    }

    fn score(&self, url: &str, html: &str, _fetcher: &dyn SnapshotFetcher) -> f64 {
        let doc = parse(html);
        let sig = layout_signature(&doc);
        let Some(&(brand, dist)) = self.gallery.nearest(&sig, 1).first() else {
            return 0.5;
        };
        // Pages on the matched brand's own domain are the genuine article.
        if on_brand_domain(url, brand) {
            return 0.0;
        }
        // Map distance to a score: 0.5 at the threshold, saturating away
        // from it.
        let margin = (self.threshold - dist) / self.threshold.max(1e-6);
        (0.5 + 0.5 * margin.clamp(-1.0, 1.0)).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::groundtruth::{build, GroundTruthConfig};
    use crate::models::NoFetch;

    #[test]
    fn signature_has_fixed_dim() {
        let doc = parse("<html><body><p>x</p></body></html>");
        assert_eq!(layout_signature(&doc).len(), SIGNATURE_DIM);
        let empty = parse("");
        assert_eq!(layout_signature(&empty).len(), SIGNATURE_DIM);
    }

    #[test]
    fn similar_pages_similar_signatures() {
        let a = parse(r#"<div class="w"><form><input type="password"></form></div>"#);
        let b = parse(r#"<div class="w"><form><input type="password"><input></form></div>"#);
        let c = parse("<article><p>a long essay about gardening</p><p>more text</p></article>");
        let (sa, sb, sc) = (
            layout_signature(&a),
            layout_signature(&b),
            layout_signature(&c),
        );
        let cos = |x: &[f64], y: &[f64]| {
            let dot: f64 = x.iter().zip(y).map(|(a, b)| a * b).sum();
            let nx: f64 = x.iter().map(|v| v * v).sum::<f64>().sqrt();
            let ny: f64 = y.iter().map(|v| v * v).sum::<f64>().sqrt();
            dot / (nx * ny)
        };
        assert!(cos(&sa, &sb) > cos(&sa, &sc));
    }

    #[test]
    fn authentic_brand_page_on_brand_domain_is_safe() {
        let corpus = build(&GroundTruthConfig::tiny());
        let model = VisualStyle::train(&corpus);
        let html = authentic_login_page(&BRANDS[4]); // PayPal
        let s = model.score("https://www.paypal.com/signin", &html, &NoFetch);
        assert_eq!(s, 0.0);
    }

    #[test]
    fn authentic_lookalike_off_brand_is_phishing() {
        // The exact brand page hosted off-domain: maximal visual match.
        let corpus = build(&GroundTruthConfig::tiny());
        let model = VisualStyle::train(&corpus);
        let html = authentic_login_page(&BRANDS[4]);
        let s = model.score("https://paypal-clone.weebly.com/", &html, &NoFetch);
        assert!(s > 0.5, "score={s}");
    }

    #[test]
    fn scores_in_unit_interval() {
        let corpus = build(&GroundTruthConfig::tiny());
        let model = VisualStyle::train(&corpus);
        for ls in corpus.iter().take(10) {
            let s = model.score(&ls.site.url, &ls.site.html, &NoFetch);
            assert!((0.0..=1.0).contains(&s));
        }
        assert_eq!(model.name(), "VisualPhishNet");
        assert!(model.threshold() > 0.0);
    }

    #[test]
    fn weaker_than_stack_on_fwb_corpus() {
        // The Table 2 phenomenon: template-built spoofs evade gallery
        // matching; accuracy sits well below the feature models.
        let corpus = build(&GroundTruthConfig {
            n_phish: 300,
            n_benign: 300,
            seed: 5,
        });
        let (train, test) = corpus.split_at(450);
        let model = VisualStyle::train(train);
        let correct = test
            .iter()
            .filter(|ls| model.predict(&ls.site.url, &ls.site.html, &NoFetch) == ls.label)
            .count();
        let acc = correct as f64 / test.len() as f64;
        assert!(acc > 0.55, "accuracy {acc} — should beat chance");
        assert!(
            acc < 0.95,
            "accuracy {acc} — gallery matching must not be perfect on FWB"
        );
    }
}
