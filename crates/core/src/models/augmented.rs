//! FreePhish's classifier: the augmented StackModel (Section 4.2).
//!
//! Identical stacking architecture to the base model, but over the
//! FWB-aware feature layout: the two features that are constant on FWB
//! attacks (`https`, multi-TLD) are replaced by the two that discriminate
//! them (obfuscated banner, noindex meta tag). Table 2 reports 0.97
//! accuracy / 0.96 F1 at a 2.8 s median runtime.

use super::{PageFetcher, PhishDetector};
use crate::features::{FeatureSet, FeatureVector};
use crate::groundtruth::{to_dataset, LabeledSite};
use freephish_ml::{StackModel, StackModelConfig};
use freephish_simclock::Rng64;
use freephish_urlparse::Url;

/// The trained augmented StackModel — the classifier the FreePhish
/// pipeline deploys.
pub struct AugmentedStackModel {
    model: StackModel,
}

impl AugmentedStackModel {
    /// Train with the paper's protocol (three GBDT-family base learners,
    /// K-fold out-of-fold stacking, GBDT meta-learner).
    pub fn train(corpus: &[LabeledSite], config: &StackModelConfig, rng: &mut Rng64) -> Self {
        let data = to_dataset(corpus, FeatureSet::Augmented);
        AugmentedStackModel {
            model: StackModel::train(config, &data, rng),
        }
    }

    /// Score a pre-extracted augmented feature row (used by the pipeline,
    /// which extracts features once in the pre-processing module).
    pub fn score_features(&self, row: &[f64]) -> f64 {
        self.model.predict_proba(row)
    }

    /// Score many pre-extracted rows through the flattened forests'
    /// blocked batch walk. Bit-identical to [`Self::score_features`] per
    /// row.
    pub fn score_features_batch(&self, rows: &[&[f64]]) -> Vec<f64> {
        self.model.predict_proba_batch(rows)
    }

    /// Extract-and-score convenience for one snapshot, on the wire-speed
    /// path: single-pass [`freephish_htmlparse::PageFacts`] feature
    /// extraction plus flattened-forest inference. Bit-identical to
    /// [`AugmentedStackModel::score_snapshot_legacy`].
    pub fn score_snapshot(&self, url: &Url, html: &str) -> f64 {
        let v = FeatureVector::extract_fast(FeatureSet::Augmented, url, html);
        self.model.predict_proba(&v.values)
    }

    /// The pre-optimisation scoring path, verbatim: owned-token tokenise,
    /// build the DOM, run each feature as its own query, scalar URL scans
    /// with per-brand re-tokenisation, walk the boxed trees. Kept callable
    /// as the oracle for the hot-path equivalence tests.
    pub fn score_snapshot_legacy(&self, url: &Url, html: &str) -> f64 {
        let doc = freephish_htmlparse::legacy::parse(html);
        let v = FeatureVector::extract_legacy(FeatureSet::Augmented, url, &doc);
        self.model.predict_proba_boxed(&v.values)
    }
}

impl PhishDetector for AugmentedStackModel {
    fn name(&self) -> &'static str {
        "FreePhish (augmented StackModel)"
    }

    fn score(&self, url: &str, html: &str, _fetcher: &dyn PageFetcher) -> f64 {
        match Url::parse(url) {
            Ok(parsed) => self.score_snapshot(&parsed, html),
            Err(_) => 0.5,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::groundtruth::{build, GroundTruthConfig};
    use crate::models::NoFetch;
    use freephish_htmlparse::parse;
    use freephish_ml::metrics::BinaryMetrics;

    #[test]
    fn beats_090_f1_on_held_out() {
        let corpus = build(&GroundTruthConfig {
            n_phish: 400,
            n_benign: 400,
            seed: 7,
        });
        let (train, test) = corpus.split_at(600);
        let mut rng = Rng64::new(8);
        let model = AugmentedStackModel::train(train, &StackModelConfig::tiny(), &mut rng);
        let labels: Vec<u8> = test.iter().map(|l| l.label).collect();
        let scores: Vec<f64> = test
            .iter()
            .map(|l| model.score(&l.site.url, &l.site.html, &NoFetch))
            .collect();
        let m = BinaryMetrics::from_scores(&labels, &scores);
        assert!(m.f1 > 0.9, "f1={}", m.f1);
        assert!(m.accuracy > 0.9, "accuracy={}", m.accuracy);
    }

    #[test]
    fn fast_path_is_bit_identical_to_legacy_path() {
        let corpus = build(&GroundTruthConfig {
            n_phish: 40,
            n_benign: 40,
            seed: 21,
        });
        let mut rng = Rng64::new(22);
        let model = AugmentedStackModel::train(&corpus, &StackModelConfig::tiny(), &mut rng);
        for ls in &corpus {
            let url = Url::parse(&ls.site.url).unwrap();
            let fast = model.score_snapshot(&url, &ls.site.html);
            let legacy = model.score_snapshot_legacy(&url, &ls.site.html);
            assert_eq!(
                fast.to_bits(),
                legacy.to_bits(),
                "url={} fast={fast} legacy={legacy}",
                ls.site.url
            );
        }
    }

    #[test]
    fn score_features_matches_score() {
        let corpus = build(&GroundTruthConfig::tiny());
        let mut rng = Rng64::new(9);
        let model = AugmentedStackModel::train(&corpus, &StackModelConfig::tiny(), &mut rng);
        let ls = &corpus[0];
        let url = Url::parse(&ls.site.url).unwrap();
        let doc = parse(&ls.site.html);
        let v = FeatureVector::extract(FeatureSet::Augmented, &url, &doc);
        let a = model.score_features(&v.values);
        let b = model.score(&ls.site.url, &ls.site.html, &NoFetch);
        assert!((a - b).abs() < 1e-12);
    }
}
