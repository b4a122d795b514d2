//! Random-forest detector over the augmented feature set — the classifier
//! the paper's Section 4 overview names ("Employs a Random Forest
//! classifier"), before Section 4.2's model bake-off settles on stacking.
//! Kept as a comparison point (reported as an extension row in the Table 2
//! harness).

use super::{PhishDetector, SnapshotFetcher};
use crate::features::{FeatureSet, FeatureVector};
use crate::groundtruth::{to_dataset, LabeledSite};
use freephish_ml::{ForestConfig, RandomForest};
use freephish_simclock::Rng64;
use freephish_urlparse::Url;

/// A trained random-forest detector.
pub struct ForestDetector {
    model: RandomForest,
}

impl ForestDetector {
    /// Train on a labelled corpus over the augmented features.
    pub fn train(corpus: &[LabeledSite], config: &ForestConfig, rng: &mut Rng64) -> Self {
        let data = to_dataset(corpus, FeatureSet::Augmented);
        ForestDetector {
            model: RandomForest::train(config, &data, rng),
        }
    }

    /// The underlying forest (for importance reporting).
    pub fn forest(&self) -> &RandomForest {
        &self.model
    }
}

impl PhishDetector for ForestDetector {
    fn name(&self) -> &'static str {
        "Random Forest (§4 overview)"
    }

    fn score(&self, url: &str, html: &str, _fetcher: &dyn SnapshotFetcher) -> f64 {
        let Ok(parsed) = Url::parse(url) else {
            return 0.5;
        };
        let v = FeatureVector::extract_fast(FeatureSet::Augmented, &parsed, html);
        self.model.predict_proba(&v.values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::groundtruth::{build, GroundTruthConfig};
    use crate::models::NoFetch;

    #[test]
    fn forest_detector_competitive() {
        let corpus = build(&GroundTruthConfig {
            n_phish: 300,
            n_benign: 300,
            seed: 12,
        });
        let (train, test) = corpus.split_at(450);
        let mut rng = Rng64::new(13);
        let model = ForestDetector::train(train, &ForestConfig::tiny(), &mut rng);
        let correct = test
            .iter()
            .filter(|ls| model.predict(&ls.site.url, &ls.site.html, &NoFetch) == ls.label)
            .count();
        let acc = correct as f64 / test.len() as f64;
        assert!(acc > 0.85, "accuracy {acc}");
    }

    #[test]
    fn unparseable_url_neutral() {
        let corpus = build(&GroundTruthConfig::tiny());
        let mut rng = Rng64::new(14);
        let model = ForestDetector::train(&corpus, &ForestConfig::tiny(), &mut rng);
        assert_eq!(model.score(":::", "<p></p>", &NoFetch), 0.5);
    }
}
