//! The base StackModel baseline (Li et al. 2019): the two-layer stacking
//! ensemble over the original 20-feature URL+HTML layout, including the two
//! features FreePhish drops (`https` presence, multi-TLD count).

use super::{PhishDetector, SnapshotFetcher};
use crate::features::{FeatureSet, FeatureVector};
use crate::groundtruth::{to_dataset, LabeledSite};
use freephish_ml::{StackModel, StackModelConfig};
use freephish_simclock::Rng64;
use freephish_urlparse::Url;

/// The trained base StackModel.
pub struct BaseStackModel {
    model: StackModel,
}

impl BaseStackModel {
    /// Train with the paper's stacking protocol on the base feature set.
    pub fn train(corpus: &[LabeledSite], config: &StackModelConfig, rng: &mut Rng64) -> Self {
        let data = to_dataset(corpus, FeatureSet::Base);
        BaseStackModel {
            model: StackModel::train(config, &data, rng),
        }
    }

    /// Score a pre-extracted base feature row.
    pub fn score_features(&self, row: &[f64]) -> f64 {
        self.model.predict_proba(row)
    }
}

impl PhishDetector for BaseStackModel {
    fn name(&self) -> &'static str {
        "Base StackModel"
    }

    fn score(&self, url: &str, html: &str, _fetcher: &dyn SnapshotFetcher) -> f64 {
        let Ok(parsed) = Url::parse(url) else {
            return 0.5;
        };
        let v = FeatureVector::extract_fast(FeatureSet::Base, &parsed, html);
        self.model.predict_proba(&v.values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::groundtruth::{build, GroundTruthConfig};
    use crate::models::NoFetch;

    #[test]
    fn trains_and_classifies_held_out() {
        let corpus = build(&GroundTruthConfig {
            n_phish: 300,
            n_benign: 300,
            seed: 4,
        });
        let (train, test) = corpus.split_at(450);
        let mut rng = Rng64::new(5);
        let model = BaseStackModel::train(train, &StackModelConfig::tiny(), &mut rng);
        let correct = test
            .iter()
            .filter(|ls| model.predict(&ls.site.url, &ls.site.html, &NoFetch) == ls.label)
            .count();
        let acc = correct as f64 / test.len() as f64;
        assert!(acc > 0.8, "accuracy {acc}");
        assert_eq!(model.name(), "Base StackModel");
    }

    #[test]
    fn bad_url_neutral() {
        let corpus = build(&GroundTruthConfig::tiny());
        let mut rng = Rng64::new(6);
        let model = BaseStackModel::train(&corpus, &StackModelConfig::tiny(), &mut rng);
        assert_eq!(model.score("not a url", "<p></p>", &NoFetch), 0.5);
    }
}
