//! The URLNet-style baseline: URL string only.
//!
//! URLNet (Le et al. 2018) learns character- and word-level URL embeddings
//! with CNNs. The offline equivalent hashes character trigrams of the URL
//! into a 512-wide vector and fits an L2-regularised logistic regression —
//! the same information source and the same failure mode the paper
//! observes: FWB URLs look *benign* lexically (old .com domain, clean
//! host), so recall is the weakest of the line-up (0.68 in Table 2), while
//! inference is by far the fastest.

use super::{PhishDetector, SnapshotFetcher};
use crate::groundtruth::LabeledSite;
use freephish_ml::logistic::{char_ngram_vector, LogisticConfig, LogisticRegression};
use freephish_simclock::Rng64;

/// Hash dimensionality of the n-gram space.
const DIM: usize = 512;
/// n-gram order.
const NGRAM: usize = 3;

/// A trained URLNet-style model.
pub struct UrlNetStyle {
    model: LogisticRegression,
}

impl UrlNetStyle {
    /// Train on a labelled corpus. Only the URL strings are consumed.
    pub fn train(corpus: &[LabeledSite], rng: &mut Rng64) -> UrlNetStyle {
        let rows: Vec<Vec<f64>> = corpus
            .iter()
            .map(|ls| char_ngram_vector(&ls.site.url, NGRAM, DIM))
            .collect();
        let labels: Vec<u8> = corpus.iter().map(|ls| ls.label).collect();
        let config = LogisticConfig {
            epochs: 25,
            learning_rate: 0.2,
            l2: 1e-4,
        };
        UrlNetStyle {
            model: LogisticRegression::train(&config, &rows, &labels, rng),
        }
    }
}

impl PhishDetector for UrlNetStyle {
    fn name(&self) -> &'static str {
        "URLNet"
    }

    fn score(&self, url: &str, _html: &str, _fetcher: &dyn SnapshotFetcher) -> f64 {
        self.model
            .predict_proba(&char_ngram_vector(url, NGRAM, DIM))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::groundtruth::{build, GroundTruthConfig};
    use crate::models::NoFetch;

    #[test]
    fn trains_and_scores_in_unit_interval() {
        let corpus = build(&GroundTruthConfig::tiny());
        let mut rng = Rng64::new(1);
        let model = UrlNetStyle::train(&corpus, &mut rng);
        for ls in corpus.iter().take(20) {
            let s = model.score(&ls.site.url, &ls.site.html, &NoFetch);
            assert!((0.0..=1.0).contains(&s));
        }
        assert_eq!(model.name(), "URLNet");
    }

    #[test]
    fn better_than_chance_on_held_out() {
        let corpus = build(&GroundTruthConfig {
            n_phish: 400,
            n_benign: 400,
            seed: 2,
        });
        let (train, test) = corpus.split_at(600);
        let mut rng = Rng64::new(3);
        let model = UrlNetStyle::train(train, &mut rng);
        let correct = test
            .iter()
            .filter(|ls| model.predict(&ls.site.url, &ls.site.html, &NoFetch) == ls.label)
            .count();
        let acc = correct as f64 / test.len() as f64;
        assert!(acc > 0.55, "accuracy {acc}");
    }
}
