//! Gradient-boosted decision trees for binary classification with logistic
//! loss, plus presets mirroring the three StackModel base learners.
//!
//! The presets differ the way the real libraries characteristically differ:
//!
//! * [`GbdtConfig::classic`] — first-generation GBDT: level-wise trees, no
//!   explicit regularisation (λ≈0, γ=0), moderate depth;
//! * [`GbdtConfig::xgboost_style`] — second-order gains with L2 leaf
//!   regularisation and a split-gain floor (λ, γ > 0), row subsampling;
//! * [`GbdtConfig::lightgbm_style`] — histogram bins are coarser and growth
//!   is best-first leaf-wise with a leaf budget.
//!
//! All three share the histogram tree engine in [`crate::tree`]; the knobs
//! above are what gives them different bias/variance behaviour on the
//! phishing feature sets.

use crate::dataset::Dataset;
use crate::flat::{FlatForest, FlatForestBuilder};
use crate::tree::{BinnedMatrix, RegTree, TreeConfig, TreeFitter};
use freephish_simclock::Rng64;

/// Boosting hyper-parameters.
#[derive(Debug, Clone)]
pub struct GbdtConfig {
    /// Number of boosting rounds.
    pub n_trees: usize,
    /// Shrinkage applied to each tree's contribution.
    pub learning_rate: f64,
    /// Per-tree growth parameters.
    pub tree: TreeConfig,
    /// Histogram resolution.
    pub max_bins: usize,
    /// Fraction of rows sampled (without replacement) per round.
    pub subsample: f64,
}

impl GbdtConfig {
    /// Classic GBDT: level-wise, unregularised.
    pub fn classic() -> Self {
        GbdtConfig {
            n_trees: 80,
            learning_rate: 0.1,
            tree: TreeConfig {
                max_depth: 4,
                max_leaves: 0,
                min_leaf: 10,
                lambda: 1e-6,
                gamma: 0.0,
                leaf_wise: false,
            },
            max_bins: 255,
            subsample: 1.0,
        }
    }

    /// XGBoost-style: second-order regularised, subsampled.
    pub fn xgboost_style() -> Self {
        GbdtConfig {
            n_trees: 100,
            learning_rate: 0.1,
            tree: TreeConfig {
                max_depth: 5,
                max_leaves: 0,
                min_leaf: 5,
                lambda: 1.0,
                gamma: 0.1,
                leaf_wise: false,
            },
            max_bins: 255,
            subsample: 0.8,
        }
    }

    /// LightGBM-style: coarse histograms, leaf-wise growth.
    pub fn lightgbm_style() -> Self {
        GbdtConfig {
            n_trees: 100,
            learning_rate: 0.1,
            tree: TreeConfig {
                max_depth: 64,
                max_leaves: 31,
                min_leaf: 5,
                lambda: 1.0,
                gamma: 0.0,
                leaf_wise: true,
            },
            max_bins: 63,
            subsample: 0.8,
        }
    }

    /// A small/fast configuration for tests.
    pub fn tiny() -> Self {
        GbdtConfig {
            n_trees: 20,
            learning_rate: 0.3,
            tree: TreeConfig {
                max_depth: 3,
                max_leaves: 0,
                min_leaf: 2,
                lambda: 1.0,
                gamma: 0.0,
                leaf_wise: false,
            },
            max_bins: 64,
            subsample: 1.0,
        }
    }
}

fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

/// A fitted gradient-boosting classifier.
#[derive(Debug, Clone)]
pub struct Gbdt {
    trees: Vec<RegTree>,
    base_score: f64,
    learning_rate: f64,
    /// Inference layout compiled from `trees` (shrinkage folded into the
    /// leaves, base score as bias). Bit-identical to the boxed path.
    flat: FlatForest,
}

impl Gbdt {
    /// Train on a dataset. Deterministic given the RNG state.
    pub fn train(config: &GbdtConfig, data: &Dataset, rng: &mut Rng64) -> Gbdt {
        assert!(!data.is_empty(), "cannot train on an empty dataset");
        let n = data.len();
        let binned = BinnedMatrix::build(data.rows(), config.max_bins);

        // Base score: log-odds of the prior.
        let p = data.positive_rate().clamp(1e-6, 1.0 - 1e-6);
        let base_score = (p / (1.0 - p)).ln();

        let mut scores = vec![base_score; n];
        let mut grad = vec![0.0f64; n];
        let mut hess = vec![0.0f64; n];
        let mut trees = Vec::with_capacity(config.n_trees);
        let mut fitter = TreeFitter::new(&binned);
        let mut sampled = vec![false; n];

        for _round in 0..config.n_trees {
            for (i, &score) in scores.iter().enumerate() {
                let pi = sigmoid(score);
                grad[i] = pi - data.label(i) as f64;
                hess[i] = (pi * (1.0 - pi)).max(1e-12);
            }
            let rows: Vec<usize> = if config.subsample < 1.0 {
                let k = ((n as f64) * config.subsample).round().max(1.0) as usize;
                rng.sample_indices(n, k.min(n))
            } else {
                (0..n).collect()
            };
            let tree = fitter.fit(&grad, &hess, &rows, &config.tree);
            // Update all rows (not just the sample) with the shrunk output:
            // a sampled row takes the leaf it landed in during the fit,
            // which is the leaf `predict_row` would reach; the rest walk
            // the tree.
            sampled.fill(false);
            for (value, leaf_rows) in fitter.leaves() {
                for &r in leaf_rows {
                    scores[r] += config.learning_rate * value;
                    sampled[r] = true;
                }
            }
            for (i, score) in scores.iter_mut().enumerate() {
                if !sampled[i] {
                    *score += config.learning_rate * tree.predict_row(data.row(i));
                }
            }
            trees.push(tree);
        }
        let flat = Self::compile(&trees, base_score, config.learning_rate);
        Gbdt {
            trees,
            base_score,
            learning_rate: config.learning_rate,
            flat,
        }
    }

    /// Compile the boxed trees into the flat inference layout: base score
    /// becomes the bias, shrinkage is folded into every leaf (same single
    /// multiply the boxed loop performs, done once at compile time).
    fn compile(trees: &[RegTree], base_score: f64, learning_rate: f64) -> FlatForest {
        let mut b = FlatForestBuilder::new(base_score);
        for t in trees {
            b.push_tree(t, None, |v| learning_rate * v);
        }
        b.build()
    }

    /// Raw (log-odds) score for a feature row.
    pub fn raw_score(&self, row: &[f64]) -> f64 {
        self.flat.predict_row(row)
    }

    /// Raw score through the boxed `RegTree` walk — the pre-flattening
    /// reference path, kept for equivalence tests and benchmarks.
    pub fn raw_score_boxed(&self, row: &[f64]) -> f64 {
        let mut s = self.base_score;
        for t in &self.trees {
            s += self.learning_rate * t.predict_row(row);
        }
        s
    }

    /// Predicted probability of the positive (phishing) class.
    pub fn predict_proba(&self, row: &[f64]) -> f64 {
        sigmoid(self.raw_score(row))
    }

    /// Probability through the boxed reference path.
    pub fn predict_proba_boxed(&self, row: &[f64]) -> f64 {
        sigmoid(self.raw_score_boxed(row))
    }

    /// Probabilities for many rows via the batched flat traversal.
    pub fn predict_proba_batch(&self, rows: &[&[f64]]) -> Vec<f64> {
        let mut out = self.flat.predict_batch(rows);
        for s in &mut out {
            *s = sigmoid(*s);
        }
        out
    }

    /// The compiled flat inference layout.
    pub fn flat(&self) -> &FlatForest {
        &self.flat
    }

    /// Probabilities for a whole dataset.
    pub fn predict_all(&self, data: &Dataset) -> Vec<f64> {
        (0..data.len())
            .map(|i| self.predict_proba(data.row(i)))
            .collect()
    }

    /// Hard 0/1 prediction at the 0.5 threshold.
    pub fn predict(&self, row: &[f64]) -> u8 {
        u8::from(self.predict_proba(row) >= 0.5)
    }

    /// Number of trees.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }

    /// The fitted trees, in boosting order (leaves unshrunk).
    pub fn trees(&self) -> &[RegTree] {
        &self.trees
    }

    /// Split-count feature importance: how many splits across the ensemble
    /// test each feature.
    pub fn feature_split_counts(&self, n_features: usize) -> Vec<usize> {
        let mut counts = vec![0usize; n_features];
        for t in &self.trees {
            for f in t.used_features() {
                counts[f] += 1;
            }
        }
        counts
    }

    /// Mean training log-loss of a dataset under this model (used by tests
    /// to assert boosting actually reduces loss).
    pub fn log_loss(&self, data: &Dataset) -> f64 {
        let mut total = 0.0;
        for i in 0..data.len() {
            let p = self.predict_proba(data.row(i)).clamp(1e-12, 1.0 - 1e-12);
            let y = data.label(i) as f64;
            total -= y * p.ln() + (1.0 - y) * (1.0 - p).ln();
        }
        total / data.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::BinaryMetrics;

    /// Linearly separable blob data.
    fn blobs(n: usize, seed: u64) -> Dataset {
        let mut rng = Rng64::new(seed);
        let mut d = Dataset::new(vec!["x".into(), "y".into()]);
        for _ in 0..n {
            let label = rng.chance(0.5);
            let (cx, cy) = if label { (2.0, 2.0) } else { (-2.0, -2.0) };
            d.push(
                vec![rng.normal_ms(cx, 1.0), rng.normal_ms(cy, 1.0)],
                u8::from(label),
            );
        }
        d
    }

    /// Noisy XOR data — requires tree interactions.
    fn xor(n: usize, seed: u64) -> Dataset {
        let mut rng = Rng64::new(seed);
        let mut d = Dataset::new(vec!["x".into(), "y".into()]);
        for _ in 0..n {
            let a = rng.chance(0.5);
            let b = rng.chance(0.5);
            let label = u8::from(a ^ b);
            d.push(
                vec![
                    f64::from(a) + rng.normal_ms(0.0, 0.2),
                    f64::from(b) + rng.normal_ms(0.0, 0.2),
                ],
                label,
            );
        }
        d
    }

    #[test]
    fn separable_data_high_accuracy() {
        let mut rng = Rng64::new(7);
        let data = blobs(600, 1);
        let (train, test) = data.split(0.7, &mut rng);
        let model = Gbdt::train(&GbdtConfig::tiny(), &train, &mut rng);
        let m = BinaryMetrics::from_scores(test.labels(), &model.predict_all(&test));
        assert!(m.accuracy > 0.95, "accuracy={}", m.accuracy);
    }

    #[test]
    fn xor_learned_by_all_presets() {
        for (name, cfg) in [
            ("classic", GbdtConfig::classic()),
            ("xgb", GbdtConfig::xgboost_style()),
            ("lgbm", GbdtConfig::lightgbm_style()),
        ] {
            let mut rng = Rng64::new(11);
            let data = xor(800, 3);
            let (train, test) = data.split(0.7, &mut rng);
            let model = Gbdt::train(&cfg, &train, &mut rng);
            let m = BinaryMetrics::from_scores(test.labels(), &model.predict_all(&test));
            assert!(m.accuracy > 0.9, "{name}: accuracy={}", m.accuracy);
        }
    }

    #[test]
    fn boosting_reduces_training_loss() {
        let data = blobs(300, 5);
        let mut rng = Rng64::new(13);
        let short = Gbdt::train(
            &GbdtConfig {
                n_trees: 2,
                ..GbdtConfig::tiny()
            },
            &data,
            &mut rng,
        );
        let mut rng = Rng64::new(13);
        let long = Gbdt::train(
            &GbdtConfig {
                n_trees: 30,
                ..GbdtConfig::tiny()
            },
            &data,
            &mut rng,
        );
        assert!(long.log_loss(&data) < short.log_loss(&data));
    }

    #[test]
    fn deterministic_given_seed() {
        let data = blobs(200, 9);
        let mut r1 = Rng64::new(21);
        let mut r2 = Rng64::new(21);
        let m1 = Gbdt::train(&GbdtConfig::tiny(), &data, &mut r1);
        let m2 = Gbdt::train(&GbdtConfig::tiny(), &data, &mut r2);
        for i in 0..data.len() {
            assert_eq!(m1.predict_proba(data.row(i)), m2.predict_proba(data.row(i)));
        }
    }

    #[test]
    fn base_score_matches_prior_with_no_splits() {
        // One-class-dominant data with constant features: every tree is a
        // stump refining the prior towards the majority class.
        let mut d = Dataset::new(vec!["c".into()]);
        for i in 0..100 {
            d.push(vec![1.0], u8::from(i < 90));
        }
        let mut rng = Rng64::new(3);
        let model = Gbdt::train(&GbdtConfig::tiny(), &d, &mut rng);
        let p = model.predict_proba(&[1.0]);
        assert!(p > 0.8, "p={p}");
    }

    #[test]
    fn predict_is_thresholded_proba() {
        let data = blobs(200, 17);
        let mut rng = Rng64::new(19);
        let model = Gbdt::train(&GbdtConfig::tiny(), &data, &mut rng);
        for i in 0..20 {
            let row = data.row(i);
            assert_eq!(
                model.predict(row),
                u8::from(model.predict_proba(row) >= 0.5)
            );
        }
    }
}
