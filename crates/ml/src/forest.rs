//! Random forest for binary classification.
//!
//! The paper's Section 4 overview describes the classification module as "a
//! Random Forest classifier" before Section 4.2 settles on the augmented
//! StackModel; this implementation covers that design point (and serves as
//! an extra ablation baseline). Standard recipe: bootstrap-sampled
//! histogram trees grown on class probabilities (gradients of a constant
//! 0.5 prediction reduce to `p − y`, so the boosting tree engine doubles as
//! a CART fitter), per-tree feature subsampling via per-node column masks
//! is approximated with per-tree column bagging, and prediction averages
//! tree votes.

use crate::dataset::Dataset;
use crate::flat::{FlatForest, FlatForestBuilder};
use crate::tree::{BinnedMatrix, RegTree, TreeConfig};
use freephish_simclock::Rng64;

/// Random-forest hyper-parameters.
#[derive(Debug, Clone)]
pub struct ForestConfig {
    /// Number of trees.
    pub n_trees: usize,
    /// Per-tree growth parameters.
    pub tree: TreeConfig,
    /// Histogram resolution.
    pub max_bins: usize,
    /// Fraction of rows bootstrap-sampled per tree.
    pub sample_frac: f64,
    /// Fraction of feature columns each tree may use.
    pub colsample: f64,
}

impl Default for ForestConfig {
    fn default() -> Self {
        ForestConfig {
            n_trees: 60,
            tree: TreeConfig {
                max_depth: 8,
                max_leaves: 0,
                min_leaf: 2,
                lambda: 1e-6,
                gamma: 0.0,
                leaf_wise: false,
            },
            max_bins: 128,
            sample_frac: 0.8,
            colsample: 0.7,
        }
    }
}

impl ForestConfig {
    /// A small/fast configuration for tests.
    pub fn tiny() -> Self {
        ForestConfig {
            n_trees: 15,
            ..ForestConfig::default()
        }
    }
}

/// One fitted tree plus its column mask.
struct ForestTree {
    tree: RegTree,
    /// Map from the tree's (masked) feature index to the dataset's.
    columns: Vec<usize>,
}

/// A fitted random forest.
pub struct RandomForest {
    trees: Vec<ForestTree>,
    /// Inference layout compiled from `trees`: the clamped vote transform
    /// is folded into every leaf and column bags are remapped to dataset
    /// columns, so prediction reads full rows with no per-tree projection.
    flat: FlatForest,
}

impl RandomForest {
    /// Train on a dataset. Deterministic given the RNG state: all random
    /// draws (column bags, bootstrap samples) happen serially up front in
    /// the seed order, then the draw-free tree fits fan out across the
    /// `freephish-par` pool — so the forest is bit-identical at any
    /// thread count.
    pub fn train(config: &ForestConfig, data: &Dataset, rng: &mut Rng64) -> RandomForest {
        assert!(!data.is_empty(), "cannot train on an empty dataset");
        let n = data.len();
        let n_features = data.n_features();
        let n_cols = ((n_features as f64 * config.colsample).round() as usize).clamp(1, n_features);
        let k = ((n as f64 * config.sample_frac).round() as usize).clamp(1, n);

        // Leaf value −G/(H+λ) with g = 0.5 − y·1, h = 0.25 (logistic at the
        // 0.5 prior) makes each leaf ≈ 2·(mean(y) − 0.5): a vote in
        // [−1, +1] we can map back to a probability.
        let grad: Vec<f64> = (0..n).map(|i| 0.5 - data.label(i) as f64).collect();
        let hess = vec![0.25f64; n];

        // Serial RNG phase: per-tree column bag + bootstrap sample (with
        // replacement), drawn in exactly the seed order.
        let draws: Vec<(Vec<usize>, Vec<usize>)> = (0..config.n_trees)
            .map(|_| {
                let columns = rng.sample_indices(n_features, n_cols);
                let sample: Vec<usize> = (0..k).map(|_| rng.index(n)).collect();
                (columns, sample)
            })
            .collect();

        // Parallel phase: project, bin, and fit each tree (pure).
        let trees = freephish_par::par_map(&draws, |(columns, sample)| {
            let rows: Vec<Vec<f64>> = (0..n)
                .map(|i| columns.iter().map(|&c| data.row(i)[c]).collect())
                .collect();
            let binned = BinnedMatrix::build(&rows, config.max_bins);
            let tree = RegTree::fit(&binned, &grad, &hess, sample, &config.tree);
            ForestTree {
                tree,
                columns: columns.clone(),
            }
        });
        let mut b = FlatForestBuilder::new(0.0);
        for ft in &trees {
            // Fold the clamped vote transform into each leaf; remap the
            // column bag so full rows are read directly.
            b.push_tree(&ft.tree, Some(&ft.columns), |v| {
                (0.5 + 0.5 * v).clamp(0.0, 1.0)
            });
        }
        let flat = b.build();
        RandomForest { trees, flat }
    }

    /// Probability of the positive class: average of per-tree votes mapped
    /// back to [0, 1].
    pub fn predict_proba(&self, row: &[f64]) -> f64 {
        if self.trees.is_empty() {
            return 0.5;
        }
        self.flat.predict_row(row) / self.trees.len() as f64
    }

    /// Probability through the boxed per-tree walk (projection + enum
    /// stepping) — the pre-flattening reference path, kept for equivalence
    /// tests and benchmarks.
    pub fn predict_proba_boxed(&self, row: &[f64]) -> f64 {
        if self.trees.is_empty() {
            return 0.5;
        }
        let mut total = 0.0;
        let mut projected = Vec::new();
        for ft in &self.trees {
            projected.clear();
            projected.extend(ft.columns.iter().map(|&c| row[c]));
            // Leaf values live in roughly [−2, 2]; clamp the vote.
            total += (0.5 + 0.5 * ft.tree.predict_row(&projected)).clamp(0.0, 1.0);
        }
        total / self.trees.len() as f64
    }

    /// Probabilities for many rows via the batched flat traversal.
    pub fn predict_proba_batch(&self, rows: &[&[f64]]) -> Vec<f64> {
        if self.trees.is_empty() {
            return vec![0.5; rows.len()];
        }
        let n = self.trees.len() as f64;
        let mut out = self.flat.predict_batch(rows);
        for s in &mut out {
            *s /= n;
        }
        out
    }

    /// Hard prediction at 0.5.
    pub fn predict(&self, row: &[f64]) -> u8 {
        u8::from(self.predict_proba(row) >= 0.5)
    }

    /// Probabilities over a dataset, rows fanned out across the pool
    /// (scores are pure, so output order and values match the serial map).
    pub fn predict_all(&self, data: &Dataset) -> Vec<f64> {
        freephish_par::par_map_range(data.len(), |i| self.predict_proba(data.row(i)))
    }

    /// Number of trees.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }

    /// The fitted trees, in training order; split features index each
    /// tree's own column bag, not the dataset.
    pub fn trees(&self) -> impl Iterator<Item = &RegTree> {
        self.trees.iter().map(|ft| &ft.tree)
    }

    /// How often each dataset feature is used by a split, across the
    /// forest — a split-count importance.
    pub fn feature_usage(&self, n_features: usize) -> Vec<usize> {
        let mut usage = vec![0usize; n_features];
        for ft in &self.trees {
            for local in ft.tree.used_features() {
                usage[ft.columns[local]] += 1;
            }
        }
        usage
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::BinaryMetrics;

    fn blobs(n: usize, seed: u64) -> Dataset {
        let mut rng = Rng64::new(seed);
        let mut d = Dataset::new(vec!["x".into(), "y".into(), "noise".into()]);
        for _ in 0..n {
            let label = rng.chance(0.5);
            let c = if label { 1.5 } else { -1.5 };
            d.push(
                vec![
                    rng.normal_ms(c, 1.0),
                    rng.normal_ms(c, 1.0),
                    rng.normal_ms(0.0, 1.0), // uninformative
                ],
                u8::from(label),
            );
        }
        d
    }

    #[test]
    fn separable_data_high_accuracy() {
        let data = blobs(600, 1);
        let mut rng = Rng64::new(2);
        let (train, test) = data.split(0.7, &mut rng);
        let forest = RandomForest::train(&ForestConfig::tiny(), &train, &mut rng);
        let m = BinaryMetrics::from_scores(test.labels(), &forest.predict_all(&test));
        assert!(m.accuracy > 0.9, "accuracy={}", m.accuracy);
        assert_eq!(forest.n_trees(), 15);
    }

    #[test]
    fn probabilities_in_unit_interval() {
        let data = blobs(200, 3);
        let mut rng = Rng64::new(4);
        let forest = RandomForest::train(&ForestConfig::tiny(), &data, &mut rng);
        for i in 0..data.len() {
            let p = forest.predict_proba(data.row(i));
            assert!((0.0..=1.0).contains(&p), "p={p}");
        }
    }

    #[test]
    fn deterministic() {
        let data = blobs(200, 5);
        let mut r1 = Rng64::new(6);
        let mut r2 = Rng64::new(6);
        let f1 = RandomForest::train(&ForestConfig::tiny(), &data, &mut r1);
        let f2 = RandomForest::train(&ForestConfig::tiny(), &data, &mut r2);
        for i in 0..20 {
            assert_eq!(f1.predict_proba(data.row(i)), f2.predict_proba(data.row(i)));
        }
    }

    #[test]
    fn informative_features_used_more_than_noise() {
        // Shallow trees only get a couple of splits each, so split-count
        // usage concentrates on the informative columns.
        let data = blobs(600, 7);
        let mut rng = Rng64::new(8);
        let config = ForestConfig {
            n_trees: 40,
            tree: TreeConfig {
                max_depth: 2,
                min_leaf: 20,
                ..TreeConfig::default()
            },
            ..ForestConfig::default()
        };
        let forest = RandomForest::train(&config, &data, &mut rng);
        let usage = forest.feature_usage(3);
        // x and y carry the signal; the noise column should be split on
        // far less often.
        assert!(usage[0] + usage[1] > usage[2] * 2, "usage={usage:?}");
    }

    #[test]
    fn more_trees_not_worse() {
        let data = blobs(500, 9);
        let mut rng = Rng64::new(10);
        let (train, test) = data.split(0.7, &mut rng);
        let mut r1 = Rng64::new(11);
        let small = RandomForest::train(
            &ForestConfig {
                n_trees: 3,
                ..ForestConfig::tiny()
            },
            &train,
            &mut r1,
        );
        let mut r2 = Rng64::new(11);
        let big = RandomForest::train(
            &ForestConfig {
                n_trees: 40,
                ..ForestConfig::tiny()
            },
            &train,
            &mut r2,
        );
        let ms = BinaryMetrics::from_scores(test.labels(), &small.predict_all(&test));
        let mb = BinaryMetrics::from_scores(test.labels(), &big.predict_all(&test));
        assert!(mb.accuracy >= ms.accuracy - 0.05);
    }
}
