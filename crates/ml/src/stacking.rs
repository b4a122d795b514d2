//! The two-layer StackModel of Li et al. 2019, as used (and augmented) by
//! FreePhish.
//!
//! Layer 1 trains three gradient-boosting variants (GBDT, XGBoost-style,
//! LightGBM-style). Following the paper's K-fold protocol, each base model
//! produces *out-of-fold* predictions for every training row — each row is
//! predicted by a model that never saw it — so the second layer trains on
//! honest probabilities. A majority-vote feature over the binarised base
//! predictions is appended. Layer 2 is a final GBDT over
//! `[original features ‖ base probabilities ‖ vote]`.
//!
//! At inference time the base models (retrained on the full training set)
//! produce the same augmented row for the final model.

use crate::dataset::Dataset;
use crate::gbdt::{Gbdt, GbdtConfig};
use freephish_simclock::Rng64;

/// StackModel hyper-parameters.
#[derive(Debug, Clone)]
pub struct StackModelConfig {
    /// Configurations of the three (or more) base learners.
    pub base_configs: Vec<GbdtConfig>,
    /// The second-layer learner.
    pub meta_config: GbdtConfig,
    /// Folds used to produce out-of-fold base predictions.
    pub k_folds: usize,
}

impl Default for StackModelConfig {
    fn default() -> Self {
        StackModelConfig {
            base_configs: vec![
                GbdtConfig::classic(),
                GbdtConfig::xgboost_style(),
                GbdtConfig::lightgbm_style(),
            ],
            meta_config: GbdtConfig::classic(),
            k_folds: 5,
        }
    }
}

impl StackModelConfig {
    /// A fast configuration for tests.
    pub fn tiny() -> Self {
        StackModelConfig {
            base_configs: vec![GbdtConfig::tiny(), GbdtConfig::tiny()],
            meta_config: GbdtConfig::tiny(),
            k_folds: 3,
        }
    }
}

/// A fitted StackModel.
#[derive(Debug, Clone)]
pub struct StackModel {
    base_models: Vec<Gbdt>,
    meta_model: Gbdt,
}

impl StackModel {
    /// Train the full stack. Deterministic given the RNG state: every
    /// `fork` is drawn serially in the seed order, then the (b, fold)
    /// training jobs — each owning its pre-forked RNG — fan out across
    /// the `freephish-par` pool, so the fitted stack is bit-identical at
    /// any thread count.
    pub fn train(config: &StackModelConfig, data: &Dataset, rng: &mut Rng64) -> StackModel {
        assert!(
            data.len() >= config.k_folds * 2,
            "dataset too small to stack"
        );
        let n = data.len();
        let n_base = config.base_configs.len();
        let folds = data.kfold_indices(config.k_folds, rng);

        // Serial RNG phase: one fork per (base model, held-out fold), in
        // exactly the order the seed's nested loop drew them.
        let jobs: Vec<(usize, usize, Rng64)> = (0..n_base)
            .flat_map(|b| (0..folds.len()).map(move |f| (b, f)))
            .map(|(b, f)| (b, f, rng.fork(b as u64)))
            .collect();

        // Parallel phase: train each fold model and score its held-out
        // rows; results land back in `oof` keyed by (b, fold).
        let mut oof = vec![vec![0.0f64; n_base]; n];
        let fold_preds = freephish_par::par_map(&jobs, |(b, f, fold_rng)| {
            let held_out = &folds[*f];
            let train_idx: Vec<usize> = folds
                .iter()
                .enumerate()
                .filter(|(i, _)| i != f)
                .flat_map(|(_, fold)| fold.iter().copied())
                .collect();
            let sub = data.subset(&train_idx);
            let mut fold_rng = fold_rng.clone();
            let model = Gbdt::train(&config.base_configs[*b], &sub, &mut fold_rng);
            held_out
                .iter()
                .map(|&i| model.predict_proba(data.row(i)))
                .collect::<Vec<f64>>()
        });
        for ((b, f, _), preds) in jobs.iter().zip(fold_preds) {
            for (&i, p) in folds[*f].iter().zip(preds) {
                oof[i][*b] = p;
            }
        }

        // Majority-vote column over binarised base predictions.
        let extra: Vec<Vec<f64>> = oof
            .iter()
            .map(|probs| {
                let mut row = probs.clone();
                let votes = probs.iter().filter(|&&p| p >= 0.5).count();
                row.push(f64::from(votes * 2 > probs.len()));
                row
            })
            .collect();
        let names: Vec<String> = (0..n_base)
            .map(|b| format!("base{b}_proba"))
            .chain(std::iter::once("base_vote".to_string()))
            .collect();
        let name_refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
        let meta_data = data.with_extra_features(&name_refs, &extra);

        // Retrain base models on the full training set for inference —
        // forks drawn serially, fits fanned out.
        let retrain_rngs: Vec<Rng64> = (0..n_base).map(|b| rng.fork(100 + b as u64)).collect();
        let base_models: Vec<Gbdt> = freephish_par::par_map_indexed(&retrain_rngs, |b, m_rng| {
            let mut m_rng = m_rng.clone();
            Gbdt::train(&config.base_configs[b], data, &mut m_rng)
        });

        let mut meta_rng = rng.fork(999);
        let meta_model = Gbdt::train(&config.meta_config, &meta_data, &mut meta_rng);

        StackModel {
            base_models,
            meta_model,
        }
    }

    /// Build the augmented row: original features plus base probabilities
    /// plus the majority vote.
    fn augment(&self, row: &[f64]) -> Vec<f64> {
        let mut out = row.to_vec();
        let probs: Vec<f64> = self
            .base_models
            .iter()
            .map(|m| m.predict_proba(row))
            .collect();
        let votes = probs.iter().filter(|&&p| p >= 0.5).count();
        out.extend_from_slice(&probs);
        out.push(f64::from(votes * 2 > probs.len()));
        out
    }

    /// Probability of the positive (phishing) class.
    pub fn predict_proba(&self, row: &[f64]) -> f64 {
        self.meta_model.predict_proba(&self.augment(row))
    }

    /// Probability through the boxed reference paths of every layer —
    /// the pre-flattening implementation, kept for equivalence tests and
    /// benchmarks.
    pub fn predict_proba_boxed(&self, row: &[f64]) -> f64 {
        let mut out = row.to_vec();
        let probs: Vec<f64> = self
            .base_models
            .iter()
            .map(|m| m.predict_proba_boxed(row))
            .collect();
        let votes = probs.iter().filter(|&&p| p >= 0.5).count();
        out.extend_from_slice(&probs);
        out.push(f64::from(votes * 2 > probs.len()));
        self.meta_model.predict_proba_boxed(&out)
    }

    /// Probabilities for many rows, batched through the flat layouts of
    /// every layer: each base model walks all rows (cache-hot), then the
    /// meta model walks the augmented rows. Per-row arithmetic is identical
    /// to [`StackModel::predict_proba`], so outputs are bit-identical.
    pub fn predict_proba_batch(&self, rows: &[&[f64]]) -> Vec<f64> {
        let base: Vec<Vec<f64>> = self
            .base_models
            .iter()
            .map(|m| m.predict_proba_batch(rows))
            .collect();
        // All augmented rows live in one strided buffer: one allocation
        // for the whole batch instead of one Vec per row.
        let width = rows.first().map_or(0, |r| r.len()) + base.len() + 1;
        let mut augmented: Vec<f64> = Vec::with_capacity(rows.len() * width);
        for (i, row) in rows.iter().enumerate() {
            augmented.extend_from_slice(row);
            let votes = base.iter().filter(|b| b[i] >= 0.5).count();
            augmented.extend(base.iter().map(|b| b[i]));
            augmented.push(f64::from(votes * 2 > base.len()));
        }
        let aug_refs: Vec<&[f64]> = augmented.chunks_exact(width.max(1)).collect();
        self.meta_model.predict_proba_batch(&aug_refs)
    }

    /// Hard prediction at 0.5.
    pub fn predict(&self, row: &[f64]) -> u8 {
        u8::from(self.predict_proba(row) >= 0.5)
    }

    /// Probabilities over a whole dataset, rows fanned out across the
    /// worker pool (pure per-row scoring keeps the output order exact).
    pub fn predict_all(&self, data: &Dataset) -> Vec<f64> {
        freephish_par::par_map_range(data.len(), |i| self.predict_proba(data.row(i)))
    }

    /// Number of base models.
    pub fn n_base_models(&self) -> usize {
        self.base_models.len()
    }

    /// The layer-1 models retrained on the full training set.
    pub fn base_models(&self) -> &[Gbdt] {
        &self.base_models
    }

    /// The layer-2 model.
    pub fn meta_model(&self) -> &Gbdt {
        &self.meta_model
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::BinaryMetrics;

    fn rings(n: usize, seed: u64) -> Dataset {
        // Inner disc = class 1, outer ring = class 0 — nonlinear boundary.
        let mut rng = Rng64::new(seed);
        let mut d = Dataset::new(vec!["x".into(), "y".into()]);
        for _ in 0..n {
            let inner = rng.chance(0.5);
            let r = if inner {
                rng.range_f64(0.0, 1.0)
            } else {
                rng.range_f64(1.6, 2.8)
            };
            let theta = rng.range_f64(0.0, std::f64::consts::TAU);
            d.push(vec![r * theta.cos(), r * theta.sin()], u8::from(inner));
        }
        d
    }

    #[test]
    fn stack_learns_nonlinear_boundary() {
        let mut rng = Rng64::new(5);
        let data = rings(600, 1);
        let (train, test) = data.split(0.7, &mut rng);
        let model = StackModel::train(&StackModelConfig::tiny(), &train, &mut rng);
        let m = BinaryMetrics::from_scores(test.labels(), &model.predict_all(&test));
        assert!(m.accuracy > 0.9, "accuracy={}", m.accuracy);
        assert_eq!(model.n_base_models(), 2);
    }

    #[test]
    fn stack_not_worse_than_single_base() {
        let mut rng = Rng64::new(6);
        let data = rings(600, 2);
        let (train, test) = data.split(0.7, &mut rng);
        let mut r1 = Rng64::new(7);
        let stack = StackModel::train(&StackModelConfig::tiny(), &train, &mut r1);
        let mut r2 = Rng64::new(7);
        let single = Gbdt::train(&GbdtConfig::tiny(), &train, &mut r2);
        let ms = BinaryMetrics::from_scores(test.labels(), &stack.predict_all(&test));
        let mb = BinaryMetrics::from_scores(test.labels(), &single.predict_all(&test));
        assert!(
            ms.f1 >= mb.f1 - 0.03,
            "stack f1 {} vs base f1 {}",
            ms.f1,
            mb.f1
        );
    }

    #[test]
    fn deterministic() {
        let data = rings(200, 3);
        let mut r1 = Rng64::new(8);
        let mut r2 = Rng64::new(8);
        let m1 = StackModel::train(&StackModelConfig::tiny(), &data, &mut r1);
        let m2 = StackModel::train(&StackModelConfig::tiny(), &data, &mut r2);
        for i in 0..20 {
            assert_eq!(m1.predict_proba(data.row(i)), m2.predict_proba(data.row(i)));
        }
    }

    #[test]
    fn bit_identical_across_thread_counts() {
        // The determinism contract: all RNG forks are drawn serially, so
        // the fitted stack is the same function at 1 and at 8 threads.
        let data = rings(200, 12);
        let serial = freephish_par::with_thread_override(1, || {
            let mut r = Rng64::new(13);
            StackModel::train(&StackModelConfig::tiny(), &data, &mut r)
        });
        let parallel = freephish_par::with_thread_override(8, || {
            let mut r = Rng64::new(13);
            StackModel::train(&StackModelConfig::tiny(), &data, &mut r)
        });
        for i in 0..data.len() {
            assert_eq!(
                serial.predict_proba(data.row(i)).to_bits(),
                parallel.predict_proba(data.row(i)).to_bits(),
                "row {i}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn tiny_dataset_rejected() {
        let mut d = Dataset::new(vec!["x".into()]);
        d.push(vec![1.0], 1);
        d.push(vec![0.0], 0);
        let mut rng = Rng64::new(9);
        StackModel::train(&StackModelConfig::tiny(), &d, &mut rng);
    }

    #[test]
    fn proba_in_unit_interval() {
        let data = rings(200, 4);
        let mut rng = Rng64::new(10);
        let model = StackModel::train(&StackModelConfig::tiny(), &data, &mut rng);
        for i in 0..data.len() {
            let p = model.predict_proba(data.row(i));
            assert!((0.0..=1.0).contains(&p));
        }
    }
}
