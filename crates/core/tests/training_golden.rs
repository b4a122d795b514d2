//! Golden training vectors for the tree learners.
//!
//! Each test trains one learner on a seeded ground-truth corpus and
//! folds every fitted node (kind, feature, threshold bits, child links,
//! leaf bits) and every training row's predicted probability (bits) into
//! one FNV-1a digest. The constants were recorded from the per-feature
//! histogram kernel that preceded the one-pass arena kernel; any change
//! to a split, a threshold, a leaf or a score — even in the last bit —
//! changes a digest. A deliberate change to training has to re-record
//! them (and `REPRO.json`) in the same commit.

use freephish_core::features::FeatureSet;
use freephish_core::groundtruth::{build, to_dataset, GroundTruthConfig};
use freephish_ml::tree::{Node, RegTree};
use freephish_ml::{
    Dataset, ForestConfig, Gbdt, GbdtConfig, RandomForest, StackModel, StackModelConfig,
};
use freephish_simclock::{fnv1a_from, Rng64, FNV1A_OFFSET};

fn corpus() -> Dataset {
    let sites = build(&GroundTruthConfig {
        n_phish: 150,
        n_benign: 150,
        seed: 0x601D,
    });
    to_dataset(&sites, FeatureSet::Augmented)
}

fn fold(h: u64, word: u64) -> u64 {
    fnv1a_from(h, &word.to_le_bytes())
}

fn fold_tree(mut h: u64, tree: &RegTree) -> u64 {
    for node in tree.nodes() {
        h = match *node {
            Node::Leaf { value } => fold(fold(h, 0), value.to_bits()),
            Node::Split {
                feature,
                threshold,
                left,
                right,
            } => [
                feature as u64,
                threshold.to_bits(),
                left as u64,
                right as u64,
            ]
            .into_iter()
            .fold(fold(h, 1), fold),
        };
    }
    h
}

fn fold_gbdt(h: u64, model: &Gbdt) -> u64 {
    model.trees().iter().fold(h, fold_tree)
}

fn fold_predictions(h: u64, data: &Dataset, predict: impl Fn(&[f64]) -> f64) -> u64 {
    (0..data.len()).fold(h, |h, i| fold(h, predict(data.row(i)).to_bits()))
}

fn gbdt_digest(config: &GbdtConfig) -> u64 {
    let data = corpus();
    let model = Gbdt::train(config, &data, &mut Rng64::new(0x6B));
    let h = fold_gbdt(FNV1A_OFFSET, &model);
    fold_predictions(h, &data, |row| model.predict_proba(row))
}

fn stack_digest(config: &StackModelConfig) -> u64 {
    let data = corpus();
    let model = StackModel::train(config, &data, &mut Rng64::new(0x57));
    let h = model.base_models().iter().fold(FNV1A_OFFSET, fold_gbdt);
    let h = fold_gbdt(h, model.meta_model());
    fold_predictions(h, &data, |row| model.predict_proba(row))
}

#[test]
fn gbdt_classic_is_golden() {
    assert_eq!(gbdt_digest(&GbdtConfig::classic()), 0xd729_8a55_f41d_1195);
}

#[test]
fn gbdt_xgboost_style_is_golden() {
    assert_eq!(
        gbdt_digest(&GbdtConfig::xgboost_style()),
        0xfcf0_27d5_4501_b33f
    );
}

#[test]
fn gbdt_lightgbm_style_is_golden() {
    assert_eq!(
        gbdt_digest(&GbdtConfig::lightgbm_style()),
        0xc10e_43f1_4cfe_a261
    );
}

#[test]
fn gbdt_tiny_is_golden() {
    assert_eq!(gbdt_digest(&GbdtConfig::tiny()), 0x559c_6fcd_000d_320b);
}

#[test]
fn stack_model_default_is_golden() {
    assert_eq!(
        stack_digest(&StackModelConfig::default()),
        0xd40c_3d16_cbd2_5109
    );
}

#[test]
fn stack_model_tiny_is_golden() {
    assert_eq!(
        stack_digest(&StackModelConfig::tiny()),
        0xd5ab_6687_1efa_f759
    );
}

#[test]
fn random_forest_is_golden() {
    let data = corpus();
    let model = RandomForest::train(&ForestConfig::default(), &data, &mut Rng64::new(0xF0));
    let h = model.trees().fold(FNV1A_OFFSET, fold_tree);
    assert_eq!(
        fold_predictions(h, &data, |row| model.predict_proba(row)),
        0x55a5_bb28_bdfd_5c29
    );
}
