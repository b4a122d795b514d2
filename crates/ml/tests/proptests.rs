//! Property tests over the ML substrate.

use freephish_ml::dataset::Dataset;
use freephish_ml::flat::FlatForestBuilder;
use freephish_ml::forest::{ForestConfig, RandomForest};
use freephish_ml::gbdt::{Gbdt, GbdtConfig};
use freephish_ml::metrics::{auc, BinaryMetrics, ConfusionMatrix};
use freephish_ml::stacking::{StackModel, StackModelConfig};
use freephish_ml::tree::{BinnedMatrix, TreeConfig, TreeFitter};
use freephish_simclock::prop::{check, Gen};
use freephish_simclock::Rng64;

fn small_dataset(rows: Vec<(f64, f64, bool)>) -> Dataset {
    let mut d = Dataset::new(vec!["a".into(), "b".into()]);
    for (x, y, l) in rows {
        d.push(vec![x, y], u8::from(l));
    }
    d
}

/// Labelled rows in [-5, 5)², with both classes present so training is
/// meaningful.
fn labelled_rows(g: &mut Gen, n: std::ops::Range<usize>) -> Vec<(f64, f64, bool)> {
    let mut rows = g.vec(n, |g| (g.f64_in(-5.0..5.0), g.f64_in(-5.0..5.0), g.bool()));
    rows[0].2 = true;
    rows[1].2 = false;
    rows
}

/// Binning invariant: bin(x) <= b  ⇔  x <= threshold(b), for every row
/// and every edge.
#[test]
fn binning_invariant() {
    check(256, |g| {
        let values = g.vec(2..60, |g| g.f64_in(-100.0..100.0));
        let max_bins = g.usize_in(2..32);
        let rows: Vec<Vec<f64>> = values.iter().map(|&v| vec![v]).collect();
        let m = BinnedMatrix::build(&rows, max_bins);
        for b in 0..m.n_bins(0).saturating_sub(1) {
            let t = m.threshold(0, b);
            for (r, row) in rows.iter().enumerate() {
                assert_eq!((m.bin(0, r) as usize) <= b, row[0] <= t);
            }
        }
    });
}

/// A feature column of `n` rows: uniform values, a few distinct values,
/// a constant, or values laced with NaN and ±inf.
fn column(g: &mut Gen, n: usize) -> Vec<f64> {
    match g.usize_in(0..4) {
        0 => (0..n).map(|_| g.f64_in(-5.0..5.0)).collect(),
        1 => {
            let levels = [g.f64_in(-1.0..1.0), 0.0, g.f64_in(-1.0..1.0)];
            (0..n).map(|_| *g.pick(&levels)).collect()
        }
        2 => vec![g.f64_in(-5.0..5.0); n],
        _ => (0..n)
            .map(|_| match g.usize_in(0..8) {
                0 => f64::NAN,
                1 => f64::INFINITY,
                2 => f64::NEG_INFINITY,
                _ => g.f64_in(-5.0..5.0),
            })
            .collect(),
    }
}

/// Row-major rows of 1 to 4 drawn columns, some of them duplicates of
/// another.
fn feature_rows(g: &mut Gen, n: usize) -> Vec<Vec<f64>> {
    let mut columns: Vec<Vec<f64>> = Vec::new();
    for _ in 0..g.usize_in(1..5) {
        let col = match columns.is_empty() || g.bool() {
            true => column(g, n),
            false => g.pick(&columns).clone(),
        };
        columns.push(col);
    }
    (0..n)
        .map(|r| columns.iter().map(|c| c[r]).collect())
        .collect()
}

fn tree_config(g: &mut Gen) -> TreeConfig {
    TreeConfig {
        max_depth: g.usize_in(1..8),
        max_leaves: g.usize_in(2..32),
        min_leaf: g.usize_in(0..6),
        lambda: g.f64_in(0.0..2.0),
        gamma: g.f64_in(0.0..0.5),
        leaf_wise: g.bool(),
    }
}

/// The training kernel never panics on NaN, ±inf, constant or duplicate
/// columns, and every sampled row lands in the leaf that inference (boxed
/// and flat) reaches from that row — the invariant the boosting loop's
/// score update from leaves relies on.
#[test]
fn fitted_leaves_match_inference() {
    check(256, |g| {
        let n = g.usize_in(1..301);
        let rows = feature_rows(g, n);
        let grad = g.vec(n..n + 1, |g| g.f64_in(-1.0..1.0));
        let hess = g.vec(n..n + 1, |g| g.f64_in(0.01..0.25));
        let mut rng = Rng64::new(g.u64());
        let sample: Vec<usize> = match g.usize_in(0..3) {
            0 => (0..n).collect(),
            1 => rng.sample_indices(n, g.usize_in(1..n + 1)),
            _ => (0..n).map(|_| rng.index(n)).collect(),
        };
        let m = BinnedMatrix::build(&rows, g.usize_in(2..64));
        let mut fitter = TreeFitter::new(&m);
        let tree = fitter.fit(&grad, &hess, &sample, &tree_config(g));
        let mut flat = FlatForestBuilder::new(-0.0);
        flat.push_tree(&tree, None, |v| v);
        let flat = flat.build();
        let mut seen: Vec<usize> = Vec::new();
        for (value, leaf_rows) in fitter.leaves() {
            for &r in leaf_rows {
                let row = &rows[r];
                assert_eq!(tree.predict_row(row).to_bits(), value.to_bits(), "row {r}");
                assert_eq!(flat.predict_row(row).to_bits(), value.to_bits(), "row {r}");
            }
            seen.extend_from_slice(leaf_rows);
        }
        let mut expected = sample.clone();
        expected.sort_unstable();
        seen.sort_unstable();
        assert_eq!(seen, expected, "the leaves partition the sample");
    });
}

/// Boosting and forests train on the same hostile columns without
/// panicking, with and without row subsampling.
#[test]
fn training_survives_hostile_columns() {
    check(64, |g| {
        let n = g.usize_in(1..301);
        let rows = feature_rows(g, n);
        let mut d = Dataset::new((0..rows[0].len()).map(|f| format!("f{f}")).collect());
        for row in rows {
            let label = u8::from(g.bool());
            d.push(row, label);
        }
        let mut rng = Rng64::new(g.u64());
        let cfg = GbdtConfig {
            n_trees: 4,
            tree: tree_config(g),
            max_bins: g.usize_in(2..64),
            subsample: *g.pick(&[1.0, 0.8, 0.3]),
            ..GbdtConfig::tiny()
        };
        let model = Gbdt::train(&cfg, &d, &mut rng);
        let forest = RandomForest::train(
            &ForestConfig {
                n_trees: 3,
                ..ForestConfig::tiny()
            },
            &d,
            &mut rng,
        );
        for i in 0..d.len() {
            let boxed = model.predict_proba_boxed(d.row(i));
            assert_eq!(model.predict_proba(d.row(i)).to_bits(), boxed.to_bits());
            let boxed = forest.predict_proba_boxed(d.row(i));
            assert_eq!(forest.predict_proba(d.row(i)).to_bits(), boxed.to_bits());
        }
    });
}

/// GBDT probabilities always lie in (0, 1).
#[test]
fn gbdt_proba_in_unit_interval() {
    check(256, |g| {
        let d = small_dataset(labelled_rows(g, 20..60));
        let mut rng = Rng64::new(g.u64());
        let cfg = GbdtConfig {
            n_trees: 5,
            ..GbdtConfig::tiny()
        };
        let model = Gbdt::train(&cfg, &d, &mut rng);
        for i in 0..d.len() {
            let p = model.predict_proba(d.row(i));
            assert!(p > 0.0 && p < 1.0, "p={p}");
        }
    });
}

/// Confusion-matrix metrics all lie in [0, 1] and cells sum to n.
#[test]
fn metrics_in_range() {
    check(256, |g| {
        let labels = g.vec(1..50, |g| g.u64_in(0..2) as u8);
        let mut rng = Rng64::new(g.u64());
        let scores: Vec<f64> = labels.iter().map(|_| rng.f64()).collect();
        let cm = ConfusionMatrix::from_scores(&labels, &scores, 0.5);
        assert_eq!(cm.total(), labels.len());
        let m = BinaryMetrics::from_scores(&labels, &scores);
        for v in [m.accuracy, m.precision, m.recall, m.f1] {
            assert!((0.0..=1.0).contains(&v));
        }
        let a = auc(&labels, &scores);
        assert!((0.0..=1.0).contains(&a));
    });
}

/// AUC of scores equal to labels is exactly 1 (when both classes
/// present).
#[test]
fn auc_of_perfect_scores() {
    check(256, |g| {
        let labels = g.vec(2..40, |g| g.u64_in(0..2) as u8);
        if !(labels.contains(&1) && labels.contains(&0)) {
            return;
        }
        let scores: Vec<f64> = labels.iter().map(|&l| l as f64).collect();
        assert_eq!(auc(&labels, &scores), 1.0);
    });
}

/// Train/test split partitions the dataset exactly.
#[test]
fn split_partitions() {
    check(256, |g| {
        let n = g.usize_in(2..100);
        let rows: Vec<(f64, f64, bool)> = (0..n).map(|i| (i as f64, 0.0, i % 2 == 0)).collect();
        let d = small_dataset(rows);
        let frac = g.f64_in(0.1..0.9);
        let mut rng = Rng64::new(g.u64());
        let (tr, te) = d.split(frac, &mut rng);
        assert_eq!(tr.len() + te.len(), n);
    });
}

/// Flat GBDT inference (row and batch) is bit-identical to the boxed
/// `predict_row` walk on randomly trained forests and arbitrary rows.
#[test]
fn flat_gbdt_equals_boxed() {
    check(256, |g| {
        let d = small_dataset(labelled_rows(g, 20..60));
        let probe_rows = g.vec(1..20, |g| {
            vec![g.f64_in(-10.0..10.0), g.f64_in(-10.0..10.0)]
        });
        let mut rng = Rng64::new(g.u64());
        let cfg = GbdtConfig {
            n_trees: 6,
            ..GbdtConfig::tiny()
        };
        let model = Gbdt::train(&cfg, &d, &mut rng);
        let refs: Vec<&[f64]> = probe_rows.iter().map(|r| r.as_slice()).collect();
        let batch = model.predict_proba_batch(&refs);
        for (i, r) in refs.iter().enumerate() {
            let boxed = model.predict_proba_boxed(r);
            assert_eq!(model.predict_proba(r).to_bits(), boxed.to_bits(), "row {i}");
            assert_eq!(batch[i].to_bits(), boxed.to_bits(), "batch row {i}");
        }
    });
}

/// Flat random-forest inference (column remap + folded vote transform)
/// is bit-identical to the boxed projection walk.
#[test]
fn flat_forest_equals_boxed() {
    check(256, |g| {
        let d = small_dataset(labelled_rows(g, 30..60));
        let mut rng = Rng64::new(g.u64());
        let cfg = ForestConfig {
            n_trees: 8,
            ..ForestConfig::tiny()
        };
        let model = RandomForest::train(&cfg, &d, &mut rng);
        let refs: Vec<&[f64]> = (0..d.len()).map(|i| d.row(i)).collect();
        let batch = model.predict_proba_batch(&refs);
        for (i, r) in refs.iter().enumerate() {
            let boxed = model.predict_proba_boxed(r);
            assert_eq!(model.predict_proba(r).to_bits(), boxed.to_bits(), "row {i}");
            assert_eq!(batch[i].to_bits(), boxed.to_bits(), "batch row {i}");
        }
    });
}

/// Stack training is expensive, so the stacked flat ≡ boxed equivalence
/// runs as one deterministic case instead of as a property.
#[test]
fn flat_stack_equals_boxed() {
    let rows: Vec<(f64, f64, bool)> = (0..80)
        .map(|i| {
            let x = (i % 13) as f64 - 6.0;
            let y = (i % 7) as f64 - 3.0;
            (x, y, x + y > 0.0)
        })
        .collect();
    let d = small_dataset(rows);
    let mut rng = Rng64::new(42);
    let model = StackModel::train(&StackModelConfig::tiny(), &d, &mut rng);
    let refs: Vec<&[f64]> = (0..d.len()).map(|i| d.row(i)).collect();
    let batch = model.predict_proba_batch(&refs);
    for (i, r) in refs.iter().enumerate() {
        let flat = model.predict_proba(r);
        let boxed = model.predict_proba_boxed(r);
        assert_eq!(flat.to_bits(), boxed.to_bits(), "row {i}");
        assert_eq!(batch[i].to_bits(), boxed.to_bits(), "batch row {i}");
    }
}
