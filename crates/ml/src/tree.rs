//! Histogram-based regression trees with second-order split gains.
//!
//! This is the shared engine under all three boosting variants. Features
//! are quantised into at most 256 bins (XGBoost's "approx" / LightGBM's
//! histogram strategy); split gain uses the standard second-order formula
//!
//! ```text
//! gain = G_L²/(H_L+λ) + G_R²/(H_R+λ) − G²/(H+λ) − γ
//! ```
//!
//! and leaf weights are `−G/(H+λ)`. Growth is either level-wise (classic
//! GBDT / XGBoost) or best-first leaf-wise (LightGBM's signature).

use std::ops::Range;

/// Tree-growth hyper-parameters.
#[derive(Debug, Clone)]
pub struct TreeConfig {
    /// Maximum depth for level-wise growth (root = depth 0).
    pub max_depth: usize,
    /// Maximum leaf count for leaf-wise growth.
    pub max_leaves: usize,
    /// Minimum examples per leaf.
    pub min_leaf: usize,
    /// L2 regularisation on leaf weights (XGBoost's λ).
    pub lambda: f64,
    /// Minimum gain to split (XGBoost's γ).
    pub gamma: f64,
    /// Leaf-wise (best-first) growth instead of level-wise.
    pub leaf_wise: bool,
}

impl Default for TreeConfig {
    fn default() -> Self {
        TreeConfig {
            max_depth: 5,
            max_leaves: 31,
            min_leaf: 5,
            lambda: 1.0,
            gamma: 0.0,
            leaf_wise: false,
        }
    }
}

/// Feature matrix quantised to per-feature bins.
///
/// `edges[f]` holds ascending thresholds taken from the column's non-NaN
/// values; a value `x` falls in bin `edges[f].partition_point(|e| e < x)`
/// and a NaN in the last bin, so `bin(x) <= b  ⇔  x <= edges[f][b]` for any
/// edge index `b` and any `x`, NaN included — which is exactly the
/// predicate a split needs, and the way inference routes a row (NaN goes
/// right, as `!(x <= t)` in [`crate::flat`]).
#[derive(Debug, Clone)]
pub struct BinnedMatrix {
    /// Row-major bins: `bins[row * n_features + f]`, so one node pass reads
    /// each row's bins for every feature from one cache line.
    bins: Vec<u8>,
    /// Ascending candidate thresholds per feature.
    edges: Vec<Vec<f64>>,
    n_rows: usize,
}

impl BinnedMatrix {
    /// Quantise `rows` (row-major) into at most `max_bins` bins per feature
    /// using (approximate) quantile edges. `max_bins` is clamped to 2..=256.
    pub fn build(rows: &[Vec<f64>], max_bins: usize) -> Self {
        let max_bins = max_bins.clamp(2, 256);
        let n_rows = rows.len();
        let n_features = rows.first().map(|r| r.len()).unwrap_or(0);
        let mut edges = Vec::with_capacity(n_features);
        let mut bins = vec![0u8; n_rows * n_features];
        for f in 0..n_features {
            let mut col: Vec<f64> = rows.iter().map(|r| r[f]).filter(|x| !x.is_nan()).collect();
            col.sort_by(f64::total_cmp);
            // Quantile edges, deduplicated.
            let n = col.len();
            let mut e: Vec<f64> = Vec::new();
            for k in 1..max_bins {
                let pos = k * n / max_bins;
                if pos < n {
                    let v = col[pos.saturating_sub(1)];
                    if e.last().map(|&last| v > last).unwrap_or(true) {
                        e.push(v);
                    }
                }
            }
            // An edge at (or above) the column maximum separates nothing:
            // drop it so constant features end up with a single bin.
            if let Some(&max) = col.last() {
                while e.last().map(|&last| last >= max).unwrap_or(false) {
                    e.pop();
                }
            }
            for (r, row) in rows.iter().enumerate() {
                let x = row[f];
                let b = if x.is_nan() {
                    e.len()
                } else {
                    e.partition_point(|&edge| edge < x)
                };
                bins[r * n_features + f] = b as u8;
            }
            edges.push(e);
        }
        BinnedMatrix {
            bins,
            edges,
            n_rows,
        }
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of features.
    pub fn n_features(&self) -> usize {
        self.edges.len()
    }

    /// Number of bins for feature `f` (edges + 1).
    pub fn n_bins(&self, f: usize) -> usize {
        self.edges[f].len() + 1
    }

    /// Bin of row `row` for feature `f`.
    pub fn bin(&self, f: usize, row: usize) -> u8 {
        self.bins[row * self.n_features() + f]
    }

    /// Bins of row `row` for every feature.
    fn row_bins(&self, row: usize) -> &[u8] {
        let nf = self.n_features();
        &self.bins[row * nf..(row + 1) * nf]
    }

    /// Threshold corresponding to splitting feature `f` at bin `b`
    /// (rows with `value <= threshold` go left).
    pub fn threshold(&self, f: usize, b: usize) -> f64 {
        self.edges[f][b]
    }
}

/// One tree node.
#[derive(Debug, Clone)]
pub enum Node {
    /// Terminal node carrying the leaf weight.
    Leaf {
        /// The weight added to the raw score.
        value: f64,
    },
    /// Internal split: rows with `features[feature] <= threshold` go left.
    Split {
        /// Feature index.
        feature: usize,
        /// Raw-value threshold.
        threshold: f64,
        /// Left child node index.
        left: usize,
        /// Right child node index.
        right: usize,
    },
}

/// A fitted regression tree.
#[derive(Debug, Clone)]
pub struct RegTree {
    nodes: Vec<Node>,
}

struct SplitCandidate {
    gain: f64,
    feature: usize,
    bin: usize,
}

/// Work item during growth: a prospective leaf and its range of the
/// fitter's row buffer.
struct Pending {
    node_slot: usize,
    rows: Range<usize>,
    depth: usize,
    grad_sum: f64,
    hess_sum: f64,
}

/// Gradient statistics of the rows in one histogram bin.
#[derive(Debug, Clone, Copy, Default)]
struct BinStats {
    grad: f64,
    hess: f64,
    count: usize,
}

/// The training kernel: fits [`RegTree`]s over one [`BinnedMatrix`],
/// keeping its buffers from one fit to the next.
///
/// Each node makes one pass over its rows and adds every row's gradient
/// and hessian into the bins of all features at once, in one flat
/// histogram arena. Every bin still sums its rows in the node's row order,
/// so each sum — and hence each split, leaf and score — is bit-identical
/// to filling one feature's histogram at a time. A split partitions its
/// node's range of the row buffer in place, stably (left rows keep their
/// order, then right rows keep theirs), so the children are ranges too.
#[derive(Debug)]
pub struct TreeFitter<'m> {
    m: &'m BinnedMatrix,
    /// `(feature, offset of its first bin in hist)` for every feature
    /// with at least two bins; the others can never split.
    features: Vec<(usize, usize)>,
    /// All features' histograms for one node; all zero between nodes.
    hist: Vec<BinStats>,
    /// The fit's rows: every node owns a contiguous range.
    rows: Vec<usize>,
    /// A split's right-hand rows while its range is partitioned.
    spill: Vec<usize>,
    /// Every leaf of the last fit: its value and its range of `rows`.
    leaves: Vec<(f64, Range<usize>)>,
}

impl<'m> TreeFitter<'m> {
    /// A fitter over `m`; its histogram arena is allocated here, once.
    pub fn new(m: &'m BinnedMatrix) -> Self {
        let mut features = Vec::new();
        let mut n_bins = 0;
        for f in 0..m.n_features() {
            if m.n_bins(f) >= 2 {
                features.push((f, n_bins));
                n_bins += m.n_bins(f);
            }
        }
        TreeFitter {
            m,
            features,
            hist: vec![BinStats::default(); n_bins],
            rows: Vec::new(),
            spill: Vec::new(),
            leaves: Vec::new(),
        }
    }

    /// Fit a tree to the (gradient, hessian) targets over `rows`.
    pub fn fit(&mut self, grad: &[f64], hess: &[f64], rows: &[usize], cfg: &TreeConfig) -> RegTree {
        assert_eq!(grad.len(), hess.len());
        let mut nodes: Vec<Node> = vec![Node::Leaf { value: 0.0 }];
        let g0: f64 = rows.iter().map(|&r| grad[r]).sum();
        let h0: f64 = rows.iter().map(|&r| hess[r]).sum();
        self.rows.clear();
        self.rows.extend_from_slice(rows);
        self.leaves.clear();
        let root = Pending {
            node_slot: 0,
            rows: 0..rows.len(),
            depth: 0,
            grad_sum: g0,
            hess_sum: h0,
        };

        if cfg.leaf_wise {
            self.grow_leafwise(grad, hess, cfg, &mut nodes, root);
        } else {
            self.grow_levelwise(grad, hess, cfg, &mut nodes, root);
        }
        RegTree { nodes }
    }

    /// The leaves of the last fit, each with the rows that landed in it:
    /// every row passed to [`TreeFitter::fit`] appears under exactly one
    /// leaf, the one [`RegTree::predict_row`] reaches from that row.
    pub fn leaves(&self) -> impl Iterator<Item = (f64, &[usize])> {
        self.leaves
            .iter()
            .map(|(value, rows)| (*value, &self.rows[rows.clone()]))
    }

    /// Best split for a node, or None when nothing clears min_leaf/γ.
    fn best_split(
        &mut self,
        grad: &[f64],
        hess: &[f64],
        p: &Pending,
        cfg: &TreeConfig,
    ) -> Option<SplitCandidate> {
        let n = p.rows.len();
        if n < 2 * cfg.min_leaf {
            return None;
        }
        // One pass over the node's rows fills every feature's histogram.
        for &r in &self.rows[p.rows.clone()] {
            let (g, h) = (grad[r], hess[r]);
            let bins = self.m.row_bins(r);
            for &(f, offset) in &self.features {
                let s = &mut self.hist[offset + bins[f] as usize];
                s.grad += g;
                s.hess += h;
                s.count += 1;
            }
        }
        let parent_score = p.grad_sum * p.grad_sum / (p.hess_sum + cfg.lambda);
        let mut best: Option<SplitCandidate> = None;
        for &(f, offset) in &self.features {
            let hist = &mut self.hist[offset..offset + self.m.n_bins(f)];
            let last = hist.len() - 1;
            // Prefix scan over split points (split after bin b: edges
            // index b), zeroing the arena for the next node as it goes.
            let mut gl = 0.0;
            let mut hl = 0.0;
            let mut cl = 0usize;
            for (b, slot) in hist.iter_mut().enumerate() {
                let s = std::mem::take(slot);
                // No split after the last bin. An empty bin past the first
                // repeats the previous candidate's gain exactly, and a tie
                // never wins (`gain > best`), so skipping it is exact.
                if b == last || (s.count == 0 && b > 0) {
                    continue;
                }
                gl += s.grad;
                hl += s.hess;
                cl += s.count;
                let cr = n - cl;
                if cl < cfg.min_leaf || cr < cfg.min_leaf {
                    continue;
                }
                let gr = p.grad_sum - gl;
                let hr = p.hess_sum - hl;
                let gain = gl * gl / (hl + cfg.lambda) + gr * gr / (hr + cfg.lambda)
                    - parent_score
                    - cfg.gamma;
                if gain > 1e-12 && best.as_ref().map(|s| gain > s.gain).unwrap_or(true) {
                    best = Some(SplitCandidate {
                        gain,
                        feature: f,
                        bin: b,
                    });
                }
            }
        }
        best
    }

    /// Apply a split: turn the pending leaf into a Split node, partition
    /// its rows in place and return the two child Pending items.
    fn apply_split(
        &mut self,
        grad: &[f64],
        hess: &[f64],
        nodes: &mut Vec<Node>,
        p: Pending,
        s: &SplitCandidate,
    ) -> (Pending, Pending) {
        let (mut gl, mut hl) = (0.0, 0.0);
        let mut mid = p.rows.start;
        self.spill.clear();
        for i in p.rows.clone() {
            let r = self.rows[i];
            if (self.m.bin(s.feature, r) as usize) <= s.bin {
                gl += grad[r];
                hl += hess[r];
                self.rows[mid] = r;
                mid += 1;
            } else {
                self.spill.push(r);
            }
        }
        self.rows[mid..p.rows.end].copy_from_slice(&self.spill);
        let left_slot = nodes.len();
        nodes.push(Node::Leaf { value: 0.0 });
        let right_slot = nodes.len();
        nodes.push(Node::Leaf { value: 0.0 });
        nodes[p.node_slot] = Node::Split {
            feature: s.feature,
            threshold: self.m.threshold(s.feature, s.bin),
            left: left_slot,
            right: right_slot,
        };
        let left = Pending {
            node_slot: left_slot,
            rows: p.rows.start..mid,
            depth: p.depth + 1,
            grad_sum: gl,
            hess_sum: hl,
        };
        let right = Pending {
            node_slot: right_slot,
            rows: mid..p.rows.end,
            depth: p.depth + 1,
            grad_sum: p.grad_sum - gl,
            hess_sum: p.hess_sum - hl,
        };
        (left, right)
    }

    fn finalize_leaf(&mut self, nodes: &mut [Node], p: Pending, lambda: f64) {
        let value = RegTree::leaf_value(p.grad_sum, p.hess_sum, lambda);
        nodes[p.node_slot] = Node::Leaf { value };
        self.leaves.push((value, p.rows));
    }

    fn grow_levelwise(
        &mut self,
        grad: &[f64],
        hess: &[f64],
        cfg: &TreeConfig,
        nodes: &mut Vec<Node>,
        root: Pending,
    ) {
        let mut stack = vec![root];
        while let Some(p) = stack.pop() {
            if p.depth >= cfg.max_depth {
                self.finalize_leaf(nodes, p, cfg.lambda);
                continue;
            }
            match self.best_split(grad, hess, &p, cfg) {
                Some(s) => {
                    let (l, r) = self.apply_split(grad, hess, nodes, p, &s);
                    stack.push(l);
                    stack.push(r);
                }
                None => self.finalize_leaf(nodes, p, cfg.lambda),
            }
        }
    }

    fn grow_leafwise(
        &mut self,
        grad: &[f64],
        hess: &[f64],
        cfg: &TreeConfig,
        nodes: &mut Vec<Node>,
        root: Pending,
    ) {
        // Best-first: repeatedly split the pending leaf with the largest
        // gain until max_leaves is reached or no leaf can split.
        let mut leaves = 1usize;
        let mut frontier: Vec<(Pending, Option<SplitCandidate>)> = Vec::new();
        let root_split = self.best_split(grad, hess, &root, cfg);
        frontier.push((root, root_split));

        while leaves < cfg.max_leaves {
            // Pick the splittable frontier entry with the best gain.
            let best_idx = frontier
                .iter()
                .enumerate()
                .filter_map(|(i, (_, s))| s.as_ref().map(|s| (i, s.gain)))
                .max_by(|a, b| a.1.total_cmp(&b.1))
                .map(|(i, _)| i);
            let Some(i) = best_idx else { break };
            let (p, s) = frontier.swap_remove(i);
            let s = s.expect("selected entry has a split");
            let (l, r) = self.apply_split(grad, hess, nodes, p, &s);
            leaves += 1;
            // Depth guard also applies in leaf-wise mode (LightGBM default
            // max_depth=-1, but bounding keeps worst cases tame).
            for child in [l, r] {
                let split = if child.depth >= cfg.max_depth.max(64) {
                    None
                } else {
                    self.best_split(grad, hess, &child, cfg)
                };
                frontier.push((child, split));
            }
        }
        for (p, _) in frontier {
            self.finalize_leaf(nodes, p, cfg.lambda);
        }
    }
}

impl RegTree {
    /// Fit a tree to the (gradient, hessian) targets over `rows`; see
    /// [`TreeFitter`] to fit many over one matrix.
    pub fn fit(
        m: &BinnedMatrix,
        grad: &[f64],
        hess: &[f64],
        rows: &[usize],
        cfg: &TreeConfig,
    ) -> RegTree {
        TreeFitter::new(m).fit(grad, hess, rows, cfg)
    }

    fn leaf_value(g: f64, h: f64, lambda: f64) -> f64 {
        -g / (h + lambda)
    }

    /// Predict the raw-score contribution for one feature row.
    pub fn predict_row(&self, row: &[f64]) -> f64 {
        let mut idx = 0;
        loop {
            match &self.nodes[idx] {
                Node::Leaf { value } => return *value,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    idx = if row[*feature] <= *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }

    /// The node arena (index 0 is the root) — read by the flat-forest
    /// compiler in [`crate::flat`].
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Number of nodes (splits + leaves).
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of leaves.
    pub fn n_leaves(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n, Node::Leaf { .. }))
            .count()
    }

    /// Features used by this tree's splits (for importance reporting).
    pub fn used_features(&self) -> Vec<usize> {
        let mut f: Vec<usize> = self
            .nodes
            .iter()
            .filter_map(|n| match n {
                Node::Split { feature, .. } => Some(*feature),
                _ => None,
            })
            .collect();
        f.sort_unstable();
        f.dedup();
        f
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// y = 1 if x0 > 0.5 else 0 — a single split should nail it.
    fn step_data(n: usize) -> (Vec<Vec<f64>>, Vec<f64>, Vec<f64>) {
        let rows: Vec<Vec<f64>> = (0..n).map(|i| vec![i as f64 / n as f64, 0.0]).collect();
        // Gradients of logistic loss at score 0 (p = 0.5): g = p - y.
        let grad: Vec<f64> = rows
            .iter()
            .map(|r| if r[0] > 0.5 { 0.5 - 1.0 } else { 0.5 })
            .collect();
        let hess = vec![0.25; n];
        (rows, grad, hess)
    }

    #[test]
    fn binning_round_trips_thresholds() {
        let rows: Vec<Vec<f64>> = (0..100).map(|i| vec![i as f64]).collect();
        let m = BinnedMatrix::build(&rows, 16);
        // bin(x) <= b  ⇔  x <= threshold(b): verify over all edges and rows.
        for b in 0..m.n_bins(0) - 1 {
            let t = m.threshold(0, b);
            for (r, row) in rows.iter().enumerate() {
                assert_eq!(
                    (m.bin(0, r) as usize) <= b,
                    row[0] <= t,
                    "row {r} bin {} edge {b} thresh {t}",
                    m.bin(0, r)
                );
            }
        }
    }

    #[test]
    fn nan_bins_last_and_splits_right() {
        // Every fourth cell is NaN; the rest are 0..75 in order.
        let rows: Vec<Vec<f64>> = (0..100)
            .map(|i| vec![if i % 4 == 0 { f64::NAN } else { i as f64 }])
            .collect();
        let m = BinnedMatrix::build(&rows, 8);
        let last = m.n_bins(0) - 1;
        for b in 0..last {
            assert!(
                !m.threshold(0, b).is_nan(),
                "edges come from non-NaN values"
            );
        }
        for (r, row) in rows.iter().enumerate() {
            if row[0].is_nan() {
                assert_eq!(m.bin(0, r) as usize, last, "row {r}");
            }
        }
        // NaN rows carry the positive gradient: the tree must send them
        // right, where inference sends them.
        let grad: Vec<f64> = rows
            .iter()
            .map(|r| {
                if r[0].is_nan() || r[0] > 50.0 {
                    -0.5
                } else {
                    0.5
                }
            })
            .collect();
        let hess = vec![0.25; rows.len()];
        let idx: Vec<usize> = (0..rows.len()).collect();
        let tree = RegTree::fit(&m, &grad, &hess, &idx, &TreeConfig::default());
        assert!(tree.predict_row(&[f64::NAN]) > 0.0);
        assert!(tree.predict_row(&[10.0]) < 0.0);
    }

    #[test]
    fn constant_feature_gets_no_bins() {
        let rows: Vec<Vec<f64>> = (0..50).map(|_| vec![7.0]).collect();
        let m = BinnedMatrix::build(&rows, 16);
        assert_eq!(m.n_bins(0), 1);
    }

    #[test]
    fn single_split_learned() {
        let (rows, grad, hess) = step_data(200);
        let m = BinnedMatrix::build(&rows, 64);
        let idx: Vec<usize> = (0..rows.len()).collect();
        let cfg = TreeConfig {
            max_depth: 1,
            ..TreeConfig::default()
        };
        let tree = RegTree::fit(&m, &grad, &hess, &idx, &cfg);
        // One split, two leaves; left negative class, right positive.
        assert_eq!(tree.n_leaves(), 2);
        let low = tree.predict_row(&[0.2, 0.0]);
        let high = tree.predict_row(&[0.9, 0.0]);
        assert!(low < 0.0, "low={low}");
        assert!(high > 0.0, "high={high}");
        assert_eq!(tree.used_features(), vec![0]);
    }

    #[test]
    fn min_leaf_respected() {
        let (rows, grad, hess) = step_data(20);
        let m = BinnedMatrix::build(&rows, 64);
        let idx: Vec<usize> = (0..rows.len()).collect();
        let cfg = TreeConfig {
            min_leaf: 15, // cannot split 20 rows into two >= 15
            ..TreeConfig::default()
        };
        let tree = RegTree::fit(&m, &grad, &hess, &idx, &cfg);
        assert_eq!(tree.n_leaves(), 1);
    }

    #[test]
    fn gamma_blocks_weak_splits() {
        let (rows, grad, hess) = step_data(100);
        let m = BinnedMatrix::build(&rows, 64);
        let idx: Vec<usize> = (0..rows.len()).collect();
        let strict = TreeConfig {
            gamma: 1e9,
            ..TreeConfig::default()
        };
        let tree = RegTree::fit(&m, &grad, &hess, &idx, &strict);
        assert_eq!(tree.n_leaves(), 1);
    }

    #[test]
    fn leafwise_respects_max_leaves() {
        // Rich 2-feature target so many splits are available.
        let n = 300;
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|i| vec![(i % 17) as f64, (i % 23) as f64])
            .collect();
        let grad: Vec<f64> = (0..n)
            .map(|i| {
                if (i % 17 + i % 23) % 2 == 0 {
                    -0.5
                } else {
                    0.5
                }
            })
            .collect();
        let hess = vec![0.25; n];
        let m = BinnedMatrix::build(&rows, 64);
        let idx: Vec<usize> = (0..n).collect();
        let cfg = TreeConfig {
            leaf_wise: true,
            max_leaves: 8,
            min_leaf: 1,
            max_depth: 64,
            ..TreeConfig::default()
        };
        let tree = RegTree::fit(&m, &grad, &hess, &idx, &cfg);
        assert!(tree.n_leaves() <= 8);
        assert!(tree.n_leaves() >= 2);
    }

    #[test]
    fn pure_node_not_split() {
        // All gradients equal: no gain anywhere.
        let rows: Vec<Vec<f64>> = (0..50).map(|i| vec![i as f64]).collect();
        let grad = vec![0.5; 50];
        let hess = vec![0.25; 50];
        let m = BinnedMatrix::build(&rows, 16);
        let idx: Vec<usize> = (0..50).collect();
        let tree = RegTree::fit(&m, &grad, &hess, &idx, &TreeConfig::default());
        assert_eq!(tree.n_leaves(), 1);
        // Leaf value is -G/(H+λ) = -(25)/(12.5+1).
        let v = tree.predict_row(&[3.0]);
        assert!((v - (-25.0 / 13.5)).abs() < 1e-9);
    }

    #[test]
    fn deeper_trees_fit_and() {
        // AND of two binary features needs depth 2. (A perfectly balanced
        // XOR has *zero* first-order gain at the root — a known blind spot
        // of greedy trees — so AND is the right depth-2 target here.)
        let rows: Vec<Vec<f64>> = (0..400)
            .map(|i| vec![(i % 2) as f64, ((i / 2) % 2) as f64])
            .collect();
        let grad: Vec<f64> = rows
            .iter()
            .map(|r| {
                let y = ((r[0] as i32) & (r[1] as i32)) as f64;
                0.5 - y
            })
            .collect();
        let hess = vec![0.25; rows.len()];
        let m = BinnedMatrix::build(&rows, 4);
        let idx: Vec<usize> = (0..rows.len()).collect();
        let cfg = TreeConfig {
            max_depth: 2,
            min_leaf: 1,
            ..TreeConfig::default()
        };
        let tree = RegTree::fit(&m, &grad, &hess, &idx, &cfg);
        assert!(tree.predict_row(&[1.0, 1.0]) > 0.0);
        assert!(tree.predict_row(&[0.0, 1.0]) < 0.0);
        assert!(tree.predict_row(&[1.0, 0.0]) < 0.0);
        assert!(tree.predict_row(&[0.0, 0.0]) < 0.0);
    }
}
