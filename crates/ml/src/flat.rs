//! Flattened struct-of-arrays forest layout for inference.
//!
//! A trained [`RegTree`] stores `Vec<Node>` with enum-tagged nodes — every
//! step of `predict_row` is a match on a 40-byte variant plus two possible
//! branch targets, and ensembles chase these pointers tree by tree. This
//! module recompiles a whole ensemble into one flat node array plus a root
//! table. Each node packs its three facts into a single 16-byte record —
//! `threshold: f64` (split threshold, or the pre-transformed leaf value),
//! `left: u32` (left-child index), `feature: u16` (split feature, or
//! [`LEAF`]) — so a descent step costs one bounds check and touches one
//! cache line instead of three parallel arrays. The right child is always
//! `left + 1` (children are laid out adjacently), so stepping is
//! branchless: `i = left + (value > threshold)`.
//!
//! All per-tree affine work is folded into the leaves at compile time:
//! GBDT shrinkage (`learning_rate * leaf`), random-forest vote mapping
//! (`(0.5 + 0.5*leaf).clamp(0, 1)`), and per-tree column bags (feature
//! indices are remapped to dataset columns, killing the per-tree row
//! projection). Because multiplication is folded *per leaf* and the
//! per-row accumulation order (bias, then trees in order) is unchanged,
//! every prediction is bit-identical to the boxed path — the comparison
//! uses `!(x <= t)` so NaN features fall right exactly like the boxed
//! `if x <= t { left } else { right }`.
//!
//! Training is untouched; a [`FlatForest`] is compiled once per fitted
//! model via [`FlatForestBuilder`].

use crate::tree::{Node, RegTree};

/// Sentinel in a node's `feature` field marking a leaf.
pub const LEAF: u16 = u16::MAX;

/// One flattened tree node: split threshold (or pre-transformed leaf
/// value), left-child index (right child is `left + 1`), and split feature
/// (or [`LEAF`]). 16 bytes, so four nodes share a cache line.
#[derive(Debug, Clone, Copy)]
struct PackedNode {
    threshold: f64,
    left: u32,
    feature: u16,
}

/// An ensemble compiled to a flat node array. Evaluates to
/// `bias + Σ_trees leaf_value` (leaf values pre-transformed at compile
/// time).
#[derive(Debug, Clone, Default)]
pub struct FlatForest {
    nodes: Vec<PackedNode>,
    roots: Vec<u32>,
    bias: f64,
}

/// Compiles trained trees into a [`FlatForest`].
#[derive(Debug, Clone)]
pub struct FlatForestBuilder {
    forest: FlatForest,
}

impl FlatForestBuilder {
    /// Start a forest whose every prediction begins at `bias`
    /// (the GBDT base score; 0 for averaged forests).
    pub fn new(bias: f64) -> FlatForestBuilder {
        FlatForestBuilder {
            forest: FlatForest {
                bias,
                ..FlatForest::default()
            },
        }
    }

    /// Append one trained tree.
    ///
    /// * `columns` — per-tree column bag: split feature `f` is remapped to
    ///   `columns[f]` (None = identity), so prediction reads the full row
    ///   directly instead of projecting it per tree.
    /// * `leaf_map` — applied to every leaf value at compile time (e.g.
    ///   GBDT shrinkage or the forest vote transform).
    pub fn push_tree(
        &mut self,
        tree: &RegTree,
        columns: Option<&[usize]>,
        mut leaf_map: impl FnMut(f64) -> f64,
    ) {
        let f = &mut self.forest;
        let nodes = tree.nodes();
        let root = f.nodes.len() as u32;
        f.roots.push(root);

        // DFS with explicit pre-allocated slots: reserving both child slots
        // before descending keeps every sibling pair adjacent.
        const EMPTY: PackedNode = PackedNode {
            threshold: 0.0,
            left: 0,
            feature: LEAF,
        };
        f.nodes.push(EMPTY);
        // (source node index, flat slot)
        let mut stack: Vec<(usize, u32)> = vec![(0, root)];
        while let Some((src, slot)) = stack.pop() {
            match &nodes[src] {
                Node::Leaf { value } => {
                    f.nodes[slot as usize] = PackedNode {
                        threshold: leaf_map(*value),
                        left: 0,
                        feature: LEAF,
                    };
                }
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    let global = columns.map(|c| c[*feature]).unwrap_or(*feature);
                    let g16 = u16::try_from(global).expect("feature index exceeds u16 layout");
                    assert!(g16 != LEAF, "feature index collides with leaf sentinel");
                    let child = f.nodes.len() as u32;
                    f.nodes.push(EMPTY);
                    f.nodes.push(EMPTY);
                    f.nodes[slot as usize] = PackedNode {
                        threshold: *threshold,
                        left: child,
                        feature: g16,
                    };
                    stack.push((*right, child + 1));
                    stack.push((*left, child));
                }
            }
        }
    }

    /// Finish compilation.
    pub fn build(self) -> FlatForest {
        self.forest
    }
}

impl FlatForest {
    /// Number of trees.
    pub fn n_trees(&self) -> usize {
        self.roots.len()
    }

    /// Total flat node count across all trees.
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// The bias every prediction starts from.
    pub fn bias(&self) -> f64 {
        self.bias
    }

    /// Raw prediction for one row: `bias + Σ leaf`, trees in push order —
    /// the exact accumulation order of the boxed ensembles. Trees are
    /// descended four at a time in lockstep, so their dependent node loads
    /// overlap instead of queueing; the four leaves are still added one by
    /// one in tree order.
    pub fn predict_row(&self, row: &[f64]) -> f64 {
        let mut s = self.bias;
        let mut quads = self.roots.chunks_exact(4);
        for quad in quads.by_ref() {
            for leaf in self.eval_trees([quad[0], quad[1], quad[2], quad[3]], row) {
                s += leaf;
            }
        }
        for &root in quads.remainder() {
            s += self.eval_tree(root, row);
        }
        s
    }

    /// [`FlatForest::eval_tree`] of several trees at once: every step moves
    /// each descent that has not reached a leaf one node down.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    #[inline]
    fn eval_trees<const N: usize>(&self, roots: [u32; N], row: &[f64]) -> [f64; N] {
        let mut at = roots.map(|root| root as usize);
        loop {
            let mut descending = false;
            for i in &mut at {
                let n = self.nodes[*i];
                if n.feature != LEAF {
                    // `!(x <= t)`: NaN steps right, as in `eval_tree`.
                    let go_right = !(row[n.feature as usize] <= n.threshold);
                    *i = (n.left + u32::from(go_right)) as usize;
                    descending = true;
                }
            }
            if !descending {
                return at.map(|i| self.nodes[i].threshold);
            }
        }
    }

    // The negated comparison is load-bearing: `!(x <= t)` sends NaN right,
    // `x > t` would send it left.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    #[inline]
    fn eval_tree(&self, root: u32, row: &[f64]) -> f64 {
        let mut i = root as usize;
        loop {
            let n = self.nodes[i];
            if n.feature == LEAF {
                return n.threshold;
            }
            // `!(x <= t)` (not `x > t`) so NaN steps right, matching the
            // boxed `if x <= t { left } else { right }`.
            let go_right = !(row[n.feature as usize] <= n.threshold);
            i = (n.left + u32::from(go_right)) as usize;
        }
    }

    /// Raw predictions for many rows, tree-major over row blocks: each tree
    /// stays hot in cache while a block of rows walks it. Per-row sums are
    /// still accumulated in tree order, so every output is bit-identical to
    /// [`FlatForest::predict_row`].
    pub fn predict_batch(&self, rows: &[&[f64]]) -> Vec<f64> {
        const BLOCK: usize = 64;
        let mut out = vec![self.bias; rows.len()];
        for block_start in (0..rows.len()).step_by(BLOCK) {
            let block_end = (block_start + BLOCK).min(rows.len());
            for &root in &self.roots {
                for r in block_start..block_end {
                    out[r] += self.eval_tree(root, rows[r]);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Dataset;
    use crate::gbdt::{Gbdt, GbdtConfig};
    use crate::tree::{BinnedMatrix, TreeConfig};
    use freephish_simclock::Rng64;

    fn blobs(n: usize, seed: u64) -> Dataset {
        let mut rng = Rng64::new(seed);
        let mut d = Dataset::new(vec!["x".into(), "y".into()]);
        for _ in 0..n {
            let label = rng.chance(0.5);
            let c = if label { 1.5 } else { -1.5 };
            d.push(
                vec![rng.normal_ms(c, 1.0), rng.normal_ms(c, 1.0)],
                u8::from(label),
            );
        }
        d
    }

    fn fit_tree(data: &Dataset) -> RegTree {
        let grad: Vec<f64> = (0..data.len())
            .map(|i| 0.5 - data.label(i) as f64)
            .collect();
        let hess = vec![0.25; data.len()];
        let m = BinnedMatrix::build(data.rows(), 32);
        let idx: Vec<usize> = (0..data.len()).collect();
        RegTree::fit(&m, &grad, &hess, &idx, &TreeConfig::default())
    }

    #[test]
    fn single_tree_matches_boxed_bitwise() {
        let data = blobs(300, 1);
        let tree = fit_tree(&data);
        let mut b = FlatForestBuilder::new(0.0);
        b.push_tree(&tree, None, |v| v);
        let flat = b.build();
        for i in 0..data.len() {
            // The flat path accumulates from the bias like every boxed
            // ensemble does (`0.0 + leaf` normalises a −0.0 leaf).
            assert_eq!(
                flat.predict_row(data.row(i)).to_bits(),
                (0.0 + tree.predict_row(data.row(i))).to_bits(),
                "row {i}"
            );
        }
    }

    #[test]
    fn children_are_adjacent() {
        let data = blobs(300, 2);
        let tree = fit_tree(&data);
        let mut b = FlatForestBuilder::new(0.0);
        b.push_tree(&tree, None, |v| v);
        let flat = b.build();
        assert_eq!(flat.n_trees(), 1);
        assert_eq!(flat.n_nodes(), tree.n_nodes());
    }

    #[test]
    fn column_remap_equals_projection() {
        // Train on a 2-feature view of a 4-feature row, then compare the
        // remapped flat tree on full rows vs the boxed tree on projections.
        let data = blobs(300, 3);
        let tree = fit_tree(&data);
        let columns = [3usize, 1];
        let mut b = FlatForestBuilder::new(0.0);
        b.push_tree(&tree, Some(&columns), |v| v);
        let flat = b.build();
        for i in 0..data.len() {
            let r = data.row(i);
            let full = [9.0, r[1], -4.0, r[0]];
            let projected = [r[0], r[1]];
            assert_eq!(
                flat.predict_row(&full).to_bits(),
                (0.0 + tree.predict_row(&projected)).to_bits()
            );
        }
    }

    #[test]
    fn leaf_map_folds_shrinkage() {
        let data = blobs(200, 4);
        let tree = fit_tree(&data);
        let lr = 0.1;
        let mut b = FlatForestBuilder::new(0.5);
        b.push_tree(&tree, None, |v| lr * v);
        let flat = b.build();
        for i in 0..40 {
            let r = data.row(i);
            let expected = 0.5 + lr * tree.predict_row(r);
            assert_eq!(flat.predict_row(r).to_bits(), expected.to_bits());
        }
    }

    #[test]
    fn nan_feature_goes_right_like_boxed() {
        let data = blobs(300, 5);
        let tree = fit_tree(&data);
        let mut b = FlatForestBuilder::new(0.0);
        b.push_tree(&tree, None, |v| v);
        let flat = b.build();
        let nan_row = [f64::NAN, f64::NAN];
        assert_eq!(
            flat.predict_row(&nan_row).to_bits(),
            (0.0 + tree.predict_row(&nan_row)).to_bits()
        );
    }

    #[test]
    fn batch_matches_row_by_row() {
        let data = blobs(500, 6);
        let mut rng = Rng64::new(7);
        let model = Gbdt::train(&GbdtConfig::tiny(), &data, &mut rng);
        let rows: Vec<&[f64]> = (0..data.len()).map(|i| data.row(i)).collect();
        let batch = model.flat().predict_batch(&rows);
        for (i, &s) in batch.iter().enumerate() {
            assert_eq!(s.to_bits(), model.flat().predict_row(rows[i]).to_bits());
        }
    }

    #[test]
    fn empty_forest_is_bias() {
        let flat = FlatForestBuilder::new(1.25).build();
        assert_eq!(flat.predict_row(&[0.0]), 1.25);
        assert_eq!(flat.n_trees(), 0);
    }
}
