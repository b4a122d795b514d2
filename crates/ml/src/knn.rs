//! k-nearest-neighbour search over dense vectors.
//!
//! Powers the VisualPhishNet-style baseline: the original learns a visual
//! embedding with a triplet network and classifies by similarity to a
//! gallery of protected-brand screenshots. The offline equivalent computes
//! a layout-signature vector per rendered page (see
//! `freephish-core::models::visual`) and nearest-neighbour matches against
//! brand prototypes — same decision rule, simulated embedding.

/// Distance metric for neighbour search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Straight-line distance.
    Euclidean,
    /// 1 − cosine similarity (0 for parallel vectors).
    Cosine,
}

/// A brute-force k-NN index with labelled vectors.
#[derive(Debug, Clone)]
pub struct Knn {
    metric: Metric,
    vectors: Vec<Vec<f64>>,
    labels: Vec<u32>,
}

fn euclidean(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y) * (x - y))
        .sum::<f64>()
        .sqrt()
}

fn cosine_distance(a: &[f64], b: &[f64]) -> f64 {
    let dot: f64 = a.iter().zip(b).map(|(x, y)| x * y).sum();
    let na: f64 = a.iter().map(|x| x * x).sum::<f64>().sqrt();
    let nb: f64 = b.iter().map(|x| x * x).sum::<f64>().sqrt();
    if na == 0.0 || nb == 0.0 {
        return 1.0;
    }
    1.0 - (dot / (na * nb)).clamp(-1.0, 1.0)
}

impl Knn {
    /// An empty index.
    pub fn new(metric: Metric) -> Self {
        Knn {
            metric,
            vectors: Vec::new(),
            labels: Vec::new(),
        }
    }

    /// Add a labelled vector. All vectors must share a dimension.
    pub fn add(&mut self, vector: Vec<f64>, label: u32) {
        if let Some(first) = self.vectors.first() {
            assert_eq!(first.len(), vector.len(), "dimension mismatch");
        }
        self.vectors.push(vector);
        self.labels.push(label);
    }

    /// Number of stored vectors.
    pub fn len(&self) -> usize {
        self.vectors.len()
    }

    /// True when the index is empty.
    pub fn is_empty(&self) -> bool {
        self.vectors.is_empty()
    }

    fn dist(&self, a: &[f64], b: &[f64]) -> f64 {
        match self.metric {
            Metric::Euclidean => euclidean(a, b),
            Metric::Cosine => cosine_distance(a, b),
        }
    }

    /// The `k` nearest (label, distance) pairs, ascending by distance.
    pub fn nearest(&self, query: &[f64], k: usize) -> Vec<(u32, f64)> {
        let mut scored: Vec<(u32, f64)> = self
            .vectors
            .iter()
            .zip(&self.labels)
            .map(|(v, &l)| (l, self.dist(query, v)))
            .collect();
        scored.sort_by(|a, b| a.1.total_cmp(&b.1));
        scored.truncate(k);
        scored
    }

    /// Majority label among the `k` nearest, with the nearest neighbour
    /// breaking ties. `None` on an empty index.
    pub fn classify(&self, query: &[f64], k: usize) -> Option<u32> {
        let near = self.nearest(query, k);
        if near.is_empty() {
            return None;
        }
        let mut counts: Vec<(u32, usize)> = Vec::new();
        for (l, _) in &near {
            match counts.iter_mut().find(|(cl, _)| cl == l) {
                Some((_, c)) => *c += 1,
                None => counts.push((*l, 1)),
            }
        }
        let max = counts.iter().map(|&(_, c)| c).max().unwrap();
        let tied: Vec<u32> = counts
            .iter()
            .filter(|&&(_, c)| c == max)
            .map(|&(l, _)| l)
            .collect();
        if tied.len() == 1 {
            Some(tied[0])
        } else {
            near.iter().find(|(l, _)| tied.contains(l)).map(|(l, _)| *l)
        }
    }

    /// Distance from `query` to the nearest stored vector with the given
    /// label; `None` if that label is absent. VisualPhishNet's decision is
    /// "minimum distance to any screenshot of the suspected brand".
    pub fn min_distance_to_label(&self, query: &[f64], label: u32) -> Option<f64> {
        self.vectors
            .iter()
            .zip(&self.labels)
            .filter(|(_, &l)| l == label)
            .map(|(v, _)| self.dist(query, v))
            .min_by(f64::total_cmp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn index() -> Knn {
        let mut k = Knn::new(Metric::Euclidean);
        k.add(vec![0.0, 0.0], 0);
        k.add(vec![0.1, 0.1], 0);
        k.add(vec![5.0, 5.0], 1);
        k.add(vec![5.1, 4.9], 1);
        k
    }

    #[test]
    fn nearest_sorted_ascending() {
        let k = index();
        let n = k.nearest(&[0.0, 0.0], 4);
        assert_eq!(n.len(), 4);
        for w in n.windows(2) {
            assert!(w[0].1 <= w[1].1);
        }
        assert_eq!(n[0].0, 0);
    }

    #[test]
    fn classify_majority() {
        let k = index();
        assert_eq!(k.classify(&[0.2, 0.0], 3), Some(0));
        assert_eq!(k.classify(&[4.8, 5.2], 3), Some(1));
    }

    #[test]
    fn classify_tie_breaks_to_nearest() {
        let k = index();
        // k=2 around the midpoint: one of each label; nearest wins.
        let got = k.classify(&[1.0, 1.0], 2).unwrap();
        assert_eq!(got, 0);
    }

    #[test]
    fn empty_index_returns_none() {
        let k = Knn::new(Metric::Cosine);
        assert!(k.classify(&[1.0], 3).is_none());
        assert!(k.is_empty());
    }

    #[test]
    fn min_distance_to_label() {
        let k = index();
        let d0 = k.min_distance_to_label(&[0.0, 0.0], 0).unwrap();
        assert!(d0 < 0.01);
        let d1 = k.min_distance_to_label(&[0.0, 0.0], 1).unwrap();
        assert!(d1 > 6.0);
        assert!(k.min_distance_to_label(&[0.0, 0.0], 9).is_none());
    }

    #[test]
    fn cosine_metric_ignores_magnitude() {
        let mut k = Knn::new(Metric::Cosine);
        k.add(vec![1.0, 0.0], 0);
        k.add(vec![0.0, 1.0], 1);
        // A long vector along x is still nearest to label 0.
        assert_eq!(k.classify(&[100.0, 1.0], 1), Some(0));
    }

    #[test]
    fn cosine_zero_vector_is_far() {
        let mut k = Knn::new(Metric::Cosine);
        k.add(vec![1.0, 0.0], 0);
        let n = k.nearest(&[0.0, 0.0], 1);
        assert_eq!(n[0].1, 1.0);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn dimension_mismatch_panics() {
        let mut k = Knn::new(Metric::Euclidean);
        k.add(vec![1.0, 2.0], 0);
        k.add(vec![1.0], 1);
    }
}
