//! Binary-classification metrics: confusion matrix, accuracy/precision/
//! recall/F1 (the columns of the paper's Table 2) and AUC.

/// Counts of the four confusion-matrix cells.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConfusionMatrix {
    /// True positives: phishing predicted phishing.
    pub tp: usize,
    /// False positives: benign predicted phishing.
    pub fp: usize,
    /// True negatives.
    pub tn: usize,
    /// False negatives: phishing predicted benign.
    pub fn_: usize,
}

impl ConfusionMatrix {
    /// Build from parallel slices of truth labels (0/1) and predicted
    /// probabilities, thresholded at `threshold`.
    pub fn from_scores(labels: &[u8], scores: &[f64], threshold: f64) -> Self {
        assert_eq!(labels.len(), scores.len());
        let mut m = ConfusionMatrix::default();
        for (&y, &s) in labels.iter().zip(scores) {
            let pred = s >= threshold;
            match (y == 1, pred) {
                (true, true) => m.tp += 1,
                (true, false) => m.fn_ += 1,
                (false, true) => m.fp += 1,
                (false, false) => m.tn += 1,
            }
        }
        m
    }

    /// Total examples.
    pub fn total(&self) -> usize {
        self.tp + self.fp + self.tn + self.fn_
    }

    /// (tp + tn) / total; 0 when empty.
    pub fn accuracy(&self) -> f64 {
        let t = self.total();
        if t == 0 {
            0.0
        } else {
            (self.tp + self.tn) as f64 / t as f64
        }
    }

    /// tp / (tp + fp); 0 when no positive predictions.
    pub fn precision(&self) -> f64 {
        let d = self.tp + self.fp;
        if d == 0 {
            0.0
        } else {
            self.tp as f64 / d as f64
        }
    }

    /// tp / (tp + fn); 0 when no positive labels.
    pub fn recall(&self) -> f64 {
        let d = self.tp + self.fn_;
        if d == 0 {
            0.0
        } else {
            self.tp as f64 / d as f64
        }
    }

    /// Harmonic mean of precision and recall; 0 when both are 0.
    pub fn f1(&self) -> f64 {
        let p = self.precision();
        let r = self.recall();
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }
}

/// The four headline metrics bundled, as reported per model in Table 2.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BinaryMetrics {
    /// Fraction of correct predictions.
    pub accuracy: f64,
    /// Positive predictive value.
    pub precision: f64,
    /// True positive rate.
    pub recall: f64,
    /// Harmonic mean of precision and recall.
    pub f1: f64,
}

impl BinaryMetrics {
    /// Compute all four from labels and scores at the 0.5 threshold.
    pub fn from_scores(labels: &[u8], scores: &[f64]) -> Self {
        let m = ConfusionMatrix::from_scores(labels, scores, 0.5);
        BinaryMetrics {
            accuracy: m.accuracy(),
            precision: m.precision(),
            recall: m.recall(),
            f1: m.f1(),
        }
    }
}

/// Area under the ROC curve by the rank-sum (Mann–Whitney) formulation,
/// with tie correction. Returns 0.5 when either class is absent.
pub fn auc(labels: &[u8], scores: &[f64]) -> f64 {
    assert_eq!(labels.len(), scores.len());
    let n_pos = labels.iter().filter(|&&l| l == 1).count();
    let n_neg = labels.len() - n_pos;
    if n_pos == 0 || n_neg == 0 {
        return 0.5;
    }
    // Rank scores ascending; ties share the average rank.
    let mut order: Vec<usize> = (0..scores.len()).collect();
    order.sort_by(|&a, &b| scores[a].total_cmp(&scores[b]));
    let mut ranks = vec![0.0f64; scores.len()];
    let mut i = 0;
    while i < order.len() {
        let mut j = i;
        while j + 1 < order.len() && scores[order[j + 1]] == scores[order[i]] {
            j += 1;
        }
        let avg_rank = (i + j) as f64 / 2.0 + 1.0;
        for &k in &order[i..=j] {
            ranks[k] = avg_rank;
        }
        i = j + 1;
    }
    let pos_rank_sum: f64 = labels
        .iter()
        .zip(&ranks)
        .filter(|(&l, _)| l == 1)
        .map(|(_, &r)| r)
        .sum();
    (pos_rank_sum - n_pos as f64 * (n_pos as f64 + 1.0) / 2.0) / (n_pos as f64 * n_neg as f64)
}

/// Calibrate a confident-negative cutoff: the largest threshold `t` such
/// that declaring every score `< t` negative misses at most a `max_fnr`
/// fraction of the positives in this sample.
///
/// This is how a cheap pre-filter tier is tuned: scores below the returned
/// cutoff are served as "safe" without escalation, and the cutoff is pushed
/// as high as the tolerated false-negative budget allows so the filter
/// absorbs the maximum share of traffic. Returns 0.0 when the sample holds
/// no positives (nothing to protect — every score may pass).
pub fn threshold_at_fnr(labels: &[u8], scores: &[f64], max_fnr: f64) -> f64 {
    assert_eq!(labels.len(), scores.len());
    let mut pos: Vec<f64> = labels
        .iter()
        .zip(scores)
        .filter(|(&l, _)| l == 1)
        .map(|(_, &s)| s)
        .collect();
    if pos.is_empty() {
        return 0.0;
    }
    pos.sort_by(f64::total_cmp);
    // With cutoff t = pos[k], the positives lost are those strictly below
    // t: at most k of them. The largest admissible k keeps k/n ≤ max_fnr.
    let allowed = (max_fnr.clamp(0.0, 1.0) * pos.len() as f64).floor() as usize;
    if allowed >= pos.len() {
        // Every positive may be sacrificed: any cutoff passes.
        return f64::INFINITY;
    }
    pos[allowed]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_classifier() {
        let labels = [1, 1, 0, 0];
        let scores = [0.9, 0.8, 0.1, 0.2];
        let m = BinaryMetrics::from_scores(&labels, &scores);
        assert_eq!(m.accuracy, 1.0);
        assert_eq!(m.precision, 1.0);
        assert_eq!(m.recall, 1.0);
        assert_eq!(m.f1, 1.0);
        assert_eq!(auc(&labels, &scores), 1.0);
    }

    #[test]
    fn inverted_classifier() {
        let labels = [1, 1, 0, 0];
        let scores = [0.1, 0.2, 0.9, 0.8];
        let m = BinaryMetrics::from_scores(&labels, &scores);
        assert_eq!(m.accuracy, 0.0);
        assert_eq!(auc(&labels, &scores), 0.0);
    }

    #[test]
    fn known_confusion_matrix() {
        // tp=2 fp=1 tn=1 fn=1
        let labels = [1, 1, 1, 0, 0];
        let scores = [0.9, 0.8, 0.2, 0.7, 0.1];
        let m = ConfusionMatrix::from_scores(&labels, &scores, 0.5);
        assert_eq!(
            m,
            ConfusionMatrix {
                tp: 2,
                fp: 1,
                tn: 1,
                fn_: 1
            }
        );
        assert!((m.accuracy() - 0.6).abs() < 1e-12);
        assert!((m.precision() - 2.0 / 3.0).abs() < 1e-12);
        assert!((m.recall() - 2.0 / 3.0).abs() < 1e-12);
        assert!((m.f1() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_cases() {
        let m = ConfusionMatrix::default();
        assert_eq!(m.accuracy(), 0.0);
        assert_eq!(m.precision(), 0.0);
        assert_eq!(m.recall(), 0.0);
        assert_eq!(m.f1(), 0.0);
        // Single-class AUC falls back to 0.5.
        assert_eq!(auc(&[1, 1], &[0.3, 0.9]), 0.5);
        assert_eq!(auc(&[0, 0], &[0.3, 0.9]), 0.5);
    }

    #[test]
    fn auc_with_ties() {
        // Two positives and two negatives all scoring the same: AUC 0.5.
        let labels = [1, 0, 1, 0];
        let scores = [0.5, 0.5, 0.5, 0.5];
        assert!((auc(&labels, &scores) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn auc_threshold_free() {
        // AUC is invariant to monotone transforms of the scores.
        let labels = [1, 0, 1, 0, 1];
        let s1 = [0.9, 0.3, 0.8, 0.4, 0.7];
        let s2: Vec<f64> = s1.iter().map(|x| x * 100.0 - 3.0).collect();
        assert!((auc(&labels, &s1) - auc(&labels, &s2)).abs() < 1e-12);
    }

    #[test]
    fn threshold_at_fnr_respects_the_budget() {
        let labels = [1, 1, 1, 1, 0, 0, 0, 0];
        let scores = [0.9, 0.8, 0.7, 0.05, 0.4, 0.3, 0.2, 0.1];
        // Zero budget: the cutoff must sit at the lowest positive score,
        // so no positive scores strictly below it.
        let t0 = threshold_at_fnr(&labels, &scores, 0.0);
        assert_eq!(t0, 0.05);
        let m = ConfusionMatrix::from_scores(&labels, &scores, t0);
        assert_eq!(m.fn_, 0);
        // A 25% budget may sacrifice exactly the one outlier positive,
        // lifting the cutoff to the next positive and absorbing every
        // negative below it.
        let t1 = threshold_at_fnr(&labels, &scores, 0.25);
        assert_eq!(t1, 0.7);
        let m = ConfusionMatrix::from_scores(&labels, &scores, t1);
        assert_eq!(m.fn_, 1);
        assert_eq!(m.tn, 4);
    }

    #[test]
    fn threshold_at_fnr_degenerate_inputs() {
        // No positives: everything may pass.
        assert_eq!(threshold_at_fnr(&[0, 0], &[0.9, 0.1], 0.01), 0.0);
        // Full budget: unbounded cutoff.
        assert_eq!(threshold_at_fnr(&[1, 1], &[0.9, 0.1], 1.0), f64::INFINITY);
    }

    #[test]
    fn threshold_moves_tradeoff() {
        let labels = [1, 1, 0, 0];
        let scores = [0.9, 0.6, 0.55, 0.1];
        let strict = ConfusionMatrix::from_scores(&labels, &scores, 0.8);
        let loose = ConfusionMatrix::from_scores(&labels, &scores, 0.5);
        assert!(strict.precision() >= loose.precision());
        assert!(strict.recall() <= loose.recall());
    }
}
