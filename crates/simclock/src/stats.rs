//! Summary statistics used by the analysis module: medians, percentiles,
//! empirical CDFs and fixed-checkpoint coverage curves — the quantities the
//! paper reports in Tables 3–4 and Figures 6–9.

/// Median of a sample. Returns `None` on an empty slice. For even-sized
/// samples the lower-middle element is returned (the convention used for
/// reporting "median response time" over discrete observations).
pub fn median_u64(values: &[u64]) -> Option<u64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_unstable();
    Some(v[(v.len() - 1) / 2])
}

/// Median of an f64 sample (lower-middle convention). `None` when empty.
pub fn median_f64(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    Some(v[(v.len() - 1) / 2])
}

/// Arithmetic mean; `None` when empty.
pub fn mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        None
    } else {
        Some(values.iter().sum::<f64>() / values.len() as f64)
    }
}

/// p-th percentile (0..=100) by nearest-rank. `None` when empty.
pub fn percentile_u64(values: &[u64], p: f64) -> Option<u64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_unstable();
    let rank = ((p / 100.0) * v.len() as f64).ceil().max(1.0) as usize;
    Some(v[rank.min(v.len()) - 1])
}

/// An empirical CDF over u64 observations; `eval(x)` is the fraction of
/// observations `<= x`.
#[derive(Debug, Clone)]
pub struct Ecdf {
    sorted: Vec<u64>,
}

impl Ecdf {
    /// Build from a sample (which may be empty).
    pub fn new(mut values: Vec<u64>) -> Self {
        values.sort_unstable();
        Ecdf { sorted: values }
    }

    /// Fraction of observations `<= x`; 0.0 for an empty sample.
    pub fn eval(&self, x: u64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let n = self.sorted.partition_point(|&v| v <= x);
        n as f64 / self.sorted.len() as f64
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True when the sample is empty.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Sample the CDF at each of `xs`, returning (x, F(x)) pairs — the series
    /// plotted in Figures 7–9.
    pub fn series(&self, xs: &[u64]) -> Vec<(u64, f64)> {
        xs.iter().map(|&x| (x, self.eval(x))).collect()
    }
}

/// Cumulative coverage curve: given per-item event delays (seconds from
/// first appearance to detection; `None` = never detected within the study
/// window) and checkpoint offsets, returns for each checkpoint the fraction
/// of *all* items whose delay is `<=` the checkpoint.
///
/// This matches the paper's Figures 6 and 9: coverage is relative to the
/// full population, so curves plateau below 1.0 when some URLs are never
/// covered.
pub fn coverage_curve(delays: &[Option<u64>], checkpoints_secs: &[u64]) -> Vec<(u64, f64)> {
    if delays.is_empty() {
        return checkpoints_secs.iter().map(|&c| (c, 0.0)).collect();
    }
    let mut detected: Vec<u64> = delays.iter().filter_map(|d| *d).collect();
    detected.sort_unstable();
    let n = delays.len() as f64;
    checkpoints_secs
        .iter()
        .map(|&c| {
            let k = detected.partition_point(|&d| d <= c);
            (c, k as f64 / n)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median_u64(&[5, 1, 9]), Some(5));
        assert_eq!(median_u64(&[4, 1, 3, 2]), Some(2)); // lower-middle
        assert_eq!(median_u64(&[]), None);
        assert_eq!(median_f64(&[1.0, 2.0, 3.0]), Some(2.0));
        assert_eq!(median_f64(&[]), None);
    }

    #[test]
    fn mean_basic() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), Some(2.0));
        assert_eq!(mean(&[]), None);
    }

    #[test]
    fn percentile_nearest_rank() {
        let v = [10, 20, 30, 40, 50];
        assert_eq!(percentile_u64(&v, 50.0), Some(30));
        assert_eq!(percentile_u64(&v, 100.0), Some(50));
        assert_eq!(percentile_u64(&v, 1.0), Some(10));
        assert_eq!(percentile_u64(&[], 50.0), None);
    }

    #[test]
    fn ecdf_eval() {
        let e = Ecdf::new(vec![1, 2, 2, 4]);
        assert_eq!(e.eval(0), 0.0);
        assert_eq!(e.eval(1), 0.25);
        assert_eq!(e.eval(2), 0.75);
        assert_eq!(e.eval(4), 1.0);
        assert_eq!(e.eval(100), 1.0);
        assert!(Ecdf::new(vec![]).is_empty());
        assert_eq!(Ecdf::new(vec![]).eval(5), 0.0);
    }

    #[test]
    fn ecdf_series_monotone() {
        let e = Ecdf::new(vec![3, 7, 7, 20]);
        let s = e.series(&[0, 5, 10, 30]);
        for w in s.windows(2) {
            assert!(w[0].1 <= w[1].1);
        }
        assert_eq!(s.last().unwrap().1, 1.0);
    }

    #[test]
    fn coverage_curve_plateaus_below_one() {
        // 4 items: detected at 10s, 100s, never, never.
        let delays = [Some(10), Some(100), None, None];
        let curve = coverage_curve(&delays, &[5, 50, 1000]);
        assert_eq!(curve, vec![(5, 0.0), (50, 0.25), (1000, 0.5)]);
    }

    #[test]
    fn coverage_curve_empty_population() {
        let curve = coverage_curve(&[], &[10]);
        assert_eq!(curve, vec![(10, 0.0)]);
    }
}
