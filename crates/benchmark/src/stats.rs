//! Order statistics for latency samples.

/// The tail percentiles the benchmark may report, highest first, each with
/// the share of samples beyond it in thousandths.
const TAIL_LADDER: [(f64, usize); 4] = [(99.9, 1), (99.0, 10), (95.0, 50), (90.0, 100)];

/// Nearest-rank percentile `p` (0..=100) of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest percentile of the ladder that still has at least ten of `n`
/// samples beyond it, or the median when none has.
pub fn highest_supported_tail(n: usize) -> f64 {
    TAIL_LADDER
        .into_iter()
        .find(|(_, beyond)| n * beyond >= 10 * 1000)
        .map_or(50.0, |(p, _)| p)
}

pub fn sort(values: &mut [f64]) {
    values.sort_by(f64::total_cmp);
}

/// Median of unsorted values.
pub fn median(mut values: Vec<f64>) -> f64 {
    sort(&mut values);
    percentile(&values, 50.0)
}

/// Median over windows of each window's percentile `p`: one stalled window
/// moves it little, where it would own the tail of the pooled samples.
/// Windows without samples are left out.
pub fn median_of_window_percentiles(windows: &[Vec<f64>], p: f64) -> f64 {
    median(
        windows
            .iter()
            .filter(|w| !w.is_empty())
            .map(|w| {
                let mut sorted = w.clone();
                sort(&mut sorted);
                percentile(&sorted, p)
            })
            .collect(),
    )
}
