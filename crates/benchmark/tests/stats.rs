use freephish_benchmark::stats::{
    highest_supported_tail, median, median_of_window_percentiles, percentile,
};

#[test]
fn tail_percentile_needs_ten_samples_beyond_it() {
    // p99.9 leaves a thousandth of the samples beyond it, p99 a hundredth.
    assert_eq!(highest_supported_tail(10_000), 99.9);
    assert_eq!(highest_supported_tail(9_999), 99.0);
    assert_eq!(highest_supported_tail(1_000), 99.0);
    assert_eq!(highest_supported_tail(999), 95.0);
    assert_eq!(highest_supported_tail(200), 95.0);
    assert_eq!(highest_supported_tail(199), 90.0);
    assert_eq!(highest_supported_tail(100), 90.0);
    assert_eq!(highest_supported_tail(99), 50.0);
    assert_eq!(highest_supported_tail(0), 50.0);
}

#[test]
fn percentile_is_nearest_rank() {
    let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(percentile(&sorted, 50.0), 50.0);
    assert_eq!(percentile(&sorted, 99.0), 99.0);
    assert_eq!(percentile(&sorted, 100.0), 100.0);
    assert_eq!(percentile(&sorted, 0.0), 1.0);
    assert_eq!(percentile(&[7.0], 99.0), 7.0);
    assert_eq!(median(vec![9.0, 1.0, 5.0]), 5.0);
}

#[test]
fn one_stalled_window_does_not_move_the_windowed_tail() {
    let quiet: Vec<f64> = (1..=100).map(f64::from).collect();
    let stalled: Vec<f64> = quiet.iter().map(|v| v * 1_000.0).collect();
    let windows = vec![
        quiet.clone(),
        quiet.clone(),
        stalled,
        quiet.clone(),
        Vec::new(),
    ];
    assert_eq!(median_of_window_percentiles(&windows, 95.0), 95.0);
}
