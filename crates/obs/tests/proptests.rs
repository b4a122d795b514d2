//! Property tests for the observability primitives: recording arbitrary
//! floats never panics, quantiles stay inside the observed range and are
//! monotone, and snapshot merging commutes with combined recording.

use freephish_obs::{escape_label_value, Histogram, HistogramSnapshot, WindowedHistogram};
use freephish_simclock::prop::check;

/// Any f64 — subnormals, zero, negatives, infinities, NaN — can be
/// recorded without panicking, and the sample count only grows for
/// non-NaN samples.
#[test]
fn recording_any_f64_never_panics() {
    check(256, |g| {
        let samples = g.vec(0..200, |g| g.f64_bits());
        let h = Histogram::new();
        let mut expected = 0u64;
        for &v in &samples {
            h.record(v);
            if !v.is_nan() {
                expected += 1;
            }
        }
        assert_eq!(h.count(), expected);
        let s = h.snapshot();
        assert_eq!(s.buckets.iter().sum::<u64>(), expected);
    });
}

/// Quantiles of any non-empty recording stay within the observed
/// [min, max] and are monotone in q.
#[test]
fn quantiles_bounded_and_monotone() {
    check(256, |g| {
        let samples = g.vec(1..300, |g| match g.usize_in(0..5) {
            0 => g.f64_in(-1e12..1e12),
            1 => 0.0,
            2 => g.f64_in(1e-12..1.0),
            3 => f64::INFINITY,
            _ => f64::NEG_INFINITY,
        });
        let h = Histogram::new();
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for &v in &samples {
            h.record(v);
            min = min.min(v);
            max = max.max(v);
        }
        let s = h.snapshot();
        assert_eq!(s.min, min);
        assert_eq!(s.max, max);
        let mut last = f64::NEG_INFINITY;
        for i in 0..=20 {
            let q = i as f64 / 20.0;
            let est = s.quantile(q).expect("non-empty histogram");
            assert!(!est.is_nan());
            assert!(est >= min, "quantile({}) = {} below min {}", q, est, min);
            assert!(est <= max, "quantile({}) = {} above max {}", q, est, max);
            assert!(est >= last, "quantile({}) = {} < previous {}", q, est, last);
            last = est;
        }
    });
}

/// Merging two snapshots is equivalent to recording both sample sets
/// into one histogram.
#[test]
fn merge_is_union() {
    check(256, |g| {
        let a = g.vec(0..100, |g| g.f64_in(-1e9..1e9));
        let b = g.vec(0..100, |g| g.f64_in(-1e9..1e9));
        let ha = Histogram::new();
        let hb = Histogram::new();
        let hall = Histogram::new();
        for &v in &a {
            ha.record(v);
            hall.record(v);
        }
        for &v in &b {
            hb.record(v);
            hall.record(v);
        }
        let mut merged = ha.snapshot();
        merged.merge(&hb.snapshot());
        let reference = hall.snapshot();
        assert_eq!(&merged.buckets, &reference.buckets);
        assert_eq!(merged.count, reference.count);
        // min/max agree (== treats ±0.0 alike; both NaN only when empty).
        assert!(merged.min == reference.min || (merged.min.is_nan() && reference.min.is_nan()));
        assert!(merged.max == reference.max || (merged.max.is_nan() && reference.max.is_nan()));
    });
}

/// The empty snapshot is a merge identity.
#[test]
fn empty_merge_identity() {
    check(256, |g| {
        let samples = g.vec(1..50, |g| g.f64_in(0.0..1e6));
        let h = Histogram::new();
        for &v in &samples {
            h.record(v);
        }
        let reference = h.snapshot();
        let mut left = HistogramSnapshot::empty();
        left.merge(&reference);
        let mut right = reference.clone();
        right.merge(&HistogramSnapshot::empty());
        assert_eq!(&left.buckets, &reference.buckets);
        assert_eq!(&right.buckets, &reference.buckets);
        assert_eq!(left.count, reference.count);
        assert_eq!(right.min, reference.min);
    });
}

/// A windowed histogram's `merged()` view equals merging its
/// per-window snapshots by hand, for any interleaving of recording
/// and manual window advances (including advances that wrap and
/// evict old windows).
#[test]
fn windowed_merged_equals_merge_of_windows() {
    check(256, |g| {
        let ops = g.vec(0..200, |g| (g.f64_in(0.0..1e6), g.bool()));
        let w = WindowedHistogram::manual(4);
        for &(v, advance) in &ops {
            if advance {
                w.advance();
            }
            w.record(v);
        }
        let mut manual = HistogramSnapshot::empty();
        for (_, s) in w.window_snapshots() {
            manual.merge(&s);
        }
        let merged = w.merged();
        assert_eq!(&manual.buckets, &merged.buckets);
        assert_eq!(manual.count, merged.count);
        assert_eq!(manual.sum, merged.sum);
        assert!(manual.min == merged.min || (manual.min.is_nan() && merged.min.is_nan()));
        assert!(manual.max == merged.max || (manual.max.is_nan() && merged.max.is_nan()));
    });
}

/// Prometheus label-value escaping round-trips: the escaped form
/// contains no unescaped `"`, `\` or newline, and unescaping
/// recovers the original string exactly — for inputs deliberately
/// dense in the three special characters.
#[test]
fn prometheus_escaping_round_trips() {
    check(256, |g| {
        let parts = g.vec(0..24, |g| match g.usize_in(0..5) {
            0 => "\n".to_string(),
            1 => "\"".to_string(),
            2 => "\\".to_string(),
            3 => "\\n".to_string(),
            _ => g.text(0..7),
        });
        let original = parts.concat();
        let escaped = escape_label_value(&original);

        // Well-formedness: every special character is escaped, every
        // backslash starts a valid escape sequence.
        let mut chars = escaped.chars();
        while let Some(c) = chars.next() {
            assert!(c != '"' && c != '\n', "unescaped {:?} in {:?}", c, escaped);
            if c == '\\' {
                let next = chars.next();
                assert!(
                    matches!(next, Some('\\') | Some('"') | Some('n')),
                    "dangling or unknown escape {:?} in {:?}",
                    next,
                    escaped
                );
            }
        }

        // Round trip: decode and compare.
        let mut decoded = String::new();
        let mut chars = escaped.chars();
        while let Some(c) = chars.next() {
            if c == '\\' {
                match chars.next() {
                    Some('\\') => decoded.push('\\'),
                    Some('"') => decoded.push('"'),
                    Some('n') => decoded.push('\n'),
                    other => {
                        panic!("bad escape {other:?} in {escaped:?}");
                    }
                }
            } else {
                decoded.push(c);
            }
        }
        assert_eq!(decoded, original);
    });
}
