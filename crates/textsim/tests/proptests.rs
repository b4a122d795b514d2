//! Property tests: Levenshtein metric axioms, Myers-vs-Wagner–Fischer
//! kernel agreement, and similarity bounds.

use freephish_simclock::prop::{check, Gen};
use freephish_textsim::{
    distance, distance_bounded, normalized_similarity, site_similarity, site_similarity_pairs,
    wagner_fischer, wagner_fischer_bounded,
};

/// A tag sequence of up to `max_tags - 1` tags shaped like
/// `<[a-z]{1,name}( [a-z]{1,attr}="[a-z]{0,value}")?>`.
fn tags(g: &mut Gen, max_tags: usize, [name, attr, value]: [usize; 3]) -> Vec<String> {
    g.vec(0..max_tags, |g| {
        let mut tag = format!("<{}", g.string("a-z", 1..name + 1));
        if g.bool() {
            let (a, v) = (g.string("a-z", 1..attr + 1), g.string("a-z", 0..value + 1));
            tag += &format!(" {a}=\"{v}\"");
        }
        tag + ">"
    })
}

/// d(a,a) = 0 (identity of indiscernibles, one direction).
#[test]
fn identity() {
    check(256, |g| {
        let a = g.string("a-z<>\"= ", 0..41);
        assert_eq!(distance(&a, &a), 0);
    });
}

/// d(a,b) = d(b,a) (symmetry).
#[test]
fn symmetry() {
    check(256, |g| {
        let (a, b) = (g.string("a-z", 0..31), g.string("a-z", 0..31));
        assert_eq!(distance(&a, &b), distance(&b, &a));
    });
}

/// d(a,c) <= d(a,b) + d(b,c) (triangle inequality).
#[test]
fn triangle() {
    check(256, |g| {
        let [a, b, c] = [(); 3].map(|_| g.string("a-z", 0..21));
        assert!(distance(&a, &c) <= distance(&a, &b) + distance(&b, &c));
    });
}

/// |len(a) - len(b)| <= d(a,b) <= max(len(a), len(b)).
#[test]
fn distance_bounds() {
    check(256, |g| {
        let (a, b) = (g.string("a-z", 0..31), g.string("a-z", 0..31));
        let d = distance(&a, &b);
        let lo = a.len().abs_diff(b.len());
        let hi = a.len().max(b.len());
        assert!(d >= lo && d <= hi, "d={d}, lo={lo}, hi={hi}");
    });
}

/// Bounded distance agrees with exact distance whenever it returns Some,
/// and returns None exactly when the distance exceeds the bound.
#[test]
fn bounded_consistent() {
    check(256, |g| {
        let (a, b) = (g.string("a-z", 0..26), g.string("a-z", 0..26));
        let bound = g.usize_in(0..30);
        let exact = distance(&a, &b);
        match distance_bounded(&a, &b, bound) {
            Some(d) => {
                assert_eq!(d, exact);
                assert!(d <= bound);
            }
            None => assert!(exact > bound, "exact={exact} bound={bound}"),
        }
    });
}

/// Normalised similarity lies in [0, 100] and is 100 iff strings equal.
#[test]
fn similarity_in_range() {
    check(256, |g| {
        let (a, b) = (g.string("a-z", 0..31), g.string("a-z", 0..31));
        let s = normalized_similarity(&a, &b);
        assert!((0.0..=100.0).contains(&s));
        if a == b {
            assert_eq!(s, 100.0);
        } else {
            assert!(s < 100.0);
        }
    });
}

/// Site similarity is symmetric and in [0, 100].
#[test]
fn site_similarity_props() {
    check(256, |g| {
        let (a, b) = (tags(g, 8, [8, 5, 6]), tags(g, 8, [8, 5, 6]));
        let ab = site_similarity(&a, &b);
        let ba = site_similarity(&b, &a);
        assert_eq!(ab, ba);
        assert!((0.0..=100.0).contains(&ab));
    });
}

/// A site is 100% similar to itself (when non-empty).
#[test]
fn site_self_similarity() {
    check(256, |g| {
        let a = g.vec(1..8, |g| format!("<{}>", g.string("a-z", 1..9)));
        assert_eq!(site_similarity(&a, &a), 100.0);
    });
}

/// The Myers kernel agrees with Wagner–Fischer on random byte strings,
/// including multi-block patterns (> 64 bytes).
#[test]
fn myers_matches_wagner_fischer() {
    check(256, |g| {
        let (a, b) = (g.string("a-p", 0..151), g.string("a-p", 0..151));
        assert_eq!(distance(&a, &b), wagner_fischer(&a, &b), "a={a:?} b={b:?}");
    });
}

/// Bounded Myers (early-exit included) agrees with bounded
/// Wagner–Fischer across bounds, spanning the single- and multi-block
/// regimes.
#[test]
fn bounded_myers_matches_wagner_fischer() {
    check(256, |g| {
        let (a, b) = (g.string("a-h", 0..121), g.string("a-h", 0..121));
        let bound = g.usize_in(0..140);
        assert_eq!(
            distance_bounded(&a, &b, bound),
            wagner_fischer_bounded(&a, &b, bound),
            "a={a:?} b={b:?} bound={bound}"
        );
    });
}

/// The parallel pair sweep equals the serial sweep, in order, at
/// thread counts 1, 2, and 8.
#[test]
fn pair_sweep_matches_serial() {
    check(256, |g| {
        let pairs = g.vec(0..12, |g| (tags(g, 6, [10, 4, 5]), tags(g, 6, [10, 4, 5])));
        let serial: Vec<f64> = pairs.iter().map(|(a, b)| site_similarity(a, b)).collect();
        for threads in [1usize, 2, 8] {
            let par =
                freephish_par::with_thread_override(threads, || site_similarity_pairs(&pairs));
            assert_eq!(&par, &serial, "threads={threads}");
        }
    });
}
