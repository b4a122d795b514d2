//! Pre-optimisation reference implementations of the lexical URL scans.
//!
//! These are the original allocating versions — `char`-wise symbol scans,
//! `Host::to_string` for dot/hyphen counts, `Vec<String>` tokenisation with
//! a `format!` path+query concatenation, and per-brand re-tokenisation in
//! [`best_brand_match`]. They are retained verbatim (modulo the duplicate
//! Wagner–Fischer kernel, which now lives solely in `freephish-textsim`) as
//! the oracle the hot-path equivalence tests in [`crate::lexical`] compare
//! against. Production callers use [`crate::lexical`].

use crate::lexical::{BrandMatch, SENSITIVE_WORDS, SUSPICIOUS_SYMBOLS};
use crate::Url;
use freephish_textsim::levenshtein::wagner_fischer;

/// Count of suspicious symbols across the full URL string (char scan).
pub fn suspicious_symbol_count(url: &str) -> usize {
    url.chars()
        .filter(|c| SUSPICIOUS_SYMBOLS.contains(c))
        .count()
}

/// Number of sensitive vocabulary words appearing anywhere in the URL,
/// case-insensitive (always allocates the lower-cased copy).
pub fn sensitive_word_count(url: &str) -> usize {
    let lower = url.to_ascii_lowercase();
    SENSITIVE_WORDS
        .iter()
        .filter(|w| lower.contains(*w))
        .count()
}

/// Fraction of characters that are ASCII digits (two char walks).
pub fn digit_ratio(s: &str) -> f64 {
    if s.is_empty() {
        return 0.0;
    }
    s.chars().filter(|c| c.is_ascii_digit()).count() as f64 / s.chars().count() as f64
}

/// Count of hyphens in the host, via the allocating `Host::to_string`.
pub fn host_hyphen_count(url: &Url) -> usize {
    url.host().to_string().chars().filter(|&c| c == '-').count()
}

/// Number of dots in the full host string, via `Host::to_string`.
pub fn host_dot_count(url: &Url) -> usize {
    url.host().to_string().chars().filter(|&c| c == '.').count()
}

/// Split a URL into lexical tokens, allocating one `String` per token plus
/// the intermediate path+query concatenation.
pub fn tokens(url: &Url) -> Vec<String> {
    let mut out = Vec::new();
    for label in url.host().labels() {
        for t in label.split(|c: char| !c.is_ascii_alphanumeric()) {
            if !t.is_empty() {
                out.push(t.to_ascii_lowercase());
            }
        }
    }
    let tail = format!("{}{}", url.path(), url.query().unwrap_or(""));
    for t in tail.split(|c: char| !c.is_ascii_alphanumeric()) {
        if !t.is_empty() {
            out.push(t.to_ascii_lowercase());
        }
    }
    out
}

/// Detect the strongest match of `brand` within the URL's tokens,
/// re-tokenising the URL on every call (the original shape).
pub fn brand_match(url: &Url, brand: &str) -> BrandMatch {
    let brand = brand.to_ascii_lowercase();
    if brand.is_empty() {
        return BrandMatch::None;
    }
    let toks = tokens(url);
    let mut best = BrandMatch::None;
    for t in &toks {
        if *t == brand {
            return BrandMatch::Exact;
        }
        if brand.len() >= 4 {
            let d = wagner_fischer(t, &brand);
            let allowed = if brand.len() >= 8 { 2 } else { 1 };
            if d <= allowed && d > 0 {
                best = BrandMatch::Misspelled;
                continue;
            }
        }
        if t.len() > brand.len() && t.contains(&brand) && best == BrandMatch::None {
            best = BrandMatch::Embedded;
        }
    }
    best
}

/// Strongest match of any of `brands`, calling [`brand_match`] per brand —
/// quadratic in tokenisation work, kept as the honest legacy benchmark.
pub fn best_brand_match(url: &Url, brands: &[&str]) -> Option<(usize, BrandMatch)> {
    let mut best: Option<(usize, BrandMatch)> = None;
    for (i, b) in brands.iter().enumerate() {
        let m = brand_match(url, b);
        let rank = |m: BrandMatch| match m {
            BrandMatch::Exact => 3,
            BrandMatch::Misspelled => 2,
            BrandMatch::Embedded => 1,
            BrandMatch::None => 0,
        };
        if rank(m) > best.map(|(_, bm)| rank(bm)).unwrap_or(0) {
            best = Some((i, m));
        }
    }
    best
}
