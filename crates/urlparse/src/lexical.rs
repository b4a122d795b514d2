//! Lexical URL signals used by the StackModel feature set (Li et al. 2019)
//! and the FreePhish augmentation.
//!
//! These are pure string analyses: suspicious symbols, sensitive phishing
//! vocabulary, embedded or slightly-misspelled brand names, digit density,
//! and token extraction. They deliberately know nothing about the ecosystem;
//! the feature-vector assembly lives in `freephish-core::features`.
//!
//! This is the URL half of the classification hot path, so the scans are
//! built for wire speed:
//!
//! * symbol/digit/dot/hyphen counts run on the SWAR kernels in
//!   [`crate::swar`] (8 bytes per step, no per-char dispatch);
//! * tokenisation is the allocation-free [`UrlTokens`] iterator — tokens
//!   borrow from the URL and only turn into owned strings when case-folding
//!   changes bytes or a token spans the path/query boundary;
//! * typosquat distances go through the shared bit-parallel Myers kernel in
//!   `freephish-textsim` (`distance_bounded`), which early-outs at the
//!   allowed bound instead of filling a full Wagner–Fischer matrix.
//!
//! The original scalar implementations live on in [`crate::legacy`]; the
//! equivalence tests below (and the urlparse property tests) pin this
//! module to them output-for-output.

use crate::Url;
use freephish_textsim::levenshtein::distance_bounded;
use std::borrow::Cow;

/// Sensitive words whose presence in a URL correlates with credential
/// phishing (drawn from the vocabulary the StackModel paper and OpenPhish
/// reports use).
pub const SENSITIVE_WORDS: &[&str] = &[
    "login",
    "signin",
    "sign-in",
    "verify",
    "verification",
    "secure",
    "security",
    "account",
    "update",
    "confirm",
    "password",
    "banking",
    "wallet",
    "recover",
    "unlock",
    "support",
    "billing",
    "invoice",
    "alert",
    "suspend",
    "webscr",
    "authenticate",
    "validation",
    "helpdesk",
];

/// Symbols whose presence in a URL is suspicious (obfuscation, redirection
/// tricks, encoded payloads).
pub const SUSPICIOUS_SYMBOLS: &[char] = &['@', '~', '%', '$', '!', '*', '=', '&'];

/// [`SUSPICIOUS_SYMBOLS`] as bytes, for the SWAR scan (all are ASCII).
const SUSPICIOUS_SYMBOL_BYTES: &[u8] = b"@~%$!*=&";

/// Count of suspicious symbols across the full URL string.
pub fn suspicious_symbol_count(url: &str) -> usize {
    crate::swar::count_any(url, SUSPICIOUS_SYMBOL_BYTES)
}

/// Number of sensitive vocabulary words appearing anywhere in the URL
/// (host + path + query), case-insensitive. The lower-cased copy is only
/// allocated when the URL actually contains upper-case bytes.
pub fn sensitive_word_count(url: &str) -> usize {
    let lower = lower_cow(url);
    SENSITIVE_WORDS
        .iter()
        .filter(|w| lower.contains(*w))
        .count()
}

/// Fraction of characters that are ASCII digits.
pub fn digit_ratio(s: &str) -> f64 {
    crate::swar::digit_ratio(s)
}

/// Count of hyphens in the host (long hyphenated hosts imitate brand URLs:
/// `paypal-secure-login.weebly.com`). IPv4 literals render without hyphens.
pub fn host_hyphen_count(url: &Url) -> usize {
    url.host()
        .domain_str()
        .map_or(0, |d| crate::swar::count_byte(d, b'-'))
}

/// Number of dots in the full host string (depth of subdomain nesting).
/// An IPv4 literal renders as `a.b.c.d` — always exactly three dots.
pub fn host_dot_count(url: &Url) -> usize {
    url.host()
        .domain_str()
        .map_or(3, |d| crate::swar::count_byte(d, b'.'))
}

/// Lower-case `s` without allocating when it is already lower-case.
fn lower_cow(s: &str) -> Cow<'_, str> {
    if s.bytes().any(|b| b.is_ascii_uppercase()) {
        Cow::Owned(s.to_ascii_lowercase())
    } else {
        Cow::Borrowed(s)
    }
}

/// Allocation-free iterator over a URL's lexical tokens: maximal runs of
/// ASCII alphanumerics in the host, then in the path+query, lower-cased.
///
/// The path and query are scanned as one *virtual* concatenation so that a
/// run touching both sides merges into a single token — the exact output of
/// the legacy `format!("{path}{query}")` tokeniser — without materialising
/// the concatenation. Only two cases allocate: a token with upper-case
/// bytes, and the (at most one) token spanning the path/query boundary.
pub struct UrlTokens<'a> {
    host: &'a str,
    host_pos: usize,
    path: &'a str,
    query: &'a str,
    tail_pos: usize,
}

/// Iterate the URL's lexical tokens without collecting them. Equivalent to
/// [`tokens`] item-for-item (proven by the equivalence tests).
pub fn token_iter(url: &Url) -> UrlTokens<'_> {
    UrlTokens {
        // IPv4 hosts contribute no tokens (`labels()` is empty for them),
        // mirroring the legacy label-wise walk.
        host: url.host().domain_str().unwrap_or(""),
        host_pos: 0,
        path: url.path(),
        query: url.query().unwrap_or(""),
        tail_pos: 0,
    }
}

impl<'a> UrlTokens<'a> {
    /// Byte `i` of the virtual `path + query` concatenation.
    #[inline]
    fn tail_byte(&self, i: usize) -> u8 {
        if i < self.path.len() {
            self.path.as_bytes()[i]
        } else {
            self.query.as_bytes()[i - self.path.len()]
        }
    }

    /// Slice `[start, end)` of the virtual concatenation, lower-cased.
    /// Borrows unless the run crosses the path/query boundary. The run is
    /// all ASCII alphanumerics, so byte indices are char boundaries.
    fn tail_slice(&self, start: usize, end: usize) -> Cow<'a, str> {
        let plen = self.path.len();
        if end <= plen {
            lower_cow(&self.path[start..end])
        } else if start >= plen {
            lower_cow(&self.query[start - plen..end - plen])
        } else {
            let mut s = String::with_capacity(end - start);
            s.push_str(&self.path[start..]);
            s.push_str(&self.query[..end - plen]);
            s.make_ascii_lowercase();
            Cow::Owned(s)
        }
    }
}

impl<'a> Iterator for UrlTokens<'a> {
    type Item = Cow<'a, str>;

    fn next(&mut self) -> Option<Cow<'a, str>> {
        // Host tokens first. Splitting the whole domain string on
        // non-alphanumerics is identical to splitting each dot-separated
        // label ('.' is itself non-alphanumeric). The domain is stored
        // lower-case, so these always borrow.
        let hb = self.host.as_bytes();
        while self.host_pos < hb.len() {
            if !hb[self.host_pos].is_ascii_alphanumeric() {
                self.host_pos += 1;
                continue;
            }
            let start = self.host_pos;
            while self.host_pos < hb.len() && hb[self.host_pos].is_ascii_alphanumeric() {
                self.host_pos += 1;
            }
            return Some(lower_cow(&self.host[start..self.host_pos]));
        }
        // Then the virtual path+query concatenation. Multi-byte UTF-8
        // sequences are all non-alphanumeric bytes, so byte-wise splitting
        // matches the legacy char-wise `split`.
        let total = self.path.len() + self.query.len();
        while self.tail_pos < total {
            if !self.tail_byte(self.tail_pos).is_ascii_alphanumeric() {
                self.tail_pos += 1;
                continue;
            }
            let start = self.tail_pos;
            while self.tail_pos < total && self.tail_byte(self.tail_pos).is_ascii_alphanumeric() {
                self.tail_pos += 1;
            }
            return Some(self.tail_slice(start, self.tail_pos));
        }
        None
    }
}

/// Split a URL into lexical tokens: labels of the host plus path/query
/// segments split on non-alphanumerics. Tokens are lower-cased.
///
/// Owned-`Vec` adapter over [`token_iter`]; hot-path callers should use the
/// iterator directly.
pub fn tokens(url: &Url) -> Vec<String> {
    token_iter(url).map(Cow::into_owned).collect()
}

/// How a brand name appears in a URL, if at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BrandMatch {
    /// A token equals the brand exactly (`paypal` in `paypal-login…`).
    Exact,
    /// A token is within edit distance 1–2 of the brand (`paypa1`,
    /// `rnicrosoft`) — classic typosquatting.
    Misspelled,
    /// The brand appears embedded inside a longer token
    /// (`securepaypalverify`).
    Embedded,
    /// Not present.
    None,
}

fn rank(m: BrandMatch) -> u8 {
    match m {
        BrandMatch::Exact => 3,
        BrandMatch::Misspelled => 2,
        BrandMatch::Embedded => 1,
        BrandMatch::None => 0,
    }
}

/// One brand pre-lowered and fingerprinted for the matching loop.
#[derive(Debug, Clone)]
struct BrandEntry {
    /// Index into the caller's original brand slice.
    index: usize,
    /// The brand, lower-cased.
    lower: String,
    /// [`crate::swar::byte_bag`] of the lowered brand.
    bag: u64,
    /// Edit budget for a Misspelled verdict (2 for names of 8+ bytes).
    allowed: usize,
    /// Whether the brand is long enough for fuzzy matching at all.
    fuzzy: bool,
}

/// A brand list compiled once and reused across every URL: lower-casing,
/// byte-bag fingerprints and edit budgets are hoisted out of the per-URL
/// loop. Build with [`prepare_brands`], match with [`best_brand_match_in`].
#[derive(Debug, Clone, Default)]
pub struct BrandCatalog {
    entries: Vec<BrandEntry>,
}

impl BrandCatalog {
    /// Number of (non-empty) brands in the catalog.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the catalog holds no brands.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Compile a brand list into a reusable [`BrandCatalog`]. Empty brands are
/// dropped (they can never match); surviving entries remember their
/// original index so results are reported against the input slice.
pub fn prepare_brands(brands: &[&str]) -> BrandCatalog {
    BrandCatalog {
        entries: brands
            .iter()
            .enumerate()
            .filter(|(_, b)| !b.is_empty())
            .map(|(index, b)| {
                let lower = b.to_ascii_lowercase();
                BrandEntry {
                    index,
                    bag: crate::swar::byte_bag(&lower),
                    allowed: if lower.len() >= 8 { 2 } else { 1 },
                    fuzzy: lower.len() >= 4,
                    lower,
                }
            })
            .collect(),
    }
}

/// Strongest match of a (lower-case, non-empty) brand against pre-extracted
/// tokens, each paired with its byte-bag fingerprint. Exact beats
/// misspelled beats embedded — same precedence walk as the legacy per-call
/// tokeniser.
///
/// The byte bag gates every expensive check with an exact one-sided test
/// (see [`crate::swar::byte_bag`]): `missing = bag & !token_bag` collects
/// byte buckets the brand needs but the token provably lacks. A non-zero
/// `missing` rules out equality and containment outright, and each missing
/// bucket costs at least one edit, so `missing.count_ones() > allowed`
/// rules out a Misspelled verdict before the Myers kernel runs. The kernel
/// ([`distance_bounded`]) remains the arbiter for everything the filter
/// cannot reject.
///
/// `fuzzy`/`embed` tell the walk which verdicts the caller can still use
/// (rank-floor pruning): disabling them may understate the true match but
/// never overstates it, so a strict `rank > floor` comparison at the call
/// site is unaffected.
fn classify_tokens(
    toks: &[(Cow<'_, str>, u64)],
    brand: &BrandEntry,
    fuzzy: bool,
    embed: bool,
) -> BrandMatch {
    let mut best = BrandMatch::None;
    for (t, tbag) in toks {
        let t = t.as_ref();
        let missing = brand.bag & !tbag;
        if missing == 0 && t == brand.lower {
            return BrandMatch::Exact;
        }
        // `distance_bounded` early-outs once the Myers distance exceeds
        // `allowed`; Some(d) here implies 0 < d <= allowed because the
        // d == 0 case is the exact match already returned above. The
        // byte-length band is exact for the same reason the bag filter is:
        // Myers distance is a byte distance.
        if fuzzy
            && missing.count_ones() as usize <= brand.allowed
            && t.len().abs_diff(brand.lower.len()) <= brand.allowed
            && distance_bounded(t, &brand.lower, brand.allowed).is_some()
        {
            best = BrandMatch::Misspelled;
            continue;
        }
        if embed
            && best == BrandMatch::None
            && missing == 0
            && t.len() > brand.lower.len()
            && t.contains(brand.lower.as_str())
        {
            best = BrandMatch::Embedded;
        }
    }
    best
}

/// Tokenise the URL once, pairing each token with its byte bag.
fn fingerprinted_tokens(url: &Url) -> Vec<(Cow<'_, str>, u64)> {
    token_iter(url)
        .map(|t| {
            let bag = crate::swar::byte_bag(&t);
            (t, bag)
        })
        .collect()
}

/// Detect the strongest match of `brand` (lower-case) within the URL's
/// tokens. Exact beats misspelled beats embedded.
pub fn brand_match(url: &Url, brand: &str) -> BrandMatch {
    let catalog = prepare_brands(&[brand]);
    match catalog.entries.first() {
        Some(b) => classify_tokens(&fingerprinted_tokens(url), b, b.fuzzy, true),
        None => BrandMatch::None,
    }
}

/// Strongest match of *any* catalog brand within the URL; returns the
/// original brand index and the match kind, preferring Exact > Misspelled
/// > Embedded.
///
/// The URL is tokenised and fingerprinted exactly once and shared across
/// all brands (the legacy path re-tokenised per brand). Ties keep the
/// lowest brand index; the running best rank is fed back as the
/// classification floor so later brands skip edit-distance (and then
/// substring) work that could not win, and an Exact match ends the scan
/// since nothing outranks it.
pub fn best_brand_match_in(url: &Url, catalog: &BrandCatalog) -> Option<(usize, BrandMatch)> {
    let toks = fingerprinted_tokens(url);
    let mut best: Option<(usize, BrandMatch)> = None;
    for b in &catalog.entries {
        let floor = best.map(|(_, bm)| rank(bm)).unwrap_or(0);
        let fuzzy = b.fuzzy && floor < rank(BrandMatch::Misspelled);
        let embed = floor < rank(BrandMatch::Embedded);
        let m = classify_tokens(&toks, b, fuzzy, embed);
        if rank(m) > floor {
            best = Some((b.index, m));
            if m == BrandMatch::Exact {
                break;
            }
        }
    }
    best
}

/// One-shot adapter over [`best_brand_match_in`] for callers without a
/// prepared catalog. Hot-path callers should [`prepare_brands`] once and
/// reuse the catalog.
pub fn best_brand_match(url: &Url, brands: &[&str]) -> Option<(usize, BrandMatch)> {
    best_brand_match_in(url, &prepare_brands(brands))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::legacy;

    fn url(s: &str) -> Url {
        Url::parse(s).unwrap()
    }

    #[test]
    fn suspicious_symbols_counted() {
        assert_eq!(suspicious_symbol_count("https://a.com/x?y=1&z=2"), 3);
        assert_eq!(suspicious_symbol_count("https://a.com/plain"), 0);
    }

    #[test]
    fn sensitive_words_counted() {
        assert_eq!(
            sensitive_word_count("https://secure-login.weebly.com/verify"),
            3
        );
        assert_eq!(sensitive_word_count("https://kittens.weebly.com/pics"), 0);
    }

    #[test]
    fn digit_ratio_bounds() {
        assert_eq!(digit_ratio(""), 0.0);
        assert_eq!(digit_ratio("1234"), 1.0);
        assert!((digit_ratio("a1b2") - 0.5).abs() < 1e-12);
    }

    #[test]
    fn host_shape_counts() {
        let u = url("https://pay-pal-secure.login.weebly.com/a");
        assert_eq!(host_hyphen_count(&u), 2);
        assert_eq!(host_dot_count(&u), 3);
    }

    #[test]
    fn ip_host_shape_counts() {
        let u = url("http://10.0.0.1/login");
        assert_eq!(host_dot_count(&u), legacy::host_dot_count(&u));
        assert_eq!(host_hyphen_count(&u), legacy::host_hyphen_count(&u));
        assert_eq!(host_dot_count(&u), 3);
        assert_eq!(host_hyphen_count(&u), 0);
    }

    #[test]
    fn token_extraction() {
        let u = url("https://att-login.weebly.com/verify/now?user=bob");
        let t = tokens(&u);
        assert!(t.contains(&"att".to_string()));
        assert!(t.contains(&"login".to_string()));
        assert!(t.contains(&"weebly".to_string()));
        assert!(t.contains(&"verify".to_string()));
        assert!(t.contains(&"bob".to_string()));
    }

    #[test]
    fn token_iter_matches_legacy_tokens() {
        for s in [
            "https://att-login.weebly.com/verify/now?user=bob",
            "https://PayPal.WEEBLY.com/Secure?ID=99&t=X",
            "http://10.0.0.1/a/b?c=d",
            "https://a.com",
            "https://a.com/",
            "https://a.com/abc?def=1",
            "https://a.com/x--y..z//?&&",
            "https://a.com/p%20q?r+s",
        ] {
            let u = url(s);
            assert_eq!(tokens(&u), legacy::tokens(&u), "url={s}");
        }
    }

    #[test]
    fn path_query_boundary_token_merges() {
        // Legacy concatenated path+query before splitting, so a trailing
        // path run glues onto a leading query run; the iterator must
        // reproduce that single merged token.
        let u = url("https://a.com/abc?def=1");
        let t = tokens(&u);
        assert!(t.contains(&"abcdef".to_string()), "tokens: {t:?}");
        assert_eq!(t, legacy::tokens(&u));
    }

    #[test]
    fn tokens_borrow_when_already_lowercase() {
        // Path ends in '/', so no token spans the path/query boundary.
        let u = url("https://paypal-login.weebly.com/verify/?user=bob");
        for t in token_iter(&u) {
            assert!(matches!(t, Cow::Borrowed(_)), "token {t:?} allocated");
        }
    }

    #[test]
    fn brand_exact_match() {
        let u = url("https://paypal-login.weebly.com/");
        assert_eq!(brand_match(&u, "paypal"), BrandMatch::Exact);
    }

    #[test]
    fn brand_misspelled_match() {
        let u = url("https://paypa1-secure.weebly.com/");
        assert_eq!(brand_match(&u, "paypal"), BrandMatch::Misspelled);
        let u2 = url("https://rnicrosoft.000webhostapp.com/");
        assert_eq!(brand_match(&u2, "microsoft"), BrandMatch::Misspelled);
    }

    #[test]
    fn brand_embedded_match() {
        let u = url("https://securepaypalverify.weebly.com/");
        assert_eq!(brand_match(&u, "paypal"), BrandMatch::Embedded);
    }

    #[test]
    fn brand_absent() {
        let u = url("https://gardening-tips.weebly.com/");
        assert_eq!(brand_match(&u, "paypal"), BrandMatch::None);
    }

    #[test]
    fn short_brands_do_not_fuzzy_match() {
        // "att" is 3 chars; edit-distance matching is disabled below 4 to
        // avoid false positives like "art" ~ "att".
        let u = url("https://art-gallery.weebly.com/");
        assert_eq!(brand_match(&u, "att"), BrandMatch::None);
    }

    #[test]
    fn best_brand_prefers_exact() {
        let u = url("https://netflix.weebly.com/microsof");
        let (i, m) = best_brand_match(&u, &["microsoft", "netflix"]).unwrap();
        assert_eq!((i, m), (1, BrandMatch::Exact));
    }

    #[test]
    fn best_brand_none() {
        let u = url("https://flowers.weebly.com/");
        assert!(best_brand_match(&u, &["paypal", "chase"]).is_none());
    }

    #[test]
    fn brand_match_agrees_with_legacy() {
        let brands = ["paypal", "microsoft", "netflix", "att", "chase", "dhl"];
        for s in [
            "https://paypal-login.weebly.com/",
            "https://paypa1-secure.weebly.com/update",
            "https://securepaypalverify.weebly.com/",
            "https://rnicrosoft.000webhostapp.com/",
            "https://netflix.weebly.com/microsof",
            "https://flowers.weebly.com/",
            "https://art-gallery.weebly.com/",
            "http://10.0.0.1/paypal",
            "https://a.com/paypa?l=1",
        ] {
            let u = url(s);
            for b in brands {
                assert_eq!(
                    brand_match(&u, b),
                    legacy::brand_match(&u, b),
                    "url={s} brand={b}"
                );
            }
            assert_eq!(
                best_brand_match(&u, &brands),
                legacy::best_brand_match(&u, &brands),
                "url={s}"
            );
        }
    }

    #[test]
    fn scalar_scans_agree_with_legacy() {
        for s in [
            "https://a.com/x?y=1&z=2",
            "https://secure-login.WEEBLY.com/Verify",
            "~~~@@@%%%$$$!!!***===&&&",
            "https://héllo.example/ünïcode?x=☃",
            "",
            "1234567890",
        ] {
            assert_eq!(
                suspicious_symbol_count(s),
                legacy::suspicious_symbol_count(s),
                "s={s:?}"
            );
            assert_eq!(
                sensitive_word_count(s),
                legacy::sensitive_word_count(s),
                "s={s:?}"
            );
            assert_eq!(
                digit_ratio(s).to_bits(),
                legacy::digit_ratio(s).to_bits(),
                "s={s:?}"
            );
        }
    }
}
