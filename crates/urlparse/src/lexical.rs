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
/// (host + path + query), case-insensitive. Scanned in place: no
/// lower-cased copy.
pub fn sensitive_word_count(url: &str) -> usize {
    sensitive_word_mask(url).count_ones() as usize
}

/// `WORDS_BY_PAIR[x][y]`: the [`SENSITIVE_WORDS`] bits of the words whose
/// first two bytes are the letters `b'a' + x`, `b'a' + y`. Checked at
/// compile time: every word is lower-case letters and `-` and starts with
/// two letters, which the pair index and [`scan_url_string`] rely on.
const WORDS_BY_PAIR: [[u32; 26]; 26] = {
    let mut table = [[0u32; 26]; 26];
    let mut k = 0;
    while k < SENSITIVE_WORDS.len() {
        let w = SENSITIVE_WORDS[k].as_bytes();
        let mut j = 0;
        while j < w.len() {
            assert!(w[j].is_ascii_lowercase() || (j >= 2 && w[j] == b'-'));
            j += 1;
        }
        table[(w[0] - b'a') as usize][(w[1] - b'a') as usize] |= 1 << k;
        k += 1;
    }
    table
};

/// Bit `k` set when `SENSITIVE_WORDS[k]` occurs in `s`, ignoring ASCII
/// case: each position is tried only against the words starting with the
/// two letters there.
fn sensitive_word_mask(s: &str) -> u32 {
    let b = s.as_bytes();
    let letter = |c: u8| usize::from(c.to_ascii_lowercase().wrapping_sub(b'a'));
    let mut mask = 0u32;
    for (start, pair) in b.windows(2).enumerate() {
        let (x, y) = (letter(pair[0]), letter(pair[1]));
        if x >= 26 || y >= 26 {
            continue;
        }
        let mut candidates = WORDS_BY_PAIR[x][y] & !mask;
        while candidates != 0 {
            let k = candidates.trailing_zeros();
            candidates &= candidates - 1;
            let word = SENSITIVE_WORDS[k as usize].as_bytes();
            if b[start..]
                .get(..word.len())
                .is_some_and(|run| run.eq_ignore_ascii_case(word))
            {
                mask |= 1 << k;
            }
        }
    }
    mask
}

/// The whole-string scans of a URL's canonical serialisation
/// ([`Url::as_string`]), taken piece by piece without building it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UrlStringScan {
    /// Byte length of the serialisation.
    pub len: usize,
    /// [`suspicious_symbol_count`] of the serialisation.
    pub suspicious_symbols: usize,
    /// [`sensitive_word_count`] of the serialisation.
    pub sensitive_words: usize,
    /// [`digit_ratio`] of the serialisation.
    pub digit_ratio: f64,
}

/// Scan `url.as_string()` without allocating it. Counts add up over
/// [`Url::for_each_piece`]'s pieces. A sensitive word is letters and `-`,
/// and every piece boundary touches one of `:/?#`, so no word straddles
/// two pieces: the words found are the union of each piece's.
pub fn scan_url_string(url: &Url) -> UrlStringScan {
    let (mut len, mut symbols, mut words) = (0, 0, 0u32);
    let (mut digits, mut chars) = (0, 0);
    url.for_each_piece(|piece| {
        len += piece.len();
        symbols += suspicious_symbol_count(piece);
        words |= sensitive_word_mask(piece);
        digits += crate::swar::digit_count(piece);
        chars += crate::swar::char_count(piece);
    });
    UrlStringScan {
        len,
        suspicious_symbols: symbols,
        sensitive_words: words.count_ones() as usize,
        // `swar::digit_ratio` of the whole string, from the same counts.
        digit_ratio: if len == 0 {
            0.0
        } else {
            digits as f64 / chars as f64
        },
    }
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
}

/// Edit budget for a Misspelled verdict against a brand of `len` bytes:
/// none below 4 bytes (fuzzy matching would call "art" the brand "att"),
/// 2 from 8 bytes, else 1.
fn edit_budget(len: usize) -> usize {
    match len {
        0..=3 => 0,
        4..=7 => 1,
        _ => 2,
    }
}

/// The widest edit budget any brand gets, and so the byte-length band a
/// token searches for Misspelled candidates.
const MAX_ALLOWED: usize = 2;

/// A brand list compiled once and reused across every URL, indexed by
/// token: each URL token is matched against the catalog in one step
/// instead of against each brand in turn. Build with [`prepare_brands`],
/// match with [`best_brand_match_in`].
///
/// The index is one list of brands per byte length, each brand with its
/// byte bag (see [`crate::swar::byte_bag`]):
/// * Exact: the token's own length list, bag first, then the bytes.
/// * Misspelled: the lists within `MAX_ALLOWED` bytes of the token's
///   length.
/// * Embedded: the lists below the token's length.
///
/// Entries are kept in brand-index order, so the first hit in a length
/// list is that list's lowest index, and duplicates resolve to the first.
#[derive(Debug, Clone, Default)]
pub struct BrandCatalog {
    entries: Vec<BrandEntry>,
    /// `by_len[n]`: the position in `entries` and the byte bag of each
    /// brand of `n` bytes, positions ascending.
    by_len: Vec<Vec<(usize, u64)>>,
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

    /// Lowest entry below `limit`, over the brands of byte lengths `lens`,
    /// that `hit(bag, position)` accepts. The bags sit in the length lists,
    /// so `hit` reads an entry only for a brand its bag test let through.
    fn first_in(
        &self,
        lens: std::ops::Range<usize>,
        limit: usize,
        hit: impl Fn(u64, usize) -> bool,
    ) -> Option<usize> {
        let lens = lens.start.min(self.by_len.len())..lens.end.min(self.by_len.len());
        let mut found = limit;
        for group in &self.by_len[lens] {
            if let Some(&(pos, _)) = group
                .iter()
                .take_while(|&&(pos, _)| pos < found)
                .find(|&&(pos, bag)| hit(bag, pos))
            {
                found = pos;
            }
        }
        (found < limit).then_some(found)
    }

    /// Lowest entry below `limit` within its edit budget of `token`, which
    /// equals no brand. The byte-bag filter (see [`crate::swar::byte_bag`])
    /// rules out a candidate before the Myers kernel runs: every byte
    /// bucket one side has and the other provably lacks costs at least one
    /// edit, so the distance is at least the larger of the two counts. The
    /// kernel ([`distance_bounded`]) remains the arbiter, and since the
    /// token equals no brand, a distance within budget is never 0.
    fn misspelled(&self, token: &str, bag: u64, mut limit: usize) -> Option<usize> {
        let mut found = None;
        for len in token.len().saturating_sub(MAX_ALLOWED)..=token.len() + MAX_ALLOWED {
            let allowed = edit_budget(len);
            if len.abs_diff(token.len()) > allowed {
                continue;
            }
            let hit = self.first_in(len..len + 1, limit, |brand_bag, pos| {
                at_most_ones(brand_bag & !bag, allowed)
                    && at_most_ones(bag & !brand_bag, allowed)
                    && distance_bounded(token, &self.entries[pos].lower, allowed).is_some()
            });
            if let Some(pos) = hit {
                (found, limit) = (Some(pos), pos);
            }
        }
        found
    }

    /// Lowest entry below `limit` strictly shorter than `token` and inside
    /// it. A brand with a byte bucket the token lacks cannot be inside it.
    fn embedded(&self, token: &str, bag: u64, limit: usize) -> Option<usize> {
        self.first_in(1..token.len(), limit, |brand_bag, pos| {
            brand_bag & !bag == 0 && token.contains(self.entries[pos].lower.as_str())
        })
    }
}

/// Whether `x` has at most `n` set bits: `n` lowest-bit clears empty it.
/// (`count_ones` is a software popcount on baseline x86-64.)
fn at_most_ones(mut x: u64, n: usize) -> bool {
    for _ in 0..n {
        x &= x.wrapping_sub(1);
    }
    x == 0
}

/// Compile a brand list into a reusable [`BrandCatalog`]. Empty brands are
/// dropped (they can never match); surviving entries remember their
/// original index so results are reported against the input slice.
pub fn prepare_brands(brands: &[&str]) -> BrandCatalog {
    let mut catalog = BrandCatalog::default();
    for (index, b) in brands.iter().enumerate().filter(|(_, b)| !b.is_empty()) {
        let lower = b.to_ascii_lowercase();
        let pos = catalog.entries.len();
        if catalog.by_len.len() <= lower.len() {
            catalog.by_len.resize(lower.len() + 1, Vec::new());
        }
        let bag = crate::swar::byte_bag(&lower);
        catalog.by_len[lower.len()].push((pos, bag));
        catalog.entries.push(BrandEntry { index, lower });
    }
    catalog
}

/// Detect the strongest match of `brand` (lower-case) within the URL's
/// tokens. Exact beats misspelled beats embedded.
pub fn brand_match(url: &Url, brand: &str) -> BrandMatch {
    best_brand_match_in(url, &prepare_brands(&[brand])).map_or(BrandMatch::None, |(_, m)| m)
}

/// Strongest match of *any* catalog brand within the URL; returns the
/// original brand index and the match kind, preferring Exact > Misspelled
/// > Embedded, and the lowest brand index at the strongest kind.
///
/// One pass over the URL's tokens, each meeting the catalog once through
/// its index. The running best is the floor: once a kind is found, weaker
/// kinds are no longer searched, and a search for the same kind only looks
/// below the best index so far.
pub fn best_brand_match_in(url: &Url, catalog: &BrandCatalog) -> Option<(usize, BrandMatch)> {
    let mut best: Option<(BrandMatch, usize)> = None;
    for token in token_iter(url) {
        let token = token.as_ref();
        let floor = best.map_or(0, |(m, _)| rank(m));
        let below = |m: BrandMatch| match best {
            Some((kind, pos)) if kind == m => pos,
            _ => catalog.entries.len(),
        };
        let bag = crate::swar::byte_bag(token);
        let len = token.len();
        let exact = catalog.first_in(len..len + 1, catalog.entries.len(), |b, pos| {
            b == bag && catalog.entries[pos].lower == token
        });
        if let Some(pos) = exact {
            if pos < below(BrandMatch::Exact) {
                best = Some((BrandMatch::Exact, pos));
            }
            continue;
        }
        if floor > rank(BrandMatch::Misspelled) {
            continue;
        }
        if let Some(pos) = catalog.misspelled(token, bag, below(BrandMatch::Misspelled)) {
            best = Some((BrandMatch::Misspelled, pos));
        } else if floor <= rank(BrandMatch::Embedded) {
            if let Some(pos) = catalog.embedded(token, bag, below(BrandMatch::Embedded)) {
                best = Some((BrandMatch::Embedded, pos));
            }
        }
    }
    best.map(|(m, pos)| (catalog.entries[pos].index, m))
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
    fn url_string_scan_equals_scans_of_the_string() {
        for s in [
            "https://secure-login.weebly.com/Verify?acct=1&x=~#SignIn",
            "http://10.0.0.1:8080/LOGIN?update=1",
            "https://a.com",
            "https://pay-pal.weebly.com/a%20b/c?d=e&f=g#h!",
        ] {
            let u = url(s);
            let text = u.as_string();
            let scan = scan_url_string(&u);
            assert_eq!(scan.len, text.len(), "url={s}");
            assert_eq!(
                scan.suspicious_symbols,
                legacy::suspicious_symbol_count(&text)
            );
            assert_eq!(scan.sensitive_words, legacy::sensitive_word_count(&text));
            assert_eq!(
                scan.digit_ratio.to_bits(),
                legacy::digit_ratio(&text).to_bits()
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
