//! Property tests for the URL parser.

use freephish_simclock::prop::{check, Gen};
use freephish_urlparse::{extract_urls, legacy, lexical, Host, Url};

/// A syntactically valid DNS label: `[a-z0-9]{1,10}(-[a-z0-9]{1,10}){0,2}`.
fn label(g: &mut Gen) -> String {
    let mut label = g.string("a-z0-9", 1..11);
    for _ in 0..g.usize_in(0..3) {
        label += "-";
        label += &g.string("a-z0-9", 1..11);
    }
    label
}

fn hostname(g: &mut Gen) -> String {
    let (a, b) = (label(g), label(g));
    let tld = g.pick(&["com", "net", "io", "me", "app"]);
    format!("{a}.{b}.{tld}")
}

/// `(/[class]{lo,hi}){0,segments}`: up to `segments` path segments.
fn path(g: &mut Gen, class: &str, len: std::ops::Range<usize>, segments: usize) -> String {
    let parts = g.vec(0..segments + 1, |g| g.string(class, len.clone()));
    parts.iter().map(|p| format!("/{p}")).collect()
}

/// parse(serialise(parse(x))) is a fixed point: round-tripping the
/// canonical form must be lossless.
#[test]
fn round_trip_is_fixed_point() {
    check(256, |g| {
        let scheme = if g.bool() { "https" } else { "http" };
        let mut s = format!("{scheme}://{}{}", hostname(g), path(g, "a-z0-9", 1..9, 3));
        let query = g.option(|g| format!("{}={}", g.string("a-z", 1..6), g.string("a-z0-9", 1..6)));
        if let Some(q) = &query {
            s.push('?');
            s.push_str(q);
        }
        let u1 = Url::parse(&s).expect("constructed URL must parse");
        let u2 = Url::parse(&u1.as_string()).expect("canonical form must parse");
        assert_eq!(u1.as_string(), u2.as_string());
        assert_eq!(u1, u2);
    });
}

/// The parser never panics on arbitrary input (it may error).
#[test]
fn parser_never_panics() {
    check(256, |g| {
        let _ = Url::parse(&g.text(0..201));
    });
}

/// Host parsing never panics and any accepted domain host satisfies the
/// label grammar.
#[test]
fn host_never_panics() {
    check(256, |g| {
        if let Ok(Host::Domain(d)) = Host::parse(&g.text(0..101)) {
            for l in d.split('.') {
                assert!(!l.is_empty() && l.len() <= 63);
                assert!(l.chars().all(|c| c.is_ascii_alphanumeric() || c == '-'));
            }
        }
    });
}

/// registrable_domain is always a suffix of the host and contains the
/// public suffix.
#[test]
fn registrable_domain_is_suffix() {
    check(256, |g| {
        let host = hostname(g);
        let h = Host::parse(&host).unwrap();
        let reg = h
            .registrable_domain()
            .expect("3-label host has registrable domain");
        assert!(host.ends_with(&reg));
        let ps = h.public_suffix().unwrap();
        assert!(reg.ends_with(&ps));
    });
}

/// Every URL found by extract_urls parses.
#[test]
fn extracted_urls_parse() {
    check(256, |g| {
        let (pre, host) = (g.string("a-zA-Z ", 0..21), hostname(g));
        let post = g.string("a-zA-Z ", 0..21);
        let found = extract_urls(&format!("{pre} https://{host}/page {post}"));
        assert!(!found.is_empty());
        for f in found {
            assert!(Url::parse(&f).is_ok(), "failed to parse extracted {f}");
        }
    });
}

/// extract_urls never panics on arbitrary unicode text.
#[test]
fn extract_never_panics() {
    check(256, |g| {
        let _ = extract_urls(&g.text(0..301));
    });
}

/// The SWAR byte-classification kernels agree with scalar char walks on
/// arbitrary unicode strings.
#[test]
fn swar_counts_equal_scalar() {
    use freephish_urlparse::swar;
    check(256, |g| {
        let s = g.text(0..201);
        assert_eq!(
            swar::digit_count(&s),
            s.chars().filter(|c| c.is_ascii_digit()).count()
        );
        assert_eq!(swar::char_count(&s), s.chars().count());
        for t in [b'.', b'-', b'@', b'=', b'a'] {
            assert_eq!(
                swar::count_byte(&s, t),
                s.bytes().filter(|&b| b == t).count()
            );
        }
        assert_eq!(
            lexical::suspicious_symbol_count(&s),
            legacy::suspicious_symbol_count(&s)
        );
        assert_eq!(
            lexical::digit_ratio(&s).to_bits(),
            legacy::digit_ratio(&s).to_bits()
        );
        assert_eq!(
            lexical::sensitive_word_count(&s),
            legacy::sensitive_word_count(&s)
        );
    });
}

/// The allocation-free token iterator yields exactly the legacy
/// `Vec<String>` tokens — including the path/query boundary merge and
/// lower-casing — and the SWAR host counts match the legacy scans.
#[test]
fn lexical_scans_equal_legacy_on_urls() {
    check(256, |g| {
        let (host, path) = (hostname(g), path(g, "a-zA-Z0-9._~%-", 0..9, 3));
        let mut s = format!("https://{host}{path}");
        if let Some(q) = g.option(|g| g.string("a-zA-Z0-9=&_.-", 0..21)) {
            s.push('?');
            s.push_str(&q);
        }
        let u = Url::parse(&s).expect("constructed URL must parse");
        assert_eq!(lexical::tokens(&u), legacy::tokens(&u), "url={s}");
        assert_eq!(lexical::host_dot_count(&u), legacy::host_dot_count(&u));
        assert_eq!(
            lexical::host_hyphen_count(&u),
            legacy::host_hyphen_count(&u)
        );
    });
}

/// Myers-routed brand matching (single tokenisation) returns exactly
/// what the legacy per-brand Wagner–Fischer walk returns.
#[test]
fn brand_matching_equals_legacy() {
    check(256, |g| {
        let (host, path) = (hostname(g), path(g, "a-z0-9-", 0..11, 2));
        let brand = g.string("a-z", 2..13);
        let u = Url::parse(&format!("https://{host}{path}")).unwrap();
        assert_eq!(
            lexical::brand_match(&u, &brand),
            legacy::brand_match(&u, &brand),
            "url={} brand={}",
            u.as_string(),
            brand
        );
        let brands = [brand.as_str(), "paypal", "microsoft", "att"];
        assert_eq!(
            lexical::best_brand_match(&u, &brands),
            legacy::best_brand_match(&u, &brands)
        );
    });
}

/// `s` after `edits` random substitutions, insertions or deletions over
/// `class`, never left empty.
fn edited(g: &mut Gen, s: &str, class: &str, edits: usize) -> String {
    let mut out: Vec<char> = s.chars().collect();
    for _ in 0..edits {
        let c = g.string(class, 1..2).chars().next().unwrap();
        let at = g.usize_in(0..out.len() + 1);
        match g.usize_in(0..3) {
            0 if at < out.len() => out[at] = c,
            1 if out.len() > 1 && at < out.len() => {
                out.remove(at);
            }
            _ => out.insert(at, c),
        }
    }
    out.into_iter().collect()
}

/// A catalog built to collide: names over a four-letter alphabet, so equal
/// lengths and shared bytes are the rule; exact duplicates, some
/// upper-cased; one- and two-edit variants of earlier names; the odd empty
/// name.
fn colliding_catalog(g: &mut Gen) -> Vec<String> {
    let mut brands: Vec<String> = Vec::new();
    for _ in 0..g.usize_in(1..16) {
        let brand = match (brands.is_empty(), g.usize_in(0..6)) {
            (false, 0) => g.pick(&brands).clone(),
            (false, 1) => g.pick(&brands).to_ascii_uppercase(),
            (false, 2 | 3) => {
                let (base, edits) = (g.pick(&brands).clone(), g.usize_in(1..3));
                edited(g, &base, "abcd", edits)
            }
            (_, 4) if g.usize_in(0..4) == 0 => String::new(),
            _ => g.string("abcd", 1..11),
        };
        brands.push(brand);
    }
    brands
}

/// A URL token near the catalog: a name as is, edited, embedded in a
/// longer token, or unrelated, over the catalog's alphabet.
fn token_near(g: &mut Gen, brands: &[String]) -> String {
    let brand = g.pick(brands).to_ascii_lowercase();
    match g.usize_in(0..4) {
        0 if !brand.is_empty() => brand,
        1 if !brand.is_empty() => {
            let edits = g.usize_in(1..3);
            edited(g, &brand, "abcde", edits)
        }
        2 => format!(
            "{}{brand}{}",
            g.string("abcd", 0..3),
            g.string("abcd", 1..3)
        ),
        _ => g.string("abcde", 1..12),
    }
}

/// The token-major catalog index returns exactly the legacy per-brand walk
/// (lowest index at the strongest match) on catalogs full of duplicates,
/// near-duplicates and equal lengths, and a one-brand catalog agrees with
/// the legacy single-brand match.
#[test]
fn brand_index_equals_legacy_on_colliding_catalogs() {
    check(256, |g| {
        let brands = colliding_catalog(g);
        let tokens = g.vec(1..6, |g| token_near(g, &brands));
        let mut s = format!("https://{}.{}.com/", tokens[0], g.string("abcd", 1..5));
        for t in &tokens[1..] {
            s += &if g.bool() {
                t.to_ascii_uppercase()
            } else {
                t.clone()
            };
            s += *g.pick(&["/", "-", "?q=", "."]);
        }
        let u = Url::parse(&s).expect("constructed URL must parse");
        let refs: Vec<&str> = brands.iter().map(String::as_str).collect();
        assert_eq!(
            lexical::best_brand_match(&u, &refs),
            legacy::best_brand_match(&u, &refs),
            "url={s} brands={brands:?}"
        );
        for b in &refs {
            assert_eq!(
                lexical::brand_match(&u, b),
                legacy::brand_match(&u, b),
                "url={s} brand={b}"
            );
        }
    });
}

/// The piecewise scans of a URL equal the scans of its serialisation, and
/// the borrowed suffix and registrable domain equal a split-and-join of
/// the labels, on URLs with ports, IPv4 hosts, queries, fragments and
/// upper-case paths.
#[test]
fn url_pieces_scan_like_the_serialised_string() {
    check(256, |g| {
        let host = if g.usize_in(0..4) == 0 {
            format!("{}.{}.{}.{}", g.u8(), g.u8(), g.u8(), g.u8())
        } else {
            let suffix = g.pick(&["com", "co.uk", "web.app", "io"]);
            let labels = g.vec(0..3, label);
            labels.iter().map(|l| format!("{l}.")).collect::<String>() + suffix
        };
        let mut s = format!("https://{host}");
        if g.bool() {
            s += &format!(":{}", g.u16());
        }
        s += &path(g, "a-zA-Z0-9._~%@!$*&=-", 0..9, 3);
        if let Some(q) = g.option(|g| g.string("a-zA-Z0-9=&_.@~%!-", 0..21)) {
            s += &format!("?{q}");
        }
        if let Some(f) = g.option(|g| g.string("a-zA-Z0-9=&@-", 0..9)) {
            s += &format!("#{f}");
        }
        let u = Url::parse(&s).expect("constructed URL must parse");
        let text = u.as_string();
        let scan = lexical::scan_url_string(&u);
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

        let labels = u.host().labels();
        let split_suffix = match labels.len() {
            0 | 1 => None,
            n if ["co.uk", "web.app"].contains(&labels[n - 2..].join(".").as_str()) => {
                Some(labels[n - 2..].join("."))
            }
            n => Some(labels[n - 1].to_string()),
        };
        assert_eq!(u.host().public_suffix(), split_suffix, "url={s}");
        let split_registrable = split_suffix.and_then(|suffix| {
            let k = suffix.split('.').count() + 1;
            (labels.len() >= k).then(|| labels[labels.len() - k..].join("."))
        });
        assert_eq!(u.host().registrable_domain(), split_registrable, "url={s}");
    });
}
