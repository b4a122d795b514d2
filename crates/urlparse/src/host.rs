//! Host names, label structure and suffix classification.
//!
//! The paper's central structural observation is that FWB phishing URLs are
//! *subdomains of the builder's own registrable domain*
//! (`victim-login.weebly.com`), so blocklist heuristics keyed on registrable
//! domains, domain age or certificate transparency see only the (benign,
//! ancient) FWB domain. This module provides the registrable-domain split
//! those analyses need, over a compact built-in public-suffix subset.

use crate::parse::ParseError;
use std::fmt;

/// Multi-label public suffixes we recognise beyond plain single-label TLDs.
/// A compact subset of the Public Suffix List sufficient for the study's URL
/// population (the full PSL is data, not logic; swapping it in is a one-line
/// change).
const MULTI_SUFFIXES: &[&str] = &[
    "co.uk", "org.uk", "ac.uk", "gov.uk", "com.br", "com.au", "net.au", "co.jp", "co.in", "com.mx",
    "com.ar", "co.za", "com.tr", "com.cn", "web.app",
];

/// Classification of a registrable domain's top-level suffix, used by the
/// "premium TLD" characterization (Section 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SuffixClass {
    /// `.com` — the premium TLD users trust most.
    Com,
    /// Other long-established premium suffixes (`.org`, `.net`, `.edu`, `.gov`).
    OtherPremium,
    /// Cheap, frequently-abused suffixes (`.xyz`, `.top`, `.live`, ...).
    Cheap,
    /// Country-code or anything else.
    Other,
}

/// A parsed host: either a DNS name (lower-case labels) or an IPv4 literal.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Host {
    /// DNS name, stored lower-cased, without a trailing dot.
    Domain(String),
    /// IPv4 literal. Phishing URLs hosted on bare IPs are a classic signal.
    Ipv4([u8; 4]),
}

impl Host {
    /// Parse and validate a host component.
    pub fn parse(raw: &str) -> Result<Host, ParseError> {
        let raw = raw.trim().trim_end_matches('.');
        if raw.is_empty() {
            return Err(ParseError::MissingHost);
        }
        if let Some(ip) = parse_ipv4(raw) {
            return Ok(Host::Ipv4(ip));
        }
        // An all-numeric dotted host that failed IPv4 parsing (out-of-range
        // octets, wrong arity) is not a usable DNS name either.
        if raw
            .split('.')
            .all(|l| !l.is_empty() && l.bytes().all(|b| b.is_ascii_digit()))
        {
            return Err(ParseError::InvalidHost(raw.to_string()));
        }
        let lower = raw.to_ascii_lowercase();
        for label in lower.split('.') {
            if label.is_empty()
                || label.len() > 63
                || !label.chars().all(|c| c.is_ascii_alphanumeric() || c == '-')
                || label.starts_with('-')
                || label.ends_with('-')
            {
                return Err(ParseError::InvalidHost(raw.to_string()));
            }
        }
        Ok(Host::Domain(lower))
    }

    /// True for IPv4-literal hosts.
    pub fn is_ip(&self) -> bool {
        matches!(self, Host::Ipv4(_))
    }

    /// The stored DNS name (lower-case, no trailing dot) without
    /// allocating. `None` for IP hosts.
    pub fn domain_str(&self) -> Option<&str> {
        match self {
            Host::Domain(d) => Some(d.as_str()),
            Host::Ipv4(_) => None,
        }
    }

    /// DNS labels, left to right (`["login", "weebly", "com"]`). Empty for
    /// IP hosts.
    pub fn labels(&self) -> Vec<&str> {
        match self {
            Host::Domain(d) => d.split('.').collect(),
            Host::Ipv4(_) => Vec::new(),
        }
    }

    /// The public suffix ("com", "co.uk", ...). `None` for IPs or
    /// single-label hosts.
    pub fn public_suffix(&self) -> Option<String> {
        self.public_suffix_str().map(str::to_string)
    }

    /// [`Host::public_suffix`] as a slice of the stored name.
    pub fn public_suffix_str(&self) -> Option<&str> {
        let d = self.domain_str()?;
        let last_dot = d.rfind('.')?;
        let last2 = &d[d[..last_dot].rfind('.').map_or(0, |dot| dot + 1)..];
        if MULTI_SUFFIXES.contains(&last2) {
            Some(last2)
        } else {
            Some(&d[last_dot + 1..])
        }
    }

    /// The registrable domain: public suffix plus one label
    /// (`weebly.com`, `example.co.uk`). `None` when the host *is* a bare
    /// suffix or an IP.
    pub fn registrable_domain(&self) -> Option<String> {
        self.registrable_domain_str().map(str::to_string)
    }

    /// [`Host::registrable_domain`] as a slice of the stored name. Labels
    /// are never empty, so the suffix is preceded by a dot whenever the
    /// name is longer than it.
    pub fn registrable_domain_str(&self) -> Option<&str> {
        let d = self.domain_str()?;
        let dot = d.len().checked_sub(self.public_suffix_str()?.len() + 1)?;
        Some(&d[d[..dot].rfind('.').map_or(0, |prev| prev + 1)..])
    }

    /// The subdomain part left of the registrable domain
    /// (`login.secure` for `login.secure.weebly.com`). `None` when there is
    /// no subdomain.
    pub fn subdomain(&self) -> Option<String> {
        let d = match self {
            Host::Domain(d) => d,
            Host::Ipv4(_) => return None,
        };
        let reg = self.registrable_domain_str()?;
        if d.len() > reg.len() {
            Some(d[..d.len() - reg.len() - 1].to_string())
        } else {
            None
        }
    }

    /// True when this host is a subdomain of `parent` (or equal to it).
    pub fn is_under(&self, parent: &str) -> bool {
        match self {
            Host::Domain(d) => {
                let parent = parent.to_ascii_lowercase();
                d == &parent || d.ends_with(&format!(".{parent}"))
            }
            Host::Ipv4(_) => false,
        }
    }

    /// Classify the public suffix for the premium-TLD analysis.
    pub fn suffix_class(&self) -> SuffixClass {
        match self.public_suffix_str() {
            Some("com") => SuffixClass::Com,
            Some("org") | Some("net") | Some("edu") | Some("gov") => SuffixClass::OtherPremium,
            Some("xyz") | Some("top") | Some("live") | Some("icu") | Some("click")
            | Some("buzz") | Some("rest") | Some("cam") | Some("work") | Some("link")
            | Some("shop") | Some("store") => SuffixClass::Cheap,
            _ => SuffixClass::Other,
        }
    }
}

impl fmt::Display for Host {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Host::Domain(d) => f.write_str(d),
            Host::Ipv4([a, b, c, d]) => write!(f, "{a}.{b}.{c}.{d}"),
        }
    }
}

fn parse_ipv4(s: &str) -> Option<[u8; 4]> {
    let mut out = [0u8; 4];
    let mut parts = s.split('.');
    for slot in &mut out {
        let p = parts.next()?;
        if p.is_empty() || p.len() > 3 || !p.bytes().all(|b| b.is_ascii_digit()) {
            return None;
        }
        *slot = p.parse().ok()?;
    }
    if parts.next().is_some() {
        return None;
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn host(s: &str) -> Host {
        Host::parse(s).unwrap()
    }

    #[test]
    fn registrable_domain_simple() {
        assert_eq!(
            host("victim-login.weebly.com").registrable_domain(),
            Some("weebly.com".to_string())
        );
        assert_eq!(
            host("weebly.com").registrable_domain(),
            Some("weebly.com".to_string())
        );
        assert_eq!(host("com").registrable_domain(), None);
    }

    #[test]
    fn registrable_domain_multi_suffix() {
        assert_eq!(
            host("shop.example.co.uk").registrable_domain(),
            Some("example.co.uk".to_string())
        );
        assert_eq!(host("co.uk").registrable_domain(), None);
        assert_eq!(
            host("a.b.web.app").registrable_domain(),
            Some("b.web.app".to_string())
        );
    }

    #[test]
    fn subdomain_extraction() {
        assert_eq!(
            host("login.secure.weebly.com").subdomain(),
            Some("login.secure".to_string())
        );
        assert_eq!(host("weebly.com").subdomain(), None);
    }

    #[test]
    fn is_under() {
        assert!(host("x.weebly.com").is_under("weebly.com"));
        assert!(host("weebly.com").is_under("weebly.com"));
        assert!(!host("notweebly.com").is_under("weebly.com"));
        assert!(!host("weebly.com.evil.net").is_under("weebly.com"));
    }

    #[test]
    fn ipv4_parsing() {
        assert_eq!(host("10.0.0.1"), Host::Ipv4([10, 0, 0, 1]));
        assert!(host("10.0.0.1").is_ip());
        assert_eq!(host("10.0.0.1").registrable_domain(), None);
        // 256 is out of range -> treated as a (invalid) domain, not an IP.
        assert!(Host::parse("256.0.0.1").is_err());
    }

    #[test]
    fn invalid_hosts_rejected() {
        assert!(Host::parse("").is_err());
        assert!(Host::parse("bad_host.com").is_err());
        assert!(Host::parse("-leading.com").is_err());
        assert!(Host::parse("trailing-.com").is_err());
        assert!(Host::parse("double..dot.com").is_err());
        assert!(Host::parse(&format!("{}.com", "a".repeat(64))).is_err());
    }

    #[test]
    fn trailing_dot_tolerated() {
        assert_eq!(host("weebly.com.").to_string(), "weebly.com");
    }

    #[test]
    fn suffix_classes() {
        assert_eq!(host("a.weebly.com").suffix_class(), SuffixClass::Com);
        assert_eq!(
            host("a.example.org").suffix_class(),
            SuffixClass::OtherPremium
        );
        assert_eq!(host("a.example.xyz").suffix_class(), SuffixClass::Cheap);
        assert_eq!(host("a.example.fr").suffix_class(), SuffixClass::Other);
        assert_eq!(host("1.2.3.4").suffix_class(), SuffixClass::Other);
    }

    #[test]
    fn labels() {
        assert_eq!(host("a.b.c").labels(), vec!["a", "b", "c"]);
        assert!(host("1.2.3.4").labels().is_empty());
    }
}
