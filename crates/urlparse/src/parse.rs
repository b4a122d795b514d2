//! The [`Url`] value type and its parser.

use crate::host::Host;
use std::fmt;

/// Reasons a string fails to parse as a URL.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// The input was empty or whitespace-only.
    Empty,
    /// The scheme is present but not `http` or `https`.
    UnsupportedScheme(String),
    /// No host component could be found.
    MissingHost,
    /// The host contains characters outside the DNS/IPv4 repertoire.
    InvalidHost(String),
    /// The port component is not a valid u16.
    InvalidPort(String),
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Empty => write!(f, "empty URL"),
            ParseError::UnsupportedScheme(s) => write!(f, "unsupported scheme: {s}"),
            ParseError::MissingHost => write!(f, "missing host"),
            ParseError::InvalidHost(h) => write!(f, "invalid host: {h}"),
            ParseError::InvalidPort(p) => write!(f, "invalid port: {p}"),
        }
    }
}

impl std::error::Error for ParseError {}

/// A parsed URL. Components are stored normalised: scheme and host are
/// lower-cased; the path always begins with `/` (defaulting to `/`).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Url {
    scheme: String,
    host: Host,
    port: Option<u16>,
    path: String,
    query: Option<String>,
    fragment: Option<String>,
}

impl Url {
    /// Parse a URL string. Scheme-less inputs (`foo.weebly.com/x`) are
    /// accepted and normalised to `http`, mirroring how browsers and the
    /// paper's crawler treat bare domains found in posts.
    pub fn parse(input: &str) -> Result<Url, ParseError> {
        let input = input.trim();
        if input.is_empty() {
            return Err(ParseError::Empty);
        }

        // Split off the scheme.
        let (scheme, rest) = match input.find("://") {
            Some(i) => {
                let s = input[..i].to_ascii_lowercase();
                if s != "http" && s != "https" {
                    return Err(ParseError::UnsupportedScheme(s));
                }
                (s, &input[i + 3..])
            }
            None => {
                // Reject things like "mailto:user@host".
                if let Some(colon) = input.find(':') {
                    let head = &input[..colon];
                    if !head.is_empty()
                        && head.chars().all(|c| c.is_ascii_alphabetic())
                        && !input[colon + 1..].starts_with(|c: char| c.is_ascii_digit())
                    {
                        return Err(ParseError::UnsupportedScheme(head.to_ascii_lowercase()));
                    }
                }
                ("http".to_string(), input)
            }
        };

        // Authority ends at the first '/', '?' or '#'.
        let authority_end = rest.find(['/', '?', '#']).unwrap_or(rest.len());
        let authority = &rest[..authority_end];
        let tail = &rest[authority_end..];
        if authority.is_empty() {
            return Err(ParseError::MissingHost);
        }

        // Strip userinfo if present (rare but used in obfuscation attacks:
        // http://paypal.com@evil.com/). We keep the *real* host.
        let hostport = authority.rsplit('@').next().unwrap_or(authority);

        let (host_str, port) = match hostport.rfind(':') {
            Some(i)
                if hostport[i + 1..].chars().all(|c| c.is_ascii_digit())
                    && !hostport[i + 1..].is_empty() =>
            {
                let p: u16 = hostport[i + 1..]
                    .parse()
                    .map_err(|_| ParseError::InvalidPort(hostport[i + 1..].to_string()))?;
                (&hostport[..i], Some(p))
            }
            Some(i) if hostport[i + 1..].is_empty() => (&hostport[..i], None),
            _ => (hostport, None),
        };

        let host = Host::parse(host_str)?;

        // Split tail into path / query / fragment.
        let (path_query, fragment) = match tail.find('#') {
            Some(i) => (&tail[..i], Some(tail[i + 1..].to_string())),
            None => (tail, None),
        };
        let (path, query) = match path_query.find('?') {
            Some(i) => (&path_query[..i], Some(path_query[i + 1..].to_string())),
            None => (path_query, None),
        };
        let path = if path.is_empty() {
            "/".to_string()
        } else {
            path.to_string()
        };

        Ok(Url {
            scheme,
            host,
            port,
            path,
            query,
            fragment,
        })
    }

    /// The scheme, `http` or `https`, lower-cased.
    pub fn scheme(&self) -> &str {
        &self.scheme
    }

    /// True when the URL uses TLS.
    pub fn is_https(&self) -> bool {
        self.scheme == "https"
    }

    /// The parsed host.
    pub fn host(&self) -> &Host {
        &self.host
    }

    /// The explicit port, if any.
    pub fn port(&self) -> Option<u16> {
        self.port
    }

    /// The path, always starting with `/`.
    pub fn path(&self) -> &str {
        &self.path
    }

    /// The raw query string (without `?`), if present.
    pub fn query(&self) -> Option<&str> {
        self.query.as_deref()
    }

    /// The fragment (without `#`), if present.
    pub fn fragment(&self) -> Option<&str> {
        self.fragment.as_deref()
    }

    /// Serialise back to a canonical string.
    pub fn as_string(&self) -> String {
        let mut s = String::new();
        self.for_each_piece(|piece| s.push_str(piece));
        s
    }

    /// Calls `f` on each piece of the canonical serialisation, in order:
    /// their concatenation is [`Url::as_string`]. Nothing is allocated; an
    /// IPv4 host and a port are rendered on the stack. Every piece after
    /// the scheme starts or ends at a `://`, `:`, `/`, `?` or `#`.
    pub fn for_each_piece(&self, mut f: impl FnMut(&str)) {
        f(&self.scheme);
        f("://");
        match &self.host {
            Host::Domain(d) => f(d),
            ip @ Host::Ipv4(_) => f(Numerals::render(format_args!("{ip}")).as_str()),
        }
        if let Some(p) = self.port {
            f(Numerals::render(format_args!(":{p}")).as_str());
        }
        f(&self.path);
        if let Some(q) = &self.query {
            f("?");
            f(q);
        }
        if let Some(fr) = &self.fragment {
            f("#");
            f(fr);
        }
    }
}

/// A stack buffer for the short numerals of a URL: an IPv4 host is at most
/// 15 bytes and `:port` at most 6.
struct Numerals {
    buf: [u8; 16],
    len: usize,
}

impl Numerals {
    fn render(args: fmt::Arguments<'_>) -> Numerals {
        let mut out = Numerals {
            buf: [0; 16],
            len: 0,
        };
        fmt::Write::write_fmt(&mut out, args).expect("a URL numeral fits 16 bytes");
        out
    }

    fn as_str(&self) -> &str {
        std::str::from_utf8(&self.buf[..self.len]).expect("numerals are ASCII")
    }
}

impl fmt::Write for Numerals {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        let end = self.len + s.len();
        self.buf
            .get_mut(self.len..end)
            .ok_or(fmt::Error)?
            .copy_from_slice(s.as_bytes());
        self.len = end;
        Ok(())
    }
}

impl fmt::Display for Url {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.as_string())
    }
}

impl std::str::FromStr for Url {
    type Err = ParseError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Url::parse(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_url_round_trip() {
        let u = Url::parse("https://login.weebly.com:8443/p/a?x=1&y=2#frag").unwrap();
        assert_eq!(u.scheme(), "https");
        assert!(u.is_https());
        assert_eq!(u.host().to_string(), "login.weebly.com");
        assert_eq!(u.port(), Some(8443));
        assert_eq!(u.path(), "/p/a");
        assert_eq!(u.query(), Some("x=1&y=2"));
        assert_eq!(u.fragment(), Some("frag"));
        assert_eq!(
            u.as_string(),
            "https://login.weebly.com:8443/p/a?x=1&y=2#frag"
        );
    }

    #[test]
    fn schemeless_defaults_to_http() {
        let u = Url::parse("example.weebly.com/login").unwrap();
        assert_eq!(u.scheme(), "http");
        assert_eq!(u.path(), "/login");
    }

    #[test]
    fn empty_path_normalises_to_slash() {
        let u = Url::parse("https://example.com").unwrap();
        assert_eq!(u.path(), "/");
        assert_eq!(u.as_string(), "https://example.com/");
    }

    #[test]
    fn userinfo_obfuscation_keeps_real_host() {
        let u = Url::parse("http://paypal.com@evil.000webhostapp.com/x").unwrap();
        assert_eq!(u.host().to_string(), "evil.000webhostapp.com");
    }

    #[test]
    fn host_is_lowercased() {
        let u = Url::parse("HTTPS://Login.WEEBLY.com/A").unwrap();
        assert_eq!(u.scheme(), "https");
        assert_eq!(u.host().to_string(), "login.weebly.com");
        // Path case is preserved (it is significant).
        assert_eq!(u.path(), "/A");
    }

    #[test]
    fn rejects_bad_inputs() {
        assert_eq!(Url::parse("   "), Err(ParseError::Empty));
        assert!(matches!(
            Url::parse("ftp://example.com/"),
            Err(ParseError::UnsupportedScheme(_))
        ));
        assert!(matches!(
            Url::parse("mailto:user@example.com"),
            Err(ParseError::UnsupportedScheme(_))
        ));
        assert_eq!(Url::parse("http:///path"), Err(ParseError::MissingHost));
        assert!(matches!(
            Url::parse("http://host:99999/"),
            Err(ParseError::InvalidPort(_))
        ));
    }

    #[test]
    fn query_without_path() {
        let u = Url::parse("https://a.glitch.me?id=7").unwrap();
        assert_eq!(u.path(), "/");
        assert_eq!(u.query(), Some("id=7"));
    }

    #[test]
    fn fragment_only() {
        let u = Url::parse("https://a.github.io#top").unwrap();
        assert_eq!(u.fragment(), Some("top"));
        assert_eq!(u.query(), None);
    }

    #[test]
    fn trailing_colon_without_port() {
        let u = Url::parse("https://example.com:/x").unwrap();
        assert_eq!(u.port(), None);
        assert_eq!(u.path(), "/x");
    }

    #[test]
    fn ipv4_host() {
        let u = Url::parse("http://192.168.10.5/login").unwrap();
        assert!(u.host().is_ip());
    }

    #[test]
    fn pieces_concatenate_to_the_canonical_string() {
        for s in [
            "https://login.weebly.com:8443/p/a?x=1&y=2#frag",
            "http://255.255.255.255:65535/?#",
            "http://10.0.0.1",
            "example.com/A?b",
        ] {
            let u = Url::parse(s).unwrap();
            let mut joined = String::new();
            u.for_each_piece(|p| joined.push_str(p));
            assert_eq!(joined, u.as_string(), "url={s}");
        }
        let ip = Url::parse("http://255.255.255.255:65535/").unwrap();
        assert_eq!(ip.as_string(), "http://255.255.255.255:65535/");
    }

    #[test]
    fn from_str_impl() {
        let u: Url = "https://x.weebly.com/a".parse().unwrap();
        assert_eq!(u.path(), "/a");
    }
}
