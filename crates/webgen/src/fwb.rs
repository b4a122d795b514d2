//! The 17 Free Website Building services the paper studies, with the
//! attributes Section 3 identifies as attacker-relevant: URL shape, free
//! `.com` TLD, the shared SSL certificate, the injected banner, template
//! rigidity, domain age and abuse-handling behaviour.
//!
//! These descriptors are the single source of truth for every other crate:
//! `webgen` renders pages from the template vocabulary, `fwbsim` hosts and
//! takes down sites using the responsiveness parameters, and the experiment
//! binaries group results by [`FwbKind`].

use std::fmt;

/// One of the 17 studied FWB services.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FwbKind {
    /// weebly.com
    Weebly,
    /// 000webhostapp.com
    Webhost000,
    /// blogspot.com
    Blogspot,
    /// wixsite.com
    Wix,
    /// sites.google.com/view/...
    GoogleSites,
    /// github.io
    GithubIo,
    /// web.app (Firebase hosting)
    Firebase,
    /// square.site (Squareup)
    Squareup,
    /// forms.zohopublic.com
    ZohoForms,
    /// wordpress.com
    Wordpress,
    /// docs.google.com/forms/...
    GoogleForms,
    /// sharepoint.com tenants
    Sharepoint,
    /// yolasite.com
    Yolasite,
    /// godaddysites.com
    GoDaddySites,
    /// mailchi.mp (Mailchimp landing pages)
    Mailchimp,
    /// glitch.me
    GlitchMe,
    /// hpage.com
    Hpage,
}

/// How a hosted site's URL is formed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UrlShape {
    /// `https://<site>.<suffix>/...` (e.g. `victim.weebly.com`).
    Subdomain,
    /// `https://<host><prefix><site>` (e.g.
    /// `sites.google.com/view/victim`).
    PathBased,
}

/// Static description of one FWB service.
#[derive(Debug, Clone, Copy)]
pub struct FwbDescriptor {
    /// Which service this is.
    pub kind: FwbKind,
    /// Human-readable name as the paper prints it.
    pub display_name: &'static str,
    /// Host suffix for subdomain URLs, or the fixed host for path URLs.
    pub host: &'static str,
    /// Path prefix for [`UrlShape::PathBased`] services, `""` otherwise.
    pub path_prefix: &'static str,
    /// URL shape.
    pub url_shape: UrlShape,
    /// Whether free sites get a `.com` registrable domain (14 of 17 do).
    pub offers_com_tld: bool,
    /// Organisation on the shared SSL certificate all hosted sites inherit.
    pub ssl_org: &'static str,
    /// Age of the FWB's registrable domain, in days (Section 3: median FWB
    /// phishing "domain age" is 13.7 *years* because WHOIS sees the FWB).
    pub domain_age_days: u64,
    /// Fraction of the page skeleton fixed by the builder's templates;
    /// drives the Table 1 phishing↔benign code similarity per service.
    pub template_rigidity: f64,
    /// Whether free sites carry a service banner (header/footer ad).
    pub has_banner: bool,
    /// CSS class vocabulary prefix used by the service's generated markup.
    pub class_prefix: &'static str,
    /// Number of phishing URLs attributed to this service in the paper's
    /// six-month measurement (Table 4's "URLs" column; sums to 31,405).
    pub paper_url_count: u64,
}

/// All 17 descriptors, in Table 4 order.
pub const ALL_FWBS: &[FwbDescriptor] = &[
    FwbDescriptor {
        kind: FwbKind::Weebly,
        display_name: "Weebly",
        host: "weebly.com",
        path_prefix: "",
        url_shape: UrlShape::Subdomain,
        offers_com_tld: true,
        ssl_org: "Square, Inc.",
        domain_age_days: 6800,
        template_rigidity: 0.90,
        has_banner: true,
        class_prefix: "wsite",
        paper_url_count: 7031,
    },
    FwbDescriptor {
        kind: FwbKind::Webhost000,
        display_name: "000webhost",
        host: "000webhostapp.com",
        path_prefix: "",
        url_shape: UrlShape::Subdomain,
        offers_com_tld: true,
        ssl_org: "Hostinger, UAB",
        domain_age_days: 3600,
        template_rigidity: 0.79,
        has_banner: true,
        class_prefix: "wh",
        paper_url_count: 5934,
    },
    FwbDescriptor {
        kind: FwbKind::Blogspot,
        display_name: "Blogspot",
        host: "blogspot.com",
        path_prefix: "",
        url_shape: UrlShape::Subdomain,
        offers_com_tld: true,
        ssl_org: "Google Trust Services LLC",
        domain_age_days: 9100,
        template_rigidity: 0.71,
        has_banner: true,
        class_prefix: "blogger",
        paper_url_count: 3156,
    },
    FwbDescriptor {
        kind: FwbKind::Wix,
        display_name: "Wix.com",
        host: "wixsite.com",
        path_prefix: "",
        url_shape: UrlShape::Subdomain,
        offers_com_tld: true,
        ssl_org: "Wix.com Ltd.",
        domain_age_days: 4700,
        template_rigidity: 0.73,
        has_banner: true,
        class_prefix: "wix",
        paper_url_count: 2338,
    },
    FwbDescriptor {
        kind: FwbKind::GoogleSites,
        display_name: "Google Sites",
        host: "sites.google.com",
        path_prefix: "/view/",
        url_shape: UrlShape::PathBased,
        offers_com_tld: true,
        ssl_org: "Google Trust Services LLC",
        domain_age_days: 10200,
        template_rigidity: 0.82,
        has_banner: true,
        class_prefix: "gsites",
        paper_url_count: 2247,
    },
    FwbDescriptor {
        kind: FwbKind::GithubIo,
        display_name: "github.io",
        host: "github.io",
        path_prefix: "",
        url_shape: UrlShape::Subdomain,
        offers_com_tld: false,
        ssl_org: "GitHub, Inc.",
        domain_age_days: 4300,
        // Pages are user-authored from scratch: barely any shared skeleton.
        template_rigidity: 0.25,
        has_banner: false,
        class_prefix: "gh",
        paper_url_count: 942,
    },
    FwbDescriptor {
        kind: FwbKind::Firebase,
        display_name: "Firebase",
        host: "web.app",
        path_prefix: "",
        url_shape: UrlShape::Subdomain,
        offers_com_tld: false,
        ssl_org: "Google Trust Services LLC",
        domain_age_days: 2500,
        template_rigidity: 0.42,
        has_banner: false,
        class_prefix: "fb-hosting",
        paper_url_count: 1416,
    },
    FwbDescriptor {
        kind: FwbKind::Squareup,
        display_name: "Squareup",
        host: "square.site",
        path_prefix: "",
        url_shape: UrlShape::Subdomain,
        offers_com_tld: true,
        ssl_org: "Square, Inc.",
        domain_age_days: 2900,
        template_rigidity: 0.71,
        has_banner: true,
        class_prefix: "sq",
        paper_url_count: 1736,
    },
    FwbDescriptor {
        kind: FwbKind::ZohoForms,
        display_name: "Zoho Forms",
        host: "forms.zohopublic.com",
        path_prefix: "/form/",
        url_shape: UrlShape::PathBased,
        offers_com_tld: true,
        ssl_org: "Zoho Corporation",
        domain_age_days: 5200,
        template_rigidity: 0.80,
        has_banner: true,
        class_prefix: "zf",
        paper_url_count: 498,
    },
    FwbDescriptor {
        kind: FwbKind::Wordpress,
        display_name: "Wordpress",
        host: "wordpress.com",
        path_prefix: "",
        url_shape: UrlShape::Subdomain,
        offers_com_tld: true,
        ssl_org: "Automattic, Inc.",
        domain_age_days: 7300,
        template_rigidity: 0.66,
        has_banner: true,
        class_prefix: "wp",
        paper_url_count: 786,
    },
    FwbDescriptor {
        kind: FwbKind::GoogleForms,
        display_name: "Google Forms",
        host: "docs.google.com",
        path_prefix: "/forms/d/e/",
        url_shape: UrlShape::PathBased,
        offers_com_tld: true,
        ssl_org: "Google Trust Services LLC",
        domain_age_days: 9500,
        template_rigidity: 0.83,
        has_banner: true,
        class_prefix: "freebird",
        paper_url_count: 1397,
    },
    FwbDescriptor {
        kind: FwbKind::Sharepoint,
        display_name: "Sharepoint",
        host: "sharepoint.com",
        path_prefix: "",
        url_shape: UrlShape::Subdomain,
        offers_com_tld: true,
        ssl_org: "Microsoft Corporation",
        domain_age_days: 8400,
        template_rigidity: 0.79,
        has_banner: false,
        class_prefix: "sp",
        paper_url_count: 2181,
    },
    FwbDescriptor {
        kind: FwbKind::Yolasite,
        display_name: "Yolasite",
        host: "yolasite.com",
        path_prefix: "",
        url_shape: UrlShape::Subdomain,
        offers_com_tld: true,
        ssl_org: "Yola, Inc.",
        domain_age_days: 5600,
        template_rigidity: 0.72,
        has_banner: true,
        class_prefix: "yola",
        paper_url_count: 601,
    },
    FwbDescriptor {
        kind: FwbKind::GoDaddySites,
        display_name: "GoDaddySites",
        host: "godaddysites.com",
        path_prefix: "",
        url_shape: UrlShape::Subdomain,
        offers_com_tld: true,
        ssl_org: "GoDaddy.com, LLC",
        domain_age_days: 2200,
        template_rigidity: 0.75,
        has_banner: true,
        class_prefix: "gd",
        paper_url_count: 418,
    },
    FwbDescriptor {
        kind: FwbKind::Mailchimp,
        display_name: "MailChimp",
        host: "mailchi.mp",
        path_prefix: "/",
        url_shape: UrlShape::PathBased,
        offers_com_tld: true,
        ssl_org: "The Rocket Science Group LLC",
        domain_age_days: 3100,
        template_rigidity: 0.78,
        has_banner: true,
        class_prefix: "mc",
        paper_url_count: 183,
    },
    FwbDescriptor {
        kind: FwbKind::GlitchMe,
        display_name: "glitch.me",
        host: "glitch.me",
        path_prefix: "",
        url_shape: UrlShape::Subdomain,
        offers_com_tld: false,
        ssl_org: "Fastly, Inc.",
        domain_age_days: 2700,
        template_rigidity: 0.35,
        has_banner: false,
        class_prefix: "glitch",
        paper_url_count: 480,
    },
    FwbDescriptor {
        kind: FwbKind::Hpage,
        display_name: "hpage",
        host: "hpage.com",
        path_prefix: "",
        url_shape: UrlShape::Subdomain,
        offers_com_tld: true,
        ssl_org: "hPage GmbH",
        domain_age_days: 5900,
        template_rigidity: 0.70,
        has_banner: true,
        class_prefix: "hp",
        paper_url_count: 61,
    },
];

impl FwbKind {
    /// Look up this service's descriptor.
    pub fn descriptor(self) -> &'static FwbDescriptor {
        ALL_FWBS
            .iter()
            .find(|d| d.kind == self)
            .expect("every FwbKind has a descriptor")
    }

    /// All kinds, in Table 4 order.
    pub fn all() -> impl Iterator<Item = FwbKind> {
        ALL_FWBS.iter().map(|d| d.kind)
    }

    /// Build the URL for a site named `site` on this service.
    ///
    /// ```
    /// use freephish_webgen::FwbKind;
    /// assert_eq!(
    ///     FwbKind::GoogleSites.site_url("oofifhdfhehdy"),
    ///     "https://sites.google.com/view/oofifhdfhehdy"
    /// );
    /// ```
    pub fn site_url(self, site: &str) -> String {
        let mut url = String::new();
        self.push_site_url(site, &mut url);
        url
    }

    /// Append the URL of the site named `site` on this service to `out`:
    /// the one renderer of the URL shapes, which [`FwbKind::site_url`]
    /// wraps and scale worlds call with a reused buffer.
    pub fn push_site_url(self, site: &str, out: &mut String) {
        let d = self.descriptor();
        out.push_str("https://");
        match d.url_shape {
            UrlShape::Subdomain => {
                out.push_str(site);
                out.push('.');
                out.push_str(d.host);
                out.push('/');
            }
            UrlShape::PathBased => {
                out.push_str(d.host);
                out.push_str(d.path_prefix);
                out.push_str(site);
            }
        }
    }

    /// Identify which FWB (if any) serves a URL. The inverse of
    /// [`FwbKind::site_url`], usable on any URL string: this is the check
    /// the streaming module runs on every post.
    ///
    /// ```
    /// use freephish_webgen::FwbKind;
    /// assert_eq!(
    ///     FwbKind::classify_url("https://evil.weebly.com/login"),
    ///     Some(FwbKind::Weebly)
    /// );
    /// assert_eq!(FwbKind::classify_url("https://example.com/"), None);
    /// ```
    pub fn classify_url(url: &str) -> Option<FwbKind> {
        let rest = url
            .strip_prefix("https://")
            .or_else(|| url.strip_prefix("http://"))
            .unwrap_or(url);
        let (host, path) = match rest.find('/') {
            Some(i) => (&rest[..i], &rest[i..]),
            None => (rest, ""),
        };
        let host = host.to_ascii_lowercase();
        for d in ALL_FWBS {
            match d.url_shape {
                UrlShape::Subdomain => {
                    if host.ends_with(&format!(".{}", d.host)) {
                        return Some(d.kind);
                    }
                }
                UrlShape::PathBased => {
                    if host == d.host
                        && path.starts_with(d.path_prefix)
                        && path.len() > d.path_prefix.len()
                    {
                        return Some(d.kind);
                    }
                }
            }
        }
        None
    }
}

impl fmt::Display for FwbKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.descriptor().display_name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seventeen_services() {
        assert_eq!(ALL_FWBS.len(), 17);
        assert_eq!(FwbKind::all().count(), 17);
    }

    #[test]
    fn paper_url_counts_sum_to_total() {
        let total: u64 = ALL_FWBS.iter().map(|d| d.paper_url_count).sum();
        assert_eq!(total, 31_405, "Table 4 total must match the paper");
    }

    #[test]
    fn fourteen_offer_com() {
        let n = ALL_FWBS.iter().filter(|d| d.offers_com_tld).count();
        assert_eq!(n, 14, "the paper: 14 of 17 FWBs provide a .com TLD");
    }

    #[test]
    fn descriptor_round_trip() {
        for d in ALL_FWBS {
            assert_eq!(d.kind.descriptor().display_name, d.display_name);
        }
    }

    #[test]
    fn subdomain_url_shape() {
        assert_eq!(
            FwbKind::Weebly.site_url("evil-login"),
            "https://evil-login.weebly.com/"
        );
    }

    #[test]
    fn pathbased_url_shape() {
        assert_eq!(
            FwbKind::GoogleSites.site_url("oofifhdfhehdy"),
            "https://sites.google.com/view/oofifhdfhehdy"
        );
    }

    #[test]
    fn push_site_url_appends_each_services_url_shape() {
        let mut buf = String::new();
        for d in ALL_FWBS {
            // The shapes as `format!` rendered them before the push renderer.
            let want = match d.url_shape {
                UrlShape::Subdomain => format!("https://example-site-1.{}/", d.host),
                UrlShape::PathBased => format!("https://{}{}example-site-1", d.host, d.path_prefix),
            };
            buf.clear();
            buf.push_str("kept:");
            d.kind.push_site_url("example-site-1", &mut buf);
            assert_eq!(buf, format!("kept:{want}"), "{}", d.display_name);
            assert_eq!(d.kind.site_url("example-site-1"), want);
        }
    }

    #[test]
    fn classify_url_inverse_of_site_url() {
        for kind in FwbKind::all() {
            let url = kind.site_url("example-site-1");
            assert_eq!(FwbKind::classify_url(&url), Some(kind), "url={url}");
        }
    }

    #[test]
    fn classify_rejects_non_fwb() {
        assert_eq!(FwbKind::classify_url("https://example.com/a"), None);
        assert_eq!(FwbKind::classify_url("https://weebly.com/"), None); // apex, not a site
        assert_eq!(FwbKind::classify_url("https://sites.google.com/"), None);
        assert_eq!(
            FwbKind::classify_url("https://sites.google.com/view/"),
            None
        );
    }

    #[test]
    fn rigidity_orders_like_table1() {
        // Table 1: Weebly most similar, github.io least.
        let weebly = FwbKind::Weebly.descriptor().template_rigidity;
        let gh = FwbKind::GithubIo.descriptor().template_rigidity;
        for d in ALL_FWBS {
            assert!(d.template_rigidity <= weebly + 1e-9 || d.kind == FwbKind::Weebly);
            assert!(d.template_rigidity >= gh - 1e-9 || d.kind == FwbKind::GithubIo);
        }
    }

    #[test]
    fn google_properties_share_ssl_org() {
        // Figure 3's observation: Google Sites shares Google's certificate.
        assert_eq!(
            FwbKind::GoogleSites.descriptor().ssl_org,
            FwbKind::Blogspot.descriptor().ssl_org
        );
    }
}
