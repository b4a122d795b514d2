//! SSL certificates: the shared-certificate property of FWB hosting.
//!
//! Figure 3 of the paper shows a phishing site on Google Sites presenting
//! the *same* certificate as youtube.com — identical common name,
//! organisation, validity window and fingerprints. Sites on an FWB inherit
//! the service's certificate; they never get (or need) one of their own,
//! which keeps them out of Certificate Transparency logs and gives them
//! OV/EV-grade chrome for free.

use freephish_simclock::fnv_shaped;
use freephish_webgen::FwbKind;

/// Validation level of a certificate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValidationLevel {
    /// Domain Validation — cheap/free, 90-day, what self-hosted phishing
    /// sites use (Let's Encrypt / ZeroSSL).
    Dv,
    /// Organisation Validation.
    Ov,
    /// Extended Validation.
    Ev,
}

/// A (simulated) X.509 certificate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SslCertificate {
    /// Subject common name (e.g. `*.weebly.com`, `*.google.com`).
    pub common_name: String,
    /// Subject organisation.
    pub organization: String,
    /// Deterministic stand-in for the SHA-256 fingerprint.
    pub fingerprint: u64,
    /// Issue day (days since an arbitrary CA epoch).
    pub issued_day: u64,
    /// Expiry day.
    pub expires_day: u64,
    /// Validation level.
    pub level: ValidationLevel,
}

impl SslCertificate {
    /// The shared certificate of an FWB service. Deterministic: every call
    /// for the same service yields the identical certificate — that is the
    /// point.
    pub fn shared_for_fwb(fwb: FwbKind) -> SslCertificate {
        let d = fwb.descriptor();
        // Google properties literally share Google's wildcard cert set.
        let (cn, org) = if d.ssl_org.starts_with("Google") {
            ("*.google.com".to_string(), d.ssl_org.to_string())
        } else {
            (format!("*.{}", d.host), d.ssl_org.to_string())
        };
        let fp = fnv_shaped(format!("{}|{}", cn, org).as_bytes());
        SslCertificate {
            common_name: cn,
            organization: org,
            fingerprint: fp,
            issued_day: 18_900, // long-lived org cert, renewed centrally
            expires_day: 19_450,
            level: ValidationLevel::Ov,
        }
    }

    /// A fresh DV certificate for a self-hosted domain, issued `now_day`.
    pub fn dv_for_domain(domain: &str, now_day: u64) -> SslCertificate {
        SslCertificate {
            common_name: domain.to_string(),
            organization: String::new(), // DV certs carry no organisation
            fingerprint: fnv_shaped(format!("dv|{domain}|{now_day}").as_bytes()),
            issued_day: now_day,
            expires_day: now_day + 90,
            level: ValidationLevel::Dv,
        }
    }

    /// Whether the certificate covers `host` (exact or one-level wildcard).
    pub fn covers(&self, host: &str) -> bool {
        if let Some(suffix) = self.common_name.strip_prefix("*.") {
            host == suffix || host.ends_with(&format!(".{suffix}"))
        } else {
            host == self.common_name
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fwb_cert_is_stable() {
        let a = SslCertificate::shared_for_fwb(FwbKind::Weebly);
        let b = SslCertificate::shared_for_fwb(FwbKind::Weebly);
        assert_eq!(a, b);
        assert_eq!(a.level, ValidationLevel::Ov);
    }

    #[test]
    fn google_properties_share_one_cert() {
        // Figure 3: a Google Sites phishing page and YouTube present the
        // same certificate.
        let sites = SslCertificate::shared_for_fwb(FwbKind::GoogleSites);
        let blogspot = SslCertificate::shared_for_fwb(FwbKind::Blogspot);
        let forms = SslCertificate::shared_for_fwb(FwbKind::GoogleForms);
        assert_eq!(sites.fingerprint, blogspot.fingerprint);
        assert_eq!(sites.fingerprint, forms.fingerprint);
        assert_eq!(sites.common_name, "*.google.com");
    }

    #[test]
    fn distinct_services_distinct_certs() {
        let w = SslCertificate::shared_for_fwb(FwbKind::Weebly);
        let x = SslCertificate::shared_for_fwb(FwbKind::Wix);
        assert_ne!(w.fingerprint, x.fingerprint);
    }

    #[test]
    fn wildcard_coverage() {
        let w = SslCertificate::shared_for_fwb(FwbKind::Weebly);
        assert!(w.covers("evil-login.weebly.com"));
        assert!(w.covers("weebly.com"));
        assert!(!w.covers("weebly.com.evil.net"));
    }

    #[test]
    fn dv_cert_properties() {
        let c = SslCertificate::dv_for_domain("paypal-verify.xyz", 100);
        assert_eq!(c.level, ValidationLevel::Dv);
        assert_eq!(c.expires_day - c.issued_day, 90);
        assert!(c.organization.is_empty());
        assert!(c.covers("paypal-verify.xyz"));
        assert!(!c.covers("sub.paypal-verify.xyz"));
    }

    #[test]
    fn dv_reissue_changes_fingerprint() {
        let a = SslCertificate::dv_for_domain("x.xyz", 1);
        let b = SslCertificate::dv_for_domain("x.xyz", 2);
        assert_ne!(a.fingerprint, b.fingerprint);
    }
}
