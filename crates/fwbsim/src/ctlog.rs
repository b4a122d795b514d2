//! Certificate Transparency log network.
//!
//! Anti-phishing crawlers watch CT logs for newly certified domains
//! (Section 3, "Increased Difficulty of Discovery"). Self-hosted phishing
//! sites must obtain a certificate, so they surface in the log; FWB-hosted
//! sites inherit the service's existing certificate and *never appear* —
//! one of the paper's key evasion findings.

use crate::ssl::SslCertificate;
use freephish_simclock::SimTime;
use std::collections::HashSet;

/// A set of certificate subjects, answering whether any of them covers a
/// host. An exact subject covers only that host; a `*.suffix` subject
/// covers `suffix` itself and every host ending in `.suffix`. A lookup
/// walks the host's dot-separated suffixes, so it costs one hash probe per
/// label, not one comparison per subject.
#[derive(Debug, Clone, Default)]
pub struct SubjectSet {
    exact: HashSet<String>,
    /// Wildcard subjects with the leading `*.` stripped.
    wildcard: HashSet<String>,
}

impl SubjectSet {
    /// Add one subject (`host` or `*.suffix`).
    pub fn insert(&mut self, subject: &str) {
        match subject.strip_prefix("*.") {
            Some(suffix) => self.wildcard.insert(suffix.to_string()),
            None => self.exact.insert(subject.to_string()),
        };
    }

    /// Whether any subject covers `host`.
    pub fn covers(&self, host: &str) -> bool {
        if self.exact.contains(host) || self.wildcard.contains(host) {
            return true;
        }
        host.match_indices('.')
            .any(|(dot, _)| self.wildcard.contains(&host[dot + 1..]))
    }
}

impl<'a> FromIterator<&'a str> for SubjectSet {
    fn from_iter<I: IntoIterator<Item = &'a str>>(subjects: I) -> SubjectSet {
        let mut set = SubjectSet::default();
        for subject in subjects {
            set.insert(subject);
        }
        set
    }
}

/// One CT log entry: a certificate logged for a domain at a time.
#[derive(Debug, Clone)]
pub struct CtEntry {
    /// The certified domain (the certificate's subject).
    pub domain: String,
    /// Fingerprint of the logged certificate.
    pub fingerprint: u64,
    /// When the precertificate was logged.
    pub logged_at: SimTime,
}

/// An append-only CT log.
#[derive(Debug, Clone, Default)]
pub struct CtLog {
    entries: Vec<CtEntry>,
    /// Every logged subject, for [`CtLog::covers_host`].
    subjects: SubjectSet,
}

impl CtLog {
    /// An empty log.
    pub fn new() -> CtLog {
        CtLog::default()
    }

    /// Log a newly issued certificate. Called when a self-hosted site gets
    /// its DV certificate; never called for FWB site creation.
    pub fn log_issuance(&mut self, cert: &SslCertificate, at: SimTime) {
        self.subjects.insert(&cert.common_name);
        self.entries.push(CtEntry {
            domain: cert.common_name.clone(),
            fingerprint: cert.fingerprint,
            logged_at: at,
        });
    }

    /// All entries, append order.
    pub fn entries(&self) -> &[CtEntry] {
        &self.entries
    }

    /// Entries logged in the half-open window `[from, to)` — what a
    /// CT-watching crawler fetches per poll.
    pub fn entries_between(&self, from: SimTime, to: SimTime) -> Vec<&CtEntry> {
        self.entries
            .iter()
            .filter(|e| e.logged_at >= from && e.logged_at < to)
            .collect()
    }

    /// Whether any entry's subject covers `host` (exact or wildcard match).
    pub fn covers_host(&self, host: &str) -> bool {
        self.subjects.covers(host)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the log is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use freephish_webgen::FwbKind;

    #[test]
    fn selfhosted_issuance_is_visible() {
        let mut log = CtLog::new();
        let cert = SslCertificate::dv_for_domain("paypal-verify.xyz", 10);
        log.log_issuance(&cert, SimTime::from_hours(5));
        assert!(log.covers_host("paypal-verify.xyz"));
        assert_eq!(log.len(), 1);
    }

    #[test]
    fn fwb_site_invisible_when_service_cert_predates_log_watch() {
        // The crawler starts watching at t=0; the FWB's shared cert was
        // logged years ago (i.e. not in this window). A new phishing site on
        // the FWB adds nothing.
        let log = CtLog::new();
        // Creating an FWB site performs no issuance: nothing to log.
        assert!(!log.covers_host("evil-login.weebly.com"));
        assert!(log.is_empty());
    }

    #[test]
    fn wildcard_entry_covers_subdomains() {
        let mut log = CtLog::new();
        let cert = SslCertificate::shared_for_fwb(FwbKind::Weebly);
        // If the shared cert *were* re-logged, it covers every subdomain at
        // once — individual sites still never appear as entries.
        log.log_issuance(&cert, SimTime::from_secs(1));
        assert!(log.covers_host("anything.weebly.com"));
        assert_eq!(log.len(), 1);
    }

    #[test]
    fn wildcard_covers_its_apex_but_not_lookalikes() {
        let set: SubjectSet = ["*.weebly.com", "paypal-verify.xyz"].into_iter().collect();
        assert!(set.covers("weebly.com"));
        assert!(set.covers("a.b.weebly.com"));
        assert!(set.covers("paypal-verify.xyz"));
        assert!(!set.covers("xweebly.com"));
        assert!(!set.covers("weebly.com.evil.net"));
        assert!(!set.covers("sub.paypal-verify.xyz"));
        assert!(!set.covers("com"));
        assert!(!set.covers(""));
    }

    #[test]
    fn window_query() {
        let mut log = CtLog::new();
        for h in [1u64, 5, 9] {
            let cert = SslCertificate::dv_for_domain(&format!("d{h}.xyz"), h);
            log.log_issuance(&cert, SimTime::from_hours(h));
        }
        let w = log.entries_between(SimTime::from_hours(2), SimTime::from_hours(9));
        assert_eq!(w.len(), 1);
        assert_eq!(w[0].domain, "d5.xyz");
    }
}
