//! The verdict vocabulary shared by every serving engine.
//!
//! [`Verdict`] and [`UrlChecker`] moved here from `freephish-core` so the
//! serving layer can sit *below* the framework crate: `freephish-core`
//! re-exports both from `extension`, keeping every existing import path
//! working.

/// A verdict for one URL.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Verdict {
    /// Block: phishing with the given score.
    Phishing(f64),
    /// Allow: benign with the given score.
    Safe(f64),
}

impl Verdict {
    /// True when navigation should be blocked.
    pub fn is_phishing(&self) -> bool {
        matches!(self, Verdict::Phishing(_))
    }

    /// The score carried by either arm.
    pub fn score(&self) -> f64 {
        match self {
            Verdict::Phishing(s) | Verdict::Safe(s) => *s,
        }
    }
}

/// Anything that can judge a URL (a model, a detection database, a stub).
pub trait UrlChecker: Send + Sync {
    /// Judge one URL.
    fn check(&self, url: &str) -> Verdict;

    /// Judge a batch of URLs, in order. The default loops over
    /// [`UrlChecker::check`]; index-backed checkers override this to
    /// resolve the whole batch against one consistent snapshot.
    fn check_many(&self, urls: &[String]) -> Vec<Verdict> {
        urls.iter().map(|u| self.check(u)).collect()
    }

    /// [`UrlChecker::check_many`] for checkers that can fail per URL —
    /// the serving engine calls only this. A failed URL is answered
    /// `ERROR <msg>` (line) or an error frame (binary). The default never
    /// fails; a cluster router overrides it, since a URL with no live
    /// backend has no verdict to give.
    fn try_check_many(&self, urls: &[String]) -> Vec<Result<Verdict, String>> {
        self.check_many(urls).into_iter().map(Ok).collect()
    }

    /// Record `url` as known phishing (the wire protocol's `ADD`).
    /// Returns the checker's new generation count. Checkers without a
    /// mutable backing set refuse.
    fn add(&self, url: &str, score: f64) -> Result<u64, String> {
        let _ = (url, score);
        Err("this checker does not accept additions".to_string())
    }

    /// Monotonic change counter: bumps whenever the backing set changes.
    /// Static checkers stay at 0.
    fn generation(&self) -> u64 {
        0
    }
}

impl<F> UrlChecker for F
where
    F: Fn(&str) -> Verdict + Send + Sync,
{
    fn check(&self, url: &str) -> Verdict {
        self(url)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_many_default_preserves_order() {
        let checker = |url: &str| {
            if url.contains("evil") {
                Verdict::Phishing(0.9)
            } else {
                Verdict::Safe(0.1)
            }
        };
        let urls = vec![
            "https://evil.weebly.com/".to_string(),
            "https://fine.weebly.com/".to_string(),
            "https://evil.wixsite.com/".to_string(),
        ];
        let verdicts = checker.check_many(&urls);
        assert!(verdicts[0].is_phishing());
        assert!(!verdicts[1].is_phishing());
        assert!(verdicts[2].is_phishing());
    }

    #[test]
    fn score_accessor() {
        assert_eq!(Verdict::Phishing(0.9).score(), 0.9);
        assert_eq!(Verdict::Safe(0.2).score(), 0.2);
    }
}
