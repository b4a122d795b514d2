//! The classification module and the Table 2 baseline line-up.
//!
//! Five detectors, mirroring the paper's comparison:
//!
//! | paper model      | this module                  | information used            |
//! |------------------|------------------------------|-----------------------------|
//! | URLNet           | [`urlnet::UrlNetStyle`]      | URL string only             |
//! | VisualPhishNet   | [`visual::VisualStyle`]      | rendered-layout signature   |
//! | PhishIntention   | [`intention::IntentionStyle`]| layout + intention + dynamic|
//! | base StackModel  | [`stack::BaseStackModel`]    | 20 URL+HTML features        |
//! | **our model**    | [`augmented::AugmentedStackModel`] | 20 features incl. FWB |
//!
//! The original URLNet/VisualPhishNet/PhishIntention are GPU deep models;
//! the reproductions implement each *family's decision procedure* with
//! offline-friendly machinery (n-gram linear model, signature k-NN,
//! rule-plus-crawl hybrid). The Table 2 shape — PhishIntention most
//! accurate but slowest, URLNet fastest but weakest, stacking the best
//! trade-off, the augmented model on top — emerges from the real
//! algorithmic differences.

pub mod augmented;
pub mod intention;
pub mod rf;
pub mod stack;
pub mod urlnet;
pub mod visual;

/// Where a detector or the tiered resolver gets page snapshots from: the
/// crawler's seat. Dynamic-analysis models follow links and iframes
/// through it the way PhishIntention does; the resolver's tier 2 fetches
/// each residue URL's page through it. The daemon uses
/// [`ScaleWorldFetcher`] (a scale world's sites, nothing else), tests
/// [`MapFetcher`] with exact bodies, and static-only evaluation
/// [`NoFetch`].
///
/// `None` means the snapshot is unavailable (site down, non-HTML, fetch
/// error, not a site of the simulated web); the resolver negative-caches
/// the URL instead of classifying.
///
/// [`ScaleWorldFetcher`]: crate::scaleworld::ScaleWorldFetcher
/// [`MapFetcher`]: crate::resolver::MapFetcher
pub trait SnapshotFetcher: Send + Sync {
    /// The page body for `url`, if one can be obtained.
    fn fetch(&self, url: &str) -> Option<String>;
}

/// A fetcher that resolves nothing — for static-only evaluation.
pub struct NoFetch;

impl SnapshotFetcher for NoFetch {
    fn fetch(&self, _url: &str) -> Option<String> {
        None
    }
}

/// Common interface of all five detectors.
pub trait PhishDetector {
    /// Human-readable model name as printed in Table 2.
    fn name(&self) -> &'static str;

    /// Probability-like score in [0, 1] that the snapshot is phishing.
    fn score(&self, url: &str, html: &str, fetcher: &dyn SnapshotFetcher) -> f64;

    /// Hard decision at the 0.5 threshold.
    fn predict(&self, url: &str, html: &str, fetcher: &dyn SnapshotFetcher) -> u8 {
        u8::from(self.score(url, html, fetcher) >= 0.5)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nofetch_returns_none() {
        assert!(NoFetch.fetch("https://anything.example/").is_none());
    }
}
