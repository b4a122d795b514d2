//! The FreePhish framework — the paper's primary contribution.
//!
//! Five cooperating modules (Figure 4 of the paper):
//!
//! 1. **Streaming** ([`pipeline::streaming`]) — polls the simulated Twitter
//!    and Facebook feeds every ten minutes, extracts URLs from post text,
//!    and keeps the ones hosted on one of the 17 FWB services.
//! 2. **Pre-processing** ([`features`]) — snapshots each site and extracts
//!    the URL-, HTML- and FWB-specific feature vector.
//! 3. **Classification** ([`models`]) — the augmented StackModel (plus the
//!    four Table 2 baselines for comparison).
//! 4. **Reporting** ([`pipeline::reporting`]) — files abuse reports with
//!    the hosting FWB and the social platform, with screenshots attached.
//! 5. **Analysis** ([`analysis`]) — longitudinally measures every
//!    anti-phishing entity's coverage and response time by polling, and
//!    regenerates the paper's tables and figures from those observations.
//!
//! Supporting modules: [`world`] wires the simulated ecosystem together,
//! [`campaign`] drives the six-month attack workload through it,
//! [`groundtruth`] builds the labelled training corpus, [`evasion`]
//! implements the Section 5.5 evasive-attack heuristics, [`characterize`]
//! reproduces the Section 3 population statistics, and [`extension`] is the
//! FreePhish browser-extension analogue: a TCP verdict service plus a
//! navigation guard.

pub mod analysis;
pub mod campaign;
pub mod characterize;
pub mod discovery;
pub mod evasion;
pub mod extension;
pub mod features;
pub mod groundtruth;
pub mod journal;
pub mod models;
pub mod pipeline;
pub mod resolver;
pub mod scaleworld;
pub mod verdictstore;
pub mod world;

pub use features::{FeatureSet, FeatureVector};
pub use models::augmented::AugmentedStackModel;
pub use resolver::{
    ManualClock, MapFetcher, ResolverClock, ResolverModels, SnapshotFetcher, TieredResolver,
    TieredResolverConfig, WallClock,
};
pub use scaleworld::{ScaleWorld, ScaleWorldConfig, ScaleWorldFetcher};
pub use world::World;
