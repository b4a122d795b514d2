//! Simulated hosting ecosystem: the 17 FWB services plus the self-hosted
//! comparison population.
//!
//! The paper's Section 3 findings all hinge on infrastructure facts that
//! live outside any single website: WHOIS domain ages, shared SSL
//! certificates, Certificate Transparency visibility, and — for Section 5 —
//! how each hosting provider handles abuse reports. This crate simulates
//! exactly those registries and state machines:
//!
//! * [`ssl`] — certificates; every site on an FWB inherits the service's
//!   shared certificate (Figure 3), while self-hosted sites get fresh DV
//!   certificates;
//! * [`whois`] — a registrar database giving domain ages (FWB domains are
//!   over a decade old; self-hosted phishing domains are days old);
//! * [`ctlog`] — the CT log network: FWB sites never appear (inherited
//!   cert), self-hosted sites do;
//! * [`hosting`] — per-FWB hosting with the abuse-report → acknowledgement
//!   → takedown state machine, responsiveness calibrated per service to
//!   Table 4 / Section 5.3;
//! * [`selfhosted`] — the matched self-hosted phishing population with its
//!   own (faster, more thorough) takedown behaviour;
//! * [`history`] — the two-year historical campaign generator behind
//!   Figure 1;
//! * [`scale`] — the streaming million-site world sampler: random-access
//!   `(seed, index) → site` generation with Table 4 FWB weights and
//!   Figure 5 brand Zipf, for soak tests that must keep RSS bounded.

pub mod ctlog;
pub mod history;
pub mod hosting;
pub mod scale;
pub mod selfhosted;
pub mod ssl;
pub mod whois;

pub use ctlog::{CtLog, SubjectSet};
pub use hosting::{FwbHost, HostedSite, ReportOutcome, SiteId, SiteState, TakedownProfile};
pub use scale::{ScaleSampler, ScaleSite, ScaleStats};
pub use selfhosted::{SelfHostedPopulation, SelfHostedSite};
pub use ssl::SslCertificate;
pub use whois::WhoisDb;
