//! Discovery channels: *how* anti-phishing crawlers find new attacks, and
//! why FWB hosting starves them (Section 3, "Increased Difficulty of
//! Discovery").
//!
//! Three standard discovery channels are implemented against the simulated
//! world:
//!
//! * [`CtLogWatcher`] — follows the Certificate Transparency stream and
//!   surfaces newly certified domains. Self-hosted phishing *must* obtain a
//!   certificate, so it appears here; FWB sites inherit the service's
//!   certificate and never do.
//! * [`SearchIndexMiner`] — queries the search index for sensitive-
//!   vocabulary pages. Only the small indexed fraction of FWB attacks
//!   (≈4%) is reachable.
//! * [`SocialStreamWatcher`] — the channel FreePhish actually uses: watch
//!   the posts where the lures are shared.
//!
//! [`DiscoveryReport`] measures per-channel recall over a campaign — the
//! quantitative version of the paper's qualitative argument for building a
//! social-stream-based framework.

use crate::campaign::{CampaignRecord, RecordClass};
use crate::world::World;
use freephish_fwbsim::SubjectSet;
use freephish_simclock::SimTime;
use std::collections::HashSet;

/// A discovery channel: given the world and the time horizon, which URLs
/// did it surface?
pub trait DiscoveryChannel {
    /// Channel name for reporting.
    fn name(&self) -> &'static str;

    /// URLs surfaced by this channel up to `horizon`.
    fn discovered(
        &self,
        world: &World,
        records: &[CampaignRecord],
        horizon: SimTime,
    ) -> HashSet<String>;
}

/// The host of an `https://` record URL (empty for any other scheme).
fn url_host(url: &str) -> &str {
    url.strip_prefix("https://")
        .and_then(|rest| rest.split('/').next())
        .unwrap_or("")
}

/// Watch the CT log for new certificates and derive candidate URLs.
pub struct CtLogWatcher;

impl DiscoveryChannel for CtLogWatcher {
    fn name(&self) -> &'static str {
        "CT-log watcher"
    }

    fn discovered(
        &self,
        world: &World,
        records: &[CampaignRecord],
        horizon: SimTime,
    ) -> HashSet<String> {
        // Domains certified within the horizon.
        let certified: SubjectSet = world
            .ctlog
            .entries_between(SimTime::ZERO, horizon)
            .into_iter()
            .map(|e| e.domain.as_str())
            .collect();
        // A record is discovered when its host matches a certified domain.
        records
            .iter()
            .filter(|r| certified.covers(url_host(&r.url)))
            .map(|r| r.url.clone())
            .collect()
    }
}

/// Mine the search index for phishing-vocabulary pages.
pub struct SearchIndexMiner;

impl DiscoveryChannel for SearchIndexMiner {
    fn name(&self) -> &'static str {
        "search-index miner"
    }

    fn discovered(
        &self,
        world: &World,
        records: &[CampaignRecord],
        _horizon: SimTime,
    ) -> HashSet<String> {
        records
            .iter()
            .filter(|r| world.search.contains(&r.url))
            .map(|r| r.url.clone())
            .collect()
    }
}

/// Watch the social streams — FreePhish's channel.
pub struct SocialStreamWatcher;

impl DiscoveryChannel for SocialStreamWatcher {
    fn name(&self) -> &'static str {
        "social-stream watcher"
    }

    fn discovered(
        &self,
        world: &World,
        records: &[CampaignRecord],
        horizon: SimTime,
    ) -> HashSet<String> {
        // Everything shared in a post that survived until at least one
        // 10-minute poll observed it.
        records
            .iter()
            .filter(|r| r.posted_at < horizon)
            .filter(|r| {
                world
                    .feed(r.platform)
                    .post(r.post)
                    .map(|p| {
                        let first_poll = crate::pipeline::quantize_to_poll(r.posted_at);
                        p.is_visible(first_poll) && first_poll < horizon
                    })
                    .unwrap_or(false)
            })
            .map(|r| r.url.clone())
            .collect()
    }
}

/// Per-channel recall over the two populations.
#[derive(Debug, Clone)]
pub struct DiscoveryReport {
    /// Channel name.
    pub channel: &'static str,
    /// Fraction of FWB phishing URLs the channel surfaced.
    pub fwb_recall: f64,
    /// Fraction of self-hosted phishing URLs the channel surfaced.
    pub self_hosted_recall: f64,
}

/// Measure every channel's recall over a campaign.
pub fn discovery_report(
    world: &World,
    records: &[CampaignRecord],
    horizon: SimTime,
) -> Vec<DiscoveryReport> {
    let channels: Vec<Box<dyn DiscoveryChannel>> = vec![
        Box::new(CtLogWatcher),
        Box::new(SearchIndexMiner),
        Box::new(SocialStreamWatcher),
    ];
    let fwb: Vec<&CampaignRecord> = records
        .iter()
        .filter(|r| matches!(r.class, RecordClass::FwbPhish(_)))
        .collect();
    let sh: Vec<&CampaignRecord> = records
        .iter()
        .filter(|r| r.class == RecordClass::SelfHostedPhish)
        .collect();
    channels
        .iter()
        .map(|c| {
            let found = c.discovered(world, records, horizon);
            let recall = |pop: &[&CampaignRecord]| {
                if pop.is_empty() {
                    0.0
                } else {
                    pop.iter().filter(|r| found.contains(&r.url)).count() as f64 / pop.len() as f64
                }
            };
            DiscoveryReport {
                channel: c.name(),
                fwb_recall: recall(&fwb),
                self_hosted_recall: recall(&sh),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{self, CampaignConfig};

    fn measured() -> (World, Vec<CampaignRecord>) {
        let mut world = World::new(21);
        let records = campaign::run(
            &CampaignConfig {
                scale: 0.02,
                days: 30,
                benign_fraction: 0.0,
                seed: 21,
            },
            &mut world,
        );
        (world, records)
    }

    #[test]
    fn ct_log_blind_to_fwb_attacks() {
        let (world, records) = measured();
        let report = discovery_report(&world, &records, SimTime::from_days(30));
        let ct = report
            .iter()
            .find(|r| r.channel == "CT-log watcher")
            .unwrap();
        // The paper's structural finding: FWB sites inherit the service
        // cert, so CT-based discovery finds none of them...
        assert_eq!(ct.fwb_recall, 0.0);
        // ...while every self-hosted site had to get a certificate.
        assert!(ct.self_hosted_recall > 0.95, "{}", ct.self_hosted_recall);
    }

    /// Reference for `SubjectSet::covers`: compare the host with every
    /// subject in turn.
    fn scan_covers<'a>(subjects: impl IntoIterator<Item = &'a str>, host: &str) -> bool {
        subjects.into_iter().any(|d| {
            if let Some(suffix) = d.strip_prefix("*.") {
                host == suffix || host.ends_with(&format!(".{suffix}"))
            } else {
                host == d
            }
        })
    }

    #[test]
    fn ct_coverage_matches_the_linear_scan() {
        use freephish_fwbsim::SslCertificate;
        use freephish_webgen::FwbKind;

        let (mut world, records) = measured();
        // The seeded log holds only self-hosted DV certificates; log some
        // FWB wildcard certificates mid-window too.
        for fwb in [FwbKind::Weebly, FwbKind::Wix, FwbKind::GoogleSites] {
            let cert = SslCertificate::shared_for_fwb(fwb);
            world.ctlog.log_issuance(&cert, SimTime::from_days(12));
        }

        let mut hosts: Vec<String> = records
            .iter()
            .map(|r| url_host(&r.url).to_string())
            .collect();
        for e in world.ctlog.entries() {
            let bare = e.domain.trim_start_matches("*.");
            hosts.push(bare.to_string()); // exact, or the wildcard's apex
            hosts.push(format!("www.{bare}"));
            hosts.push(format!("x{bare}"));
            hosts.push(format!("{bare}.evil.net"));
        }
        hosts.extend(["", "com", "evil.net"].map(String::from));

        let subjects = || world.ctlog.entries().iter().map(|e| e.domain.as_str());
        let (mut covered, mut uncovered) = (0, 0);
        for host in &hosts {
            let want = scan_covers(subjects(), host);
            assert_eq!(world.ctlog.covers_host(host), want, "{host}");
            if want {
                covered += 1;
            } else {
                uncovered += 1;
            }
        }
        assert!(covered > 100 && uncovered > 100, "{covered} / {uncovered}");
        assert!(world.ctlog.covers_host("weebly.com"));
        assert!(world.ctlog.covers_host("phish.weebly.com"));

        // The watcher, before and after the wildcards were logged.
        for horizon in [SimTime::from_days(10), SimTime::from_days(30)] {
            let window = world.ctlog.entries_between(SimTime::ZERO, horizon);
            let want: HashSet<String> = records
                .iter()
                .filter(|r| scan_covers(window.iter().map(|e| e.domain.as_str()), url_host(&r.url)))
                .map(|r| r.url.clone())
                .collect();
            assert!(!want.is_empty());
            assert_eq!(CtLogWatcher.discovered(&world, &records, horizon), want);
        }
    }

    #[test]
    fn search_index_finds_few_fwb_attacks() {
        let (world, records) = measured();
        let report = discovery_report(&world, &records, SimTime::from_days(30));
        let idx = report
            .iter()
            .find(|r| r.channel == "search-index miner")
            .unwrap();
        // ≈4% of FWB phishing is indexed (noindex + no inbound links).
        assert!(idx.fwb_recall < 0.09, "{}", idx.fwb_recall);
        assert!(idx.self_hosted_recall > idx.fwb_recall * 2.0);
    }

    #[test]
    fn social_stream_is_the_effective_channel() {
        let (world, records) = measured();
        let report = discovery_report(&world, &records, SimTime::from_days(30));
        let social = report
            .iter()
            .find(|r| r.channel == "social-stream watcher")
            .unwrap();
        // The stream sees nearly everything (a few posts are moderated
        // away before the first poll).
        assert!(social.fwb_recall > 0.9, "{}", social.fwb_recall);
        let ct = report
            .iter()
            .find(|r| r.channel == "CT-log watcher")
            .unwrap();
        assert!(social.fwb_recall > ct.fwb_recall + 0.8);
    }
}
