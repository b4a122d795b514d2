//! The assembled simulated world: every external system FreePhish talks to.
//!
//! One [`World`] value owns the 17 FWB hosts, the two platform feeds, the
//! four blocklists, the VirusTotal aggregate, the WHOIS database, the CT
//! log, the search index and the self-hosted population — plus a snapshot
//! registry that plays the role of the crawler (given a URL, return the
//! page HTML if the site is up).

use freephish_ecosim::{Blocklist, BlocklistKind, SearchIndex, VirusTotal};
use freephish_fwbsim::history::Platform;
use freephish_fwbsim::{CtLog, FwbHost, SelfHostedPopulation, WhoisDb};
use freephish_simclock::SimTime;
use freephish_socialsim::PlatformFeed;
use freephish_webgen::FwbKind;
use std::collections::HashMap;

/// The whole simulated ecosystem.
pub struct World {
    /// One host per FWB service, Table 4 order.
    pub hosts: Vec<FwbHost>,
    /// Twitter and Facebook feeds.
    pub twitter: PlatformFeed,
    /// Facebook feed.
    pub facebook: PlatformFeed,
    /// The four blocklists, Table 3 order.
    pub blocklists: Vec<Blocklist>,
    /// The 76-engine aggregate.
    pub virustotal: VirusTotal,
    /// Registrar database (pre-seeded with the FWB domains).
    pub whois: WhoisDb,
    /// Certificate Transparency log.
    pub ctlog: CtLog,
    /// Search-engine index.
    pub search: SearchIndex,
    /// The self-hosted phishing population.
    pub self_hosted: SelfHostedPopulation,
    /// url → (html, takedown time if any): the crawler's view of the web.
    snapshots: HashMap<String, (String, Option<SimTime>)>,
}

impl World {
    /// Build a fresh world from a seed.
    pub fn new(seed: u64) -> World {
        World {
            hosts: FwbKind::all().map(|k| FwbHost::new(k, seed)).collect(),
            twitter: PlatformFeed::new(Platform::Twitter, seed),
            facebook: PlatformFeed::new(Platform::Facebook, seed),
            blocklists: BlocklistKind::ALL
                .iter()
                .map(|&k| Blocklist::new(k, seed))
                .collect(),
            virustotal: VirusTotal::new(seed),
            whois: WhoisDb::with_fwbs(),
            ctlog: CtLog::new(),
            search: SearchIndex::new(),
            self_hosted: SelfHostedPopulation::new(seed),
            snapshots: HashMap::new(),
        }
    }

    /// The host for one FWB service.
    pub fn host(&self, kind: FwbKind) -> &FwbHost {
        self.hosts
            .iter()
            .find(|h| h.kind == kind)
            .expect("all kinds present")
    }

    /// Mutable host access.
    pub fn host_mut(&mut self, kind: FwbKind) -> &mut FwbHost {
        self.hosts
            .iter_mut()
            .find(|h| h.kind == kind)
            .expect("all kinds present")
    }

    /// The feed for a platform.
    pub fn feed(&self, platform: Platform) -> &PlatformFeed {
        match platform {
            Platform::Twitter => &self.twitter,
            Platform::Facebook => &self.facebook,
        }
    }

    /// Mutable feed access.
    pub fn feed_mut(&mut self, platform: Platform) -> &mut PlatformFeed {
        match platform {
            Platform::Twitter => &mut self.twitter,
            Platform::Facebook => &mut self.facebook,
        }
    }

    /// One blocklist.
    pub fn blocklist(&self, kind: BlocklistKind) -> &Blocklist {
        self.blocklists
            .iter()
            .find(|b| b.kind == kind)
            .expect("all blocklists present")
    }

    /// Register a snapshot: `url` serves `html` until `down_at` (if any).
    pub fn register_snapshot(&mut self, url: &str, html: String, down_at: Option<SimTime>) {
        self.snapshots.insert(url.to_string(), (html, down_at));
    }

    /// Update the takedown time of an existing snapshot (called when a
    /// report triggers removal).
    pub fn set_snapshot_down_at(&mut self, url: &str, down_at: Option<SimTime>) {
        if let Some(entry) = self.snapshots.get_mut(url) {
            entry.1 = down_at;
        }
    }

    /// Crawl `url` at time `now`: the page HTML if the site is up.
    pub fn crawl(&self, url: &str, now: SimTime) -> Option<&str> {
        self.snapshots.get(url).and_then(|(html, down)| match down {
            Some(at) if now >= *at => None,
            _ => Some(html.as_str()),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn world_wires_every_subsystem() {
        let w = World::new(1);
        assert_eq!(w.hosts.len(), 17);
        assert_eq!(w.blocklists.len(), 4);
        assert!(w.whois.age_days("weebly.com", 0).is_some());
        assert!(w.ctlog.is_empty());
    }

    #[test]
    fn snapshot_crawl_and_takedown() {
        let mut w = World::new(2);
        w.register_snapshot("https://a.weebly.com/", "<p>up</p>".into(), None);
        assert_eq!(
            w.crawl("https://a.weebly.com/", SimTime::from_days(30)),
            Some("<p>up</p>")
        );
        w.set_snapshot_down_at("https://a.weebly.com/", Some(SimTime::from_hours(5)));
        assert!(w
            .crawl("https://a.weebly.com/", SimTime::from_hours(4))
            .is_some());
        assert!(w
            .crawl("https://a.weebly.com/", SimTime::from_hours(5))
            .is_none());
        assert!(w
            .crawl("https://unknown.weebly.com/", SimTime::ZERO)
            .is_none());
    }

    #[test]
    fn accessors_by_kind() {
        let mut w = World::new(4);
        assert_eq!(w.host(FwbKind::Wix).kind, FwbKind::Wix);
        assert_eq!(w.host_mut(FwbKind::Hpage).kind, FwbKind::Hpage);
        assert_eq!(w.blocklist(BlocklistKind::Gsb).kind, BlocklistKind::Gsb);
        assert_eq!(w.feed(Platform::Twitter).platform, Platform::Twitter);
        assert_eq!(w.feed_mut(Platform::Facebook).platform, Platform::Facebook);
    }
}
