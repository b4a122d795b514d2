//! Property tests over the hosting simulator: takedown state machines and
//! registries must behave like real infrastructure.

use freephish_fwbsim::history::{self, HistoryConfig};
use freephish_fwbsim::{CtLog, FwbHost, SelfHostedPopulation, WhoisDb};
use freephish_simclock::prop::{check, Gen};
use freephish_simclock::{Rng64, SimTime};
use freephish_webgen::{FwbKind, PageKind, PageSpec};

fn any_fwb(g: &mut Gen) -> FwbKind {
    FwbKind::all().nth(g.usize_in(0..17)).unwrap()
}

fn make_site(fwb: FwbKind, i: u64) -> freephish_webgen::GeneratedSite {
    PageSpec {
        fwb,
        kind: PageKind::CredentialPhish {
            brand: (i % 100) as usize,
        },
        site_name: format!("prop-{i}"),
        noindex: false,
        obfuscate_banner: false,
        seed: i,
    }
    .generate()
}

/// Once removed, a site never serves again; while unreported, it always
/// serves.
#[test]
fn takedown_is_permanent() {
    check(256, |g| {
        let (fwb, seed) = (any_fwb(g), g.u64());
        let mut host = FwbHost::new(fwb, seed);
        let id = host.publish(make_site(fwb, seed), SimTime::ZERO);
        let outcome = host.report_abuse(id, SimTime::from_mins(g.u64_in(0..10_000)));
        let site = host.site(id);
        for p in g.vec(1..8, |g| g.u64_in(0..2_000_000)) {
            let t = SimTime::from_secs(p);
            match outcome.removal_at {
                Some(at) => assert_eq!(site.is_active(t), t < at),
                None => assert!(site.is_active(t)),
            }
        }
    });
}

/// Removal, when it happens, is strictly after the report.
#[test]
fn removal_after_report() {
    check(256, |g| {
        let fwb = any_fwb(g);
        let mut host = FwbHost::new(fwb, g.u64());
        let report_at = SimTime::from_mins(30);
        for i in 0..50u64 {
            let id = host.publish(make_site(fwb, i), SimTime::ZERO);
            if let Some(at) = host.report_abuse(id, report_at).removal_at {
                assert!(at > report_at);
            }
        }
    });
}

/// WHOIS ages only grow with time, for any mix of aged and fresh
/// registrations.
#[test]
fn whois_ages_monotone() {
    check(256, |g| {
        let mut db = WhoisDb::default();
        db.register_aged("old.example", g.u64_in(0..20_000));
        db.register_fresh("fresh.example", g.u64_in(0..1_000));
        let d1 = g.u64_in(0..2_000);
        let dd = g.u64_in(0..2_000);
        for domain in ["old.example", "fresh.example"] {
            let a = db.age_days(domain, d1);
            let b = db.age_days(domain, d1 + dd);
            if let (Some(a), Some(b)) = (a, b) {
                assert!(b >= a, "{domain}: {a} then {b}");
            }
        }
    });
}

/// Self-hosted spawns always leave both a WHOIS record and a CT entry —
/// the discovery trail FWB attacks lack.
#[test]
fn self_hosted_always_leaves_trail() {
    check(256, |g| {
        let mut pop = SelfHostedPopulation::new(g.u64());
        let mut whois = WhoisDb::default();
        let mut ct = CtLog::new();
        let brand = g.usize_in(0..109);
        let i = pop.spawn(brand, SimTime::from_days(1), &mut whois, &mut ct);
        let site = &pop.sites()[i];
        assert!(whois.age_days(&site.domain, 1).is_some());
        assert!(ct.covers_host(&site.domain));
    });
}

/// The historical generator respects its total for any config.
#[test]
fn history_total_respected() {
    check(256, |g| {
        let total = g.usize_in(100..2_000);
        let growth = g.f64_in(1.0..1.6);
        let mut rng = Rng64::new(42);
        let records = history::generate(
            &HistoryConfig {
                total,
                growth,
                ..HistoryConfig::default()
            },
            &mut rng,
        );
        assert_eq!(records.len(), total);
        assert!(records.iter().all(|r| r.quarter < history::QUARTERS.len()));
        assert!(records.iter().all(|r| r.brand < 109));
    });
}
