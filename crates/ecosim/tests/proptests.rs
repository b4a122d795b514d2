//! Property tests over the ecosystem simulators: listing fates and scan
//! counts must behave like the real services' observable APIs.

use freephish_ecosim::{Blocklist, BlocklistKind, HostClass, VirusTotal, VT_ENGINE_COUNT};
use freephish_simclock::prop::{check, Gen};
use freephish_simclock::SimTime;
use freephish_webgen::FwbKind;

fn any_fwb(g: &mut Gen) -> FwbKind {
    FwbKind::all().nth(g.usize_in(0..17)).unwrap()
}

fn any_list(g: &mut Gen) -> BlocklistKind {
    *g.pick(&BlocklistKind::ALL)
}

/// Blocklist membership is monotone in time: once listed, always listed.
#[test]
fn listing_is_monotone() {
    check(256, |g| {
        let mut bl = Blocklist::new(any_list(g), g.u64());
        bl.ingest(
            "https://x.example/",
            HostClass::Fwb(any_fwb(g)),
            SimTime::ZERO,
        );
        let t1 = g.u64_in(0..1_000_000);
        let dt = g.u64_in(0..1_000_000);
        let early = bl.is_listed("https://x.example/", SimTime::from_secs(t1));
        let late = bl.is_listed("https://x.example/", SimTime::from_secs(t1 + dt));
        assert!(!early || late, "listing must never be retracted");
    });
}

/// A listed URL's listing time is never before the URL was first seen.
#[test]
fn listing_never_precedes_first_seen() {
    check(256, |g| {
        let mut bl = Blocklist::new(any_list(g), g.u64());
        let fwb = any_fwb(g);
        let t0 = SimTime::from_secs(g.u64_in(0..1_000_000));
        for i in 0..50 {
            bl.ingest(&format!("https://u{i}.example/"), HostClass::Fwb(fwb), t0);
        }
        for i in 0..50 {
            if let Some(at) = bl.listing_time(&format!("https://u{i}.example/")) {
                assert!(at >= t0);
            }
        }
    });
}

/// VT scans are monotone in time and bounded by the engine count.
#[test]
fn vt_scan_monotone_and_bounded() {
    check(256, |g| {
        let mut vt = VirusTotal::new(g.u64());
        let class = if g.bool() {
            HostClass::SelfHosted
        } else {
            HostClass::Fwb(FwbKind::Weebly)
        };
        vt.register("https://m.example/", class, SimTime::ZERO);
        let mut checkpoints = g.vec(1..8, |g| g.u64_in(0..20));
        checkpoints.sort_unstable();
        let mut prev = 0;
        for d in checkpoints {
            let c = vt.scan("https://m.example/", SimTime::from_days(d));
            assert!(c >= prev);
            assert!(c <= VT_ENGINE_COUNT);
            prev = c;
        }
    });
}

/// Per-URL fates are independent of ingestion order of *other* URLs'
/// queries: scanning one URL never mutates another.
#[test]
fn scans_are_pure_reads() {
    check(256, |g| {
        let mut vt = VirusTotal::new(g.u64());
        vt.register("https://a.example/", HostClass::SelfHosted, SimTime::ZERO);
        vt.register("https://b.example/", HostClass::SelfHosted, SimTime::ZERO);
        let t = SimTime::from_days(3);
        let a1 = vt.scan("https://a.example/", t);
        // Interleave scans of b.
        for d in 0..5 {
            let _ = vt.scan("https://b.example/", SimTime::from_days(d));
        }
        let a2 = vt.scan("https://a.example/", t);
        assert_eq!(a1, a2);
    });
}
