//! Overlay read-path equivalence: the two-level mmap-baseline + live
//! delta stack must be observationally *bit-identical* to plain journal
//! replay, through overwrites, manual adds, restarts and in-process
//! re-bakes.
//!
//! The contract under test: a baked index is nothing but a cache of a
//! journal prefix, so for every URL — baked-only, overwritten after the
//! bake, appended after the bake, manually added, or never seen — a
//! checker mounted on `bake + suffix replay` returns exactly the verdict
//! a checker that replayed the whole journal returns, down to the f64
//! bits.

use freephish_core::journal::{CheckpointEvent, RunJournal, RunMeta, VerdictEvent};
use freephish_core::verdictstore::{bake_index, EventedStoreChecker, WriteRole};
use freephish_fwbsim::history::Platform;
use freephish_serve::UrlChecker;
use freephish_store::testutil::TempDir;
use freephish_webgen::FwbKind;
use std::path::Path;

fn meta() -> RunMeta {
    RunMeta {
        seed: 17,
        days: 1,
        scale: 0.01,
        benign_fraction: 0.0,
        threshold: 0.5,
        end_secs: 86_400,
    }
}

fn verdict(n: u64, score: f64) -> VerdictEvent {
    VerdictEvent {
        url: format!("https://v{n}.weebly.com/"),
        fwb: FwbKind::Weebly,
        platform: Platform::Twitter,
        post: n,
        observed_at_secs: n * 60,
        score,
    }
}

fn checkpoint(journal: &mut RunJournal, tick: u64) {
    journal
        .checkpoint(CheckpointEvent {
            tick_secs: tick * 60,
            scanned: tick,
            observed: tick,
            detections_total: tick,
        })
        .unwrap();
}

/// Observational fingerprint of one lookup: block decision + exact bits.
fn observe(c: &dyn UrlChecker, url: &str) -> (bool, u64) {
    match c.check(url) {
        freephish_serve::Verdict::Phishing(s) => (true, s.to_bits()),
        freephish_serve::Verdict::Safe(s) => (false, s.to_bits()),
    }
}

/// A URL only ever added through a node's own `ADD` path.
const NODE_ADDED: &str = "https://added-by-the-node.wixsite.com/login";

/// Every URL class the overlay must agree on with pure replay.
fn probe_urls() -> Vec<String> {
    let mut urls: Vec<String> = (0..60)
        .map(|n| format!("https://v{n}.weebly.com/"))
        .collect();
    urls.push("https://never-journaled.wixsite.com/home".to_string());
    urls.push(NODE_ADDED.to_string());
    urls.push(String::new());
    urls
}

fn assert_equivalent(overlaid: &dyn UrlChecker, replayed: &dyn UrlChecker, ctx: &str) {
    for url in probe_urls() {
        assert_eq!(
            observe(overlaid, &url),
            observe(replayed, &url),
            "{ctx}: overlay and replay diverged on {url:?}"
        );
    }
}

/// Write the pre-bake journal: 40 verdicts with distinct score bits.
fn seed_journal(dir: &Path) -> RunJournal {
    let mut journal = RunJournal::create(dir, &meta()).unwrap();
    for n in 0..40 {
        journal
            .append_verdict(verdict(n, 0.5 + n as f64 * 1e-9))
            .unwrap();
    }
    checkpoint(&mut journal, 1);
    journal
}

/// Post-bake suffix: 10 fresh URLs plus overwrites of 10 baked ones with
/// different (bit-distinguishable) scores.
fn append_suffix(journal: &mut RunJournal) {
    for n in 40..50 {
        journal
            .append_verdict(verdict(n, 0.6 + n as f64 * 1e-9))
            .unwrap();
    }
    for n in (0..20).step_by(2) {
        journal
            .append_verdict(verdict(n, 0.75 + n as f64 * 1e-9))
            .unwrap();
    }
    checkpoint(journal, 2);
}

/// Whoever writes `DIR` — the pipeline beside a sidecar node, or an
/// owner node itself — bake + suffix + the node's own additions read
/// back exactly as a replay of everything that was journaled.
#[test]
fn evented_overlay_matches_pure_replay() {
    for role in [WriteRole::Sidecar, WriteRole::Owner] {
        let ctx = format!("{role:?}");
        let dir = TempDir::new("overlay-eq-evented");
        let mut journal = seed_journal(dir.path());
        let bake = dir.path().join("baked.mapidx");
        bake_index(dir.path(), &bake).unwrap();
        append_suffix(&mut journal);
        // An owner is the directory's single writer: the pipeline's
        // handle is gone before the node opens.
        drop(journal);

        let overlaid = EventedStoreChecker::open_as(dir.path(), role, Some(&bake)).unwrap();
        let mut publisher = overlaid.publisher();
        publisher.poll().unwrap();

        // The resumed publisher ingested only the post-cursor suffix into
        // the delta; the baked prefix is served from the mmap.
        assert_eq!(overlaid.overlay().base_len(), 40, "{ctx}");
        assert!((overlaid.index().len() as u64) < 40 + 20, "{ctx}");

        // The node's own additions land wherever the role journals
        // them, the later one winning; an owner's tail then re-reads them
        // from the main WAL. (The URL is one the journal never holds: a
        // sidecar and the main journal are two logs with no order between
        // them, so replay always applies the journal last. Shadowing a
        // *baked* entry is defined, and is what
        // `manual_adds_shadow_the_base_and_survive_reopen` pins.)
        overlaid.add(NODE_ADDED, 0.875).unwrap();
        overlaid.add(NODE_ADDED, 0.625).unwrap();
        publisher.poll().unwrap();
        assert_eq!(
            dir.path().join("extd-adds").exists(),
            role == WriteRole::Sidecar,
            "{ctx}: only a sidecar node keeps a sidecar"
        );

        // An overwritten URL serves the *suffix* score, not the baked
        // one.
        let (hit, bits) = observe(&overlaid, "https://v2.weebly.com/");
        assert!(hit, "{ctx}");
        assert_eq!(bits, (0.75 + 2.0 * 1e-9f64).to_bits(), "{ctx}");

        // Record what the node answers, then stop it: the replay below
        // opens DIR after the node is gone, as a restarted node would,
        // so DIR never has two writers.
        let urls = probe_urls();
        let seen: Vec<_> = urls.iter().map(|u| observe(&overlaid, u)).collect();
        let batch: Vec<_> = overlaid
            .check_many(&urls)
            .iter()
            .map(|v| format!("{v:?}"))
            .collect();
        drop(publisher);
        drop(overlaid);

        // Pure replay, no baseline. The owner's history is replayed the
        // way a follower would read it.
        let replay_role = match role {
            WriteRole::Owner => WriteRole::ReadOnly,
            other => other,
        };
        let replayed = EventedStoreChecker::open_as(dir.path(), replay_role, None).unwrap();
        replayed.publisher().poll().unwrap();
        for (i, url) in urls.iter().enumerate() {
            assert_eq!(
                seen[i],
                observe(&replayed, url),
                "{ctx}: overlay and replay diverged on {url:?}"
            );
        }
        // The added URL replays to the last added score.
        assert_eq!(
            observe(&replayed, NODE_ADDED),
            (true, 0.625f64.to_bits()),
            "{ctx}"
        );

        // Batch reads agree with batch reads, in order.
        for (i, (x, y)) in batch.iter().zip(replayed.check_many(&urls)).enumerate() {
            assert_eq!(
                *x,
                format!("{y:?}"),
                "{ctx}: check_many diverged at {}",
                urls[i]
            );
        }
    }
}

#[test]
fn manual_adds_shadow_the_base_and_survive_reopen() {
    let dir = TempDir::new("overlay-eq-adds");
    let _journal = seed_journal(dir.path());
    let bake = dir.path().join("baked.mapidx");
    bake_index(dir.path(), &bake).unwrap();

    let shadowed = "https://v3.weebly.com/";
    let open = |dir: &Path| {
        let c = EventedStoreChecker::open_with_base(dir, Some(&bake)).unwrap();
        c.publisher().poll().unwrap();
        c
    };

    {
        let checker = open(dir.path());
        let (hit, bits) = observe(&checker, shadowed);
        assert!(hit, "baked entry served");
        assert_eq!(bits, (0.5 + 3.0 * 1e-9f64).to_bits());
        // A durable manual ADD shadows the baked score immediately.
        checker.add(shadowed, 0.97).unwrap();
        assert_eq!(observe(&checker, shadowed), (true, 0.97f64.to_bits()));
    }

    // …and again after a cold reopen: the sidecar replays into the
    // delta, which wins over the mmap baseline.
    let checker = open(dir.path());
    assert_eq!(
        observe(&checker, shadowed),
        (true, 0.97f64.to_bits()),
        "sidecar ADD must shadow the base across restart"
    );
}

#[test]
fn journaled_adds_keep_shadowing_across_an_in_process_rebake() {
    let dir = TempDir::new("overlay-eq-rebake");
    let mut journal = seed_journal(dir.path());
    let bake = dir.path().join("gen1.mapidx");
    bake_index(dir.path(), &bake).unwrap();
    append_suffix(&mut journal);

    let checker = EventedStoreChecker::open_with_base(dir.path(), Some(&bake)).unwrap();
    let mut publisher = checker.publisher();
    publisher.poll().unwrap();
    let overwritten = "https://v4.weebly.com/";
    let want = (true, (0.75 + 4.0 * 1e-9f64).to_bits());
    assert_eq!(observe(&checker, overwritten), want);
    let gen_before = checker.generation();

    // Re-bake in process: gen2 covers the whole journal including the
    // overwrites; the swap must not change a single observable verdict.
    let gen2 = dir.path().join("gen2.mapidx");
    let summary = checker.rebake(&gen2).unwrap();
    assert_eq!(summary.entries, 50, "gen2 bakes the deduped full history");
    assert!(
        checker.generation() > gen_before,
        "base swap must advance the generation for cache invalidation"
    );
    // The node added nothing, so the main journal is everything that was
    // journaled: the replay reads it without opening the node's sidecar,
    // which the live node holds as its single writer.
    let replayed = EventedStoreChecker::open_as(dir.path(), WriteRole::ReadOnly, None).unwrap();
    replayed.publisher().poll().unwrap();
    assert_equivalent(&checker, &replayed, "post-rebake");
    assert_eq!(observe(&checker, overwritten), want);

    // Writes after the re-bake keep landing and keep shadowing.
    journal.append_verdict(verdict(4, 0.999_999_25)).unwrap();
    checkpoint(&mut journal, 3);
    publisher.poll().unwrap();
    assert_eq!(
        observe(&checker, overwritten),
        (true, 0.999_999_25f64.to_bits()),
        "post-rebake journal writes must shadow the new base"
    );
}
