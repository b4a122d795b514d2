//! The cluster's write path, at library level: an owner-role node is the
//! single writer of its directory, and everything it acknowledges — a
//! wire `ADD`, an inline classify-on-miss verdict — is in the main WAL
//! before the `OK`, ships to a follower through replication, and is
//! served there by a read-only node that refuses writes of its own.

use freephish_cluster::{Replica, ReplicaConfig, ReplicationSource};
use freephish_core::extension::{UrlChecker, Verdict, VerdictClient};
use freephish_core::groundtruth::{build, GroundTruthConfig};
use freephish_core::resolver::{
    ManualClock, MapFetcher, ResolverModels, TieredResolver, TieredResolverConfig,
};
use freephish_core::verdictstore::{EventedStoreChecker, WriteRole, ADDS_SUBDIR};
use freephish_serve::EventedServer;
use freephish_store::testutil::TempDir;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What a fresh reader of `dir` — no writer of its own — serves for `url`.
fn read_back(dir: &Path, url: &str) -> Verdict {
    let reader = EventedStoreChecker::open_as(dir, WriteRole::ReadOnly, None).unwrap();
    reader.publisher().poll().unwrap();
    reader.check(url)
}

#[test]
fn an_owner_acknowledges_an_add_only_once_it_is_in_the_main_wal() {
    let dir = TempDir::new("node-owner-wire");
    let acked: Vec<(String, f64)> = (0..8)
        .map(|i| {
            (
                format!("https://owned{i}.weebly.com/login"),
                0.9 + i as f64 * 1e-9,
            )
        })
        .collect();
    {
        let node =
            Arc::new(EventedStoreChecker::open_as(dir.path(), WriteRole::Owner, None).unwrap());
        let server = EventedServer::start(node.clone()).unwrap();
        let client = VerdictClient::new(server.addr());
        for (url, score) in &acked {
            client.add(url, *score).unwrap();
            // The OK is back, so the record is already in the directory's
            // own WAL — without the node's tail ever having been polled.
            assert_eq!(read_back(dir.path(), url), Verdict::Phishing(*score));
        }
        // Everything is dropped here with no sync().
    }
    assert!(
        !dir.path().join(ADDS_SUBDIR).exists(),
        "an owner journals in the main WAL, never in a sidecar"
    );
    let reopened = EventedStoreChecker::open_as(dir.path(), WriteRole::Owner, None).unwrap();
    reopened.publisher().poll().unwrap();
    for (url, score) in &acked {
        match reopened.check(url) {
            Verdict::Phishing(s) => assert_eq!(s.to_bits(), score.to_bits(), "{url}"),
            miss => panic!("{url} was acknowledged and is now {miss:?}"),
        }
    }
}

/// Every file the follower holds is a prefix of the primary's file of
/// the same name.
fn assert_dir_is_a_prefix(follower: &Path, primary: &Path) {
    let mut files = 0;
    for entry in std::fs::read_dir(follower).unwrap() {
        let name = entry.unwrap().file_name();
        let ours = std::fs::read(follower.join(&name)).unwrap();
        let theirs = std::fs::read(primary.join(&name))
            .unwrap_or_else(|e| panic!("follower holds {name:?}, the primary does not: {e}"));
        assert!(
            theirs.starts_with(&ours),
            "{name:?} diverges from the primary's"
        );
        files += 1;
    }
    assert!(files > 0, "the follower replicated nothing");
}

#[test]
fn a_follower_serves_what_the_primary_acknowledged_and_refuses_writes() {
    let primary_dir = TempDir::new("node-primary");
    let follower_dir = TempDir::new("node-follower");

    // The primary: an owner node, its WAL shipped by a replication source.
    let primary =
        Arc::new(EventedStoreChecker::open_as(primary_dir.path(), WriteRole::Owner, None).unwrap());
    let source = ReplicationSource::start(primary_dir.path()).unwrap();
    let primary_server = EventedServer::start(primary.clone()).unwrap();

    // One verdict arrives as a wire ADD …
    let reported = "https://reported.wixsite.com/login";
    VerdictClient::new(primary_server.addr())
        .add(reported, 0.97)
        .unwrap();

    // … and one is classified inline by the resolver mounted on the node.
    let cfg = TieredResolverConfig::default();
    let corpus = build(&GroundTruthConfig::tiny());
    let models = Arc::new(ResolverModels::train(&corpus, &cfg).with_cutoff(0.0));
    let phish = corpus.iter().find(|s| s.label == 1).unwrap();
    let fetcher = Arc::new(MapFetcher::new());
    fetcher.insert(&phish.site.url, &phish.site.html);
    let resolver = TieredResolver::with_models(
        primary.clone(),
        fetcher,
        Arc::new(ManualClock::new()),
        models,
        cfg,
    );
    let _ = resolver.check(&phish.site.url);
    assert!(resolver.drain(Duration::from_secs(60)));
    let classified = primary.check(&phish.site.url);
    assert!(
        classified.is_phishing(),
        "the inline verdict was journaled through the node"
    );

    // The follower: a replica mirroring the WAL, a read-only node on it.
    let replica =
        Replica::start(source.addr(), follower_dir.path(), ReplicaConfig::default()).unwrap();
    let follower = Arc::new(
        EventedStoreChecker::open_as(follower_dir.path(), WriteRole::ReadOnly, None).unwrap(),
    );
    let mut tail = follower.publisher();
    let deadline = Instant::now() + Duration::from_secs(20);
    while !(replica.caught_up() && tail.poll().is_ok() && follower.check(reported).is_phishing()) {
        assert!(Instant::now() < deadline, "the follower never caught up");
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(follower.check(reported), Verdict::Phishing(0.97));
    assert_eq!(follower.check(&phish.site.url), classified);

    // Its own wire refuses writes, and nothing reached its directory but
    // the primary's bytes.
    let follower_server = EventedServer::start(follower.clone()).unwrap();
    let refused = VerdictClient::new(follower_server.addr())
        .add("https://late.weebly.com/", 0.9)
        .unwrap_err();
    assert!(
        refused
            .to_string()
            .contains("read-only follower replica; send ADDs to the primary"),
        "{refused}"
    );
    assert!(!follower.check("https://late.weebly.com/").is_phishing());
    replica.shutdown();
    assert_dir_is_a_prefix(follower_dir.path(), primary_dir.path());
}
