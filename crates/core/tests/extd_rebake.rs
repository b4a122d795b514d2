//! `freephish-extd serve --rebake-secs` end to end: the serve loop bakes
//! the journal into `DIR/verdicts.mapidx`, and a daemon respawned on that
//! file with `--index-file` answers with the same score bits.

mod common;

use common::{counter, poll_until, Daemon};
use freephish_core::extension::VerdictClient;
use freephish_core::journal::{encode_event, AddEvent, RunEvent};
use freephish_mapidx::SnapshotIndex;
use freephish_serve::http_get;
use freephish_store::testutil::TempDir;
use freephish_store::Store;

/// Score bits of `urls` over the binary `CHECKN` wire, from a fresh
/// client (a client caches what it was told).
fn score_bits(daemon: &Daemon, urls: &[String]) -> Vec<u64> {
    let verdicts = VerdictClient::new(daemon.serve)
        .check_batch_strict(urls)
        .expect("CHECKN answered");
    verdicts.iter().map(|v| v.score().to_bits()).collect()
}

#[test]
fn a_rebaked_index_serves_the_same_score_bits_after_a_restart() {
    let store = TempDir::new("extd-rebake");
    let dir = store.path().to_str().expect("utf-8 temp path");
    // The pipeline's verdict, in the main journal the bake reads.
    let journaled = ("https://journaled-phish.weebly.com/".to_string(), 0.8125);
    {
        let (mut wal, _) = Store::open(store.path()).expect("open the journal");
        let add = RunEvent::Add(AddEvent {
            url: journaled.0.clone(),
            score: journaled.1,
        });
        wal.append(&encode_event(&add)).expect("append");
        wal.sync().expect("sync");
    }
    let added = ("https://wire-added-phish.wixsite.com/x".to_string(), 0.9375);
    let urls = [journaled.0.clone(), added.0.clone()];

    let daemon = Daemon::spawn(&[
        "serve",
        "--port",
        "0",
        "--ops-port",
        "0",
        "--store",
        dir,
        "--rebake-secs",
        "1",
    ]);
    VerdictClient::new(daemon.serve)
        .add(&added.0, added.1)
        .expect("ADD acknowledged");
    let baked = store.path().join("verdicts.mapidx");
    poll_until("the first re-bake", || baked.exists().then_some(()));
    let before = score_bits(&daemon, &urls);
    assert_eq!(before, [journaled.1.to_bits(), added.1.to_bits()]);
    let index = SnapshotIndex::open(&baked).expect("open the bake");
    let in_bake = index.get(&journaled.0).map(f64::to_bits);
    assert_eq!(in_bake, Some(before[0]), "the journal's verdict is baked");
    drop(daemon);

    let index_file = baked.to_str().expect("utf-8 temp path");
    let respawned = Daemon::spawn(&[
        "serve",
        "--port",
        "0",
        "--ops-port",
        "0",
        "--store",
        dir,
        "--index-file",
        index_file,
    ]);
    poll_until("/readyz 200", || match http_get(respawned.ops, "/readyz") {
        Ok((200, _)) => Some(()),
        _ => None,
    });
    assert_eq!(score_bits(&respawned, &urls), before);
    let (_, metrics) = http_get(respawned.ops, "/metrics").expect("scrape /metrics");
    let phishing = counter(&metrics, "serve_verdicts_total{kind=\"phishing\"}");
    assert_eq!(phishing, Some(2), "both answered PHISHING");
}
