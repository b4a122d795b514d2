//! `freephish-extd serve --classify-on-miss` end to end: the daemon trains
//! its resolver models before it listens, so `/readyz` carries no
//! classifier condition and the first URL it has never seen is classified.

mod common;

use common::{counter, poll_until, Daemon};
use freephish_core::extension::VerdictClient;
use freephish_core::groundtruth::{build, GroundTruthConfig};
use freephish_core::verdictstore::EventedStoreChecker;
use freephish_serve::http_get;
use freephish_store::testutil::TempDir;

#[test]
fn classify_on_miss_daemon_is_ready_without_a_warm_up_and_classifies_a_new_url() {
    let store = TempDir::new("extd-classify-on-miss");
    // A store-backed node is ready once its index has published a
    // generation, so the journal starts out holding one known verdict.
    EventedStoreChecker::open(store.path())
        .and_then(|node| node.add_durable("https://known-phish.weebly.com/", 0.99))
        .expect("seed the store");
    let dir = store.path().to_str().expect("utf-8 temp path");
    let daemon = Daemon::spawn(&[
        "serve",
        "--port",
        "0",
        "--ops-port",
        "0",
        "--store",
        dir,
        "--classify-on-miss",
    ]);
    let (serve, ops) = (daemon.serve, daemon.ops);

    let readyz = poll_until("/readyz 200", || match http_get(ops, "/readyz") {
        Ok((200, body)) => Some(body),
        _ => None,
    });
    let readyz: serde_json::Value = serde_json::from_str(&readyz).expect("/readyz is JSON");
    assert_eq!(readyz["ready"], true, "{readyz:?}");
    let conditions = readyz["conditions"].as_object().expect("conditions object");
    assert!(
        !conditions.contains_key("classifier_warm"),
        "trained before listening, so nothing to wait for: {readyz:?}"
    );

    // URLs the daemon has never been told about: every CHECK gets a
    // verdict, and the ones the pre-filter does not wave through are
    // classified off the serve path.
    let client = VerdictClient::new(serve);
    let unseen = build(&GroundTruthConfig {
        n_phish: 8,
        n_benign: 0,
        seed: 0xC0FFEE,
    });
    for site in &unseen {
        let v = client.check(&site.site.url).expect("CHECK answered");
        assert!(v.score().is_finite(), "{}: {v:?}", site.site.url);
    }
    poll_until("resolver_classified_total >= 1", || {
        let (_, metrics) = http_get(ops, "/metrics").ok()?;
        counter(&metrics, "resolver_classified_total").filter(|&n| n >= 1)
    });
}
