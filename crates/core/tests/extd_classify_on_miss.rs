//! `freephish-extd serve --classify-on-miss` end to end: the daemon trains
//! its resolver models before it listens, so `/readyz` carries no
//! classifier condition; a phishing site of its simulated web that it has
//! never seen is classified and settles as PHISHING, and a real site it
//! cannot fetch stays SAFE.

mod common;

use common::{counter, poll_until, Daemon};
use freephish_core::extension::VerdictClient;
use freephish_core::scaleworld::{ScaleWorld, ScaleWorldConfig};
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

    // Sites of the daemon's simulated web it has never been told about:
    // every CHECK gets a verdict, and a phishing site the pre-filter does
    // not wave through is classified off the serve path, journaled, and
    // from then on answered PHISHING by the index (tier 0). Each CHECK
    // uses a fresh client, because a client caches the verdicts it got.
    let check = |url: &str| {
        VerdictClient::new(serve)
            .check(url)
            .expect("CHECK answered")
    };
    let world = ScaleWorld::new(ScaleWorldConfig::default());
    let phishing: Vec<String> = (0..)
        .map(|i| world.site_at(i))
        .filter(|site| site.phishing)
        .take(16)
        .map(|site| site.url)
        .collect();
    for url in &phishing {
        let v = check(url);
        assert!(v.score().is_finite(), "{url}: {v:?}");
    }
    poll_until("a phishing site answered PHISHING by the index", || {
        let phish = phishing
            .iter()
            .filter(|url| check(url).is_phishing())
            .count();
        let (_, metrics) = http_get(ops, "/metrics").ok()?;
        let tier0 = counter(&metrics, "resolver_tier_hits_total{tier=\"index\"}");
        tier0.filter(|&n| n >= 1 && phish >= 1)
    });

    // A real site is not in the simulated web: it cannot be fetched, so
    // it is cached SAFE and never journaled as phishing.
    let real = "https://www.paypal.com/signin";
    check(real);
    poll_until("every admitted URL to be decided", || {
        let (_, metrics) = http_get(ops, "/metrics").ok()?;
        let n = |name| counter(&metrics, name).unwrap_or(0);
        let decided = n("resolver_classified_total") + n("resolver_fetch_failed_total");
        (decided >= n("resolver_classify_enqueued_total")).then_some(())
    });
    let again = check(real);
    assert!(!again.is_phishing(), "{real} answered {again:?}");
}
