//! `freephish-extd serve --classify-on-miss` end to end: the daemon trains
//! its resolver models before it listens, so `/readyz` carries no
//! classifier condition and the first URL it has never seen is classified.

use freephish_core::extension::VerdictClient;
use freephish_core::groundtruth::{build, GroundTruthConfig};
use freephish_core::verdictstore::EventedStoreChecker;
use freephish_serve::http_get;
use freephish_store::testutil::TempDir;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// The spawned daemon, killed and reaped on every exit path.
struct Daemon(Child);

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Retry `probe` every 20 ms until it yields a value, for up to a minute.
fn poll_until<T>(what: &str, mut probe: impl FnMut() -> Option<T>) -> T {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        if let Some(v) = probe() {
            return v;
        }
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// The first whitespace-separated token after `prefix` in `line`.
fn addr_after(line: &str, prefix: &str) -> Option<SocketAddr> {
    let rest = line.split(prefix).nth(1)?;
    rest.split_whitespace().next()?.parse().ok()
}

/// An unlabelled counter's value in a Prometheus text scrape.
fn counter(metrics: &str, name: &str) -> Option<u64> {
    metrics
        .lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.trim().parse().ok())
}

#[test]
fn classify_on_miss_daemon_is_ready_without_a_warm_up_and_classifies_a_new_url() {
    let store = TempDir::new("extd-classify-on-miss");
    // A store-backed node is ready once its index has published a
    // generation, so the journal starts out holding one known verdict.
    EventedStoreChecker::open(store.path())
        .and_then(|node| node.add_durable("https://known-phish.weebly.com/", 0.99))
        .expect("seed the store");
    let child = Command::new(env!("CARGO_BIN_EXE_freephish-extd"))
        .args(["serve", "--port", "0", "--ops-port", "0", "--store"])
        .arg(store.path())
        .arg("--classify-on-miss")
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn freephish-extd");
    let mut daemon = Daemon(child);

    let stdout = daemon.0.stdout.take().expect("piped stdout");
    let mut lines = BufReader::new(stdout).lines();
    let (mut serve, mut ops) = (None, None);
    while serve.is_none() || ops.is_none() {
        let line = lines
            .next()
            .expect("daemon exited during start-up")
            .expect("read daemon stdout");
        serve = serve.or_else(|| addr_after(&line, "listening on "));
        ops = ops.or_else(|| addr_after(&line, "ops plane on http://"));
    }
    let (serve, ops) = (serve.unwrap(), ops.unwrap());
    // Keep draining stdout so the daemon never blocks on a full pipe.
    std::thread::spawn(move || lines.for_each(drop));

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
