//! End-to-end tests of the ops plane mounted on the evented engine.
//!
//! Two scenarios the unit tests cannot cover:
//!
//! * **readiness under load** — an engine whose index has not published
//!   yet reports 503 on `/readyz`; while client traffic and `/metrics`
//!   scrapes run concurrently, the first publish flips it to 200 exactly
//!   once, and verdicts served before/after the flip match what the
//!   checker itself says (scraping never perturbs the serve path).
//! * **slow capture** — a deterministic outlier request (the checker
//!   stalls on a magic URL) lands in `/traces/slow` with the full
//!   accept → decode → lookup → respond span breakdown.

use freephish_serve::{http_get, EventedServer, OpsServer, ShardedIndex, UrlChecker, Verdict};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One synchronous line-protocol CHECK round trip.
fn check_line(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>, url: &str) -> String {
    stream
        .write_all(format!("CHECK {url}\n").as_bytes())
        .expect("write CHECK");
    let mut line = String::new();
    reader.read_line(&mut line).expect("read verdict");
    assert!(!line.is_empty(), "server closed mid-run");
    line
}

fn connect(addr: std::net::SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).ok();
    let reader = BufReader::new(stream.try_clone().expect("clone stream"));
    (stream, reader)
}

#[test]
fn readiness_flips_once_under_concurrent_load() {
    // Unpublished index: the engine serves (everything SAFE) but is not
    // ready — no generation has been published.
    let index = Arc::new(ShardedIndex::with_default_shards());
    let mut engine = EventedServer::start(index.clone()).expect("start engine");
    let mut ops = OpsServer::start(0, engine.ops_config()).expect("start ops");
    let serve_addr = engine.addr();
    let ops_addr = ops.addr();

    let (code, body) = http_get(ops_addr, "/readyz").expect("GET /readyz");
    assert_eq!(code, 503, "unpublished index must be not-ready: {body}");
    assert!(body.contains("\"ready\": false") || body.contains("\"ready\":false"));

    // Concurrent load: two traffic threads checking URLs, one scraper
    // hammering /metrics. All run across the publish.
    let stop = Arc::new(AtomicBool::new(false));
    let mut workers = Vec::new();
    for tid in 0..2usize {
        let stop = stop.clone();
        workers.push(std::thread::spawn(move || {
            let (mut s, mut r) = connect(serve_addr);
            let mut i = tid.wrapping_mul(7919);
            while !stop.load(Ordering::SeqCst) {
                let url = format!("https://site{}.wixsite.com/home", i % 64);
                i += 1;
                let line = check_line(&mut s, &mut r, &url);
                assert!(
                    line.starts_with("SAFE") || line.starts_with("PHISHING"),
                    "{line:?}"
                );
            }
        }));
    }
    {
        let stop = stop.clone();
        workers.push(std::thread::spawn(move || {
            while !stop.load(Ordering::SeqCst) {
                let (code, body) = http_get(ops_addr, "/metrics").expect("GET /metrics");
                assert_eq!(code, 200);
                assert!(body.contains("# HELP "), "no HELP lines:\n{body}");
                assert!(body.contains("serve_requests_total{"), "{body}");
            }
        }));
    }

    // Poll /readyz while the publish lands, recording every observation.
    let mut observed = Vec::new();
    let mut published = false;
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs(10);
    loop {
        let (code, _) = http_get(ops_addr, "/readyz").expect("GET /readyz");
        observed.push(code == 200);
        if !published && t0.elapsed() > Duration::from_millis(100) {
            index.publish(vec![("https://evil.weebly.com/login".to_string(), 0.97)]);
            published = true;
        }
        if *observed.last().unwrap() && observed.len() >= 3 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "never became ready: {observed:?}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    // Exactly one false→true flip, and no flip back.
    let flips = observed.windows(2).filter(|w| w[0] != w[1]).count();
    assert_eq!(flips, 1, "readiness must flip exactly once: {observed:?}");
    assert!(!observed[0], "must start not-ready");
    assert!(*observed.last().unwrap(), "must end ready");

    // Check equivalence under scraping: the served verdict for every URL
    // matches a direct checker call.
    let (mut s, mut r) = connect(serve_addr);
    for url in [
        "https://evil.weebly.com/login",
        "https://site0.wixsite.com/home",
    ] {
        let line = check_line(&mut s, &mut r, url);
        let wire_phishing = line.starts_with("PHISHING");
        assert_eq!(
            wire_phishing,
            index.check(url).is_phishing(),
            "wire and checker disagree for {url}: {line:?}"
        );
    }

    stop.store(true, Ordering::SeqCst);
    for w in workers {
        w.join().expect("worker panicked");
    }
    ops.shutdown();
    engine.shutdown();
    assert!(engine.drain(Duration::from_secs(5)));
}

#[test]
fn readiness_with_composed_condition_still_flips_exactly_once() {
    // Engine readiness (index published) composed with one wrapper
    // condition, as the daemon composes its journal-tail and replication
    // conditions; the name here is only a label. The two become true at
    // different times; /readyz must go 503→200 exactly once, only after
    // BOTH hold.
    let index = Arc::new(ShardedIndex::with_default_shards());
    let warm = Arc::new(AtomicBool::new(false));
    let mut engine = EventedServer::start(index.clone()).expect("start engine");
    let hook = warm.clone();
    let cfg = engine.ops_config().with_ready_condition(
        "classifier_warm",
        Arc::new(move || hook.load(Ordering::SeqCst)),
    );
    let mut ops = OpsServer::start(0, cfg).expect("start ops");
    let ops_addr = ops.addr();

    let mut observed = Vec::new();
    let mut published = false;
    let mut warmed = false;
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs(10);
    loop {
        let (code, body) = http_get(ops_addr, "/readyz").expect("GET /readyz");
        observed.push(code == 200);
        if published && !warmed {
            // Engine is ready but the classifier is not: the composed
            // condition must hold /readyz at 503 and say why.
            assert_eq!(code, 503, "classifier_warm=false must gate readiness");
            assert!(
                body.contains("\"classifier_warm\": false")
                    || body.contains("\"classifier_warm\":false")
            );
        }
        if !published && t0.elapsed() > Duration::from_millis(50) {
            index.publish(vec![("https://evil.weebly.com/login".to_string(), 0.97)]);
            published = true;
        }
        if published && !warmed && t0.elapsed() > Duration::from_millis(150) {
            warm.store(true, Ordering::SeqCst);
            warmed = true;
        }
        if *observed.last().unwrap() && observed.len() >= 3 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "never became ready: {observed:?}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    let flips = observed.windows(2).filter(|w| w[0] != w[1]).count();
    assert_eq!(
        flips, 1,
        "composed readiness must flip exactly once: {observed:?}"
    );
    assert!(!observed[0], "must start not-ready");
    assert!(*observed.last().unwrap(), "must end ready");

    ops.shutdown();
    engine.shutdown();
    assert!(engine.drain(Duration::from_secs(5)));
}

/// Wraps the production index, stalling any lookup that involves the
/// magic URL — a deterministic slow outlier for slow capture.
struct SlowOnMagic {
    inner: ShardedIndex,
}

const MAGIC: &str = "https://magic-slow.weebly.com/login";
const STALL: Duration = Duration::from_millis(40);

impl UrlChecker for SlowOnMagic {
    fn check(&self, url: &str) -> Verdict {
        if url == MAGIC {
            std::thread::sleep(STALL);
        }
        self.inner.check(url)
    }

    fn check_many(&self, urls: &[String]) -> Vec<Verdict> {
        if urls.iter().any(|u| u == MAGIC) {
            std::thread::sleep(STALL);
        }
        self.inner.check_many(urls)
    }

    fn add(&self, url: &str, score: f64) -> Result<u64, String> {
        self.inner.add(url, score)
    }

    fn generation(&self) -> u64 {
        self.inner.generation()
    }
}

#[test]
fn slow_request_lands_in_traces_slow_with_spans() {
    let index = ShardedIndex::with_default_shards();
    index.publish(vec![(MAGIC.to_string(), 0.99)]);
    let mut engine =
        EventedServer::start(Arc::new(SlowOnMagic { inner: index })).expect("start engine");
    let mut ops = OpsServer::start(0, engine.ops_config()).expect("start ops");

    // A fast baseline so the rolling p99 threshold settles far below the
    // stall, then the one deterministic outlier.
    let (mut s, mut r) = connect(engine.addr());
    for i in 0..60 {
        let line = check_line(&mut s, &mut r, &format!("https://fast{i}.wixsite.com/"));
        assert!(line.starts_with("SAFE"), "{line:?}");
    }
    let line = check_line(&mut s, &mut r, MAGIC);
    assert!(line.starts_with("PHISHING"), "{line:?}");

    let (code, body) = http_get(ops.addr(), "/traces/slow").expect("GET /traces/slow");
    assert_eq!(code, 200);
    let json: serde_json::Value = serde_json::from_str(&body).expect("/traces/slow is JSON");
    let traces = json["traces"].as_array().expect("traces array");
    let slow = traces
        .iter()
        .find(|t| t["total_us"].as_f64().unwrap_or(0.0) >= STALL.as_micros() as f64)
        .unwrap_or_else(|| panic!("no trace as slow as the stall in {body}"));
    assert_eq!(slow["command"], "check");
    assert_eq!(slow["slow"], true);
    let span_names: Vec<&str> = slow["spans"]
        .as_array()
        .expect("spans array")
        .iter()
        .map(|sp| sp["name"].as_str().expect("span name"))
        .collect();
    for stage in ["accept", "decode", "lookup", "respond"] {
        assert!(
            span_names.contains(&stage),
            "missing {stage} span in {span_names:?}"
        );
    }
    // The stall happened inside the lookup stage, and the trace says so.
    let lookup_us = slow["spans"]
        .as_array()
        .unwrap()
        .iter()
        .find(|sp| sp["name"] == "lookup")
        .and_then(|sp| sp["dur_us"].as_f64())
        .expect("lookup span duration");
    assert!(
        lookup_us >= STALL.as_micros() as f64 * 0.9,
        "lookup span too short: {lookup_us}µs"
    );

    // The capture is visible in the scrape counters too.
    let (code, metrics) = http_get(ops.addr(), "/metrics").expect("GET /metrics");
    assert_eq!(code, 200);
    let captured = metrics
        .lines()
        .find(|l| l.starts_with("trace_slow_captured_total"))
        .and_then(|l| l.split_whitespace().last())
        .and_then(|v| v.parse::<u64>().ok())
        .expect("trace_slow_captured_total in /metrics");
    assert!(captured >= 1, "slow capture not counted:\n{metrics}");

    ops.shutdown();
    engine.shutdown();
    assert!(engine.drain(Duration::from_secs(5)));
}
