//! Integration test: the verdict service's `STATS` command over real TCP.
//!
//! Issues a known mix of CHECK requests through a `VerdictClient`, then
//! scrapes `STATS` and asserts the served counters match what was issued —
//! via the wire protocol, via `EventedServer::metrics()`, and via the ops
//! plane's `/varz` endpoint. All three are views of one observable
//! snapshot, so they must agree.

use freephish_core::extension::VerdictClient;
use freephish_serve::{http_get, EventedServer, OpsServer, ShardedIndex};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;

#[test]
fn stats_over_tcp_matches_issued_requests() {
    // A published index generation is what flips the engine ready.
    let index = ShardedIndex::with_default_shards();
    index.publish([
        ("https://evil.weebly.com/".to_string(), 0.97),
        ("https://bad.wixsite.com/login".to_string(), 0.91),
    ]);
    let mut server = EventedServer::start(Arc::new(index)).unwrap();
    let client = VerdictClient::new(server.addr());

    // 2 phishing + 3 safe checks; one repeat answered from the cache (no
    // server round trip).
    assert!(client
        .check("https://evil.weebly.com/")
        .unwrap()
        .is_phishing());
    assert!(client
        .check("https://bad.wixsite.com/login")
        .unwrap()
        .is_phishing());
    assert!(!client
        .check("https://fine.weebly.com/")
        .unwrap()
        .is_phishing());
    assert!(!client
        .check("https://ok.wixsite.com/")
        .unwrap()
        .is_phishing());
    assert!(!client
        .check("https://blog.weebly.com/")
        .unwrap()
        .is_phishing());
    assert!(client
        .check("https://evil.weebly.com/")
        .unwrap()
        .is_phishing());

    assert_eq!(client.cache_misses(), 5);
    assert_eq!(client.cache_hits(), 1);
    assert!((client.cache_hit_ratio() - 1.0 / 6.0).abs() < 1e-9);

    // Scrape over the wire.
    let stats = client.stats().unwrap();
    let counters = &stats["counters"];
    assert_eq!(counters["serve_requests_total{kind=\"check\"}"], 5);
    assert_eq!(counters["serve_verdicts_total{kind=\"phishing\"}"], 2);
    assert_eq!(counters["serve_verdicts_total{kind=\"safe\"}"], 3);
    assert_eq!(counters["serve_connections_accepted_total"], 6);
    // The scrape itself was counted before the reply was rendered.
    assert_eq!(counters["serve_requests_total{kind=\"stats\"}"], 1);
    // Service-time histogram saw every CHECK (one microbatch each).
    let latency = &stats["histograms"]["serve_service_seconds"];
    assert_eq!(latency["count"], 5);
    assert!(latency["p99"].as_f64().unwrap() >= 0.0);
    // The rolling windowed SLO quantiles ride the same STATS reply: five
    // CHECKs landed in the current window, so every quantile gauge is
    // present (integer microseconds, so >= 0).
    for q in ["p50", "p99", "p999"] {
        let key = format!("serve_window_latency_us{{cmd=\"check\",q=\"{q}\"}}");
        let v = stats["gauges"]
            .get(&key)
            .unwrap_or_else(|| panic!("STATS missing windowed gauge {key}"));
        assert!(v.as_i64().unwrap() >= 0, "{key} = {v:?}");
    }

    // Second transport, same snapshot: mount the ops plane on the
    // engine and scrape /varz. Monotone counters and the windowed gauges
    // agree with what STATS served.
    let mut ops = OpsServer::start(0, server.ops_config()).unwrap();
    let (code, body) = http_get(ops.addr(), "/varz").unwrap();
    assert_eq!(code, 200, "{body}");
    let varz: serde_json::Value = serde_json::from_str(&body).unwrap();
    assert_eq!(varz["engine"], "evented");
    assert_eq!(varz["counters"]["serve_requests_total{kind=\"check\"}"], 5);
    assert_eq!(
        varz["counters"]["serve_verdicts_total{kind=\"phishing\"}"],
        2
    );
    assert!(
        varz["gauges"]
            .get("serve_window_latency_us{cmd=\"check\",q=\"p999\"}")
            .is_some(),
        "/varz missing windowed gauges: {body}"
    );
    // The index has published a generation, so the engine is ready.
    let (code, _) = http_get(ops.addr(), "/readyz").unwrap();
    assert_eq!(code, 200);
    ops.shutdown();

    // The in-process snapshot agrees with the wire. Workers decrement
    // the active gauge asynchronously after the socket closes, so only
    // the monotone counters are compared.
    let local = server.metrics();
    assert_eq!(
        local.counter("serve_requests_total", &[("kind", "check")]),
        5
    );
    assert_eq!(
        local.counter("serve_requests_total", &[("kind", "stats")]),
        1
    );
    assert_eq!(local.counter("serve_protocol_errors_total", &[]), 0);

    server.shutdown();
}

#[test]
fn stats_and_checks_interleave_on_one_connection() {
    let checker = Arc::new(ShardedIndex::with_default_shards());
    checker.publish([("https://p.weebly.com/".to_string(), 0.9)]);
    let server = EventedServer::start(checker).unwrap();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .write_all(b"CHECK https://p.weebly.com/\nSTATS\nCHECK https://s.weebly.com/\n")
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut lines = Vec::new();
    for _ in 0..3 {
        let mut l = String::new();
        reader.read_line(&mut l).unwrap();
        lines.push(l);
    }
    assert!(lines[0].starts_with("PHISHING"));
    assert!(lines[1].starts_with("STATS {"));
    assert!(lines[2].starts_with("SAFE"));
    let payload: serde_json::Value =
        serde_json::from_str(lines[1].trim_end().strip_prefix("STATS ").unwrap()).unwrap();
    // At the instant the STATS reply was rendered, exactly one CHECK had
    // been served on this connection.
    assert_eq!(
        payload["counters"]["serve_requests_total{kind=\"check\"}"],
        1
    );
}

#[test]
fn protocol_errors_are_counted_not_swallowed() {
    let checker = Arc::new(ShardedIndex::with_default_shards());
    let server = EventedServer::start(checker).unwrap();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream.write_all(b"FETCH x\nSTATS\n").unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut err_line = String::new();
    reader.read_line(&mut err_line).unwrap();
    assert!(err_line.starts_with("ERROR"));
    let mut stats_line = String::new();
    reader.read_line(&mut stats_line).unwrap();
    let payload: serde_json::Value =
        serde_json::from_str(stats_line.trim_end().strip_prefix("STATS ").unwrap()).unwrap();
    assert_eq!(payload["counters"]["serve_protocol_errors_total"], 1);
}
