//! Integration test: the ops plane's smoke check, in its own process.
//!
//! Starts an in-process evented engine with the ops plane mounted,
//! pushes a little traffic through both protocols, then GETs every
//! endpoint and asserts the responses are well-formed:
//!
//! * `/healthz` → 200 `ok`
//! * `/readyz` → 200 with `"ready": true` (the index published at start)
//! * `/metrics` → Prometheus text with `# HELP` lines and the
//!   `serve_requests_total` family
//! * `/varz` → JSON with counters/gauges/histograms and the engine tag
//! * `/events` and `/traces/slow` → JSON with the expected top-level keys
//! * an unknown path → 404

use freephish_core::extension::VerdictClient;
use freephish_serve::{http_get, EventedServer, OpsServer, ShardedIndex};
use std::net::SocketAddr;
use std::sync::Arc;

fn get_ok(addr: SocketAddr, path: &str) -> String {
    let (code, body) = http_get(addr, path).unwrap_or_else(|e| panic!("GET {path}: {e}"));
    assert_eq!(code, 200, "GET {path} returned {code}: {body}");
    body
}

/// Every ops-plane endpoint answers well-formed after a little traffic.
#[test]
fn every_ops_endpoint_is_well_formed() {
    let index = ShardedIndex::with_default_shards();
    index.publish(vec![("https://evil.weebly.com/login".to_string(), 0.97)]);
    let mut engine = EventedServer::start(Arc::new(index)).expect("start evented engine");
    let mut ops = OpsServer::start(0, engine.ops_config()).expect("start ops plane");
    let addr = ops.addr();

    // A little traffic so the scrape has something to show: a batched
    // CHECKN (binary) and a line-protocol CHECK via the same client.
    let client = VerdictClient::new(engine.addr());
    let urls: Vec<String> = (0..64)
        .map(|i| format!("https://site{i}.wixsite.com/home"))
        .chain(["https://evil.weebly.com/login".to_string()])
        .collect();
    let verdicts = client.check_batch_strict(&urls).expect("CHECKN batch");
    assert!(verdicts.last().unwrap().is_phishing());

    assert_eq!(get_ok(addr, "/healthz").trim(), "ok");

    let readyz = get_ok(addr, "/readyz");
    let ready: serde_json::Value = serde_json::from_str(&readyz).expect("/readyz is JSON");
    assert_eq!(ready["ready"], true, "engine should be ready: {readyz}");

    let metrics = get_ok(addr, "/metrics");
    assert!(metrics.contains("# HELP "), "no HELP lines:\n{metrics}");
    assert!(metrics.contains("# TYPE "), "no TYPE lines:\n{metrics}");
    assert!(
        metrics.contains("serve_requests_total{"),
        "no serve_requests_total family:\n{metrics}"
    );
    assert!(
        metrics.contains("serve_window_latency_us{"),
        "no windowed quantile gauges:\n{metrics}"
    );

    let varz: serde_json::Value =
        serde_json::from_str(&get_ok(addr, "/varz")).expect("/varz is JSON");
    assert_eq!(varz["engine"], "evented");
    for section in ["counters", "gauges", "histograms"] {
        assert!(varz.get(section).is_some(), "/varz missing {section}");
    }

    let events: serde_json::Value =
        serde_json::from_str(&get_ok(addr, "/events")).expect("/events is JSON");
    for key in ["suppressed", "evicted", "events"] {
        assert!(events.get(key).is_some(), "/events missing {key}");
    }

    let traces: serde_json::Value =
        serde_json::from_str(&get_ok(addr, "/traces/slow")).expect("/traces/slow is JSON");
    assert!(
        traces.get("traces").is_some(),
        "/traces/slow missing traces"
    );

    let (code, _) = http_get(addr, "/nope").expect("GET /nope");
    assert_eq!(code, 404, "unknown path should 404");

    ops.shutdown();
    engine.shutdown();
}
