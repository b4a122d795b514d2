//! Integration: the serving engine answers the seeded verdicts under
//! concurrent mixed traffic (CHECK, batched CHECKN, ADD, STATS), and its
//! admission control sheds with `BUSY` instead of queueing when the
//! in-flight budget is saturated.

use freephish::core::extension::VerdictClient;
use freephish::serve::{EventedServer, ServeConfig, ShardedIndex, UrlChecker, Verdict};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn seeded_entries(n: usize) -> Vec<(String, f64)> {
    (0..n)
        .map(|i| (format!("https://evil{i}.weebly.com/login"), 0.9))
        .collect()
}

#[test]
fn concurrent_mixed_load_serves_the_seeded_verdicts() {
    const CLIENTS: usize = 32;
    let entries = seeded_entries(64);
    // The oracle: what was seeded is phishing at its seeded score, the
    // probe URLs outside it are not.
    let oracle: Arc<HashMap<String, f64>> = Arc::new(entries.iter().cloned().collect());
    let index = ShardedIndex::with_default_shards();
    index.publish(entries.clone());
    let mut server = EventedServer::start(Arc::new(index)).unwrap();
    let addr = server.addr();

    let mut handles = Vec::new();
    for c in 0..CLIENTS {
        let entries = entries.clone();
        let oracle = oracle.clone();
        handles.push(std::thread::spawn(move || {
            let client = VerdictClient::with_seed(addr, c as u64);
            let expect = |url: &str, v: Verdict, wire: &str| match oracle.get(url) {
                Some(&score) => assert_eq!(v, Verdict::Phishing(score), "{wire} on {url}"),
                None => assert!(!v.is_phishing(), "{wire} on {url}"),
            };

            // Single CHECKs over a mix of seeded and unknown URLs.
            let probe: Vec<String> = (0..8)
                .map(|i| entries[(c * 7 + i * 3) % entries.len()].0.clone())
                .chain((0..4).map(|i| format!("https://clean{c}-{i}.wixsite.com/")))
                .collect();
            for url in &probe {
                expect(url, client.check(url).unwrap(), "CHECK");
            }

            // Batched checks over binary CHECKN.
            let batch: Vec<String> = (0..16)
                .map(|i| entries[(c * 5 + i) % entries.len()].0.clone())
                .chain((0..4).map(|i| format!("https://batch{c}-{i}.weebly.com/")))
                .collect();
            let verdicts = client.check_batch_strict(&batch).unwrap();
            assert_eq!(verdicts.len(), batch.len());
            for (url, v) in batch.iter().zip(verdicts) {
                expect(url, v, "CHECKN");
            }

            // An ADD unique to this client.
            let mine = format!("https://added-by-{c}.weebly.com/");
            client.add(&mine, 0.91).unwrap();
            assert!(client.check(&mine).unwrap().is_phishing());

            // A STATS scrape mid-storm.
            assert!(client.stats().unwrap().as_object().is_some());
            mine
        }));
    }
    let added: Vec<String> = handles.into_iter().map(|h| h.join().unwrap()).collect();

    // After the storm every seeded and added URL is still served.
    let client = VerdictClient::new(addr);
    for (url, _) in &entries {
        assert!(client.check(url).unwrap().is_phishing(), "{url}");
    }
    for url in &added {
        assert!(client.check(url).unwrap().is_phishing(), "{url}");
    }

    // The batches really travelled over the binary protocol.
    let snap = server.metrics();
    assert!(snap.counter("serve_requests_total", &[("kind", "checkn")]) >= CLIENTS as u64);

    // Clean shutdown with every worker joined.
    server.shutdown();
    assert!(server.drain(Duration::from_secs(5)));
}

/// Read one `\n`-terminated line byte-by-byte off a raw stream.
fn read_line_raw(stream: &mut TcpStream) -> Vec<u8> {
    let mut line = Vec::new();
    let mut byte = [0u8; 1];
    loop {
        let n = stream
            .read(&mut byte)
            .expect("reply must arrive before the read timeout");
        assert!(n > 0, "server closed mid-line");
        if byte[0] == b'\n' {
            return line;
        }
        line.push(byte[0]);
    }
}

#[test]
fn saturated_budget_sheds_with_busy_not_a_hang() {
    // A checker that holds the only budget unit for two seconds.
    let slow = |_: &str| {
        std::thread::sleep(Duration::from_secs(2));
        Verdict::Safe(0.0)
    };
    let checker: Arc<dyn UrlChecker> = Arc::new(slow);
    let cfg = ServeConfig {
        workers: 2,
        max_inflight_urls: 1,
        ..ServeConfig::default()
    };
    let server = EventedServer::start_with(cfg, checker).unwrap();

    // The first connection lands on worker 0 (round-robin) and its CHECK
    // occupies the whole budget inside the slow checker.
    let mut a = TcpStream::connect(server.addr()).unwrap();
    a.write_all(b"CHECK https://slow.weebly.com/\n").unwrap();
    std::thread::sleep(Duration::from_millis(300));

    // The second connection lands on worker 1. Its CHECK cannot acquire
    // budget and must be shed immediately — a BUSY reply well before the
    // slow check completes, not a queue wait.
    let mut b = TcpStream::connect(server.addr()).unwrap();
    b.set_read_timeout(Some(Duration::from_millis(1200)))
        .unwrap();
    b.write_all(b"CHECK https://other.weebly.com/\n").unwrap();
    let started = Instant::now();
    let line = read_line_raw(&mut b);
    assert!(
        started.elapsed() < Duration::from_secs(1),
        "BUSY took {:?}",
        started.elapsed()
    );
    assert_eq!(line, b"BUSY", "{:?}", String::from_utf8_lossy(&line));
    assert!(server.metrics().counter("serve_shed_total", &[]) >= 1);

    // The admitted request still completes normally.
    a.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let line = read_line_raw(&mut a);
    assert!(
        line.starts_with(b"SAFE"),
        "{:?}",
        String::from_utf8_lossy(&line)
    );
}
