//! loadgen: the concurrent verdict-serving load record behind the
//! `serve_throughput` and `serve_latency` keys of `BENCH_PIPELINE.json`.
//!
//! Starts the serving engine in-process and drives it with
//! `FREEPHISH_LOADGEN_CONNS` (default 64) concurrent client connections
//! for `FREEPHISH_LOADGEN_SECS` (default 2) seconds per phase:
//!
//! * **CHECK** — the line protocol, one synchronous `CHECK` RPC at a
//!   time per connection;
//! * **CHECKN** — the binary protocol with `FREEPHISH_LOADGEN_BATCH`
//!   (default 64) URLs per frame, the deployment shape for browser-fleet
//!   fanout.
//!
//! Throughput is URLs verdicted per second across all connections;
//! latency is per-RPC microseconds (p50/p99 over every sample). During
//! the CHECKN phase the evented engine's ops plane is mounted and a
//! scraper thread polls `/varz` mid-run, adding three server-side keys:
//! `serve_p999` (the rolling windowed quantiles the engine itself
//! measured), `serve_worker_utilization` (per-worker busy fraction) and
//! `ops_scrape_latency` (client-observed cost of a scrape under load).
//! Results merge into the existing record at `FREEPHISH_BENCH_OUT`
//! (default `BENCH_PIPELINE.json`) so `bench.sh` composes this with
//! perfbench.

mod cluster;
mod soak;

use bytes::BytesMut;
use freephish_core::groundtruth::{build, GroundTruthConfig};
use freephish_core::resolver::{
    MapFetcher, ResolverModels, TieredResolver, TieredResolverConfig, WallClock,
};
use freephish_core::verdictstore::EventedStoreChecker;
use freephish_serve::{
    decode_bin_reply, encode_bin_request, http_get, BinReply, BinRequest, EventedServer, OpsServer,
    ShardedIndex, UrlChecker, HANDSHAKE_OK,
};
use freephish_simclock::Rng64;
use freephish_store::testutil::TempDir;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// The query pool: half the URLs are in the served verdict set, half are
/// unknown, so both lookup outcomes stay on the hot path.
fn url_pool(n: usize) -> (Vec<(String, f64)>, Vec<String>) {
    let known: Vec<(String, f64)> = (0..n)
        .map(|i| (format!("https://phish{i}.weebly.com/login"), 0.9))
        .collect();
    let pool: Vec<String> = known
        .iter()
        .map(|(u, _)| u.clone())
        .chain((0..n).map(|i| format!("https://clean{i}.wixsite.com/home")))
        .collect();
    (known, pool)
}

/// One closed-loop line-protocol connection: synchronous `CHECK` RPCs
/// until the deadline. Returns (urls checked, per-RPC latencies in µs).
fn line_worker(
    addr: SocketAddr,
    pool: Arc<Vec<String>>,
    stop: Instant,
    tid: usize,
) -> (u64, Vec<u64>) {
    let stream = TcpStream::connect(addr).expect("loadgen connect");
    stream.set_nodelay(true).ok();
    let mut writer = stream.try_clone().expect("clone stream");
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    let mut urls = 0u64;
    let mut lat = Vec::new();
    let mut i = tid.wrapping_mul(7919);
    while Instant::now() < stop {
        let url = &pool[i % pool.len()];
        i += 1;
        let t0 = Instant::now();
        writer
            .write_all(format!("CHECK {url}\n").as_bytes())
            .expect("loadgen write");
        line.clear();
        reader.read_line(&mut line).expect("loadgen read");
        assert!(!line.is_empty(), "server closed mid-run");
        lat.push(t0.elapsed().as_micros() as u64);
        urls += 1;
    }
    (urls, lat)
}

/// One closed-loop binary-protocol connection: `CHECKN` frames of
/// `batch` URLs until the deadline.
fn batch_worker(
    addr: SocketAddr,
    pool: Arc<Vec<String>>,
    stop: Instant,
    tid: usize,
    batch: usize,
) -> (u64, Vec<u64>) {
    let mut stream = TcpStream::connect(addr).expect("loadgen connect");
    stream.set_nodelay(true).ok();
    stream.write_all(b"BINARY\n").expect("handshake write");
    let mut inbuf = BytesMut::new();
    let handshake = read_line_buffered(&mut stream, &mut inbuf);
    assert_eq!(handshake, HANDSHAKE_OK, "engine refused binary protocol");
    let mut outbuf = BytesMut::new();
    let mut urls = 0u64;
    let mut lat = Vec::new();
    let mut i = tid.wrapping_mul(7919);
    let mut tmp = [0u8; 16 * 1024];
    while Instant::now() < stop {
        let frame: Vec<String> = (0..batch)
            .map(|k| pool[(i + k) % pool.len()].clone())
            .collect();
        i += batch;
        let t0 = Instant::now();
        outbuf.clear();
        encode_bin_request(&mut outbuf, &BinRequest::CheckN(frame)).expect("encode CHECKN");
        stream.write_all(&outbuf).expect("loadgen write");
        loop {
            match decode_bin_reply(&mut inbuf).expect("decode reply") {
                Some(BinReply::VerdictN(vs)) => {
                    assert_eq!(vs.len(), batch);
                    break;
                }
                Some(BinReply::Busy) => panic!("loadgen shed: raise --max-inflight for bench"),
                Some(other) => panic!("unexpected reply {other:?}"),
                None => {
                    let n = stream.read(&mut tmp).expect("loadgen read");
                    assert!(n > 0, "server closed mid-run");
                    inbuf.extend_from_slice(&tmp[..n]);
                }
            }
        }
        lat.push(t0.elapsed().as_micros() as u64);
        urls += batch as u64;
    }
    (urls, lat)
}

/// Read one `\n`-terminated line through the shared accumulation buffer,
/// leaving any bytes after the newline (the first binary frame may ride
/// the same segment) in place for the frame decoder.
fn read_line_buffered(stream: &mut TcpStream, buf: &mut BytesMut) -> String {
    let mut tmp = [0u8; 4096];
    loop {
        if let Some(pos) = buf.iter().position(|&b| b == b'\n') {
            let line = buf.split_to(pos + 1);
            return String::from_utf8_lossy(&line[..pos]).trim_end().to_string();
        }
        let n = stream.read(&mut tmp).expect("handshake read");
        assert!(n > 0, "server closed during handshake");
        buf.extend_from_slice(&tmp[..n]);
    }
}

/// Fan `conns` workers at one engine and fold their counts and samples.
fn drive<F>(conns: usize, secs: f64, worker: F) -> (f64, Vec<u64>)
where
    F: Fn(Instant, usize) -> (u64, Vec<u64>) + Send + Sync + 'static,
{
    let worker = Arc::new(worker);
    let start = Instant::now();
    let stop = start + Duration::from_secs_f64(secs);
    let handles: Vec<_> = (0..conns)
        .map(|tid| {
            let worker = worker.clone();
            std::thread::spawn(move || worker(stop, tid))
        })
        .collect();
    let mut urls = 0u64;
    let mut lat = Vec::new();
    for h in handles {
        let (n, mut l) = h.join().expect("loadgen worker panicked");
        urls += n;
        lat.append(&mut l);
    }
    let elapsed = start.elapsed().as_secs_f64();
    (urls as f64 / elapsed, lat)
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx]
}

fn latency_json(mut samples: Vec<u64>) -> serde_json::Value {
    samples.sort_unstable();
    serde_json::json!({
        "samples": samples.len(),
        "p50_us": percentile(&samples, 0.50),
        "p99_us": percentile(&samples, 0.99),
    })
}

/// A mid-run ops-plane scraper: polls `GET /varz` every `period` the way
/// a Prometheus scrape would, while the load phase runs, so the recorded
/// scrape cost and the server-side quantiles come from a server under
/// load. Returns (client-side GET latencies in µs, last /varz body).
struct OpsScraper {
    stop: Arc<AtomicBool>,
    handle: std::thread::JoinHandle<(Vec<u64>, String)>,
}

impl OpsScraper {
    fn start(addr: SocketAddr, period: Duration) -> OpsScraper {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = stop.clone();
        let handle = std::thread::spawn(move || {
            let mut lat = Vec::new();
            let last = loop {
                let t0 = Instant::now();
                let body = match http_get(addr, "/varz") {
                    Ok((200, body)) => {
                        lat.push(t0.elapsed().as_micros() as u64);
                        body
                    }
                    Ok((code, body)) => panic!("/varz returned {code}: {body}"),
                    Err(e) => panic!("/varz scrape failed: {e}"),
                };
                // Check after the scrape so the final body postdates the
                // stop request — it sees the whole load phase.
                if flag.load(Ordering::SeqCst) {
                    break body;
                }
                std::thread::sleep(period);
            };
            (lat, last)
        });
        OpsScraper { stop, handle }
    }

    fn finish(self) -> (Vec<u64>, String) {
        self.stop.store(true, Ordering::SeqCst);
        self.handle.join().expect("ops scraper panicked")
    }
}

/// Pull one windowed-quantile gauge (integer µs) out of a /varz body.
fn window_gauge(varz: &serde_json::Value, cmd: &str, q: &str) -> Option<i64> {
    varz["gauges"]
        .get(&format!(
            "serve_window_latency_us{{cmd=\"{cmd}\",q=\"{q}\"}}"
        ))
        .and_then(|v| v.as_i64())
}

/// Pull one labeled counter out of a resolver metrics snapshot.
fn tier_hits(snap: &freephish_obs::MetricsSnapshot, labels: &[(&str, &str)]) -> u64 {
    snap.counter("resolver_tier_hits_total", labels)
}

/// The classify-on-miss phase: the evented engine fronted by a
/// [`TieredResolver`] over a durable store checker, driven with a
/// workload where `miss_rate` of the traffic is never-seen URLs whose
/// generated HTML bodies back the tier-2 fetch. Ends with a
/// kill-mid-load restart: the resolver is stopped *without* draining its
/// queue, the store directory reopened cold, and every inline verdict
/// that was journaled must come back as a tier-0 hit with zero
/// re-classification.
fn miss_phase(
    conns: usize,
    secs: f64,
    batch: usize,
    miss_rate: f64,
    known: &[(String, f64)],
) -> serde_json::Value {
    // Miss corpus: mostly-benign never-seen sites with real generated
    // HTML — the traffic shape the pre-filter tier exists for. A seed
    // disjoint from the resolver's training corpus keeps this honest.
    let cfg = TieredResolverConfig::default();
    let miss_corpus = build(&GroundTruthConfig {
        n_phish: 64,
        n_benign: 576,
        seed: 0xA11_CE5,
    });
    let fetcher = Arc::new(MapFetcher::new());
    let miss_urls: Vec<String> = miss_corpus
        .iter()
        .map(|s| {
            fetcher.insert(&s.site.url, &s.site.html);
            s.site.url.clone()
        })
        .collect();
    let models = Arc::new(ResolverModels::train(&build(&cfg.corpus), &cfg));

    // Durable tier 0: an evented store checker on a scratch directory.
    // Known verdicts go straight into the index (they model journal
    // state, not inline classifications); only the resolver's own
    // verdicts reach the fsynced sidecar.
    let store_dir = TempDir::new("loadgen-miss");
    let checker =
        Arc::new(EventedStoreChecker::open(store_dir.path()).expect("open scratch store"));
    checker.index().publish(known.to_vec());
    let resolver = TieredResolver::with_models(
        checker.clone(),
        fetcher.clone(),
        Arc::new(WallClock::new()),
        models.clone(),
        cfg.clone(),
    );

    // Mixed workload pool, deterministic given the seed.
    let mut rng = Rng64::new(0x10AD_3141);
    let mixed: Vec<String> = (0..8192)
        .map(|_| {
            if rng.f64() < miss_rate {
                miss_urls[(rng.f64() * miss_urls.len() as f64) as usize % miss_urls.len()].clone()
            } else {
                known[(rng.f64() * known.len() as f64) as usize % known.len()]
                    .0
                    .clone()
            }
        })
        .collect();

    let mut evented =
        EventedServer::start(resolver.clone() as Arc<dyn UrlChecker>).expect("start miss engine");
    let e_addr = evented.addr();
    let p = Arc::new(mixed);
    let t0 = Instant::now();
    let (miss_rps, miss_lat) = drive(conns, secs, move |stop, tid| {
        batch_worker(e_addr, p.clone(), stop, tid, batch)
    });
    let elapsed = t0.elapsed().as_secs_f64();
    evented.shutdown();
    evented.drain(Duration::from_secs(5));

    // Per-tier accounting over the load window.
    let snap = resolver.metrics_snapshot();
    let requests = snap.counter("resolver_requests_total", &[]);
    let index_hits = tier_hits(&snap, &[("tier", "index")]);
    let prefilter_decided = tier_hits(&snap, &[("tier", "prefilter")]);
    let negative_prefilter = tier_hits(&snap, &[("tier", "negative"), ("src", "prefilter")]);
    let negative_model = tier_hits(&snap, &[("tier", "negative"), ("src", "model")]);
    let negative_unfetchable = tier_hits(&snap, &[("tier", "negative"), ("src", "unfetchable")]);
    let negative_rejected = tier_hits(&snap, &[("tier", "negative"), ("src", "rejected")]);
    let provisional = tier_hits(&snap, &[("tier", "provisional")]);
    let classified = snap.counter("resolver_classified_total", &[]);
    let shed = snap.counter("resolver_classify_shed_total", &[]);
    let miss_traffic = requests.saturating_sub(index_hits).max(1);
    // Tier 1 is the synchronous resolver fast path: the pre-filter model
    // plus the negative cache it shares with tier 2 (just as tier-2
    // phishing verdicts surface as tier-0 index hits, its safe verdicts
    // surface as tier-1 negative-cache hits). A miss is "served by tier 1"
    // when it is answered in-line without any classification work —
    // prefilter decision, negative-cache hit of any provenance, or a
    // provisional verdict while the URL waits in the classify queue.
    let fast_path = prefilter_decided
        + negative_prefilter
        + negative_model
        + negative_unfetchable
        + negative_rejected
        + provisional;
    let tier1_share = fast_path as f64 / miss_traffic as f64;
    let classify_per_sec = classified as f64 / elapsed;
    println!(
        "  miss({miss_rate:.2}) CHECKN: {miss_rps:>12.0} urls/s, \
         {classify_per_sec:.0} classified/s, tier-1 share {:.1}%",
        tier1_share * 100.0
    );
    assert!(
        tier1_share >= 0.80,
        "tier-1 fast path must serve >=80% of miss traffic, got {:.1}% \
         (fast path {fast_path} / misses {miss_traffic})",
        tier1_share * 100.0
    );

    // Which misses were journaled inline (phishing in tier 0 but not in
    // the seeded known set means the resolver classified and added them).
    let journaled: Vec<String> = miss_urls
        .iter()
        .filter(|u| checker.check(u).is_phishing())
        .cloned()
        .collect();

    // Kill mid-load: stop the resolver WITHOUT draining its queue — the
    // crash contract is that every verdict already journaled survives
    // (the sidecar fsyncs per append) and nothing else does.
    resolver.shutdown();
    drop(resolver);
    drop(checker);

    // Cold restart on the same directory.
    let checker2 =
        Arc::new(EventedStoreChecker::open(store_dir.path()).expect("reopen scratch store"));
    let recovered = checker2.len();
    assert_eq!(
        recovered,
        journaled.len(),
        "sidecar must recover exactly the journaled inline verdicts"
    );
    let resolver2 = TieredResolver::with_models(
        checker2,
        Arc::new(MapFetcher::new()),
        Arc::new(WallClock::new()),
        models,
        cfg,
    );
    for url in &journaled {
        assert!(
            resolver2.check(url).is_phishing(),
            "journaled verdict for {url} must be a tier-0 hit after restart"
        );
    }
    let snap2 = resolver2.metrics_snapshot();
    let replay_index_hits = tier_hits(&snap2, &[("tier", "index")]);
    let reclassified = snap2.counter("resolver_classified_total", &[])
        + snap2.counter("resolver_classify_enqueued_total", &[]);
    assert_eq!(
        replay_index_hits,
        journaled.len() as u64,
        "every replayed check must resolve in tier 0"
    );
    assert_eq!(reclassified, 0, "restart must not re-classify anything");
    resolver2.shutdown();
    println!("  restart: {recovered} journaled verdicts recovered, 0 re-classified");

    serde_json::json!({
        "miss_rate": miss_rate,
        "miss_pool": miss_urls.len(),
        "throughput_urls_per_sec": miss_rps,
        "latency_per_frame": latency_json(miss_lat),
        "classified": classified,
        "classify_per_sec": classify_per_sec,
        "classify_shed": shed,
        "tier_hit_rates": {
            "index": index_hits as f64 / requests.max(1) as f64,
            "prefilter": prefilter_decided as f64 / requests.max(1) as f64,
            "negative_prefilter": negative_prefilter as f64 / requests.max(1) as f64,
            "negative_model": negative_model as f64 / requests.max(1) as f64,
            "negative_unfetchable": negative_unfetchable as f64 / requests.max(1) as f64,
            "provisional": provisional as f64 / requests.max(1) as f64,
            "tier1_share_of_misses": tier1_share,
        },
        "restart_recovered_verdicts": recovered,
        "restart_reclassified": 0,
    })
}

/// Merge a JSON object of keys into the bench record at `out` without
/// clobbering keys owned by other phases.
fn merge_keys(out: &str, keys: &serde_json::Value) {
    let mut record: serde_json::Value = std::fs::read_to_string(out)
        .ok()
        .and_then(|s| serde_json::from_str(&s).ok())
        .unwrap_or_else(|| serde_json::json!({"schema_version": 1}));
    let obj = record
        .as_object_mut()
        .expect("bench record must be a JSON object");
    let mut merged: Vec<String> = Vec::new();
    for (k, v) in keys.as_object().expect("phase keys").iter() {
        obj.insert(k.clone(), v.clone());
        merged.push(k.clone());
    }
    std::fs::write(out, serde_json::to_string_pretty(&record).unwrap())
        .unwrap_or_else(|e| panic!("could not write {out}: {e}"));
    println!("merged {} into {out}", merged.join(", "));
}

fn main() {
    let conns = env_usize("FREEPHISH_LOADGEN_CONNS", 64);
    let batch = env_usize("FREEPHISH_LOADGEN_BATCH", 64).clamp(1, 256);
    let secs = env_usize("FREEPHISH_LOADGEN_SECS", 2) as f64;
    let out = std::env::var("FREEPHISH_BENCH_OUT").unwrap_or_else(|_| "BENCH_PIPELINE.json".into());
    // --miss-rate F: fraction of never-seen URLs mixed into the
    // classify-on-miss phase's workload.
    let mut miss_rate = 0.75f64;
    // --cluster: skip the single-node phases and run the multi-process
    // cluster phase (scaling sweep + failover proof) instead.
    let mut cluster_only = false;
    // --soak: skip the single-node phases and run the scale/soak phase
    // (streaming world build, 10M-entry bake, mmap load gate, sustained
    // mixed traffic with RSS/p99.9 gates) instead.
    let mut soak_only = false;
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--cluster" => cluster_only = true,
            "--soak" => soak_only = true,
            "--miss-rate" => {
                i += 1;
                miss_rate = argv
                    .get(i)
                    .and_then(|s| s.parse::<f64>().ok())
                    .filter(|r| (0.0..=1.0).contains(r))
                    .unwrap_or_else(|| {
                        eprintln!("usage: loadgen [--miss-rate F]  (F in 0..=1)");
                        std::process::exit(64);
                    });
            }
            other => {
                eprintln!(
                    "unknown flag {other}; usage: loadgen [--miss-rate F] [--cluster] [--soak]"
                );
                std::process::exit(64);
            }
        }
        i += 1;
    }

    if cluster_only {
        println!("loadgen: cluster phase ({secs}s per sweep point, CHECKN batch {batch})");
        let keys = cluster::cluster_phase(secs, batch);
        merge_keys(&out, &keys);
        return;
    }

    if soak_only {
        let keys = soak::soak_phase(batch);
        merge_keys(&out, &keys);
        return;
    }

    let (known, pool) = url_pool(4096);
    let pool = Arc::new(pool);
    println!(
        "loadgen: {conns} connections, {secs}s per phase, CHECKN batch {batch}, \
         pool {} URLs ({} known)",
        pool.len(),
        known.len()
    );

    // Line protocol then binary CHECKN, same verdict set.
    let index = ShardedIndex::with_default_shards();
    index.publish(known.clone());
    let mut evented = EventedServer::start(Arc::new(index)).expect("start evented engine");
    let e_addr = evented.addr();
    let p = pool.clone();
    let (evented_rps, evented_lat) = drive(conns, secs, move |stop, tid| {
        line_worker(e_addr, p.clone(), stop, tid)
    });
    println!("  evented   CHECK : {evented_rps:>12.0} urls/s");

    // CHECKN phase with the ops plane mounted: a scraper thread hits
    // /varz mid-run so `serve_p999`, the worker-utilization gauges and
    // the scrape cost itself are all measured under load.
    let mut ops = OpsServer::start(0, evented.ops_config()).expect("start ops plane");
    let scraper = OpsScraper::start(ops.addr(), Duration::from_millis(50));
    let p = pool.clone();
    let (eventedn_rps, eventedn_lat) = drive(conns, secs, move |stop, tid| {
        batch_worker(e_addr, p.clone(), stop, tid, batch)
    });
    let (scrape_lat, varz_body) = scraper.finish();
    ops.shutdown();
    evented.shutdown();
    evented.drain(Duration::from_secs(5));
    println!("  evented   CHECKN: {eventedn_rps:>12.0} urls/s");

    // Classify-on-miss phase: tiered resolver in front, miss-heavy
    // workload, ending in the kill-mid-load restart proof.
    let miss_record = miss_phase(conns, secs, batch, miss_rate, &known);

    let varz: serde_json::Value =
        serde_json::from_str(&varz_body).expect("final /varz body parses as JSON");
    let serve_p999 = serde_json::json!({
        "checkn_p50_us": window_gauge(&varz, "checkn", "p50"),
        "checkn_p99_us": window_gauge(&varz, "checkn", "p99"),
        "checkn_p999_us": window_gauge(&varz, "checkn", "p999"),
    });
    // Per-worker busy fraction, straight from the poll-loop gauges.
    let mut worker_bp: Vec<i64> = varz["gauges"]
        .as_object()
        .expect("/varz has a gauges object")
        .iter()
        .filter(|(k, _)| k.starts_with("serve_worker_utilization{"))
        .filter_map(|(_, v)| v.as_i64())
        .collect();
    worker_bp.sort_unstable();
    let utilization = serde_json::json!({
        "workers": worker_bp.len(),
        "min_basis_points": worker_bp.first().copied(),
        "max_basis_points": worker_bp.last().copied(),
        "mean_basis_points": if worker_bp.is_empty() { None } else {
            Some(worker_bp.iter().sum::<i64>() / worker_bp.len() as i64)
        },
    });
    let scrape_latency = latency_json(scrape_lat);
    println!(
        "  ops plane: checkn window p999 {:?}µs, {} scrapes",
        window_gauge(&varz, "checkn", "p999"),
        scrape_latency["samples"]
    );

    // Merge into the perfbench record rather than clobbering it.
    let mut record: serde_json::Value = std::fs::read_to_string(&out)
        .ok()
        .and_then(|s| serde_json::from_str(&s).ok())
        .unwrap_or_else(|| serde_json::json!({"schema_version": 1}));
    let throughput = serde_json::json!({
        "connections": conns,
        "duration_secs": secs,
        "checkn_batch": batch,
        "evented_check_urls_per_sec": evented_rps,
        "evented_checkn_urls_per_sec": eventedn_rps,
    });
    let latency = serde_json::json!({
        "evented_check": latency_json(evented_lat),
        "evented_checkn_per_frame": latency_json(eventedn_lat),
    });
    let obj = record
        .as_object_mut()
        .expect("bench record must be a JSON object");
    obj.insert("serve_throughput".into(), throughput);
    obj.insert("serve_latency".into(), latency);
    obj.insert("serve_p999".into(), serve_p999);
    obj.insert("serve_worker_utilization".into(), utilization);
    obj.insert("ops_scrape_latency".into(), scrape_latency);
    obj.insert(
        "serve_miss_classify_per_sec".into(),
        miss_record["classify_per_sec"].clone(),
    );
    obj.insert(
        "serve_tier_hit_rates".into(),
        miss_record["tier_hit_rates"].clone(),
    );
    obj.insert("serve_miss_classify".into(), miss_record);
    std::fs::write(&out, serde_json::to_string_pretty(&record).unwrap())
        .unwrap_or_else(|e| panic!("could not write {out}: {e}"));
    println!(
        "merged serve_throughput, serve_latency, serve_p999, \
         serve_worker_utilization, ops_scrape_latency, \
         serve_miss_classify_per_sec and serve_tier_hit_rates into {out}"
    );
}
