//! The scale/soak phase: million-site worlds, a ten-million-entry baked
//! index, and a sustained mixed-traffic run with RSS and tail-latency
//! gates. Produces the `scale_world_build`, `mapidx_build`,
//! `mapidx_load_ms`, `soak_rss_peak_mb` and `soak_p999_us` keys of
//! `BENCH_PIPELINE.json`.
//!
//! Four sub-phases, each with its own in-binary gate (a violated gate
//! panics, which fails `bench.sh` under `set -e`):
//!
//! 1. **world build** — stream a [`ScaleWorld`] of
//!    `FREEPHISH_SOAK_SITES` sites (default 1M) in bounded chunks,
//!    sampling RSS between chunks. Gate: resident growth stays under
//!    `FREEPHISH_SOAK_RSS_LIMIT_MB` (default 512) no matter the world
//!    size, proving generation is truly streaming.
//! 2. **bake** — stream `FREEPHISH_SOAK_INDEX` verdicts (default 10M)
//!    through the external-merge
//!    [`IndexWriter`](freephish_mapidx::IndexWriter) into a snapshot file.
//!    Gate: RSS growth stays within the writer's bound — the run budget
//!    ([`DEFAULT_RUN_BYTES`]) plus 4 bytes per bucket of occupancy counts
//!    plus 48 MB of process slack (176 MB at 10M entries).
//! 3. **load** — time `SnapshotIndex::open` (best of 3). Gate: a
//!    10M-entry restart must cost at most 100 ms — the whole point of
//!    the mmap format. ~1000 spot lookups then prove bit-identical
//!    scores against the generator.
//! 4. **soak** — serve the baked index through the two-level overlay
//!    (`EventedStoreChecker::open_with_base`) and drive it with mixed
//!    `CHECKN`/`CHECK`/`ADD` traffic for `FREEPHISH_SOAK_SECS` while a
//!    sampler thread tracks RSS and the ops plane measures windowed
//!    tails. Gates: RSS growth bounded by the limit *plus the mapped
//!    baseline's file size* (traffic faults the index in — file-backed,
//!    reclaimable pages the kernel still counts) and a sane p99.9.

use bytes::BytesMut;
use freephish_core::verdictstore::EventedStoreChecker;
use freephish_core::{ScaleWorld, ScaleWorldConfig};
use freephish_mapidx::{SnapshotIndex, DEFAULT_RUN_BYTES};
use freephish_obs::process_rss_bytes;
use freephish_serve::{
    encode_bin_request, read_bin_reply, read_line_buffered, BinReply, BinRequest, EventedServer,
    OpsServer, UrlChecker, Verdict, HANDSHAKE_OK,
};
use freephish_store::testutil::TempDir;
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::{env_usize, percentile, window_gauge, OpsScraper};

fn rss_mb() -> f64 {
    process_rss_bytes().unwrap_or(0) as f64 / (1024.0 * 1024.0)
}

/// Background RSS sampler: polls `/proc/self/statm` every 25 ms and
/// remembers the peak, so spikes between chunk boundaries are not missed.
struct RssSampler {
    stop: Arc<AtomicBool>,
    handle: std::thread::JoinHandle<f64>,
}

impl RssSampler {
    fn start() -> RssSampler {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = stop.clone();
        let handle = std::thread::spawn(move || {
            let mut peak = rss_mb();
            while !flag.load(Ordering::Relaxed) {
                peak = peak.max(rss_mb());
                std::thread::sleep(Duration::from_millis(25));
            }
            peak.max(rss_mb())
        });
        RssSampler { stop, handle }
    }

    fn finish(self) -> f64 {
        self.stop.store(true, Ordering::Relaxed);
        self.handle.join().expect("rss sampler panicked")
    }
}

/// Phase 1: stream the world, watch memory. Returns the JSON record.
fn world_build_phase(sites: u64, rss_limit_mb: f64) -> serde_json::Value {
    let world = ScaleWorld::new(ScaleWorldConfig {
        sites,
        ..ScaleWorldConfig::default()
    });
    let rss0 = rss_mb();
    let t0 = Instant::now();
    let mut peak = rss0;
    let mut url_bytes = 0u64;
    let mut phishing = 0u64;
    for chunk in world.chunks(8192) {
        for site in &chunk {
            url_bytes += site.url.len() as u64;
            phishing += site.phishing as u64;
        }
        peak = peak.max(rss_mb());
    }
    let secs = t0.elapsed().as_secs_f64();
    let growth = peak - rss0;
    // Sampled distribution survey: ~20k sites regardless of world size.
    let stats = world.survey((sites / 20_000).max(1));
    println!(
        "  world build: {sites} sites in {secs:.2}s ({:.0} sites/s), \
         RSS growth {growth:.1} MB, head-10 brand share {:.1}%",
        sites as f64 / secs,
        stats.brand_head_share(10) * 100.0
    );
    assert!(
        growth <= rss_limit_mb,
        "streaming world build must stay under {rss_limit_mb} MB of RSS growth, \
         grew {growth:.1} MB over {sites} sites"
    );
    serde_json::json!({
        "sites": sites,
        "secs": secs,
        "sites_per_sec": sites as f64 / secs,
        "rss_growth_mb": growth,
        "url_bytes": url_bytes,
        "phish_fraction": phishing as f64 / sites.max(1) as f64,
        "brand_head10_share": stats.brand_head_share(10),
    })
}

/// Phases 2+3: bake the index, then time the mmap load and spot-check it.
/// Returns (bake record, load record, best load ms, index path, world).
fn bake_and_load_phase(
    entries: u64,
    out: &std::path::Path,
) -> (serde_json::Value, serde_json::Value, ScaleWorld) {
    let world = ScaleWorld::new(ScaleWorldConfig {
        sites: entries,
        ..ScaleWorldConfig::default()
    });
    let sampler = RssSampler::start();
    let rss0 = rss_mb();
    let t0 = Instant::now();
    let summary = world.bake_index(entries, out).expect("bake scale index");
    let bake_secs = t0.elapsed().as_secs_f64();
    let bake_peak = sampler.finish();
    assert_eq!(
        summary.entries, entries,
        "scale world URLs are index-unique; the bake must not dedup any away"
    );
    // The writer holds one run and the bucket counts, sized from the
    // pre-dedup total (here every entry is unique).
    let buckets = entries.next_power_of_two().max(1);
    let rss_limit_mb = (DEFAULT_RUN_BYTES as f64 + 4.0 * buckets as f64) / (1024.0 * 1024.0) + 48.0;
    let growth = bake_peak - rss0;
    println!(
        "  bake: {} entries ({:.1} MB) in {bake_secs:.2}s ({:.0} entries/s), \
         {} spill runs, RSS peak {bake_peak:.1} MB (+{growth:.1}, bound {rss_limit_mb:.0})",
        summary.entries,
        summary.file_bytes as f64 / (1024.0 * 1024.0),
        entries as f64 / bake_secs,
        summary.spill_runs
    );
    assert!(
        growth <= rss_limit_mb,
        "a {entries}-entry bake must grow RSS by at most {rss_limit_mb:.0} MB \
         (run budget + 4 B per bucket + 48 MB), grew {growth:.1} MB"
    );
    let bake = serde_json::json!({
        "entries": summary.entries,
        "file_bytes": summary.file_bytes,
        "secs": bake_secs,
        "entries_per_sec": entries as f64 / bake_secs,
        "spill_runs": summary.spill_runs,
        "rss_peak_mb": bake_peak,
        "rss_growth_mb": growth,
        "rss_growth_limit_mb": rss_limit_mb,
    });

    // Load: best-of-3 opens. The serve-path open is O(1) in file size,
    // so this holds at 10M entries just as it does at 10k.
    let mut best_ms = f64::INFINITY;
    for _ in 0..3 {
        let t = Instant::now();
        let idx = SnapshotIndex::open(out).expect("open baked index");
        let ms = t.elapsed().as_secs_f64() * 1e3;
        best_ms = best_ms.min(ms);
        assert_eq!(idx.len(), entries);
    }
    assert!(
        best_ms <= 100.0,
        "mmap load of a {entries}-entry index must take <=100ms, took {best_ms:.2}ms"
    );
    // Spot lookups: bit-identical scores straight off the mapping.
    let idx = SnapshotIndex::open(out).expect("reopen baked index");
    let step = (entries / 1000).max(1);
    let mut checked = 0u64;
    let t_probe = Instant::now();
    let mut i = 0;
    while i < entries {
        let (url, score) = world.verdict_at(i);
        let got = idx
            .get(&url)
            .unwrap_or_else(|| panic!("baked entry missing: {url}"));
        assert_eq!(
            got.to_bits(),
            score.to_bits(),
            "bit-identical score for {url}"
        );
        checked += 1;
        i += step;
    }
    let probe_us = t_probe.elapsed().as_micros() as f64 / checked.max(1) as f64;
    println!(
        "  load: best-of-3 open {best_ms:.2} ms, {checked} spot lookups \
         bit-identical ({probe_us:.1} µs/cold probe)"
    );
    let load = serde_json::json!({
        "best_of_3_ms": best_ms,
        "spot_checks": checked,
        "cold_probe_us": probe_us,
    });
    (bake, load, world)
}

struct SoakCounts {
    urls: u64,
    adds: u64,
    frame_lat_us: Vec<u64>,
}

/// One mixed-traffic connection: mostly `CHECKN` frames over the baked
/// world, with periodic single `CHECK`s (verified bit-identical against
/// the generator) and rare durable `ADD`s of never-seen URLs.
fn soak_worker(
    addr: SocketAddr,
    world: Arc<ScaleWorld>,
    stop: Instant,
    tid: usize,
    batch: usize,
) -> SoakCounts {
    let mut stream = TcpStream::connect(addr).expect("soak connect");
    stream.set_nodelay(true).ok();
    stream.write_all(b"BINARY\n").expect("handshake write");
    let mut inbuf = BytesMut::new();
    let handshake = read_line_buffered(&mut stream, &mut inbuf).expect("handshake read");
    assert_eq!(handshake, HANDSHAKE_OK, "engine refused binary protocol");
    let mut outbuf = BytesMut::new();
    let mut counts = SoakCounts {
        urls: 0,
        adds: 0,
        frame_lat_us: Vec::new(),
    };
    let mut cursor = (tid as u64).wrapping_mul(0x9E37_79B9) % world.len().max(1);
    let mut frame_no = 0u64;
    while Instant::now() < stop {
        frame_no += 1;
        let request = if frame_no.is_multiple_of(241) {
            // Durable ADD of a never-baked URL: exercises the sidecar
            // fsync + delta-overlay write path under read load.
            counts.adds += 1;
            BinRequest::Add(
                format!("https://soak-add-{tid}-{frame_no}.weebly.com/login"),
                0.91,
            )
        } else if frame_no.is_multiple_of(17) {
            // Single CHECK of a baked URL; the reply is verified below.
            let (url, _) = world.verdict_at(cursor);
            BinRequest::Check(url)
        } else {
            // The bread and butter: a CHECKN frame, 3/4 baked hits and
            // 1/4 never-seen misses so both outcomes stay hot.
            let frame: Vec<String> = (0..batch)
                .map(|k| {
                    let i = cursor + k as u64;
                    if k % 4 == 3 {
                        format!("https://soak-miss-{tid}-{i}.wixsite.com/home")
                    } else {
                        world.verdict_at(i).0
                    }
                })
                .collect();
            BinRequest::CheckN(frame)
        };
        let expect_batch = matches!(request, BinRequest::CheckN(_));
        let t0 = Instant::now();
        outbuf.clear();
        encode_bin_request(&mut outbuf, &request).expect("encode soak frame");
        stream.write_all(&outbuf).expect("soak write");
        match read_bin_reply(&mut stream, &mut inbuf).expect("soak reply") {
            BinReply::VerdictN(vs) => {
                assert_eq!(vs.len(), batch);
                counts.urls += batch as u64;
            }
            BinReply::Verdict(v) => {
                let (url, score) = world.verdict_at(cursor);
                match v {
                    Verdict::Phishing(s) => assert_eq!(
                        s.to_bits(),
                        score.to_bits(),
                        "baked verdict for {url} must be bit-identical under load"
                    ),
                    other => panic!("baked URL {url} served {other:?}"),
                }
                counts.urls += 1;
            }
            BinReply::Ok(_) => {}
            BinReply::Busy => panic!("soak shed: raise --max-inflight"),
            other => panic!("unexpected soak reply {other:?}"),
        }
        counts.frame_lat_us.push(t0.elapsed().as_micros() as u64);
        if expect_batch {
            cursor = (cursor + batch as u64) % world.len().max(1);
        } else {
            cursor = (cursor + 1) % world.len().max(1);
        }
    }
    counts
}

/// Phase 4: serve the baked index through the overlay and soak it.
fn serve_soak_phase(
    index_path: &std::path::Path,
    world: Arc<ScaleWorld>,
    conns: usize,
    secs: f64,
    batch: usize,
    rss_limit_mb: f64,
) -> (serde_json::Value, f64, i64) {
    let store_dir = TempDir::new("loadgen-soak");
    let index_mb = std::fs::metadata(index_path)
        .expect("stat baked index")
        .len() as f64
        / (1024.0 * 1024.0);
    let checker = Arc::new(
        EventedStoreChecker::open_with_base(store_dir.path(), Some(index_path))
            .expect("open soak checker over baked base"),
    );
    assert_eq!(checker.index().base_len(), world.len());
    let mut evented =
        EventedServer::start(checker.clone() as Arc<dyn UrlChecker>).expect("start soak engine");
    let addr = evented.addr();
    let mut ops = OpsServer::start(0, evented.ops_config()).expect("start soak ops plane");
    let scraper = OpsScraper::start(ops.addr(), Duration::from_millis(100));

    let rss0 = rss_mb();
    let sampler = RssSampler::start();
    let start = Instant::now();
    let stop = start + Duration::from_secs_f64(secs);
    let handles: Vec<_> = (0..conns)
        .map(|tid| {
            let world = world.clone();
            std::thread::spawn(move || soak_worker(addr, world, stop, tid, batch))
        })
        .collect();
    let mut urls = 0u64;
    let mut adds = 0u64;
    let mut lat: Vec<u64> = Vec::new();
    for h in handles {
        let mut c = h.join().expect("soak worker panicked");
        urls += c.urls;
        adds += c.adds;
        lat.append(&mut c.frame_lat_us);
    }
    let elapsed = start.elapsed().as_secs_f64();
    let rss_peak = sampler.finish();
    let varz_body = scraper.finish();
    ops.shutdown();
    evented.shutdown();
    evented.drain(Duration::from_secs(5));

    // Every durable ADD landed in the delta and shadows the base.
    assert_eq!(checker.index().len() as u64, adds);

    lat.sort_unstable();
    let client_p999 = percentile(&lat, 0.999);
    let varz: serde_json::Value =
        serde_json::from_str(&varz_body).expect("soak /varz parses as JSON");
    // Server-side rolling p99.9 over the CHECKN window; fall back to the
    // client-side percentile when the window had too few samples.
    let p999_us = window_gauge(&varz, "checkn", "p999").unwrap_or(client_p999 as i64);
    let rss_growth = rss_peak - rss0;
    println!(
        "  soak: {urls} urls over {elapsed:.2}s ({:.0} urls/s), {adds} durable adds, \
         p99.9 {p999_us} µs, RSS peak {rss_peak:.1} MB (+{rss_growth:.1}, \
         {index_mb:.1} MB mapped baseline)",
        urls as f64 / elapsed
    );
    // Traffic spread over the whole key range faults most of the baked
    // file into the mapping — file-backed, reclaimable pages the kernel
    // counts in RSS. The gate budgets *anonymous* growth: the limit rides
    // on top of the mapped baseline's size.
    let allowed = rss_limit_mb + index_mb;
    assert!(
        rss_growth <= allowed,
        "soak serve RSS must stay bounded: grew {rss_growth:.1} MB \
         (limit {rss_limit_mb} MB + {index_mb:.1} MB mapped index)"
    );
    assert!(
        p999_us > 0 && p999_us < 1_000_000,
        "soak p99.9 must be positive and under a second, got {p999_us} µs"
    );
    let record = serde_json::json!({
        "secs": elapsed,
        "connections": conns,
        "checkn_batch": batch,
        "urls": urls,
        "throughput_urls_per_sec": urls as f64 / elapsed,
        "durable_adds": adds,
        "frame_latency": {
            "samples": lat.len(),
            "p50_us": percentile(&lat, 0.50),
            "p99_us": percentile(&lat, 0.99),
            "p999_us": client_p999,
        },
        "server_checkn_p999_us": window_gauge(&varz, "checkn", "p999"),
        "rss_start_mb": rss0,
        "rss_peak_mb": rss_peak,
        "rss_growth_mb": rss_growth,
        "mapped_index_mb": index_mb,
    });
    (record, rss_peak, p999_us)
}

/// Run the whole scale/soak phase; returns the keys to merge into the
/// bench record.
pub fn soak_phase(batch: usize) -> serde_json::Value {
    let sites = env_usize("FREEPHISH_SOAK_SITES", 1_000_000) as u64;
    let index_entries = env_usize("FREEPHISH_SOAK_INDEX", 10_000_000) as u64;
    let secs = env_usize("FREEPHISH_SOAK_SECS", 4) as f64;
    let conns = env_usize("FREEPHISH_SOAK_CONNS", 16);
    let rss_limit_mb = env_usize("FREEPHISH_SOAK_RSS_LIMIT_MB", 512) as f64;
    assert!(
        sites > 0 && index_entries > 0,
        "soak needs a non-empty world"
    );
    println!(
        "loadgen: soak phase ({sites} world sites, {index_entries} baked entries, \
         {conns} connections x {secs}s, CHECKN batch {batch})"
    );

    let world_record = world_build_phase(sites, rss_limit_mb);

    let scratch = TempDir::new("loadgen-soak-bake");
    let index_path = scratch.path().join("scale.mapidx");
    let (bake_record, load_record, index_world) = bake_and_load_phase(index_entries, &index_path);
    let load_ms = load_record["best_of_3_ms"].as_f64().expect("load ms");

    let (soak_record, rss_peak, p999_us) = serve_soak_phase(
        &index_path,
        Arc::new(index_world),
        conns,
        secs,
        batch,
        rss_limit_mb,
    );

    serde_json::json!({
        "scale_world_build": world_record,
        "mapidx_build": bake_record,
        "mapidx_load": load_record,
        "mapidx_load_ms": load_ms,
        "soak": soak_record,
        "soak_rss_peak_mb": rss_peak,
        "soak_p999_us": p999_us,
    })
}
