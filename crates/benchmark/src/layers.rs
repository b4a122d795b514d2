//! Per-layer numbers taken from outside: by timing calls into a layer's
//! public functions on the workload's own kind of input, and by reading the
//! public metrics snapshots. Stages with no seam to wrap (frame decode,
//! `get`, `score_snapshot`) are measured here by replay.

use crate::inputs::{self, BATCH};
use crate::loadgen::Kind;
use crate::serving::Traced;
use crate::spec::Metrics;
use crate::stats::{median, percentile};
use crate::wire::{Connection, Protocol};
use bytes::BytesMut;
use freephish_core::features::{url_features, FeatureSet, FeatureVector};
use freephish_core::groundtruth::LabeledSite;
use freephish_core::models::augmented::AugmentedStackModel;
use freephish_core::scaleworld::ScaleWorld;
use freephish_htmlparse::{tokenize_spans, PageFacts};
use freephish_mapidx::SnapshotIndex;
use freephish_obs::MetricsSnapshot;
use freephish_serve::{
    decode_bin_request, decode_request, encode_bin_reply, encode_bin_request, BinReply, BinRequest,
    EventedServer, ShardedIndex, UrlChecker, Verdict,
};
use freephish_store::{Store, StoreOptions};
use freephish_urlparse::Url;
use std::hint::black_box;
use std::io;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Times `rounds` runs of `f` and returns the median, in seconds.
fn median_secs(rounds: usize, mut f: impl FnMut()) -> f64 {
    median(
        (0..rounds)
            .map(|_| {
                let started = Instant::now();
                f();
                started.elapsed().as_secs_f64()
            })
            .collect(),
    )
}

fn sample_urls(world: &ScaleWorld, base: u64, n: usize) -> Vec<String> {
    (0..n as u64)
        .map(|i| world.verdict_at(base + i).0)
        .collect()
}

/// Mean of a histogram of `snapshot`; 0 when it is empty or absent.
pub fn mean(snapshot: &MetricsSnapshot, name: &str, labels: &[(&str, &str)]) -> f64 {
    snapshot
        .histogram(name, labels)
        .and_then(|h| h.mean())
        .unwrap_or(0.0)
}

/// `serve::proto`: one frame of 64 URLs, or one line, through the codec.
pub fn proto(protocol: Protocol, metrics: &mut Metrics) {
    let world = inputs::world("proto", 0);
    let urls = sample_urls(&world, 0, BATCH);
    match protocol {
        Protocol::Binary => {
            let request = BinRequest::CheckN(urls.clone());
            let mut frame = BytesMut::new();
            let encode = median_secs(200, || {
                frame.clear();
                encode_bin_request(&mut frame, black_box(&request)).expect("64 short URLs encode");
            });
            let decode = median_secs(200, || {
                let mut copy = frame.clone();
                black_box(decode_bin_request(&mut copy).expect("own frame decodes"));
            });
            // The clone above is part of neither codec.
            let clone = median_secs(200, || {
                black_box(frame.clone());
            });
            let reply = BinReply::VerdictN(vec![Verdict::Phishing(0.75); BATCH]);
            let mut out = BytesMut::new();
            let encode_reply = median_secs(200, || {
                out.clear();
                encode_bin_reply(&mut out, black_box(&reply));
            });
            metrics.set(
                "serve.proto.encode_checkn_ns_per_url",
                encode * 1e9 / BATCH as f64,
            );
            metrics.set(
                "serve.proto.decode_checkn_ns_per_url",
                (decode - clone).max(0.0) * 1e9 / BATCH as f64,
            );
            metrics.set(
                "serve.proto.encode_verdictn_ns_per_url",
                encode_reply * 1e9 / BATCH as f64,
            );
        }
        Protocol::Line => {
            let lines: Vec<u8> = urls
                .iter()
                .flat_map(|u| format!("CHECK {u}\n").into_bytes())
                .collect();
            let decode = median_secs(200, || {
                let mut buf = BytesMut::from(&lines[..]);
                while let Ok(Some(request)) = decode_request(&mut buf) {
                    black_box(request);
                }
            });
            metrics.set("serve.proto.decode_line_ns", decode * 1e9 / BATCH as f64);
        }
    }
}

/// Median round trip of a one-URL check against a checker that does
/// nothing: what the wire and the serving loop cost on their own.
fn rtt_floor_us(protocol: Protocol) -> io::Result<f64> {
    let nothing: Arc<dyn UrlChecker> = Arc::new(|_: &str| Verdict::Safe(0.0));
    let server = EventedServer::start(nothing)?;
    let mut link = Connection::open(server.addr(), protocol)?;
    let mut request = BytesMut::new();
    match protocol {
        Protocol::Binary => encode_bin_request(
            &mut request,
            &BinRequest::Check("https://a.weebly.com/".into()),
        )
        .map_err(io::Error::other)?,
        Protocol::Line => request.extend_from_slice(b"CHECK https://a.weebly.com/\n"),
    }
    let mut times = Vec::with_capacity(2000);
    for _ in 0..2000 {
        let started = Instant::now();
        link.round_trip(&request)?;
        times.push(started.elapsed().as_secs_f64() * 1e6);
    }
    Ok(median(times))
}

/// `serve::server`, from its own metrics snapshot and the traced client.
pub fn server(run: &Traced, metrics: &mut Metrics) -> io::Result<()> {
    let cmd = match run.protocol {
        Protocol::Binary => "checkn",
        Protocol::Line => "check",
    };
    let service_us = mean(&run.server, "serve_service_seconds", &[]) * 1e6;
    let workers = freephish_serve::ServeConfig::default().workers;
    let busy: f64 = (0..workers)
        .map(|w| {
            run.server
                .gauge("serve_worker_utilization", &[("worker", &w.to_string())]) as f64
                / 1e4
        })
        .sum();
    let traced_p50 = percentile(&run.traced.latencies_us(Kind::Check), 50.0);
    metrics.set("serve.server.rtt_floor_us", rtt_floor_us(run.protocol)?);
    metrics.set("serve.server.frame_service_us", service_us);
    metrics.set(
        "serve.server.window_p99_us",
        run.server
            .gauge("serve_window_latency_us", &[("cmd", cmd), ("q", "p99")]) as f64,
    );
    metrics.set("serve.server.worker_busy_ratio", busy / workers as f64);
    metrics.set(
        "serve.server.shed_total",
        run.server.counter("serve_shed_total", &[]) as f64,
    );
    metrics.set("serve.server.wire_gap_us", traced_p50 - service_us);
    let adds = run.traced.latencies_us(Kind::Add);
    if !adds.is_empty() {
        metrics.set("serve.server.add_rtt_p50_us", percentile(&adds, 50.0));
    }
    Ok(())
}

/// `serve::index`: reads against a delta of `entries`, and the cost of
/// publishing one more entry into it and into the run's own index as the
/// run left it.
pub fn index(
    world: &ScaleWorld,
    entries: Vec<(String, f64)>,
    live: &ShardedIndex,
    metrics: &mut Metrics,
) {
    let urls: Vec<String> = entries
        .iter()
        .take(BATCH)
        .map(|(url, _)| url.clone())
        .collect();
    let index = ShardedIndex::with_default_shards();
    index.publish(entries);
    let check_many = median_secs(200, || {
        black_box(index.check_many(black_box(&urls)));
    });
    // Too short to time one at a time.
    let snapshot = median_secs(50, || {
        for _ in 0..100 {
            black_box(index.snapshot());
        }
    }) / 100.0;
    let mut fresh = (1u64 << 38..).map(|i| world.verdict_at(i));
    let publish = median_secs(50, || {
        index.publish(fresh.next());
    });
    let publish_end = median_secs(50, || {
        live.publish(fresh.next());
    });
    metrics.set(
        "serve.index.check_many_ns_per_url",
        check_many * 1e9 / BATCH as f64,
    );
    metrics.set("serve.index.snapshot_ns", snapshot * 1e9);
    metrics.set("serve.index.publish_us", publish * 1e6);
    metrics.set("serve.index.publish_us_end", publish_end * 1e6);
}

/// `mapidx::read`: a fresh mapping of the baked file, first cold then hot.
pub fn mapidx_read(
    path: &Path,
    hits: &[String],
    misses: &[String],
    metrics: &mut Metrics,
) -> io::Result<()> {
    let started = Instant::now();
    let index = SnapshotIndex::open(path).map_err(io::Error::other)?;
    metrics.set("mapidx.read.open_ms", started.elapsed().as_secs_f64() * 1e3);

    // The page cache still holds the file the bake just wrote; "cold" is
    // a mapping nobody has touched, so these gets take minor faults.
    let cold = &hits[..hits.len().min(10_000)];
    let faults_before = crate::host::minor_faults();
    let started = Instant::now();
    for url in cold {
        black_box(index.get(url));
    }
    let cold_s = started.elapsed().as_secs_f64();
    let faults = crate::host::minor_faults() - faults_before;
    metrics.set("mapidx.read.cold_get_us", cold_s * 1e6 / cold.len() as f64);
    metrics.set(
        "mapidx.read.minor_faults_per_kget",
        faults as f64 * 1e3 / cold.len() as f64,
    );

    let hot = |urls: &[String]| {
        median_secs(5, || {
            for url in urls {
                black_box(index.get(url));
            }
        }) * 1e9
            / urls.len() as f64
    };
    metrics.set("mapidx.read.get_hit_ns", hot(cold));
    metrics.set(
        "mapidx.read.get_miss_ns",
        hot(&misses[..misses.len().min(10_000)]),
    );
    Ok(())
}

/// `urlparse` and the URL half of `core::features`.
pub fn urlparse(urls: &[String], metrics: &mut Metrics) {
    let parse = median_secs(20, || {
        for url in urls {
            black_box(Url::parse(url).ok());
        }
    });
    let parsed: Vec<Url> = urls.iter().filter_map(|u| Url::parse(u).ok()).collect();
    let features = median_secs(20, || {
        for url in &parsed {
            black_box(url_features(url));
        }
    });
    metrics.set("urlparse.parse_ns", parse * 1e9 / urls.len() as f64);
    metrics.set(
        "urlparse.url_features_ns",
        features * 1e9 / parsed.len().max(1) as f64,
    );
}

/// `htmlparse`, `core::features`, `ml::flat` and `core::models`, each on the
/// corpus pages the workload classifies.
pub fn classify(corpus: &[LabeledSite], model: &AugmentedStackModel, metrics: &mut Metrics) {
    let pages: Vec<(Url, &str)> = corpus
        .iter()
        .filter_map(|s| {
            Url::parse(&s.site.url)
                .ok()
                .map(|u| (u, s.site.html.as_str()))
        })
        .collect();
    let bytes: usize = pages.iter().map(|(_, html)| html.len()).sum();
    let per_page = |secs: f64| secs * 1e6 / pages.len() as f64;

    let tokenize = median_secs(5, || {
        for (_, html) in &pages {
            black_box(tokenize_spans(html).count());
        }
    });
    let facts = median_secs(5, || {
        for (url, html) in &pages {
            let own = url
                .host()
                .registrable_domain()
                .unwrap_or_else(|| url.host().to_string());
            black_box(PageFacts::extract(html, &own));
        }
    });
    let extract = median_secs(5, || {
        for (url, html) in &pages {
            black_box(FeatureVector::extract_fast(
                FeatureSet::Augmented,
                url,
                html,
            ));
        }
    });
    let vectors: Vec<FeatureVector> = pages
        .iter()
        .map(|(url, html)| FeatureVector::extract_fast(FeatureSet::Augmented, url, html))
        .collect();
    let rows: Vec<&[f64]> = vectors.iter().map(|v| v.values.as_slice()).collect();
    let predict = median_secs(5, || {
        black_box(model.score_features_batch(black_box(&rows)));
    });
    let score = median_secs(5, || {
        for (url, html) in &pages {
            black_box(model.score_snapshot(url, html));
        }
    });
    metrics.set(
        "htmlparse.tokenize_mib_per_s",
        bytes as f64 / (1 << 20) as f64 / tokenize,
    );
    metrics.set("htmlparse.page_facts_us", per_page(facts));
    metrics.set("core.features.extract_fast_us", per_page(extract));
    metrics.set("ml.flat.predict_rows_per_s", rows.len() as f64 / predict);
    metrics.set("core.models.score_snapshot_us", per_page(score));
}

fn dir_bytes(dir: &Path) -> io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        total += entry?.metadata()?.len();
    }
    Ok(total)
}

/// `store`: buffered appends, appends each followed by a sync, and reopening
/// what was written. `payloads` are records of the size the workload writes.
pub fn store(dir: &Path, payloads: &[Vec<u8>], metrics: &mut Metrics) -> io::Result<()> {
    let (mut buffered, _) = Store::open_with(dir.join("buffered"), StoreOptions::default(), None)?;
    let started = Instant::now();
    for payload in payloads {
        buffered.append(payload)?;
    }
    let append_s = started.elapsed().as_secs_f64();
    let started = Instant::now();
    buffered.sync()?;
    let sync_s = started.elapsed().as_secs_f64();
    let payload_bytes: usize = payloads.iter().map(Vec::len).sum();
    let disk_bytes = dir_bytes(&dir.join("buffered"))?;
    drop(buffered);

    let started = Instant::now();
    let (_, recovered) = Store::open_with(dir.join("buffered"), StoreOptions::default(), None)?;
    let recover_s = started.elapsed().as_secs_f64();
    if recovered.records.len() != payloads.len() {
        return Err(io::Error::other("store recovery lost records"));
    }

    let (mut synced, _) = Store::open_with(dir.join("synced"), StoreOptions::default(), None)?;
    let mut each = Vec::new();
    for payload in payloads.iter().take(200) {
        let started = Instant::now();
        synced.append(payload)?;
        synced.sync()?;
        each.push(started.elapsed().as_secs_f64());
    }
    metrics.set(
        "store.append_buffered_records_per_s",
        payloads.len() as f64 / append_s,
    );
    metrics.set("store.sync_us", sync_s * 1e6);
    metrics.set(
        "store.disk_bytes_per_payload_byte",
        disk_bytes as f64 / payload_bytes as f64,
    );
    metrics.set("store.recover_ms", recover_s * 1e3);
    metrics.set("store.append_synced_us", median(each) * 1e6);
    Ok(())
}
