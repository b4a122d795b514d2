//! Offline/online equivalence: a verdict resolved through the tiered
//! pipeline is the SAME number the offline model produces.
//!
//! The tiered resolver classifies residue as microbatches on the
//! `freephish-par` pool, and the serving engine fronts it over two wire
//! protocols. None of that is allowed to perturb a score:
//!
//! * the settled resolver verdict for every miss is bit-identical to a
//!   direct [`AugmentedStackModel::score_snapshot`] call on the same
//!   snapshot (`f64::to_bits` equality, not epsilon);
//! * the binary protocol carries those bits to a client unchanged;
//! * the line protocol agrees at its documented 4-decimal quantization.
//!
//! `scripts/ci.sh` runs the workspace tests twice — `FREEPHISH_THREADS=1`
//! and the host default — so the bit-equality assertions also prove the
//! microbatch scoring is deterministic across pool widths.
//!
//! [`AugmentedStackModel::score_snapshot`]: freephish_core::models::augmented::AugmentedStackModel

use freephish_core::extension::{UrlChecker, Verdict, VerdictClient};
use freephish_core::groundtruth::{build, GroundTruthConfig};
use freephish_core::resolver::{
    ManualClock, MapFetcher, ResolverModels, TieredResolver, TieredResolverConfig,
};
use freephish_core::verdictstore::EventedStoreChecker;
use freephish_serve::{EventedServer, ShardedIndex};
use freephish_store::testutil::TempDir;
use freephish_urlparse::Url;
use std::sync::Arc;
use std::time::Duration;

/// The held-out miss corpus: never in the index, all fetchable.
fn miss_corpus() -> Vec<(String, String)> {
    build(&GroundTruthConfig {
        n_phish: 24,
        n_benign: 40,
        seed: 0xE0_1A7E,
    })
    .into_iter()
    .map(|s| (s.site.url, s.site.html))
    .collect()
}

/// The miss corpus behind a fetcher, and trained models. Cutoff 0
/// disables the confident-safe wave-through so every URL takes the full
/// classify path.
struct MissFixture {
    cfg: TieredResolverConfig,
    sites: Vec<(String, String)>,
    fetcher: Arc<MapFetcher>,
    models: Arc<ResolverModels>,
}

fn miss_fixture() -> MissFixture {
    let cfg = TieredResolverConfig::default();
    let sites = miss_corpus();
    let fetcher = Arc::new(MapFetcher::new());
    for (url, html) in &sites {
        fetcher.insert(url, html);
    }
    let models = Arc::new(ResolverModels::train(&build(&cfg.corpus), &cfg).with_cutoff(0.0));
    MissFixture {
        cfg,
        sites,
        fetcher,
        models,
    }
}

/// A warm resolver with every miss settled through tier 2, plus the
/// offline scores it must agree with.
fn settled() -> (Arc<TieredResolver>, Vec<(String, f64)>, f64) {
    let MissFixture {
        cfg,
        sites,
        fetcher,
        models,
    } = miss_fixture();
    let resolver = TieredResolver::with_models(
        Arc::new(ShardedIndex::with_default_shards()),
        fetcher,
        Arc::new(ManualClock::new()),
        models.clone(),
        cfg.clone(),
    );
    for (url, _) in &sites {
        let _ = resolver.check(url); // provisional; enqueues classification
    }
    assert!(
        resolver.drain(Duration::from_secs(60)),
        "classify queue must drain"
    );
    let expected: Vec<(String, f64)> = sites
        .iter()
        .map(|(url, html)| {
            let parsed = Url::parse(url).expect("generated URLs parse");
            (url.clone(), models.stack().score_snapshot(&parsed, html))
        })
        .collect();
    (resolver, expected, cfg.threshold)
}

#[test]
fn settled_verdicts_are_bit_identical_to_offline_scores() {
    let (resolver, expected, threshold) = settled();
    let urls: Vec<String> = expected.iter().map(|(u, _)| u.clone()).collect();
    let verdicts = resolver.check_many(&urls);
    for ((url, offline), verdict) in expected.iter().zip(&verdicts) {
        assert_eq!(
            verdict.is_phishing(),
            *offline >= threshold,
            "{url}: tier disposition disagrees with the offline model"
        );
        assert_eq!(
            verdict.score().to_bits(),
            offline.to_bits(),
            "{url}: settled score {} != offline {offline}",
            verdict.score()
        );
    }
    // Settling happened exactly once per URL — the second pass above was
    // pure tier-0 / negative-cache, no re-classification.
    let snap = resolver.metrics_snapshot();
    assert_eq!(
        snap.counter("resolver_classified_total", &[]),
        expected.len() as u64
    );
    resolver.shutdown();
}

#[test]
fn evented_binary_protocol_carries_offline_bits_unchanged() {
    let (resolver, expected, threshold) = settled();
    let mut engine =
        EventedServer::start(resolver.clone() as Arc<dyn UrlChecker>).expect("start evented");
    let client = VerdictClient::new(engine.addr());
    let urls: Vec<String> = expected.iter().map(|(u, _)| u.clone()).collect();
    let verdicts = client.check_batch_strict(&urls).expect("binary CHECKN");
    for ((url, offline), verdict) in expected.iter().zip(&verdicts) {
        assert_eq!(verdict.is_phishing(), *offline >= threshold, "{url}");
        assert_eq!(
            verdict.score().to_bits(),
            offline.to_bits(),
            "{url}: binary wire score {} != offline {offline}",
            verdict.score()
        );
    }
    engine.shutdown();
    assert!(engine.drain(Duration::from_secs(5)));
    resolver.shutdown();
}

#[test]
fn evented_line_protocol_agrees_at_its_quantization() {
    let (resolver, expected, threshold) = settled();
    let mut engine =
        EventedServer::start(resolver.clone() as Arc<dyn UrlChecker>).expect("start evented");
    let client = VerdictClient::new(engine.addr());
    // Single checks travel as `CHECK` lines, whose scores are printed at
    // 4 decimals.
    for (url, offline) in &expected {
        let verdict = client.check(url).expect("line CHECK");
        assert_eq!(verdict.is_phishing(), *offline >= threshold, "{url}");
        let quantized: f64 = format!("{offline:.4}").parse().unwrap();
        assert_eq!(
            verdict.score().to_bits(),
            quantized.to_bits(),
            "{url}: line wire score {} != quantized offline {quantized}",
            verdict.score()
        );
    }
    engine.shutdown();
    assert!(engine.drain(Duration::from_secs(5)));
    resolver.shutdown();
}

/// The crash contract of tier 3: a phishing verdict is durable the moment
/// it is journaled (the sidecar fsyncs per append), whether or not the
/// resolver ever drains. Stop mid-queue, reopen the directory cold, and
/// exactly the journaled verdicts come back — as tier-0 hits, with no
/// classification work.
#[test]
fn journaled_inline_verdicts_survive_an_undrained_shutdown() {
    let MissFixture {
        cfg,
        sites,
        fetcher,
        models,
    } = miss_fixture();
    let store_dir = TempDir::new("tiered-undrained");
    let checker = Arc::new(EventedStoreChecker::open(store_dir.path()).expect("open store"));
    let resolver = TieredResolver::with_models(
        checker.clone(),
        fetcher,
        Arc::new(ManualClock::new()),
        models.clone(),
        cfg.clone(),
    );
    // Settle the first half so the journal is provably non-empty, then
    // enqueue the rest and stop WITHOUT draining: whatever the workers
    // journaled before the stop counts, the rest of the queue is lost.
    let (settled, in_flight) = sites.split_at(sites.len() / 2);
    for (url, _) in settled {
        let _ = resolver.check(url);
    }
    assert!(resolver.drain(Duration::from_secs(60)), "first wave drains");
    for (url, _) in in_flight {
        let _ = resolver.check(url);
    }
    resolver.shutdown();
    let journaled: Vec<&String> = sites
        .iter()
        .map(|(url, _)| url)
        .filter(|url| checker.check(url).is_phishing())
        .collect();
    assert!(!journaled.is_empty(), "the corpus holds phishing sites");
    drop(resolver);
    drop(checker);

    let reopened = Arc::new(EventedStoreChecker::open(store_dir.path()).expect("reopen store"));
    assert_eq!(
        reopened.len(),
        journaled.len(),
        "the sidecar recovers exactly the journaled inline verdicts"
    );
    let resolver = TieredResolver::with_models(
        reopened,
        Arc::new(MapFetcher::new()),
        Arc::new(ManualClock::new()),
        models,
        cfg,
    );
    for url in &journaled {
        assert!(
            resolver.check(url).is_phishing(),
            "{url} lost across restart"
        );
    }
    let snap = resolver.metrics_snapshot();
    assert_eq!(
        snap.counter("resolver_tier_hits_total", &[("tier", "index")]),
        journaled.len() as u64,
        "every replayed check resolves in tier 0"
    );
    assert_eq!(
        snap.counter("resolver_classified_total", &[])
            + snap.counter("resolver_classify_enqueued_total", &[]),
        0,
        "a restart re-classifies nothing"
    );
    resolver.shutdown();
}

#[test]
fn verdict_enum_threshold_convention_matches_resolver() {
    // Guard the convention the equivalence proofs above lean on: the
    // resolver turns a score into Phishing iff score >= threshold.
    assert!(Verdict::Phishing(0.9).is_phishing());
    assert!(!Verdict::Safe(0.1).is_phishing());
}
