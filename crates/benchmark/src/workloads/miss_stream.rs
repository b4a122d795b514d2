//! `miss_stream`: binary `CHECKN` frames through the tiered resolver. A
//! quarter of the URLs are known, a quarter repeat a fixed pool of unknown
//! ones, and half have never been seen by anyone, from a stream that never
//! ends: the traffic the paper is about. Tier 1 (`urlparse`, pre-filter,
//! negative cache) sets the answer rate; tiers 2 and 3 (`htmlparse`,
//! `core::features`, `ml::flat`, the sidecar fsync, `publish`) set how fast
//! real verdicts land.

use crate::inputs::{self, index_of_url, MissGenerator, Sizing, MISS_NEVER};
use crate::layers::{self, mean};
use crate::loadgen::{closed_loop, Client, Phase, Until};
use crate::report::{Options, Report};
use crate::seams::{AddRecord, SpanChecker, WorldFetcher};
use crate::serving::{Serving, Traced};
use crate::stats::{percentile, sort};
use crate::trace::{Tracer, Track};
use crate::wire::Protocol;
use freephish_core::groundtruth::{build, GroundTruthConfig, LabeledSite};
use freephish_core::resolver::{ResolverModels, TieredResolver, TieredResolverConfig, WallClock};
use freephish_core::scaleworld::ScaleWorld;
use freephish_core::verdictstore::EventedStoreChecker;
use freephish_serve::{UrlChecker, Verdict};
use freephish_urlparse::Url;
use std::hint::black_box;
use std::io;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The models and the page bodies are part of the system, not of its input:
/// they are the same whatever the run's seed.
const CORPUS_SEED: u64 = 0xD1;
/// How long the classify queue may take to empty before the run gives up.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(60);
/// Tier-2 decisions compared with offline scoring after the run.
const DECISIONS_CHECKED: usize = 2_000;

pub struct MissStream {
    world: ScaleWorld,
    sizing: Sizing,
    corpus: Vec<LabeledSite>,
    models: Arc<ResolverModels>,
    train_s: f64,
    store: Arc<EventedStoreChecker>,
    /// Between resolver and store: sees tier-0 lookups and tier-3 adds.
    inner: Arc<SpanChecker>,
    fetcher: Arc<WorldFetcher>,
    resolver: Arc<TieredResolver>,
    /// What the server is started with.
    outer: Arc<SpanChecker>,
    config: TieredResolverConfig,
    /// Classify-queue sheds and tier-2 verdicts when the warm-up ended.
    before_open: (u64, u64),
}

/// The paper's response time, in ascending milliseconds: from the moment the
/// first CHECK of a never-seen URL was due (open loop) or written (closed
/// loop) to the moment its verdict was journaled and served. `frames` is the
/// generator's log for exactly the requests of `conn` that `phase` answered.
fn response_times_ms(
    phase: &Phase,
    conn: usize,
    generator: &MissGenerator,
    frames: &[u64],
    adds: &[AddRecord],
) -> Vec<f64> {
    let dues: Vec<f64> = phase
        .samples
        .iter()
        .filter(|s| s.conn as usize == conn)
        .map(|s| s.due_us)
        .collect();
    let frames = &frames[..frames.len().min(dues.len())];
    let mut out = Vec::new();
    for add in adds {
        let Some(position) = index_of_url(&add.url).and_then(|i| generator.never_position(i))
        else {
            continue;
        };
        // The frame whose never-seen URLs include this position, if the
        // phase sent it.
        let frame = frames.partition_point(|first| first + MISS_NEVER as u64 <= position);
        if frames.get(frame).is_some_and(|first| *first <= position) {
            let due = phase.start + Duration::from_secs_f64(dues[frame] / 1e6);
            out.push(add.done.saturating_duration_since(due).as_secs_f64() * 1e3);
        }
    }
    sort(&mut out);
    out
}

impl MissStream {
    /// Classify-queue sheds and tier-2 verdicts so far.
    fn shed_and_classified(&self) -> (u64, u64) {
        let snapshot = self.resolver.metrics_snapshot();
        (
            snapshot.counter("resolver_classify_shed_total", &[]),
            snapshot.counter("resolver_classified_total", &[]),
        )
    }

    /// Sends every URL of the repeat pool through the resolver once and
    /// waits for the classifications that causes, so that the timed phases
    /// see the pool as a long-running server would: already judged.
    fn judge_repeat_pool(&self) {
        let pool = inputs::repeat_pool(&self.world, &self.sizing);
        for chunk in pool.chunks(self.config.queue_cap / 2) {
            self.resolver.check_many(chunk);
            self.resolver.drain(DRAIN_TIMEOUT);
        }
    }
}

impl Serving for MissStream {
    type Gen = MissGenerator;
    type Inputs = Vec<(String, f64)>;
    const PROTOCOL: Protocol = Protocol::Binary;
    const OFFERED_REQUESTS_PER_S: f64 = 100.0;

    fn inputs(opts: &Options) -> Vec<(String, f64)> {
        inputs::delta_entries(&inputs::world(&opts.workload, opts.seed), &opts.sizing)
    }

    fn set_up(
        opts: &Options,
        delta: &Vec<(String, f64)>,
        dir: &Path,
        tracer: &Arc<Tracer>,
    ) -> io::Result<MissStream> {
        let world = inputs::world(&opts.workload, opts.seed);
        let n = opts.sizing.corpus_per_class;
        let corpus = build(&GroundTruthConfig {
            n_phish: n,
            n_benign: n,
            seed: CORPUS_SEED,
        });
        let config = TieredResolverConfig::default();
        let started = Instant::now();
        let models = Arc::new(ResolverModels::train(&corpus, &config));
        let train_s = started.elapsed().as_secs_f64();

        let store = Arc::new(EventedStoreChecker::open(dir.join("store"))?);
        store.index().publish(delta.iter().cloned());
        let inner = SpanChecker::new(
            store.clone(),
            tracer.clone(),
            "inner.check_many",
            "inner.add",
            Track::Background,
        );
        let bodies = |label: u8| {
            corpus
                .iter()
                .filter(|s| s.label == label)
                .map(|s| s.site.html.clone())
                .collect()
        };
        let fetcher = Arc::new(WorldFetcher::new(
            world.clone(),
            bodies(1),
            bodies(0),
            tracer.clone(),
        ));
        let resolver = TieredResolver::with_models(
            inner.clone(),
            fetcher.clone(),
            Arc::new(WallClock::new()),
            models.clone(),
            config.clone(),
        );
        let outer = SpanChecker::new(
            resolver.clone(),
            tracer.clone(),
            "checker.check_many",
            "checker.add",
            Track::Request,
        );
        Ok(MissStream {
            world,
            sizing: opts.sizing,
            corpus,
            models,
            train_s,
            store,
            inner,
            fetcher,
            resolver,
            outer,
            config,
            before_open: (0, 0),
        })
    }

    fn checker(&self) -> Arc<dyn UrlChecker> {
        self.outer.clone()
    }

    fn generator(&self, opts: &Options, conn: usize, conns: usize) -> MissGenerator {
        MissGenerator::new(&self.world, opts.seed, &opts.sizing, conn, conns)
    }

    fn warm_up(&mut self, clients: &mut [Client<MissGenerator>], tracer: &Tracer) {
        self.judge_repeat_pool();
        closed_loop(clients, Until::Requests(200), 1, tracer);
        self.resolver.drain(DRAIN_TIMEOUT);
        // Neither the adds nor the frames of the warm-up are measured.
        self.inner.forget_adds();
        clients
            .iter_mut()
            .for_each(|c| drop(c.generator.take_frame_log()));
        self.before_open = self.shed_and_classified();
    }

    /// The open phase offers less than the classifier can take, so a shed
    /// there is a failure.
    ///
    /// The closed phase then leaves the never-seen half out of its frames. A
    /// closed loop of never-seen URLs floods the classify queue, and serving
    /// and classifying then share the CPUs in one of two stable ways: about
    /// 250,000 answers/s with 1,800 verdicts/s, or 130,000 with 3,300. Which
    /// one a process lands in is decided in its first second and kept, so
    /// the rate does not repeat from run to run. The traced run still floods
    /// the queue, from one connection, for the resolver's per-layer numbers.
    fn after_open(&mut self, clients: &mut [Client<MissGenerator>], report: &mut Report) {
        let (shed, classified) = self.shed_and_classified();
        report.count(0, shed - self.before_open.0);
        report.detail(
            "open_classify_sheds",
            (shed - self.before_open.0) as f64,
            "count",
        );
        report.detail(
            "open_classified",
            (classified - self.before_open.1) as f64,
            "count",
        );
        clients
            .iter_mut()
            .for_each(|c| c.generator.never_seen = false);
    }

    fn detail(
        &mut self,
        open: &Phase,
        _closed: &Phase,
        clients: &mut [Client<MissGenerator>],
        report: &mut Report,
    ) {
        // Adds of URLs first sent after the open phase match no frame of it.
        let adds = self.inner.adds();
        let mut response_ms = Vec::new();
        for (c, client) in clients.iter_mut().enumerate() {
            let frames = client.generator.take_frame_log();
            response_ms.extend(response_times_ms(
                open,
                c,
                &client.generator,
                &frames,
                &adds,
            ));
        }
        sort(&mut response_ms);
        if !response_ms.is_empty() {
            report.detail(
                "verdict_response_p50_ms",
                percentile(&response_ms, 50.0),
                "ms",
            );
            report.detail(
                "verdict_response_p99_ms",
                percentile(&response_ms, 99.0),
                "ms",
            );
            report.detail(
                "verdict_response_samples",
                response_ms.len() as f64,
                "count",
            );
        }
    }

    /// After the queue has drained, every tier-2 decision must equal offline
    /// `score_snapshot` on the same URL and body, to the bit, and every
    /// journaled verdict must be a tier-0 hit.
    fn verify(self, _clients: Vec<Client<MissGenerator>>, report: &mut Report) -> io::Result<()> {
        if !self.resolver.drain(DRAIN_TIMEOUT) {
            return Err(io::Error::other("the classify queue did not drain"));
        }
        let served = self.fetcher.served();
        let step = served.len().div_ceil(DECISIONS_CHECKED).max(1);
        for (url, body) in served.iter().step_by(step) {
            let parsed = Url::parse(url).map_err(|e| io::Error::other(format!("{url}: {e:?}")))?;
            let offline = self.models.stack().score_snapshot(&parsed, body);
            let expected = if offline >= self.config.threshold {
                Verdict::Phishing(offline)
            } else {
                Verdict::Safe(offline)
            };
            let served_now = self.resolver.check(url);
            let same = served_now.is_phishing() == expected.is_phishing()
                && served_now.score().to_bits() == offline.to_bits();
            report.count(1, u64::from(!same));
        }
        for add in self.inner.adds() {
            let hit = self.store.check(&add.url) == Verdict::Phishing(add.score);
            report.count(1, u64::from(!hit));
        }
        self.resolver.shutdown();
        Ok(())
    }

    fn layers(
        &mut self,
        traced: &Traced,
        clients: &mut [Client<MissGenerator>],
        report: &mut Report,
    ) -> io::Result<()> {
        // First CHECK written to verdict journaled, with one request in
        // flight: the traced phase is the last the first connection ran.
        self.resolver.drain(DRAIN_TIMEOUT);
        let adds = self.inner.adds();
        let frames = clients[0].generator.take_frame_log();
        let traced_frames = &frames[frames.len() - traced.traced.sent as usize..];
        let response_ms = response_times_ms(
            &traced.traced,
            0,
            &clients[0].generator,
            traced_frames,
            &adds,
        );

        // One more closed-loop stretch on one connection, to read the
        // resolver's counters and its queue over a known interval.
        let stretch = traced.traced.wall_s.min(2.0);
        let before = self.resolver.metrics_snapshot();
        let started = Instant::now();
        let resolver = &self.resolver;
        let depths: Vec<f64> = std::thread::scope(|scope| {
            let sampler = scope.spawn(move || {
                let mut depths = Vec::new();
                while started.elapsed().as_secs_f64() < stretch {
                    depths.push(
                        resolver
                            .metrics_snapshot()
                            .gauge("resolver_queue_depth", &[]) as f64,
                    );
                    std::thread::sleep(Duration::from_millis(25));
                }
                depths
            });
            closed_loop(
                &mut clients[..1],
                Until::Seconds(stretch),
                1,
                &Tracer::default(),
            );
            sampler.join().expect("sampler does not panic")
        });
        let after = self.resolver.metrics_snapshot();
        let elapsed = started.elapsed().as_secs_f64();
        let grew = |name: &str, labels: &[(&str, &str)]| {
            (after.counter(name, labels) - before.counter(name, labels)) as f64
        };
        let requests = grew("resolver_requests_total", &[]).max(1.0);
        let tier = |tier: &str| grew("resolver_tier_hits_total", &[("tier", tier)]) / requests;
        let negative: f64 = ["prefilter", "model", "unfetchable", "rejected"]
            .iter()
            .map(|src| {
                grew(
                    "resolver_tier_hits_total",
                    &[("tier", "negative"), ("src", src)],
                )
            })
            .sum();
        let classified_per_s = grew("resolver_classified_total", &[]) / elapsed;
        let depth_mean = depths.iter().sum::<f64>() / depths.len().max(1) as f64;
        let latency_mean = |tier: &str| mean(&after, "resolver_tier_latency_us", &[("tier", tier)]);

        let metrics = &mut report.metrics;
        metrics.set("core.resolver.queue_depth_mean", depth_mean);
        metrics.set(
            "core.resolver.queue_wait_ms",
            if classified_per_s > 0.0 {
                depth_mean / classified_per_s * 1e3
            } else {
                0.0
            },
        );
        metrics.set("core.resolver.classified_per_s", classified_per_s);
        metrics.set(
            "core.resolver.journaled_per_s",
            grew("resolver_journaled_total", &[]) / elapsed,
        );
        metrics.set(
            "core.resolver.shed_ratio",
            grew("resolver_classify_shed_total", &[]) / requests,
        );
        metrics.set("core.resolver.tier_index_ratio", tier("index"));
        metrics.set("core.resolver.tier_prefilter_ratio", tier("prefilter"));
        metrics.set("core.resolver.tier_negative_ratio", negative / requests);
        metrics.set("core.resolver.tier_provisional_ratio", tier("provisional"));
        metrics.set("core.resolver.prefilter_us", latency_mean("prefilter"));
        metrics.set(
            "core.resolver.classify_batch_us",
            latency_mean("classify_batch"),
        );
        metrics.set(
            "core.resolver.negative_entries_end",
            after.gauge("resolver_negative_entries", &[]) as f64,
        );
        if !response_ms.is_empty() {
            metrics.set(
                "core.resolver.verdict_response_p50_ms",
                percentile(&response_ms, 50.0),
            );
        }

        // One never-seen URL at a time, straight into the resolver.
        let fresh: Vec<String> = (0..2_000u64)
            .map(|i| self.world.verdict_at((1 << 39) + i).0)
            .collect();
        let started = Instant::now();
        for url in &fresh {
            black_box(self.resolver.check(url));
        }
        metrics.set(
            "core.resolver.resolve_miss_ns",
            started.elapsed().as_secs_f64() * 1e9 / fresh.len() as f64,
        );

        metrics.set("ml.train_s", self.train_s);
        layers::urlparse(&fresh, metrics);
        layers::classify(&self.corpus, self.models.stack(), metrics);
        layers::index(
            &self.world,
            inputs::delta_entries(&self.world, &self.sizing),
            &self.store.index(),
            metrics,
        );
        metrics.set(
            "core.verdictstore.add_durable_us",
            traced.table.self_us_per_span("inner.add"),
        );
        report.detail(
            "trace.resolver_tiers_us_per_frame",
            traced.table.self_us_per_span("checker.check_many"),
            "us",
        );
        report.detail(
            "trace.index_lookup_us_per_frame",
            traced.table.self_us_per_span("inner.check_many"),
            "us",
        );
        Ok(())
    }
}
