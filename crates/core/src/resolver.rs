//! Tiered verdict resolution: the classify-on-miss pipeline behind the
//! serve path.
//!
//! The serving engines judge URLs through one [`UrlChecker`]; until now
//! that checker was a pure lookup, so unknown URLs — the traffic that
//! actually matters — always fell through as `SAFE 0.0`. A
//! [`TieredResolver`] wraps any inner checker and resolves misses through
//! an admission pipeline:
//!
//! * **tier 0 — index.** The inner checker (a bare [`ShardedIndex`], the
//!   store-backed node over one, anything). A hit answers
//!   immediately; batches resolve against one snapshot via `check_many`.
//! * **tier 1 — URL-lexical pre-filter.** A flat-forest GBDT over the
//!   eight SWAR-extracted [`url_features`] scores the URL alone in
//!   microseconds. Scores below a calibrated confident-safe cutoff
//!   ([`freephish_ml::threshold_at_fnr`]) are served as safe without ever
//!   touching the page — the cheap first stage that absorbs the bulk of
//!   miss traffic.
//! * **tier 2 — full classification.** A frame's residue is enqueued in
//!   one pass on a *bounded* classify queue and classified as microbatches
//!   on the `freephish-par` pool by a background worker: snapshot fetch,
//!   [`looks_like_html`] sniff, then [`AugmentedStackModel::score_snapshot`]
//!   per URL, all inside the parallel section. The caller is answered
//!   immediately with the tier-1 score as a provisional verdict, so the
//!   evented engine's poll workers never block on a model; a full queue
//!   sheds the enqueue (counted) rather than stalling.
//! * **tier 3 — durability.** Freshly classified phishing verdicts are
//!   journaled through the inner checker's `add` path (append + fsync
//!   to the WAL a store-backed [`EventedStoreChecker`] holds), so they
//!   become durable, hot-reloadable tier-0 state: a restart
//!   recovers every journaled inline verdict with zero re-classification.
//!
//! Safe classifications are not journaled — a lookup miss already means
//! safe — but land in a TTL'd **negative cache** so repeat misses don't
//! re-classify. Expired negatives re-enter the classify queue; fresh ones
//! never do. A frame reads the negative cache as it stood when the frame
//! began and writes its tier-1 `SAFE` answers under one write lock at the
//! end, so a URL repeated within one frame is judged by tier 1 at every
//! occurrence. Every stage is counted and timed through `freephish-obs`
//! (`resolver_*` metrics) and surfaces on the ops plane.
//!
//! [`ShardedIndex`]: freephish_serve::ShardedIndex
//! [`EventedStoreChecker`]: crate::verdictstore::EventedStoreChecker
//! [`looks_like_html`]: freephish_htmlparse::looks_like_html
//! [`url_features`]: crate::features::url_features

use crate::extension::{UrlChecker, Verdict};
use crate::features::url_features;
use crate::groundtruth::LabeledSite;
use crate::models::augmented::AugmentedStackModel;
use freephish_htmlparse::looks_like_html;
use freephish_ml::{threshold_at_fnr, Dataset, Gbdt, GbdtConfig, StackModelConfig};
use freephish_obs::sync::{lock, read, write};
use freephish_obs::{Counter, Gauge, Histogram, MetricsSnapshot, Registry};
use freephish_simclock::{Rng64, SimDuration, SimTime};
use freephish_urlparse::{swar, Url};
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::time::{Duration, Instant};

pub use crate::models::SnapshotFetcher;

/// A fetcher serving exact bodies from an in-memory map — the test
/// backend, where miss URLs are generated together with their HTML.
#[derive(Default)]
pub struct MapFetcher {
    map: RwLock<HashMap<String, String>>,
}

impl MapFetcher {
    /// An empty fetcher.
    pub fn new() -> MapFetcher {
        MapFetcher::default()
    }

    /// Register the body served for `url`.
    pub fn insert(&self, url: impl Into<String>, html: impl Into<String>) {
        write(&self.map).insert(url.into(), html.into());
    }

    /// Number of registered bodies.
    pub fn len(&self) -> usize {
        read(&self.map).len()
    }

    /// True when no bodies are registered.
    pub fn is_empty(&self) -> bool {
        read(&self.map).is_empty()
    }
}

impl SnapshotFetcher for MapFetcher {
    fn fetch(&self, url: &str) -> Option<String> {
        read(&self.map).get(url).cloned()
    }
}

/// The resolver's notion of "now", abstracted so TTL behaviour is
/// testable under `simclock` control.
pub trait ResolverClock: Send + Sync {
    /// Current time.
    fn now(&self) -> SimTime;
}

/// Wall time: whole seconds elapsed since the clock was created.
pub struct WallClock {
    start: Instant,
}

impl WallClock {
    /// A clock starting at the simulation epoch now.
    pub fn new() -> WallClock {
        WallClock {
            start: Instant::now(),
        }
    }
}

impl Default for WallClock {
    fn default() -> Self {
        WallClock::new()
    }
}

impl ResolverClock for WallClock {
    fn now(&self) -> SimTime {
        SimTime(self.start.elapsed().as_secs())
    }
}

/// A hand-advanced clock for TTL tests.
#[derive(Default)]
pub struct ManualClock {
    now: AtomicU64,
}

impl ManualClock {
    /// A clock at the epoch.
    pub fn new() -> ManualClock {
        ManualClock::default()
    }

    /// Move time forward.
    pub fn advance(&self, d: SimDuration) {
        self.now.fetch_add(d.0, Ordering::SeqCst);
    }
}

impl ResolverClock for ManualClock {
    fn now(&self) -> SimTime {
        SimTime(self.now.load(Ordering::SeqCst))
    }
}

/// Tuning for a [`TieredResolver`].
#[derive(Debug, Clone)]
pub struct TieredResolverConfig {
    /// Classification decision threshold: tier-2 scores at or above it are
    /// phishing (journaled), below it safe (negative-cached). Provisional
    /// verdicts for queued residue use the same cut on the tier-1 score.
    pub threshold: f64,
    /// False-negative budget for the tier-1 confident-safe cutoff
    /// calibration (fraction of training phish the pre-filter may wave
    /// through to the negative cache).
    pub prefilter_max_fnr: f64,
    /// Bound on the classify queue; admissions beyond it are shed.
    pub queue_cap: usize,
    /// URLs per classify microbatch handed to the `par` pool.
    pub microbatch: usize,
    /// How long a safe (negative) verdict suppresses re-classification.
    pub negative_ttl: SimDuration,
    /// Seed for model training.
    pub train_seed: u64,
}

impl Default for TieredResolverConfig {
    fn default() -> Self {
        TieredResolverConfig {
            threshold: 0.5,
            prefilter_max_fnr: 0.02,
            queue_cap: 4096,
            microbatch: 64,
            negative_ttl: SimDuration(3600),
            train_seed: 0xF5EE_F00D,
        }
    }
}

/// The trained model pair a resolver serves with: the URL-only pre-filter
/// with its calibrated cutoff, and the full-page stack model.
pub struct ResolverModels {
    prefilter: Gbdt,
    cutoff: f64,
    stack: AugmentedStackModel,
}

impl ResolverModels {
    /// Train both tiers on `corpus` and calibrate the confident-safe
    /// cutoff to `cfg.prefilter_max_fnr`.
    pub fn train(corpus: &[LabeledSite], cfg: &TieredResolverConfig) -> ResolverModels {
        let mut rng = Rng64::new(cfg.train_seed);
        let mut data = Dataset::new(
            [
                "url_len",
                "suspicious_symbols",
                "sensitive_words",
                "brand_score",
                "digit_ratio",
                "host_dots",
                "host_hyphens",
                "ip_host",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect(),
        );
        for site in corpus {
            if let Ok(url) = Url::parse(&site.site.url) {
                data.push(url_features(&url).to_vec(), site.label);
            }
        }
        let prefilter = Gbdt::train(&GbdtConfig::classic(), &data, &mut rng);
        let scores = prefilter.predict_all(&data);
        let cutoff = threshold_at_fnr(data.labels(), &scores, cfg.prefilter_max_fnr);
        let stack = AugmentedStackModel::train(corpus, &StackModelConfig::tiny(), &mut rng);
        ResolverModels {
            prefilter,
            cutoff,
            stack,
        }
    }

    /// Override the calibrated cutoff (tests force tier routing with it:
    /// `0.0` sends everything to tier 2, `f64::INFINITY` nothing).
    pub fn with_cutoff(mut self, cutoff: f64) -> ResolverModels {
        self.cutoff = cutoff;
        self
    }

    /// The calibrated confident-safe cutoff.
    pub fn cutoff(&self) -> f64 {
        self.cutoff
    }

    /// Tier-1 score for a parsed URL.
    pub fn prefilter_score(&self, url: &Url) -> f64 {
        self.prefilter.predict_proba(&url_features(url))
    }

    /// The tier-2 model (offline equivalence tests score through it).
    pub fn stack(&self) -> &AugmentedStackModel {
        &self.stack
    }
}

/// What produced a negative-cache entry — kept so per-tier accounting can
/// attribute repeat hits to the tier that originally served them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NegativeSrc {
    Prefilter,
    Model,
    Unfetchable,
    Rejected,
}

struct NegativeEntry {
    score: f64,
    expires: SimTime,
    src: NegativeSrc,
}

/// What resolving a frame's misses leaves for the end of the frame: the
/// tier-1 `SAFE` answers to negative-cache and the residue to admit.
#[derive(Default)]
struct FrameMisses<'a> {
    negatives: Vec<(&'a str, f64, NegativeSrc)>,
    residue: Vec<&'a str>,
}

#[derive(Default)]
struct QueueState {
    queue: VecDeque<String>,
    /// Queued or mid-classification; admission dedup key.
    pending: HashSet<String>,
    inflight: usize,
}

struct ResolverMetrics {
    registry: Registry,
    requests: Arc<Counter>,
    hit_index: Arc<Counter>,
    hit_prefilter: Arc<Counter>,
    hit_negative_prefilter: Arc<Counter>,
    hit_negative_model: Arc<Counter>,
    hit_negative_unfetchable: Arc<Counter>,
    hit_negative_rejected: Arc<Counter>,
    hit_provisional: Arc<Counter>,
    enqueued: Arc<Counter>,
    pending_hits: Arc<Counter>,
    shed: Arc<Counter>,
    rejected: Arc<Counter>,
    negative_expired: Arc<Counter>,
    classified: Arc<Counter>,
    classified_phishing: Arc<Counter>,
    classified_safe: Arc<Counter>,
    journaled: Arc<Counter>,
    journal_errors: Arc<Counter>,
    fetch_failed: Arc<Counter>,
    prefilter_us: Arc<Histogram>,
    classify_batch_us: Arc<Histogram>,
    queue_depth: Arc<Gauge>,
    negative_entries: Arc<Gauge>,
}

impl ResolverMetrics {
    fn new() -> ResolverMetrics {
        let registry = Registry::new();
        let tier = |t: &str| registry.counter("resolver_tier_hits_total", &[("tier", t)]);
        let neg = |s: &str| {
            registry.counter(
                "resolver_tier_hits_total",
                &[("tier", "negative"), ("src", s)],
            )
        };
        ResolverMetrics {
            requests: registry.counter("resolver_requests_total", &[]),
            hit_index: tier("index"),
            hit_prefilter: tier("prefilter"),
            hit_negative_prefilter: neg("prefilter"),
            hit_negative_model: neg("model"),
            hit_negative_unfetchable: neg("unfetchable"),
            hit_negative_rejected: neg("rejected"),
            hit_provisional: tier("provisional"),
            enqueued: registry.counter("resolver_classify_enqueued_total", &[]),
            pending_hits: registry.counter("resolver_classify_pending_hits_total", &[]),
            shed: registry.counter("resolver_classify_shed_total", &[]),
            rejected: registry.counter("resolver_rejected_urls_total", &[]),
            negative_expired: registry.counter("resolver_negative_expired_total", &[]),
            classified: registry.counter("resolver_classified_total", &[]),
            classified_phishing: registry.counter("resolver_classified_phishing_total", &[]),
            classified_safe: registry.counter("resolver_classified_safe_total", &[]),
            journaled: registry.counter("resolver_journaled_total", &[]),
            journal_errors: registry.counter("resolver_journal_errors_total", &[]),
            fetch_failed: registry.counter("resolver_fetch_failed_total", &[]),
            prefilter_us: registry.histogram("resolver_tier_latency_us", &[("tier", "prefilter")]),
            classify_batch_us: registry
                .histogram("resolver_tier_latency_us", &[("tier", "classify_batch")]),
            queue_depth: registry.gauge("resolver_queue_depth", &[]),
            negative_entries: registry.gauge("resolver_negative_entries", &[]),
            registry,
        }
    }
}

/// What the worker thread shares with the handle. The thread holds this,
/// never the [`TieredResolver`] itself, so dropping the last handle runs
/// its `Drop` — which stops and joins it.
struct Shared {
    inner: Arc<dyn UrlChecker>,
    fetcher: Arc<dyn SnapshotFetcher>,
    clock: Arc<dyn ResolverClock>,
    cfg: TieredResolverConfig,
    models: Arc<ResolverModels>,
    negative: RwLock<HashMap<String, NegativeEntry>>,
    state: Mutex<QueueState>,
    work_cv: Condvar,
    idle_cv: Condvar,
    stop: AtomicBool,
    metrics: ResolverMetrics,
}

/// The tiered resolver. Implements [`UrlChecker`], so it slots directly
/// into the serving engine in place of the bare index checker; see the
/// module docs for the tier walk.
pub struct TieredResolver {
    shared: Arc<Shared>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl TieredResolver {
    /// A resolver serving with `models`. The worker thread starts
    /// consuming the classify queue at once.
    pub fn with_models(
        inner: Arc<dyn UrlChecker>,
        fetcher: Arc<dyn SnapshotFetcher>,
        clock: Arc<dyn ResolverClock>,
        models: Arc<ResolverModels>,
        cfg: TieredResolverConfig,
    ) -> Arc<TieredResolver> {
        let r = Self::build(inner, fetcher, clock, models, cfg);
        r.spawn_worker();
        r
    }

    fn build(
        inner: Arc<dyn UrlChecker>,
        fetcher: Arc<dyn SnapshotFetcher>,
        clock: Arc<dyn ResolverClock>,
        models: Arc<ResolverModels>,
        cfg: TieredResolverConfig,
    ) -> Arc<TieredResolver> {
        Arc::new(TieredResolver {
            shared: Arc::new(Shared {
                inner,
                fetcher,
                clock,
                cfg,
                models,
                negative: RwLock::new(HashMap::new()),
                state: Mutex::new(QueueState::default()),
                work_cv: Condvar::new(),
                idle_cv: Condvar::new(),
                stop: AtomicBool::new(false),
                metrics: ResolverMetrics::new(),
            }),
            workers: Mutex::new(Vec::new()),
        })
    }

    fn spawn_worker(&self) {
        let s = self.shared.clone();
        lock(&self.workers).push(std::thread::spawn(move || s.worker_loop()));
    }

    /// Block until the classify queue is empty and no batch is in flight,
    /// up to `timeout`. Returns whether it drained.
    pub fn drain(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut st = self.shared.state.lock().unwrap();
        while !st.queue.is_empty() || st.inflight > 0 {
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let (guard, _) = self
                .shared
                .idle_cv
                .wait_timeout(st, deadline - now)
                .expect("resolver state poisoned");
            st = guard;
        }
        true
    }

    /// Stop the worker thread and join it; dropping the last
    /// handle does the same. Idempotent; verdicts already journaled are
    /// durable regardless (the inner checker fsyncs per `add`), which is
    /// what the kill-mid-load recovery test relies on.
    pub fn shutdown(&self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        self.shared.work_cv.notify_all();
        let handles: Vec<_> = lock(&self.workers).drain(..).collect();
        for h in handles {
            let _ = h.join();
        }
    }

    /// Snapshot of the resolver's own metrics (`resolver_*`), with the
    /// queue-depth and negative-cache gauges refreshed.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let s = &self.shared;
        {
            let st = s.state.lock().unwrap();
            s.metrics.queue_depth.set(st.queue.len() as i64);
        }
        s.metrics
            .negative_entries
            .set(read(&s.negative).len() as i64);
        s.metrics.registry.snapshot()
    }

    /// The inner checker (tier 0 / tier 3).
    pub fn inner(&self) -> Arc<dyn UrlChecker> {
        self.shared.inner.clone()
    }
}

impl Drop for TieredResolver {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl Shared {
    /// Resolve one miss (tier 0 already answered safe-unknown) at the
    /// frame's time `now`. A tier-1 `SAFE` answer is pushed onto
    /// `frame.negatives`, a URL left for tier 2 is answered provisionally
    /// and pushed onto `frame.residue`; [`Shared::settle`] applies both.
    fn resolve_miss<'a>(&self, url: &'a str, now: SimTime, frame: &mut FrameMisses<'a>) -> Verdict {
        // Negative cache: a fresh safe verdict answers without work; an
        // expired one is evicted and falls through to re-classification.
        // The write lock is taken only to evict, re-checking freshness: a
        // publish may have raced a refresh in.
        let expired = match read(&self.negative).get(url) {
            Some(entry) if now < entry.expires => return self.negative_hit(entry),
            found => found.is_some(),
        };
        if expired {
            let mut neg = write(&self.negative);
            if let Some(entry) = neg.get(url) {
                if now < entry.expires {
                    return self.negative_hit(entry);
                }
                neg.remove(url);
                self.metrics.negative_expired.inc();
            }
        }

        // Garbage guard: one SWAR pass, then the one full parse. Unparsable
        // input can never be classified — cache the rejection.
        let parsed = match swar::has_space_or_control(url) {
            false => Url::parse(url).ok(),
            true => None,
        };
        let Some(parsed) = parsed else {
            self.metrics.rejected.inc();
            frame.negatives.push((url, 0.0, NegativeSrc::Rejected));
            return Verdict::Safe(0.0);
        };

        // Tier 1: URL-lexical pre-filter.
        let t0 = Instant::now();
        let p = self.models.prefilter_score(&parsed);
        self.metrics
            .prefilter_us
            .record(t0.elapsed().as_secs_f64() * 1e6);
        if p < self.models.cutoff {
            self.metrics.hit_prefilter.inc();
            frame.negatives.push((url, p, NegativeSrc::Prefilter));
            return Verdict::Safe(p);
        }

        // Tier 2 admission: provisional verdict from the tier-1 score,
        // classification deferred to the worker.
        frame.residue.push(url);
        if p >= self.cfg.threshold {
            Verdict::Phishing(p)
        } else {
            Verdict::Safe(p)
        }
    }

    /// Answer from a fresh negative-cache entry, counted by provenance.
    fn negative_hit(&self, entry: &NegativeEntry) -> Verdict {
        match entry.src {
            NegativeSrc::Prefilter => self.metrics.hit_negative_prefilter.inc(),
            NegativeSrc::Model => self.metrics.hit_negative_model.inc(),
            NegativeSrc::Unfetchable => self.metrics.hit_negative_unfetchable.inc(),
            NegativeSrc::Rejected => self.metrics.hit_negative_rejected.inc(),
        }
        Verdict::Safe(entry.score)
    }

    /// End a frame: cache its tier-1 negatives under one write lock, then
    /// admit its residue.
    fn settle(&self, frame: &FrameMisses, now: SimTime) {
        self.insert_negatives(&frame.negatives, now);
        self.admit(&frame.residue);
    }

    /// Put each residue URL on the classify queue unless it is already
    /// pending or the queue is full (shed): one lock pass and at most one
    /// wake-up for a whole frame. A URL repeated within `residue` is a
    /// pending hit after its first admission, as it would be one by one.
    fn admit(&self, residue: &[&str]) {
        if residue.is_empty() {
            return;
        }
        self.metrics.hit_provisional.add(residue.len() as u64);
        let mut enqueued = 0;
        let mut st = self.state.lock().unwrap();
        for &url in residue {
            if st.pending.contains(url) {
                self.metrics.pending_hits.inc();
            } else if st.queue.len() >= self.cfg.queue_cap {
                self.metrics.shed.inc();
            } else {
                st.pending.insert(url.to_string());
                st.queue.push_back(url.to_string());
                enqueued += 1;
            }
        }
        drop(st);
        if enqueued > 0 {
            self.metrics.enqueued.add(enqueued);
            self.work_cv.notify_one();
        }
    }

    /// Negative-cache `entries` under one write lock.
    fn insert_negatives(&self, entries: &[(&str, f64, NegativeSrc)], now: SimTime) {
        if entries.is_empty() {
            return;
        }
        let expires = now + self.cfg.negative_ttl;
        let mut negative = write(&self.negative);
        for &(url, score, src) in entries {
            negative.insert(
                url.to_string(),
                NegativeEntry {
                    score,
                    expires,
                    src,
                },
            );
        }
    }

    fn worker_loop(&self) {
        loop {
            let batch: Vec<String> = {
                let mut st = self.state.lock().unwrap();
                loop {
                    if self.stop.load(Ordering::SeqCst) {
                        return;
                    }
                    if !st.queue.is_empty() {
                        break;
                    }
                    st = self
                        .work_cv
                        .wait_timeout(st, Duration::from_millis(100))
                        .expect("resolver state poisoned")
                        .0;
                }
                let n = self.cfg.microbatch.min(st.queue.len());
                let batch: Vec<String> = st.queue.drain(..n).collect();
                st.inflight += batch.len();
                batch
            };
            self.classify_batch(&batch);
            let mut st = self.state.lock().unwrap();
            st.inflight -= batch.len();
            for url in &batch {
                st.pending.remove(url);
            }
            drop(st);
            self.idle_cv.notify_all();
        }
    }

    /// Tier 2 + tier 3 for one microbatch: fetch, sniff and score on the
    /// `par` pool, so a batch waits for its slowest fetch rather than the
    /// sum of them, then journal phishing / negative-cache the rest.
    fn classify_batch(&self, batch: &[String]) {
        let t0 = Instant::now();
        let now = self.clock.now();
        let (fetcher, models) = (&*self.fetcher, &*self.models);
        // Each item is pure and independent, so the scores are
        // bit-identical to serial `score_snapshot` calls at any
        // FREEPHISH_THREADS — the cross-engine equivalence tests pin this.
        let outcomes = freephish_par::par_map(batch, |url| -> Result<f64, NegativeSrc> {
            let html = fetcher
                .fetch(url)
                .filter(|html| looks_like_html(html))
                .ok_or(NegativeSrc::Unfetchable)?;
            // Admission filters unparsable URLs; a direct `add` race could
            // still surface one here.
            let parsed = Url::parse(url).map_err(|_| NegativeSrc::Rejected)?;
            Ok(models.stack.score_snapshot(&parsed, &html))
        });
        let mut negatives = Vec::new();
        for (url, outcome) in batch.iter().zip(outcomes) {
            let score = match outcome {
                Ok(score) => score,
                Err(src) => {
                    if src == NegativeSrc::Rejected {
                        self.metrics.rejected.inc();
                    } else {
                        self.metrics.fetch_failed.inc();
                    }
                    negatives.push((url.as_str(), 0.0, src));
                    continue;
                }
            };
            self.metrics.classified.inc();
            if score >= self.cfg.threshold {
                self.metrics.classified_phishing.inc();
                match self.inner.add(url, score) {
                    Ok(_) => self.metrics.journaled.inc(),
                    Err(e) => {
                        self.metrics.journal_errors.inc();
                        freephish_obs::warn(
                            "resolver",
                            format!("journal of inline verdict failed for {url}: {e}"),
                        );
                    }
                }
            } else {
                self.metrics.classified_safe.inc();
                negatives.push((url.as_str(), score, NegativeSrc::Model));
            }
        }
        self.insert_negatives(&negatives, now);
        self.metrics
            .classify_batch_us
            .record(t0.elapsed().as_secs_f64() * 1e6);
    }
}

impl UrlChecker for TieredResolver {
    fn check(&self, url: &str) -> Verdict {
        let s = &self.shared;
        s.metrics.requests.inc();
        let v = s.inner.check(url);
        if v.is_phishing() {
            s.metrics.hit_index.inc();
            return v;
        }
        let now = s.clock.now();
        let mut frame = FrameMisses::default();
        let v = s.resolve_miss(url, now, &mut frame);
        s.settle(&frame, now);
        v
    }

    fn check_many(&self, urls: &[String]) -> Vec<Verdict> {
        // Tier 0 resolves the whole batch against one index snapshot;
        // only the misses walk the lower tiers, at one clock reading, and
        // the frame's negatives and residue land in one pass each.
        let s = &self.shared;
        s.metrics.requests.add(urls.len() as u64);
        let mut out = s.inner.check_many(urls);
        let now = s.clock.now();
        let mut frame = FrameMisses::default();
        for (url, v) in urls.iter().zip(out.iter_mut()) {
            if v.is_phishing() {
                s.metrics.hit_index.inc();
            } else {
                *v = s.resolve_miss(url, now, &mut frame);
            }
        }
        s.settle(&frame, now);
        out
    }

    fn add(&self, url: &str, score: f64) -> Result<u64, String> {
        // Wire ADDs pass straight to the durable tier; drop any cached
        // negative so the next check sees the new verdict.
        let generation = self.shared.inner.add(url, score)?;
        write(&self.shared.negative).remove(url);
        Ok(generation)
    }

    fn generation(&self) -> u64 {
        self.shared.inner.generation()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::groundtruth::{build, GroundTruthConfig};
    use freephish_serve::ShardedIndex;

    fn corpus() -> Vec<LabeledSite> {
        build(&GroundTruthConfig {
            n_phish: 120,
            n_benign: 120,
            seed: 7_082_026,
        })
    }

    fn models(cfg: &TieredResolverConfig) -> Arc<ResolverModels> {
        Arc::new(ResolverModels::train(&corpus(), cfg))
    }

    fn resolver_with(
        cutoff: Option<f64>,
        fetcher: Arc<dyn SnapshotFetcher>,
        clock: Arc<dyn ResolverClock>,
        cfg: TieredResolverConfig,
    ) -> Arc<TieredResolver> {
        let mut m = ResolverModels::train(&corpus(), &cfg);
        if let Some(c) = cutoff {
            m = m.with_cutoff(c);
        }
        TieredResolver::with_models(
            Arc::new(ShardedIndex::with_default_shards()),
            fetcher,
            clock,
            Arc::new(m),
            cfg,
        )
    }

    /// A fetcher holding a sentinel: the sentinel's strong count tells
    /// whether the resolver state (which owns the fetcher) is still alive.
    struct SentinelFetcher(#[allow(dead_code)] Arc<()>);

    impl SnapshotFetcher for SentinelFetcher {
        fn fetch(&self, _url: &str) -> Option<String> {
            None
        }
    }

    #[test]
    fn dropping_the_last_handle_stops_the_worker_and_frees_the_resolver() {
        let sentinel = Arc::new(());
        let r = resolver_with(
            None,
            Arc::new(SentinelFetcher(sentinel.clone())),
            Arc::new(ManualClock::new()),
            TieredResolverConfig::default(),
        );
        assert_eq!(Arc::strong_count(&sentinel), 2);
        // No shutdown(): Drop alone must stop and join the worker, which
        // releases the last reference to the shared state.
        drop(r);
        assert_eq!(Arc::strong_count(&sentinel), 1);
    }

    #[test]
    fn tier0_hits_bypass_the_lower_tiers() {
        let inner = Arc::new(ShardedIndex::with_default_shards());
        inner.publish([("https://evil.weebly.com/".to_string(), 0.93)]);
        let cfg = TieredResolverConfig::default();
        let r = TieredResolver::with_models(
            inner,
            Arc::new(MapFetcher::new()),
            Arc::new(ManualClock::new()),
            models(&cfg),
            cfg,
        );
        let v = r.check("https://evil.weebly.com/");
        assert!(v.is_phishing());
        let snap = r.metrics_snapshot();
        assert_eq!(
            snap.counter("resolver_tier_hits_total", &[("tier", "index")]),
            1
        );
        assert_eq!(snap.counter("resolver_classify_enqueued_total", &[]), 0);
        r.shutdown();
    }

    #[test]
    fn prefilter_serves_confident_safe_without_classification() {
        let cfg = TieredResolverConfig::default();
        // Cutoff above every score: everything is confidently safe.
        let r = resolver_with(
            Some(f64::INFINITY),
            Arc::new(MapFetcher::new()),
            Arc::new(ManualClock::new()),
            cfg,
        );
        let v = r.check("https://gardening-tips.wixsite.com/home");
        assert!(!v.is_phishing());
        assert!(r.drain(Duration::from_secs(5)));
        let snap = r.metrics_snapshot();
        assert_eq!(
            snap.counter("resolver_tier_hits_total", &[("tier", "prefilter")]),
            1
        );
        assert_eq!(snap.counter("resolver_classified_total", &[]), 0);
        // The second check is served by the negative cache, attributed to
        // the pre-filter that produced it.
        r.check("https://gardening-tips.wixsite.com/home");
        let snap = r.metrics_snapshot();
        assert_eq!(
            snap.counter(
                "resolver_tier_hits_total",
                &[("tier", "negative"), ("src", "prefilter")]
            ),
            1
        );
        r.shutdown();
    }

    #[test]
    fn residue_is_classified_journaled_and_hits_tier0_after() {
        let sites = corpus();
        let phish = sites.iter().find(|s| s.label == 1).unwrap();
        let fetcher = Arc::new(MapFetcher::new());
        fetcher.insert(&phish.site.url, &phish.site.html);
        let cfg = TieredResolverConfig::default();
        // Cutoff 0: nothing is confidently safe, everything residues.
        let r = resolver_with(
            Some(0.0),
            fetcher,
            Arc::new(ManualClock::new()),
            cfg.clone(),
        );
        let first = r.check(&phish.site.url);
        // Provisional verdict carries the tier-1 score.
        let _ = first;
        assert!(r.drain(Duration::from_secs(10)));
        let settled = r.check(&phish.site.url);
        assert!(settled.is_phishing(), "phishing page must settle phishing");
        // Bit-identical to the offline model.
        let m = ResolverModels::train(&corpus(), &cfg);
        let url = Url::parse(&phish.site.url).unwrap();
        let offline = m.stack().score_snapshot(&url, &phish.site.html);
        assert_eq!(settled.score().to_bits(), offline.to_bits());
        let snap = r.metrics_snapshot();
        assert_eq!(snap.counter("resolver_classified_total", &[]), 1);
        assert_eq!(snap.counter("resolver_journaled_total", &[]), 1);
        // The settled check was a tier-0 hit, not a re-classification.
        assert_eq!(
            snap.counter("resolver_tier_hits_total", &[("tier", "index")]),
            1
        );
        r.shutdown();
    }

    #[test]
    fn fresh_negatives_never_reenter_the_queue_expired_ones_do() {
        let sites = corpus();
        let benign = sites.iter().find(|s| s.label == 0).unwrap();
        let fetcher = Arc::new(MapFetcher::new());
        fetcher.insert(&benign.site.url, &benign.site.html);
        let clock = Arc::new(ManualClock::new());
        let cfg = TieredResolverConfig {
            negative_ttl: SimDuration(600),
            ..TieredResolverConfig::default()
        };
        let r = resolver_with(Some(0.0), fetcher, clock.clone(), cfg);
        r.check(&benign.site.url);
        assert!(r.drain(Duration::from_secs(10)));
        let snap = r.metrics_snapshot();
        assert_eq!(snap.counter("resolver_classified_total", &[]), 1);
        assert_eq!(snap.counter("resolver_classified_safe_total", &[]), 1);

        // Fresh: repeated checks are negative-cache hits, never enqueued.
        for _ in 0..5 {
            let v = r.check(&benign.site.url);
            assert!(!v.is_phishing());
        }
        assert!(r.drain(Duration::from_secs(5)));
        let snap = r.metrics_snapshot();
        assert_eq!(snap.counter("resolver_classified_total", &[]), 1);
        assert_eq!(
            snap.counter(
                "resolver_tier_hits_total",
                &[("tier", "negative"), ("src", "model")]
            ),
            5
        );

        // Expired: the next check re-enters the classify queue.
        clock.advance(SimDuration(600));
        r.check(&benign.site.url);
        assert!(r.drain(Duration::from_secs(10)));
        let snap = r.metrics_snapshot();
        assert_eq!(snap.counter("resolver_negative_expired_total", &[]), 1);
        assert_eq!(snap.counter("resolver_classified_total", &[]), 2);
        r.shutdown();
    }

    /// Misses checked one `check` at a time, or as one `check_many` frame
    /// (whose residue is admitted in a single pass).
    fn check_each_or_as_frame(r: &TieredResolver, urls: &[String], frame: bool) {
        if frame {
            r.check_many(urls);
        } else {
            for url in urls {
                r.check(url);
            }
        }
    }

    /// Models with cutoff 0: every parsable miss is residue for tier 2.
    fn unconsumed_models(cfg: &TieredResolverConfig) -> Arc<ResolverModels> {
        Arc::new(ResolverModels::train(&corpus(), cfg).with_cutoff(0.0))
    }

    /// A resolver whose worker never starts, so admissions stay queued.
    fn unconsumed_resolver(
        models: &Arc<ResolverModels>,
        cfg: TieredResolverConfig,
    ) -> Arc<TieredResolver> {
        TieredResolver::build(
            Arc::new(ShardedIndex::with_default_shards()),
            Arc::new(MapFetcher::new()),
            Arc::new(ManualClock::new()),
            models.clone(),
            cfg,
        )
    }

    #[test]
    fn full_queue_sheds_instead_of_blocking() {
        let urls: Vec<String> = (0..5)
            .map(|i| format!("https://miss{i}.weebly.com/"))
            .collect();
        let cfg = TieredResolverConfig {
            queue_cap: 2,
            ..TieredResolverConfig::default()
        };
        let models = unconsumed_models(&cfg);
        for frame in [false, true] {
            // No fetcher entries: classification would negative-cache as
            // unfetchable, but that is irrelevant here — we only watch the
            // admission. No worker consumes, so the queue genuinely fills.
            let r = unconsumed_resolver(&models, cfg.clone());
            check_each_or_as_frame(&r, &urls, frame);
            let snap = r.metrics_snapshot();
            assert_eq!(
                snap.counter("resolver_classify_enqueued_total", &[]),
                2,
                "frame={frame}"
            );
            assert_eq!(
                snap.counter("resolver_classify_shed_total", &[]),
                3,
                "frame={frame}"
            );
            r.shutdown();
        }
    }

    #[test]
    fn duplicate_misses_deduplicate_while_pending() {
        let urls = vec!["https://same.weebly.com/".to_string(); 4];
        let cfg = TieredResolverConfig::default();
        let models = unconsumed_models(&cfg);
        for frame in [false, true] {
            // No worker: the queue holds whatever is admitted.
            let r = unconsumed_resolver(&models, cfg.clone());
            check_each_or_as_frame(&r, &urls, frame);
            let snap = r.metrics_snapshot();
            assert_eq!(
                snap.counter("resolver_classify_enqueued_total", &[]),
                1,
                "frame={frame}"
            );
            assert_eq!(
                snap.counter("resolver_classify_pending_hits_total", &[]),
                3,
                "frame={frame}"
            );
            r.shutdown();
        }
    }

    /// Serves one body for every URL after a fixed delay, as a fetcher
    /// behind network latency would.
    struct SlowFetcher {
        delay: Duration,
        html: String,
    }

    impl SnapshotFetcher for SlowFetcher {
        fn fetch(&self, _url: &str) -> Option<String> {
            std::thread::sleep(self.delay);
            Some(self.html.clone())
        }
    }

    #[test]
    fn a_batch_waits_for_its_slowest_fetch_not_their_sum() {
        let sites = corpus();
        let delay = Duration::from_millis(40);
        let r = resolver_with(
            Some(0.0),
            Arc::new(SlowFetcher {
                delay,
                html: sites[0].site.html.clone(),
            }),
            Arc::new(ManualClock::new()),
            TieredResolverConfig::default(),
        );
        let batch: Vec<String> = (0..8)
            .map(|i| format!("https://slow{i}.weebly.com/"))
            .collect();
        // Called directly: the thread override is thread-local and would
        // not reach the resolver's worker thread.
        let started = Instant::now();
        freephish_par::with_thread_override(4, || r.shared.classify_batch(&batch));
        let wall = started.elapsed();
        let sum = delay * batch.len() as u32;
        assert!(
            wall < sum / 2,
            "batch took {wall:?}; serial fetches sum to {sum:?}"
        );
        let snap = r.metrics_snapshot();
        assert_eq!(snap.counter("resolver_classified_total", &[]), 8);
        r.shutdown();
    }

    #[test]
    fn garbage_urls_are_rejected_and_cached() {
        let cfg = TieredResolverConfig::default();
        let r = resolver_with(
            None,
            Arc::new(MapFetcher::new()),
            Arc::new(ManualClock::new()),
            cfg,
        );
        let v = r.check("not a url at all");
        assert!(!v.is_phishing());
        let v = r.check("not a url at all");
        assert!(!v.is_phishing());
        let snap = r.metrics_snapshot();
        assert_eq!(snap.counter("resolver_rejected_urls_total", &[]), 1);
        assert_eq!(
            snap.counter(
                "resolver_tier_hits_total",
                &[("tier", "negative"), ("src", "rejected")]
            ),
            1
        );
        assert_eq!(snap.counter("resolver_classify_enqueued_total", &[]), 0);
        r.shutdown();
    }

    #[test]
    fn unfetchable_pages_are_negative_cached_not_scored() {
        let cfg = TieredResolverConfig::default();
        let fetcher = Arc::new(MapFetcher::new());
        fetcher.insert("https://blob.weebly.com/", "{\"json\": true}");
        let r = resolver_with(Some(0.0), fetcher, Arc::new(ManualClock::new()), cfg);
        r.check("https://nosuchpage.weebly.com/");
        r.check("https://blob.weebly.com/");
        assert!(r.drain(Duration::from_secs(10)));
        let snap = r.metrics_snapshot();
        assert_eq!(snap.counter("resolver_fetch_failed_total", &[]), 2);
        assert_eq!(snap.counter("resolver_classified_total", &[]), 0);
        r.shutdown();
    }

    #[test]
    fn wire_add_invalidates_the_negative_cache() {
        let cfg = TieredResolverConfig::default();
        let r = resolver_with(
            Some(f64::INFINITY),
            Arc::new(MapFetcher::new()),
            Arc::new(ManualClock::new()),
            cfg,
        );
        let url = "https://reported.wixsite.com/login";
        assert!(!r.check(url).is_phishing());
        // An analyst reports it over the wire.
        r.add(url, 0.97).unwrap();
        assert!(r.check(url).is_phishing());
        r.shutdown();
    }

    #[test]
    fn a_frame_judges_a_repeated_url_by_tier_1_each_time_and_caches_it_once() {
        let r = resolver_with(
            Some(f64::INFINITY),
            Arc::new(MapFetcher::new()),
            Arc::new(ManualClock::new()),
            TieredResolverConfig::default(),
        );
        let (twice, once) = (
            "https://twice.weebly.com/",
            "https://once.wixsite.com/login",
        );
        let frame: Vec<String> = [twice, once, twice].map(String::from).to_vec();
        let prefilter = &[("tier", "prefilter")];
        let cached = &[("tier", "negative"), ("src", "prefilter")];

        // The frame reads the cache as it stood when the frame began: all
        // three occurrences are tier-1 answers, two URLs are cached.
        let first = r.check_many(&frame);
        assert!(first.iter().all(|v| !v.is_phishing()));
        assert_eq!(first[0].score().to_bits(), first[2].score().to_bits());
        let snap = r.metrics_snapshot();
        assert_eq!(snap.counter("resolver_tier_hits_total", prefilter), 3);
        assert_eq!(snap.counter("resolver_tier_hits_total", cached), 0);
        assert_eq!(snap.gauge("resolver_negative_entries", &[]), 2);

        // The next frame finds every occurrence cached, at the same score.
        let second = r.check_many(&frame);
        assert_eq!(
            second
                .iter()
                .map(|v| v.score().to_bits())
                .collect::<Vec<_>>(),
            first
                .iter()
                .map(|v| v.score().to_bits())
                .collect::<Vec<_>>()
        );
        let snap = r.metrics_snapshot();
        assert_eq!(snap.counter("resolver_tier_hits_total", prefilter), 3);
        assert_eq!(snap.counter("resolver_tier_hits_total", cached), 3);
        r.shutdown();
    }
}
