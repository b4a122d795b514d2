//! `campaign_journaled`: the paper's pipeline offline. A campaign is
//! generated, run tick by tick with every tick journaled and fsynced, and
//! analysed into Tables 3 and 4. `core::pipeline`, the world simulators, the
//! classify stack and `par` do the work, with no network and no index;
//! `store` is used as buffered appends plus one sync a tick.

use crate::host;
use crate::inputs::{fnv1a, FNV_OFFSET};
use crate::layers::{self, mean};
use crate::report::{Options, Report};
use crate::stats::{highest_supported_tail, median, percentile, sort};
use crate::trace::{Table, Tracer, Track};
use freephish_core::analysis::{observe, table3, table4};
use freephish_core::campaign::{CampaignConfig, RecordClass};
use freephish_core::groundtruth::{build, GroundTruthConfig, LabeledSite};
use freephish_core::journal::JournaledRun;
use freephish_core::models::augmented::AugmentedStackModel;
use freephish_core::pipeline::Pipeline;
use freephish_ml::StackModelConfig;
use freephish_obs::MetricsSnapshot;
use freephish_simclock::{Rng64, SimTime};
use std::collections::HashSet;
use std::io;
use std::path::Path;
use std::time::Instant;

/// The classifier is part of the system, not of its input: it is trained on
/// the same corpus whatever the run's seed.
const CORPUS_SEED: u64 = 0xD1;
/// The pipeline ticks every ten simulated minutes.
const TICKS_PER_DAY: usize = 144;
/// Lowest F1 of the run's detections against the campaign's ground truth.
const MIN_F1: f64 = 0.90;

struct SetUp {
    corpus: Vec<LabeledSite>,
    pipeline: Pipeline,
    train_s: f64,
}

fn train(corpus: &[LabeledSite], seed: u64) -> AugmentedStackModel {
    AugmentedStackModel::train(corpus, &StackModelConfig::default(), &mut Rng64::new(seed))
}

/// The campaign runs where the serving workloads run their server: on the
/// upper half of the CPUs, so the four workloads measure the program on the
/// same share of the host. `par` starts new threads for every job, and on
/// the 2-CPU defining host the kernel leaves a new thread on its parent's
/// CPU for up to a second: unconfined, the campaign was a quarter slower and
/// three times less steady than on one CPU.
fn pin() {
    host::pin(&host::cpu_plan().server);
}

/// Builds the ground-truth corpus and trains the classifier on it.
fn set_up(opts: &Options) -> SetUp {
    let n = opts.sizing.corpus_per_class;
    let corpus = build(&GroundTruthConfig {
        n_phish: n,
        n_benign: n,
        seed: CORPUS_SEED,
    });
    let started = Instant::now();
    let model = train(&corpus, CORPUS_SEED);
    let train_s = started.elapsed().as_secs_f64();
    SetUp {
        corpus,
        pipeline: Pipeline::new(model),
        train_s,
    }
}

/// One campaign from generation to tables.
struct Campaign {
    wall_s: f64,
    cpu_s: f64,
    generate_s: f64,
    observe_s: f64,
    /// Wall time of every tick, ascending, microseconds.
    tick_us: Vec<f64>,
    /// Wall time of every whole simulated day, ascending, microseconds.
    day_us: Vec<f64>,
    /// Snapshots the pipeline crawled and classified.
    snapshots: u64,
    f1: f64,
    /// Of the detections and both tables.
    digest: u64,
}

fn config(opts: &Options) -> CampaignConfig {
    let days = (opts.seconds * opts.sizing.campaign_days_per_second)
        .round()
        .max(1.0) as u64;
    CampaignConfig {
        scale: opts.sizing.campaign_scale,
        days,
        benign_fraction: 0.2,
        seed: opts.seed,
    }
}

fn run_campaign(
    opts: &Options,
    dir: &Path,
    pipeline: &Pipeline,
    tracer: &Tracer,
) -> io::Result<Campaign> {
    let config = config(opts);
    let classified_before = classified(&pipeline.metrics());
    let cpu_before = host::cpu_seconds();
    let started = Instant::now();
    let mut run = tracer.span("campaign.generate", Track::Request, || {
        JournaledRun::create(
            dir,
            &config,
            SimTime::from_days(config.days),
            pipeline.threshold,
        )
    })?;
    let generate_s = started.elapsed().as_secs_f64();

    let mut tick_us = Vec::with_capacity(config.days as usize * TICKS_PER_DAY);
    loop {
        let tick = Instant::now();
        let more = tracer.span("journal.tick", Track::Request, || run.tick(pipeline))?;
        tick_us.push(tick.elapsed().as_secs_f64() * 1e6);
        if !more {
            break;
        }
    }

    let observing = Instant::now();
    let observations = tracer.span("analysis.observe", Track::Request, || {
        observe(&run.world, &run.records)
    });
    let observe_s = observing.elapsed().as_secs_f64();
    let (rows3, rows4) = tracer.span("analysis.tables", Track::Request, || {
        (table3(&observations), table4(&observations))
    });
    let wall_s = started.elapsed().as_secs_f64();
    let cpu_s = host::cpu_seconds() - cpu_before;

    let phishing: HashSet<&str> = run
        .records
        .iter()
        .filter(|r| matches!(r.class, RecordClass::FwbPhish(_)))
        .map(|r| r.url.as_str())
        .collect();
    let detected: HashSet<&str> = run.detections.iter().map(|d| d.url.as_str()).collect();
    let hits = detected.intersection(&phishing).count() as f64;
    let f1 = 2.0 * hits / (detected.len() + phishing.len()).max(1) as f64;

    let mut digest = FNV_OFFSET;
    for d in &run.detections {
        digest = fnv1a(
            fnv1a(digest, d.url.as_bytes()),
            &d.score.to_bits().to_le_bytes(),
        );
    }
    digest = fnv1a(digest, format!("{rows3:?}{rows4:?}").as_bytes());
    let mut day_us: Vec<f64> = tick_us
        .chunks_exact(TICKS_PER_DAY)
        .map(|day| day.iter().sum())
        .collect();
    sort(&mut day_us);
    sort(&mut tick_us);
    let snapshots = classified(&pipeline.metrics()) - classified_before;
    Ok(Campaign {
        wall_s,
        cpu_s,
        generate_s,
        observe_s,
        tick_us,
        day_us,
        snapshots,
        f1,
        digest,
    })
}

/// Snapshots that went through feature extraction and the model.
fn classified(snapshot: &MetricsSnapshot) -> u64 {
    snapshot
        .histogram("pipeline_stage_seconds", &[("stage", "classify")])
        .map_or(0, |h| h.count)
}

/// Counts the campaign's ticks and its detection-quality gate.
fn check(report: &mut Report, campaign: &Campaign) {
    report.count(campaign.tick_us.len() as u64, 0);
    report.count(1, u64::from(campaign.f1 < MIN_F1));
}

fn describe(report: &mut Report, campaign: &Campaign) {
    report.detail("detection_f1", campaign.f1, "ratio");
    // Printed as two halves: a 64-bit digest does not survive an f64.
    report.detail("digest_high", (campaign.digest >> 32) as f64, "count");
    report.detail(
        "digest_low",
        (campaign.digest & 0xffff_ffff) as f64,
        "count",
    );
}

pub fn run_untraced(opts: &Options) -> io::Result<Report> {
    let mut report = Report::default();
    pin();
    let mut times: Vec<f64> = Vec::new();
    let mut setup = None;
    while times.len() < opts.sizing.setups.max(1) {
        let started = Instant::now();
        setup = Some(set_up(opts));
        times.push(started.elapsed().as_secs_f64());
    }
    let setup = setup.expect("at least one set-up ran");
    report.metrics.set("setup_s", median(times));

    let tracer = Tracer::default();
    let campaign = run_campaign(
        opts,
        &opts.scratch_dir().join("run"),
        &setup.pipeline,
        &tracer,
    )?;
    check(&mut report, &campaign);
    describe(&mut report, &campaign);
    report
        .metrics
        .set("urls_per_s", campaign.snapshots as f64 / campaign.wall_s);
    // What a caller of the pipeline waits for is a simulated day, not a
    // tick: most ticks find nothing new and cost little beyond their fsync.
    report
        .metrics
        .set("request_p50_us", percentile(&campaign.day_us, 50.0));
    report.detail("day_p90_us", percentile(&campaign.day_us, 90.0), "us");
    for (p, name) in [
        (50.0, "tick_p50_us"),
        (90.0, "tick_p90_us"),
        (99.0, "tick_p99_us"),
    ] {
        report.detail(name, percentile(&campaign.tick_us, p), "us");
    }
    report.metrics.set(
        "cpu_ms_per_kurl",
        campaign.cpu_s * 1e3 / (campaign.snapshots.max(1) as f64 / 1e3),
    );
    report.metrics.set("peak_rss_mb", host::peak_rss_mb());
    report.detail("campaign_wall_s", campaign.wall_s, "s");
    report.detail("snapshots_classified", campaign.snapshots as f64, "count");
    report.detail("ticks", campaign.tick_us.len() as f64, "count");
    report.detail(
        "request_highest_supported_percentile",
        highest_supported_tail(campaign.tick_us.len()),
        "%",
    );
    Ok(report)
}

/// Runs the same campaign twice, untraced then traced: equal seeds must give
/// equal digests, and the ratio of the two rates is the tracing overhead.
pub fn run_traced(opts: &Options) -> io::Result<Report> {
    let mut report = Report::default();
    pin();
    let setup = set_up(opts);
    let tracer = Tracer::default();
    let untraced = run_campaign(
        opts,
        &opts.scratch_dir().join("untraced"),
        &setup.pipeline,
        &tracer,
    )?;
    let before = setup.pipeline.metrics();
    tracer.set_enabled(true);
    let traced = run_campaign(
        opts,
        &opts.scratch_dir().join("traced"),
        &setup.pipeline,
        &tracer,
    )?;
    tracer.set_enabled(false);
    let after = setup.pipeline.metrics();
    check(&mut report, &untraced);
    check(&mut report, &traced);
    // Equal seeds gave equal digests, or the run fails: one is enough.
    describe(&mut report, &traced);
    report.count(1, u64::from(untraced.digest != traced.digest));

    let table = Table::build(tracer.take());
    std::fs::create_dir_all(&opts.out_dir)?;
    table.write(&opts.trace_path(), &opts.workload)?;
    let rows_s: f64 = table.rows.iter().map(|r| r.self_s).sum();
    println!(
        "self-time table ({} spans, {}):",
        table.spans.len(),
        opts.trace_path().display()
    );
    for row in &table.rows {
        println!(
            "  {:<22} count {} total {:.6} s self {:.6} s",
            row.name, row.count, row.total_s, row.self_s
        );
    }
    println!(
        "  rows sum to {rows_s:.3} s; the untraced campaign took {:.3} s",
        untraced.wall_s
    );

    // The pipeline's own stage clocks, over the traced campaign only. Crawl
    // time is sampled one call in sixteen, and feature and classify time add
    // up across the pool's threads, so they exceed their share of the wall.
    let stage_sum = |stage: &str| {
        let sum = |s: &MetricsSnapshot| {
            s.histogram("pipeline_stage_seconds", &[("stage", stage)])
                .map_or(0.0, |h| h.sum)
        };
        sum(&after) - sum(&before)
    };
    let counter = |name: &str| after.counter(name, &[]) - before.counter(name, &[]);
    let ticks = traced.tick_us.len() as f64;
    let metrics = &mut report.metrics;
    metrics.set("core.pipeline.stage_poll_s", stage_sum("poll"));
    metrics.set("core.pipeline.stage_crawl_s", stage_sum("crawl") * 16.0);
    metrics.set("core.pipeline.stage_feature_s", stage_sum("feature"));
    metrics.set("core.pipeline.stage_classify_s", stage_sum("classify"));
    metrics.set("core.pipeline.stage_report_s", stage_sum("report"));
    metrics.set(
        "core.pipeline.tick_us_mean",
        traced.tick_us.iter().sum::<f64>() / ticks,
    );
    metrics.set("core.campaign.generate_s", traced.generate_s);
    metrics.set("core.analysis.observe_s", traced.observe_s);
    metrics.set(
        "core.journal.tick_sync_ms",
        mean(&after, "store_fsync_seconds", &[]) * 1e3,
    );
    let (fanned_out, serial) = (counter("par_jobs_total"), counter("par_serial_jobs_total"));
    metrics.set("par.tasks_total", counter("par_tasks_total") as f64);
    metrics.set(
        "par.serial_jobs_ratio",
        serial as f64 / (fanned_out + serial).max(1) as f64,
    );
    metrics.set("ml.train_s", setup.train_s);
    metrics.set(
        "trace.overhead_ratio",
        (traced.snapshots as f64 / traced.wall_s) / (untraced.snapshots as f64 / untraced.wall_s),
    );
    metrics.set("trace.unaccounted_ratio", 1.0 - rows_s / untraced.wall_s);
    // The pipeline keeps its model to itself; equal inputs train an equal one.
    let model = train(&setup.corpus, CORPUS_SEED);
    layers::classify(&setup.corpus, &model, metrics);
    Ok(report)
}
