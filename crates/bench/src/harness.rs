//! The end-to-end measurement run the Section 3 and Section 5 sections
//! share.
//!
//! Progress is reported as structured events through `freephish-obs`
//! (target `harness`), so runs are silent under the default `FREEPHISH_LOG`
//! filter and chatty when it is set to `info`. [`full_measurement`] also
//! times its phases and merges the pipeline's own metrics into
//! [`Measurement::metrics`].

use freephish_core::analysis::{self, UrlObservation};
use freephish_core::campaign::{self, CampaignConfig, CampaignRecord};
use freephish_core::groundtruth::{build, GroundTruthConfig, LabeledSite};
use freephish_core::models::augmented::AugmentedStackModel;
use freephish_core::pipeline::Pipeline;
use freephish_core::world::World;
use freephish_ml::StackModelConfig;
use freephish_obs::{Level, MetricsSnapshot, Registry, Stopwatch};
use freephish_simclock::{Rng64, SimTime};

/// Everything a measurement section needs.
pub struct Measurement {
    /// The simulated world after the campaign + pipeline ran.
    pub world: World,
    /// All injected URLs.
    pub records: Vec<CampaignRecord>,
    /// Analysis-module per-URL observations.
    pub observations: Vec<UrlObservation>,
    /// Pipeline + harness metrics collected during the run (wall-clock).
    pub metrics: MetricsSnapshot,
}

/// Read the workload scale from `FREEPHISH_SCALE` (default 1.0).
pub fn scale_from_env() -> f64 {
    std::env::var("FREEPHISH_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1.0)
}

/// A ground-truth corpus of `n` phishing and `n` benign sites.
pub fn corpus(n: usize, seed: u64) -> Vec<LabeledSite> {
    build(&GroundTruthConfig {
        n_phish: n,
        n_benign: n,
        seed,
    })
}

/// Run the whole measurement: train the classifier on the ground-truth
/// corpus, generate the campaign, run streaming/classification/reporting
/// over the full window, then observe with the analysis module.
pub fn full_measurement(scale: f64, seed: u64) -> Measurement {
    let registry = Registry::new();
    let phase = |p| registry.histogram("harness_phase_seconds", &[("phase", p)]);
    let mut rng = Rng64::new(seed);

    freephish_obs::info(
        "harness",
        format!("training classifier (scale {scale}) ..."),
    );
    let watch = Stopwatch::start();
    // A quarter of the paper's 4,656 + 4,656 sites at most, floored so tiny
    // scales still train something meaningful.
    let corpus = corpus(((4656.0 * scale.min(0.25)) as usize).max(400), 0xD1);
    let model = AugmentedStackModel::train(&corpus, &StackModelConfig::default(), &mut rng);
    watch.record(&phase("train"));

    freephish_obs::info("harness", "generating campaign ...");
    let watch = Stopwatch::start();
    let mut world = World::new(seed);
    let config = CampaignConfig {
        scale,
        days: 180,
        benign_fraction: 0.2,
        seed,
    };
    let records = campaign::run(&config, &mut world);
    watch.record(&phase("campaign"));
    freephish_obs::info(
        "harness",
        format!("{} URLs injected; running pipeline ...", records.len()),
    );

    let watch = Stopwatch::start();
    let pipeline = Pipeline::new(model);
    let (detections, _) = pipeline.run_batch(&mut world, SimTime::from_days(config.days));
    watch.record(&phase("pipeline"));
    freephish_obs::event_at(
        Level::Info,
        "harness",
        format!("{} detections; observing ...", detections.len()),
        SimTime::from_days(config.days),
    );

    let watch = Stopwatch::start();
    let observations = analysis::observe(&world, &records);
    watch.record(&phase("observe"));

    let mut metrics = registry.snapshot();
    metrics.merge(&pipeline.metrics());
    Measurement {
        world,
        records,
        observations,
        metrics,
    }
}

/// Write `value` as pretty JSON to `target/experiments/<name>.json`.
pub fn write_json(name: &str, value: &serde_json::Value) {
    let path = std::path::Path::new("target/experiments").join(format!("{name}.json"));
    let text = serde_json::to_string_pretty(value).unwrap() + "\n";
    std::fs::create_dir_all(path.parent().unwrap())
        .and_then(|()| std::fs::write(&path, text))
        .unwrap_or_else(|e| panic!("could not write {}: {e}", path.display()));
    freephish_obs::info("harness", format!("wrote {}", path.display()));
}
