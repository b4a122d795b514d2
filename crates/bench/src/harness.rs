//! The end-to-end measurement run shared by the Section 5 experiments.
//!
//! Progress is reported as structured events through `freephish-obs`
//! (target `harness`), so runs are silent under the default `FREEPHISH_LOG`
//! filter and chatty when it is set to `info`. Each [`full_measurement`]
//! also times its phases and merges the pipeline's own metrics into a
//! snapshot that [`write_json`] embeds in every experiment record under a
//! `"metrics"` key.

use freephish_core::analysis::{self, UrlObservation};
use freephish_core::campaign::{self, CampaignConfig, CampaignRecord};
use freephish_core::groundtruth::{build, GroundTruthConfig};
use freephish_core::models::augmented::AugmentedStackModel;
use freephish_core::pipeline::reporting::Reporter;
use freephish_core::pipeline::{Detection, Pipeline};
use freephish_core::world::World;
use freephish_ml::StackModelConfig;
use freephish_obs::sync::lock;
use freephish_obs::{Level, MetricsSnapshot, Registry, Stopwatch};
use freephish_simclock::{Rng64, SimTime};
use std::sync::Mutex;

/// Everything a Section 5 experiment needs.
pub struct Measurement {
    /// The simulated world after the campaign + pipeline ran.
    pub world: World,
    /// All injected URLs.
    pub records: Vec<CampaignRecord>,
    /// The pipeline's detections.
    pub detections: Vec<Detection>,
    /// Reporting-module tallies (Section 5.3).
    pub reporter: Reporter,
    /// Analysis-module per-URL observations.
    pub observations: Vec<UrlObservation>,
    /// The scale the run used.
    pub scale: f64,
    /// Pipeline + harness metrics collected during the run.
    pub metrics: MetricsSnapshot,
}

/// The snapshot of the most recent [`full_measurement`] in this process,
/// picked up by [`write_json`] so every experiment record carries the
/// metrics of the run that produced it.
static LAST_METRICS: Mutex<Option<serde_json::Value>> = Mutex::new(None);

/// Read the workload scale from `FREEPHISH_SCALE` (default 1.0).
pub fn scale_from_env() -> f64 {
    std::env::var("FREEPHISH_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1.0)
}

/// Ground-truth size scaled: the paper's 4,656+4,656 at scale 1.0, floored
/// so tiny scales still train something meaningful.
fn ground_truth_config(scale: f64) -> GroundTruthConfig {
    let n = ((4656.0 * scale) as usize).max(400);
    GroundTruthConfig {
        n_phish: n,
        n_benign: n,
        seed: 0xD1,
    }
}

/// Stacking configuration: the paper's three-learner stack; trimmed tree
/// counts keep the full-scale run tractable without changing the
/// architecture.
pub fn stack_config() -> StackModelConfig {
    StackModelConfig::default()
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
    let corpus = build(&ground_truth_config(scale.min(0.25)));
    let model = AugmentedStackModel::train(&corpus, &stack_config(), &mut rng);
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
    let (detections, reporter) = pipeline.run_batch(&mut world, SimTime::from_days(config.days));
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
    *lock(&LAST_METRICS) = Some(freephish_obs::to_json(&metrics));

    Measurement {
        world,
        records,
        detections,
        reporter,
        observations,
        scale,
        metrics,
    }
}

/// Write an experiment's JSON record under `target/experiments/`.
///
/// When the record is a JSON object without a `"metrics"` key and a
/// [`full_measurement`] ran in this process, the snapshot of that run is
/// embedded under `"metrics"` so every experiment documents the
/// pipeline/harness behavior that produced it.
pub fn write_json(name: &str, value: &serde_json::Value) {
    let mut value = value.clone();
    if let Some(obj) = value.as_object_mut() {
        if !obj.contains_key("metrics") {
            if let Some(metrics) = lock(&LAST_METRICS).clone() {
                obj.insert("metrics".to_string(), metrics);
            }
        }
    }
    let dir = std::path::Path::new("target/experiments");
    let _ = std::fs::create_dir_all(dir);
    let path = dir.join(format!("{name}.json"));
    match std::fs::write(&path, serde_json::to_string_pretty(&value).unwrap()) {
        Ok(()) => freephish_obs::info("harness", format!("wrote {}", path.display())),
        Err(e) => freephish_obs::error(
            "harness",
            format!("could not write {}: {e}", path.display()),
        ),
    }
}
