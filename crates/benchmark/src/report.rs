//! What a run was asked to do and what it found.

use crate::inputs::Sizing;
use crate::spec::{MetricSpec, Metrics};
use serde_json::{json, Map, Value};
use std::path::PathBuf;

#[derive(Debug, Clone)]
pub struct Options {
    pub workload: String,
    pub seed: u64,
    /// How long the run measures.
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub sizing: Sizing,
    /// `<target>/benchmark`: traces stay here, scratch state goes one level
    /// down and is removed on success.
    pub out_dir: PathBuf,
}

impl Options {
    /// Where this process keeps stores, indexes and spill runs.
    pub fn scratch_dir(&self) -> PathBuf {
        self.out_dir
            .join(format!("{}-{}", self.workload, std::process::id()))
    }

    pub fn trace_path(&self) -> PathBuf {
        self.out_dir.join(format!("{}.trace.json", self.workload))
    }

    /// The frozen open-loop rate, cut down for a smoke run.
    pub fn offered(&self, requests_per_s: f64) -> f64 {
        if self.smoke {
            requests_per_s / 20.0
        } else {
            requests_per_s
        }
    }
}

/// Metrics, the operations counted behind them, and numbers that belong to
/// one workload only and are printed without being gated.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
    detail: Vec<(String, f64, &'static str)>,
}

impl Report {
    pub fn detail(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.detail.push((name.into(), value, unit));
    }

    pub fn count(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// The lines a person reads: every number by name with its unit.
    pub fn print_lines(&self, specs: &[MetricSpec]) {
        for spec in specs {
            if let Some(value) = self.metrics.get(spec.name) {
                println!("metric {} {} {}", spec.name, value, spec.unit);
            }
        }
        for (name, value, unit) in &self.detail {
            println!("detail {name} {value} {unit}");
        }
        let ratio = self.failed as f64 / self.attempted.max(1) as f64;
        println!("detail failed_ratio {ratio} ratio");
    }

    /// The result object the driver reads: exactly the metrics of `specs`.
    /// A per-layer metric nobody set is a layer off this workload's path and
    /// reads 0; a missing end-to-end metric is an error.
    pub fn result(&self, specs: &[MetricSpec], per_layer: bool) -> Result<Value, String> {
        let unlisted = self.metrics.unlisted(specs);
        if !unlisted.is_empty() {
            return Err(format!("metrics set but not listed: {unlisted:?}"));
        }
        let mut metrics = Map::new();
        for spec in specs {
            let value = match self.metrics.get(spec.name) {
                Some(value) => value,
                None if per_layer => 0.0,
                None => return Err(format!("end-to-end metric {} was not measured", spec.name)),
            };
            if !value.is_finite() {
                return Err(format!("metric {} is {value}", spec.name));
            }
            metrics.insert(
                spec.name.to_string(),
                json!({ "value": value, "unit": spec.unit }),
            );
        }
        Ok(json!({
            "correct": self.failed == 0,
            "attempted": self.attempted.max(1),
            "failed": self.failed,
            "metrics": metrics,
        }))
    }
}
