//! `BENCHMARK.json` and the binary must name the same workloads and metrics.

use freephish_benchmark::spec::{MetricSpec, END_TO_END, PER_LAYER, WORKLOADS};
use serde_json::Value;
use std::path::Path;
use std::process::Command;

fn manifest() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCHMARK.json");
    serde_json::from_str(
        &std::fs::read_to_string(path).expect("BENCHMARK.json is at the repository root"),
    )
    .unwrap()
}

/// `(name, unit, better)` of every entry of a metric list of the manifest.
fn listed(manifest: &Value, list: &str) -> Vec<(String, String, String)> {
    let field = |m: &Value, key: &str| m[key].as_str().expect("a string field").to_string();
    manifest[list]
        .as_array()
        .unwrap()
        .iter()
        .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
        .collect()
}

fn specified(specs: &[MetricSpec]) -> Vec<(String, String, String)> {
    specs
        .iter()
        .map(|s| {
            (
                s.name.to_string(),
                s.unit.to_string(),
                s.better.as_str().to_string(),
            )
        })
        .collect()
}

#[test]
fn manifest_lists_what_the_binary_specifies() {
    let manifest = manifest();
    let workloads: Vec<&str> = manifest["workloads"]
        .as_array()
        .unwrap()
        .iter()
        .map(|w| w["name"].as_str().unwrap())
        .collect();
    assert_eq!(workloads, WORKLOADS);
    assert_eq!(listed(&manifest, "end_to_end"), specified(END_TO_END));
    assert_eq!(listed(&manifest, "per_layer"), specified(PER_LAYER));
    assert_eq!(manifest["paths"].as_array().unwrap().len(), 1);
    assert_eq!(manifest["paths"][0], "crates/benchmark");
}

/// Runs one smoke-sized workload and returns the result object it printed.
fn smoke(workload: &str, trace: &str) -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_freephish-benchmark"))
        .args([
            "--workload",
            workload,
            "--seed",
            "5",
            "--seconds",
            "0.4",
            "--trace",
            trace,
            "--smoke",
        ])
        .env("CARGO_TARGET_DIR", env!("CARGO_TARGET_TMPDIR"))
        .env_remove("FREEPHISH_THREADS")
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} trace {trace}: {}\n{stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    serde_json::from_str(stdout.lines().last().expect("a result line"))
        .expect("the last line is JSON")
}

#[test]
fn every_workload_emits_exactly_the_listed_metrics() {
    if std::thread::available_parallelism().map_or(1, |n| n.get()) < 2 {
        eprintln!("skipped: the benchmark refuses to run on fewer than 2 hardware threads");
        return;
    }
    let manifest = manifest();
    for workload in WORKLOADS {
        for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
            let result = smoke(workload, trace);
            let keys: Vec<&String> = result.as_object().unwrap().keys().collect();
            assert_eq!(
                keys,
                ["attempted", "correct", "failed", "metrics"],
                "{workload} trace {trace}"
            );
            assert_eq!(result["correct"], true, "{workload} trace {trace}");
            assert!(result["attempted"].as_u64().unwrap() >= 1);
            let mut emitted: Vec<(String, String)> = result["metrics"]
                .as_object()
                .unwrap()
                .iter()
                .map(|(name, m)| {
                    assert!(
                        m["value"].as_f64().is_some_and(f64::is_finite),
                        "{workload} {name} has no number"
                    );
                    (name.clone(), m["unit"].as_str().unwrap().to_string())
                })
                .collect();
            let mut wanted: Vec<(String, String)> = listed(&manifest, list)
                .into_iter()
                .map(|(n, u, _)| (n, u))
                .collect();
            emitted.sort();
            wanted.sort();
            assert_eq!(emitted, wanted, "{workload} trace {trace}");
        }
    }
}
