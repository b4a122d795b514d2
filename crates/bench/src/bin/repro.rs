//! Regenerate every table and figure of the paper from one measurement.
//!
//! ```sh
//! FREEPHISH_SCALE=0.1 cargo run --release -p freephish-bench --bin repro
//! ```
//!
//! Prints each section in the order of DESIGN.md §4, each followed by its
//! `shape ok|FAILED <section>: <claim>` lines, and exits 1 if any shape
//! fails. Writes the deterministic record to `target/experiments/repro.json`
//! and the run's wall-clock values (the obs metrics snapshot, Table 2's
//! runtimes) to `target/experiments/repro-wall-clock.json`.

use freephish_bench::harness::{full_measurement, scale_from_env, write_json};
use freephish_bench::sections::{self, Section};
use serde_json::{json, Value};

/// Seed of the one 180-day measurement every campaign section reads.
const MEASUREMENT_SEED: u64 = 0x7ab1e3;

fn main() {
    let scale = scale_from_env();
    let m = full_measurement(scale, MEASUREMENT_SEED);
    let all: [Section; 14] = [
        sections::fig1(),
        sections::table1(),
        sections::table2(scale),
        sections::table3(&m),
        sections::table4(&m),
        sections::fig5(&m),
        sections::fig6(&m),
        sections::fig7(&m),
        sections::fig8(&m),
        sections::fig9(&m),
        sections::evasive(&m),
        sections::characterize(&m),
        sections::discovery(&m),
        sections::ablation(),
    ];

    let shapes: Vec<Value> = all
        .iter()
        .flat_map(|s| s.shapes.iter().map(move |&(claim, ok)| (s.name, claim, ok)))
        .map(|(section, claim, ok)| json!({ "section": section, "claim": claim, "ok": ok }))
        .collect();
    let failed = all
        .iter()
        .flat_map(|s| &s.shapes)
        .filter(|(_, ok)| !ok)
        .count();
    println!("\n{} shape checks, {failed} failed", shapes.len());

    let by_section = |field: fn(&Section) -> &Value| {
        let present = all.iter().filter(|s| !field(s).is_null());
        Value::Object(
            present
                .map(|s| (s.name.to_string(), field(s).clone()))
                .collect(),
        )
    };
    let record = json!({
        "scale": scale, "seed": MEASUREMENT_SEED,
        "sections": by_section(|s| &s.record), "shapes": shapes,
    });
    write_json("repro", &record);
    let wall_clock = json!({
        "metrics": freephish_obs::to_json(&m.metrics), "sections": by_section(|s| &s.wall_clock),
    });
    write_json("repro-wall-clock", &wall_clock);
    if failed > 0 {
        std::process::exit(1);
    }
}
