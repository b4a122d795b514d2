//! loadgen: the two load proofs a single-process benchmark workload
//! cannot express. (The single-node verdict path and the paper pipeline
//! are measured by `BENCHMARK.json` via `crates/benchmark/run.sh`.)
//!
//! * `--cluster` — a live multi-process verdict cluster on this host:
//!   WAL replication to spawned `freephish-extd` followers behind the
//!   consistent-hash router, and a kill-a-follower / resume-from-cursor /
//!   zero-lost-verdicts proof (see [`cluster`]). `FREEPHISH_LOADGEN_SECS`
//!   (default 2, floor 1) sets the failover load window in seconds,
//!   `FREEPHISH_LOADGEN_BATCH` (default 64) the URLs per `CHECKN`.
//! * `--soak` — a million-site world, a ten-million-entry baked index,
//!   the ≤100 ms mmap load gate and a sustained mixed-traffic run with
//!   RSS-growth and p99.9 gates (see [`soak`]).
//!
//! A mode is mandatory. Each mode merges its keys into the record at
//! `FREEPHISH_BENCH_OUT` (default `BENCH_PIPELINE.json`) without touching
//! the other's, so `bench.sh` composes the two.

mod cluster;
mod soak;

use freephish_serve::http_get;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx]
}

/// A mid-run ops-plane scraper: polls `GET /varz` every `period` the way
/// a Prometheus scrape would, while the load phase runs, so the
/// server-side quantiles come from a server under load. Yields the last
/// /varz body.
struct OpsScraper {
    stop: Arc<AtomicBool>,
    handle: std::thread::JoinHandle<String>,
}

impl OpsScraper {
    fn start(addr: SocketAddr, period: Duration) -> OpsScraper {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = stop.clone();
        let handle = std::thread::spawn(move || loop {
            let body = match http_get(addr, "/varz") {
                Ok((200, body)) => body,
                Ok((code, body)) => panic!("/varz returned {code}: {body}"),
                Err(e) => panic!("/varz scrape failed: {e}"),
            };
            // Check after the scrape so the final body postdates the
            // stop request — it sees the whole load phase.
            if flag.load(Ordering::SeqCst) {
                break body;
            }
            std::thread::sleep(period);
        });
        OpsScraper { stop, handle }
    }

    fn finish(self) -> String {
        self.stop.store(true, Ordering::SeqCst);
        self.handle.join().expect("ops scraper panicked")
    }
}

/// Pull one windowed-quantile gauge (integer µs) out of a /varz body.
fn window_gauge(varz: &serde_json::Value, cmd: &str, q: &str) -> Option<i64> {
    varz["gauges"]
        .get(format!(
            "serve_window_latency_us{{cmd=\"{cmd}\",q=\"{q}\"}}"
        ))
        .and_then(|v| v.as_i64())
}

/// Merge a JSON object of keys into the bench record at `out` without
/// clobbering keys owned by other phases.
fn merge_keys(out: &str, keys: &serde_json::Value) {
    let mut record: serde_json::Value = std::fs::read_to_string(out)
        .ok()
        .and_then(|s| serde_json::from_str(&s).ok())
        .unwrap_or_else(|| serde_json::json!({"schema_version": 1}));
    let obj = record
        .as_object_mut()
        .expect("bench record must be a JSON object");
    let mut merged: Vec<String> = Vec::new();
    for (k, v) in keys.as_object().expect("phase keys").iter() {
        obj.insert(k.clone(), v.clone());
        merged.push(k.clone());
    }
    std::fs::write(out, serde_json::to_string_pretty(&record).unwrap())
        .unwrap_or_else(|e| panic!("could not write {out}: {e}"));
    println!("merged {} into {out}", merged.join(", "));
}

fn main() {
    let batch = env_usize("FREEPHISH_LOADGEN_BATCH", 64).clamp(1, 256);
    let secs = env_usize("FREEPHISH_LOADGEN_SECS", 2) as f64;
    let out = std::env::var("FREEPHISH_BENCH_OUT").unwrap_or_else(|_| "BENCH_PIPELINE.json".into());
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let keys = match argv.as_slice() {
        [mode] if mode == "--cluster" => {
            println!("loadgen: cluster phase ({secs}s failover load, CHECKN batch {batch})");
            cluster::cluster_phase(secs, batch)
        }
        [mode] if mode == "--soak" => soak::soak_phase(batch),
        _ => {
            eprintln!("usage: loadgen --cluster | --soak");
            std::process::exit(64);
        }
    };
    merge_keys(&out, &keys);
}
