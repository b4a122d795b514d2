#!/usr/bin/env bash
# The multi-process and scale record: build the release loadgen binary and
# regenerate BENCH_PIPELINE.json at the repository root.
#
# The single-node verdict path and the paper pipeline are NOT measured
# here: BENCHMARK.json is their record (bash crates/benchmark/run.sh
# --workload <name> --seed <n> --seconds 24 --trace <0|1>). This script
# keeps the two proofs one in-process 24-second workload cannot express:
#   * the distributed cluster — loadgen --cluster spawns freephish-extd
#     follower processes replicating from an in-process primary WAL and
#     scatters CHECKN through the consistent-hash router: a rate-capped
#     1/2/4/8-node scaling sweep (cluster_scaling), a replication-lag
#     scrape off a follower's /varz (cluster_replication_lag), and a
#     kill-a-follower/resume-from-cursor/zero-lost-verdicts proof
#     (cluster_failover);
#   * the million-site scale path — loadgen --soak streams a 1M-site
#     world under an RSS-growth gate (scale_world_build), external-merge
#     bakes a 10M-entry snapshot index (mapidx_build), proves the mmap
#     restart budget and spot-checks verdict bits (mapidx_load,
#     mapidx_load_ms), then soaks the evented engine with mixed
#     CHECK/CHECKN/ADD traffic while sampling RSS and rolling p99.9
#     (soak, soak_rss_peak_mb, soak_p999_us). The SLO gates — index load
#     <= 100 ms, bounded RSS growth, sub-second p99.9 — are asserted
#     inside the binary, so a regression fails this script.
#
# Knobs: FREEPHISH_BENCH_OUT (output path, default BENCH_PIPELINE.json),
#        FREEPHISH_LOADGEN_SECS / _BATCH (seconds per cluster sweep point,
#        URLs per CHECKN frame),
#        FREEPHISH_CLUSTER_RATE / _CONNS (cluster phase shape),
#        FREEPHISH_SOAK_SITES / _INDEX / _SECS / _CONNS / _RSS_LIMIT_MB
#        (soak phase shape; the 10M-entry default bake is disk-bound and
#        takes a couple of minutes on slow volumes).
# Run from the repository root: ./scripts/bench.sh
set -euo pipefail

cd "$(dirname "$0")/.."

# The cluster phase spawns follower daemons from the freephish-extd
# binary next to loadgen in target/release.
echo "== cargo build --release: loadgen, freephish-extd =="
cargo build --release -p freephish-bench --bin loadgen
cargo build --release -p freephish-core --bin freephish-extd

echo "== loadgen --cluster =="
./target/release/loadgen --cluster

echo "== loadgen --soak =="
./target/release/loadgen --soak

# The record holds exactly the keys the two phases write (plus the
# schema stamp loadgen puts on a fresh file): a missing key is a phase
# that silently wrote less, an extra one has no producer.
OUT="${FREEPHISH_BENCH_OUT:-BENCH_PIPELINE.json}"
python3 - "$OUT" <<'EOF'
import json, sys
rec = json.load(open(sys.argv[1]))
required = {
    "schema_version",
    "cluster_scaling", "cluster_replication_lag", "cluster_failover",
    "scale_world_build", "mapidx_build", "mapidx_load", "mapidx_load_ms",
    "soak", "soak_rss_peak_mb", "soak_p999_us",
}
errs = [f'"{k}" missing' for k in sorted(required - rec.keys())]
errs += [f'"{k}" has no producer' for k in sorted(rec.keys() - required)]
# Re-assert the scale SLOs against the merged record (belt and braces on
# top of the in-binary gates): restart budget and a sane p99.9.
if not errs:
    load_ms = float(rec["mapidx_load_ms"])
    p999_us = float(rec["soak_p999_us"])
    rss_mb = float(rec["soak_rss_peak_mb"])
    if not load_ms <= 100.0:
        errs.append(f"mapidx_load_ms {load_ms} > 100 ms restart budget")
    if not 0.0 < p999_us < 1_000_000.0:
        errs.append(f"soak_p999_us {p999_us} outside (0, 1s)")
    if not rss_mb > 0.0:
        errs.append(f"soak_rss_peak_mb {rss_mb} not positive")
for e in errs:
    print(f"bench.sh: ERROR: {e}", file=sys.stderr)
sys.exit(1 if errs else 0)
EOF

echo "== bench.sh: wrote $OUT =="
