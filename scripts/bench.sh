#!/usr/bin/env bash
# Performance record: build the release perfbench binary and regenerate
# BENCH_PIPELINE.json at the repository root.
#
# The record compares, on this host:
#   * the Table-1-shaped site-similarity sweep — seed Wagner–Fischer kernel
#     vs the Myers bit-parallel kernel, serial and through freephish-par;
#   * the classification hot path — wire-speed snapshot scoring (span
#     tokens -> PageFacts -> flat forests) vs the retained legacy path,
#     plus per-stage figures (urls_classified_per_sec,
#     html_tokenize_mb_per_sec, forest_predict_rows_per_sec,
#     url_features_per_sec);
#   * one full pipeline tick at FREEPHISH_THREADS=1 vs the host default,
#     plus the seed's bare poll+crawl+score loop;
#   * the classifier train phase at one thread vs the host default;
#   * the persistence layer — buffered vs per-record-fsync append
#     throughput and cold WAL recovery (clean and torn-tail), recorded
#     under the store_append_throughput and store_recovery keys;
#   * the serving layer — loadgen drives the verdict engine with
#     concurrent connections (line CHECK and binary CHECKN), merged in
#     under the serve_throughput and serve_latency keys; during
#     the CHECKN phase the ops plane is mounted and scraped mid-run,
#     adding the serve_p999, serve_worker_utilization and
#     ops_scrape_latency keys; a miss phase (--miss-rate) then drives the
#     tiered resolver with never-seen URLs and records the
#     serve_miss_classify_per_sec and serve_tier_hit_rates keys plus a
#     kill-mid-load restart proof under serve_miss_classify;
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
# Knobs: FREEPHISH_BENCH_REPS (best-of reps, default 3),
#        FREEPHISH_BENCH_OUT (output path, default BENCH_PIPELINE.json),
#        FREEPHISH_LOADGEN_CONNS / _SECS / _BATCH (loadgen shape),
#        FREEPHISH_CLUSTER_RATE / _CONNS (cluster phase shape),
#        FREEPHISH_SOAK_SITES / _INDEX / _SECS / _CONNS / _RSS_LIMIT_MB
#        (soak phase shape; the 10M-entry default bake is disk-bound and
#        takes a couple of minutes on slow volumes).
# Run from the repository root: ./scripts/bench.sh
set -euo pipefail

cd "$(dirname "$0")/.."

echo "== cargo build --release -p freephish-bench --bin perfbench =="
cargo build --release -p freephish-bench --bin perfbench

echo "== perfbench =="
./target/release/perfbench

echo "== cargo build --release -p freephish-bench --bin loadgen =="
cargo build --release -p freephish-bench --bin loadgen

echo "== loadgen =="
./target/release/loadgen

# The cluster phase spawns follower daemons from the freephish-extd
# binary next to loadgen in target/release.
echo "== cargo build --release -p freephish-core --bin freephish-extd =="
cargo build --release -p freephish-core --bin freephish-extd

echo "== loadgen --cluster =="
./target/release/loadgen --cluster

echo "== loadgen --soak =="
./target/release/loadgen --soak

OUT="${FREEPHISH_BENCH_OUT:-BENCH_PIPELINE.json}"
for key in serve_throughput serve_latency serve_p999 serve_worker_utilization ops_scrape_latency \
           serve_miss_classify_per_sec serve_tier_hit_rates \
           cluster_scaling cluster_replication_lag cluster_failover \
           scale_world_build mapidx_build mapidx_load mapidx_load_ms \
           soak soak_rss_peak_mb soak_p999_us \
           urls_classified_per_sec html_tokenize_mb_per_sec forest_predict_rows_per_sec url_features_per_sec; do
  if ! grep -q "\"$key\"" "$OUT"; then
    echo "bench.sh: ERROR: \"$key\" missing from $OUT" >&2
    exit 1
  fi
done

# Re-assert the scale SLOs against the merged record (belt and braces on
# top of the in-binary gates): restart budget and a sane p99.9.
python3 - "$OUT" <<'EOF'
import json, sys
rec = json.load(open(sys.argv[1]))
load_ms = float(rec["mapidx_load_ms"])
p999_us = float(rec["soak_p999_us"])
rss_mb = float(rec["soak_rss_peak_mb"])
errs = []
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
