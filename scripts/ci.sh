#!/usr/bin/env bash
# Pre-PR gate: formatting, lints, release build, full test suite.
# Run from the repository root: ./scripts/ci.sh
set -euo pipefail

cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo clippy --workspace -- -D warnings =="
cargo clippy --workspace -- -D warnings

echo "== cargo build --release =="
cargo build --release

# README §Performance, DESIGN.md and EXPERIMENTS.md may only name
# workloads and metrics BENCHMARK.json declares and keys
# BENCH_PIPELINE.json holds.
echo "== performance docs cite the record (check_perf_docs.py) =="
python3 scripts/check_perf_docs.py

# Every suite of every crate — unit, integration and property tests,
# including the hot-path, tiered-resolver and overlay equivalence proofs —
# once at the host-default worker count and once serially, so the
# bit-identity assertions also hold across pool widths.
echo "== cargo test -q --workspace (host-default threads) =="
cargo test -q --workspace

echo "== cargo test -q --workspace (FREEPHISH_THREADS=1) =="
FREEPHISH_THREADS=1 cargo test -q --workspace

echo "== ops plane smoke (ops_smoke) =="
cargo build --release -p freephish-bench --bin ops_smoke
./target/release/ops_smoke

echo "== loadgen without a mode is a usage error =="
cargo build --release -p freephish-bench --bin loadgen
status=0
./target/release/loadgen 2>/dev/null || status=$?
if [ "$status" -ne 64 ]; then
  echo "ci.sh: ERROR: loadgen with no mode exited $status, expected 64" >&2
  exit 1
fi

# One store-backed node, one index checker, std locks, a size-derived
# compaction trigger: the forks, the dependency and the tick-count knob
# this repo retired must not come back (crates/benchmark keeps its own
# stand-ins).
echo "== retired names stay retired =="
if grep -rnE 'PrimaryChecker|FollowerChecker|serve_follower|KnownSetChecker|parking_lot|snapshot_every_ticks' \
    --include='*.rs' --include='Cargo.toml' --exclude-dir=benchmark --exclude-dir=target \
    Cargo.toml src tests examples crates; then
  echo "ci.sh: ERROR: a retired name is back (see the matches above)" >&2
  exit 1
fi

# Downscaled soak smoke: the full million-site pipeline (streaming world
# build -> bake -> mmap load -> mixed CHECK/CHECKN/ADD soak with RSS and
# p99.9 gates) at a size that finishes in seconds. Its ADDs publish into
# the live `serve::index` delta while CHECK/CHECKN read it, so this is
# also the head/fold publish path under mixed load with the RSS gate. The
# binary asserts the SLOs internally; a failed gate is a nonzero exit here.
echo "== soak smoke (host-default threads) =="
SOAK_SMOKE_OUT="$(mktemp)"
FREEPHISH_SOAK_SITES=20000 FREEPHISH_SOAK_INDEX=40000 \
  FREEPHISH_SOAK_SECS=1 FREEPHISH_SOAK_CONNS=4 \
  FREEPHISH_BENCH_OUT="$SOAK_SMOKE_OUT" ./target/release/loadgen --soak

echo "== soak smoke (FREEPHISH_THREADS=1) =="
FREEPHISH_THREADS=1 \
  FREEPHISH_SOAK_SITES=20000 FREEPHISH_SOAK_INDEX=40000 \
  FREEPHISH_SOAK_SECS=1 FREEPHISH_SOAK_CONNS=4 \
  FREEPHISH_BENCH_OUT="$SOAK_SMOKE_OUT" ./target/release/loadgen --soak
rm -f "$SOAK_SMOKE_OUT"

echo "== ci.sh: all gates passed =="
