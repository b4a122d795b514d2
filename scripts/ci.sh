#!/usr/bin/env bash
# Pre-PR gate: formatting, lints, rustdoc, release build, full test suite.
# Run from the repository root: ./scripts/ci.sh
set -euo pipefail

cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo clippy --workspace --all-targets -- -D warnings =="
cargo clippy --workspace --all-targets -- -D warnings

# Every crate's docs build with no broken or ambiguous intra-doc link.
echo "== rustdoc: cargo doc --workspace --no-deps, warnings denied =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "== cargo build --release =="
cargo build --release

# Tier-1 builds from a clean clone: every dependency is a path inside the
# repository, so the lock file may name no registry.
echo "== Cargo.lock names no registry =="
if grep -n 'source = "registry+' Cargo.lock; then
  echo "ci.sh: ERROR: Cargo.lock pulls a crate from a registry (see above); a clean clone could not build" >&2
  exit 1
fi

# README §Performance, DESIGN.md and EXPERIMENTS.md may only name
# workloads and metrics BENCHMARK.json declares and keys
# BENCH_PIPELINE.json holds.
echo "== performance docs cite the record (check_perf_docs.py) =="
python3 scripts/check_perf_docs.py

# The paper's record: one `repro` run at scale 0.1 must pass every shape
# check (a failed one exits 1) and rewrite REPRO.json byte for byte, serially
# and at the host-default worker count (an empty FREEPHISH_THREADS).
echo "== paper record (repro vs REPRO.json) =="
cargo build --release -p freephish-bench --bin repro
for threads in 1 ""; do
  FREEPHISH_SCALE=0.1 FREEPHISH_THREADS="$threads" ./target/release/repro >/dev/null
  if ! cmp target/experiments/repro.json REPRO.json; then
    echo "ci.sh: ERROR: repro (FREEPHISH_THREADS='$threads') no longer regenerates REPRO.json" >&2
    exit 1
  fi
done

# Every suite of every crate — unit, integration and property tests,
# including the hot-path, tiered-resolver and overlay equivalence proofs
# and the ops plane's endpoint smoke (crates/core/tests/ops_smoke.rs) —
# once at the host-default worker count and once serially, so the
# bit-identity assertions also hold across pool widths.
echo "== cargo test -q --workspace (host-default threads) =="
cargo test -q --workspace

echo "== cargo test -q --workspace (FREEPHISH_THREADS=1) =="
FREEPHISH_THREADS=1 cargo test -q --workspace

echo "== loadgen without a mode is a usage error =="
cargo build --release -p freephish-bench --bin loadgen
status=0
./target/release/loadgen 2>/dev/null || status=$?
if [ "$status" -ne 64 ]; then
  echo "ci.sh: ERROR: loadgen with no mode exited $status, expected 64" >&2
  exit 1
fi

# One serving engine (the cluster router's front door included), one
# store-backed node, one verdict index (its baked base a level of the
# image, its head a KeyTable), std locks, a store directory that
# is its segments (no snapshots, no fsync-per-append knob), one `repro` run, one property runner
# (`freephish_simclock::prop`), one fetch trait, a resolver that is built
# with its models: the forks, the dependencies, the tick-count knob, the
# per-table knobs, the warm-up machinery and the admission rate cap this repo
# retired must not come back (crates/benchmark keeps its own stand-ins,
# `proptest` and `criterion` among them).
echo "== retired names stay retired =="
if grep -rnE 'PrimaryChecker|FollowerChecker|RouterServer|serve_follower|KnownSetChecker|parking_lot|snapshot_every_ticks|FREEPHISH_T1_PAIRS|LAST_METRICS|proptest!|proptest::|^[[:space:]]*proptest[[:space:]]*[.=]|dependencies\.proptest\]|HttpFetcher|PageFetcher|fetcher_at|wait_warm|is_warm|resolver_cold_misses|TieredResolver::bootstrap|FixedHistogram|criterion|recover_local|SyntheticFetcher|write_snapshot|load_snapshot|parse_snapshot_name|snapshot_seq|store_snapshots_total|sync_every_append|OverlayIndex|HeadEntry|filter_bit|base_epoch|RateCap|rate_cap_urls_per_sec|serve_rate_limited|FREEPHISH_CLUSTER_RATE' \
    --include='*.rs' --include='Cargo.toml' --exclude-dir=benchmark --exclude-dir=target \
    Cargo.toml src tests examples crates; then
  echo "ci.sh: ERROR: a retired name is back (see the matches above)" >&2
  exit 1
fi
# `freephish-store` is the one reader and writer of a store directory:
# the cluster reads it through `TailFollower` and writes it through
# `Store`, never by scanning segments, listing the directory, or touching
# a file itself, and no crate decodes a buffer of frames outside the store
# (every reader gets records).
echo "== the cluster reads the WAL only through freephish-store =="
if grep -rnE '\b(scan_segment|scan_buffer)\b|fn list_(indexed|segments)' crates/cluster/src; then
  echo "ci.sh: ERROR: crates/cluster/src re-derives the store's directory format (see above)" >&2
  exit 1
fi
echo "== the cluster writes the WAL only through Store =="
if grep -rnE '\b(SegmentWriter|lock_dir|fsync_dir|list_segments|segment_file_name|OpenOptions)\b|\brecover\(|\bstd::fs\b' crates/cluster/src; then
  echo "ci.sh: ERROR: crates/cluster/src writes or lists a store directory itself (see above)" >&2
  exit 1
fi
if grep -rnw 'scan_buffer' crates/*/src | grep -v '^crates/store/src/'; then
  echo "ci.sh: ERROR: a crate outside freephish-store decodes a frame buffer (see above)" >&2
  exit 1
fi
# The read path keys a URL once per layer with `serve::url_key`: SipHash
# under a per-process random key, so clients cannot aim URLs at one slot.
# A fixed-key `DefaultHasher` there would hash a URL again and undo both.
echo "== the read path keys URLs with url_key, not DefaultHasher =="
if grep -rnw 'DefaultHasher' crates/serve/src crates/core/src/resolver.rs; then
  echo "ci.sh: ERROR: DefaultHasher in serve or the resolver; key URLs with serve::url_key (see above)" >&2
  exit 1
fi
# One FNV-1a, defined once in `freephish_simclock::hash` beside the
# mislabelled-prime `fnv_shaped` that Table 2's features keep: no other
# crate spells out the offset basis and its own loop (crates/benchmark
# keeps its own copies, as it keeps its own stand-ins).
echo "== the FNV offset basis lives only in freephish_simclock::hash =="
if grep -rniE --include='*.rs' --exclude-dir=target '0xcbf2_?9ce4_?8422_?2325' src tests examples crates |
    grep -vE '^(crates/simclock/src/|crates/benchmark/)'; then
  echo "ci.sh: ERROR: an FNV offset basis outside freephish_simclock; call fnv1a or fnv_shaped (see above)" >&2
  exit 1
fi
# One frame layer: `serve::proto::Framing` writes and splits the frame
# header (magic, opcode, u32 length) for both wires, the verdict wire and
# the cluster's replication wire, which differ only in magic byte and
# payload cap. No other file writes or splits a header of its own
# (crates/benchmark keeps its own client, as it keeps its own stand-ins).
echo "== the frame header is written once, in serve::proto =="
if grep -rnE --include='*.rs' --exclude-dir=target 'fn (put_frame|split_frame|peek_frame)\b|REPL_FRAME_HEADER' src tests examples crates |
    grep -vE '^(crates/serve/src/proto\.rs:|crates/benchmark/)'; then
  echo "ci.sh: ERROR: frame-header code outside serve::proto; use serve::proto::Framing (see above)" >&2
  exit 1
fi
# The learners take whatever floats they are given: a sort or a min/max
# that compares with `partial_cmp(..).unwrap()` panics on the first NaN, as
# `BinnedMatrix::build` once did on one NaN cell. `crates/ml/src` compares
# floats with `total_cmp`.
echo "== crates/ml/src orders floats with total_cmp =="
if grep -rnE 'partial_cmp\([^)]*\)\.unwrap\(\)' crates/ml/src; then
  echo "ci.sh: ERROR: a NaN-panicking float comparison in crates/ml/src; use total_cmp (see above)" >&2
  exit 1
fi
# `par` resolves the host's parallelism once per process, and the serving
# engine once per server; on Linux every other call re-reads the cgroup
# quota files, so no other code may probe the host again.
echo "== available_parallelism only where the host is sized once =="
if grep -rn --include='*.rs' --exclude-dir=target 'available_parallelism' src tests examples crates |
    grep -vE '^(crates/par/src/lib\.rs:|crates/serve/src/server\.rs:|crates/benchmark/)'; then
  echo "ci.sh: ERROR: available_parallelism outside par, serve::server and the benchmark (see above)" >&2
  exit 1
fi
# Every table and figure is a section of `repro`; the docs may not send a
# reader to the per-table binaries it replaced.
if grep -nE -- '--bin +(fig[1-9]|table[1-4]|evasive|characterize|discovery|ablation)\b' \
    README.md DESIGN.md EXPERIMENTS.md .claude/skills/verify/SKILL.md; then
  echo "ci.sh: ERROR: a doc cites a retired per-table binary (use --bin repro)" >&2
  exit 1
fi

# Downscaled soak smoke: the full million-site pipeline (streaming world
# build -> bake -> mmap load -> mixed CHECK/CHECKN/ADD soak with RSS and
# p99.9 gates, the bake's RSS growth held to the writer's bound of run
# budget + 4 B per bucket + 48 MB) at a size that finishes in seconds. Its ADDs publish into
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
