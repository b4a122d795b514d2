#!/usr/bin/env bash
# The command BENCHMARK.json names: builds the benchmark binary from source,
# offline, against the stand-in crates in standins/, and runs it with the
# arguments given. Build output goes to stderr; stdout is the binary's.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
cd "$root"
cargo --config crates/benchmark/offline.toml build --manifest-path "$root/Cargo.toml" \
    --release --offline -p freephish-benchmark >&2
exec "${CARGO_TARGET_DIR:-target}/release/freephish-benchmark" "$@"
