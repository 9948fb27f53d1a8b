#!/usr/bin/env bash
# One command for the whole benchmark: builds `ftss-benchmark` in release
# mode, offline, then hands every argument to it.
#
#   benchmark/run.sh [--workload W] [--seed S] [--traced] [--smoke]
#       one process per workload; prints `workload name value unit`,
#       writes benchmark/out/results.json, exits non-zero on a failed check
#   benchmark/run.sh --aa [--runs K]
#       two interleaved sets of K runs of the same binary (default 5 + 5)
#   benchmark/run.sh --workload W --seed S --seconds N --trace 0|1
#       the driver's contract: one workload, result object on the last line
#
# Run it from the repository root (paths in BENCHMARK.json are relative to
# it). Everything it writes stays inside the checkout: build output in
# $CARGO_TARGET_DIR (default benchmark/target), results, traces and
# temporary files (sockets of the uds transport, rustc scratch) in
# benchmark/out.
set -euo pipefail

here="$(dirname "${BASH_SOURCE[0]}")"
target="${CARGO_TARGET_DIR:-$here/target}"
out="$here/out"
mkdir -p "$out/tmp"

# Cargo wants an absolute scratch directory; keep it inside the checkout.
TMPDIR="$(cd "$out/tmp" && pwd)" CARGO_TARGET_DIR="$target" CARGO_NET_OFFLINE=true \
    cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

# A short relative TMPDIR keeps uds socket paths under the 108-byte limit
# however deep the checkout sits.
export TMPDIR="$out/tmp"
export FTSS_BENCH_OUT="$out"
FTSS_BENCH_RUSTC="$(rustc --version 2>/dev/null || echo unknown)"
export FTSS_BENCH_RUSTC
exec "$target/release/ftss-benchmark" "$@"
