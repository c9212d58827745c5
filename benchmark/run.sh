#!/usr/bin/env bash
# Builds the benchmark and runs it.
#
#   benchmark/run.sh [--seed S] [--only WORKLOAD] [--repeat R] [--scale smoke]
#       the ladder: every workload untraced, then traced; prints every metric
#       by name with its unit and writes benchmark/out/results.json
#   benchmark/run.sh --workload W --seed S --seconds N --trace 0|1
#       one run; the last line of standard output is the result object
#   benchmark/run.sh compare A.json B.json | --list | manifest
set -euo pipefail
cd "$(dirname "$0")/.."

# net-clean-n16 holds ~500 descriptors per instance (see README): lift the
# soft limit to the hard one; the binary checks what it got.
ulimit -Sn "$(ulimit -Hn)" 2>/dev/null || true

cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/uba-benchmark"

case "${1:-}" in
compare | manifest | --list) exec "$bin" "$@" ;;
*) exec "$bin" run "$@" ;;
esac
