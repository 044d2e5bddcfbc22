#!/usr/bin/env bash
# Builds the benchmark offline and runs it. See benchmark/README.md.
#
#   benchmark/run.sh                      every workload, untraced then traced,
#                                         each in its own process; prints every
#                                         metric, writes benchmark/out/latest.json
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                         one run; last stdout line = result
#   benchmark/run.sh --smoke              the same at test scale, one pass each
#   benchmark/run.sh --check A.json B.json
#   benchmark/run.sh --selfcheck
#
# Touches nothing outside benchmark/ except the cargo target directory when
# CARGO_TARGET_DIR names one.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
target="${CARGO_TARGET_DIR:-benchmark/target}"
# Build output goes to stderr so that stdout carries only the benchmark's own.
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml 1>&2
exec "$target/release/bow-benchmark" "$@"
