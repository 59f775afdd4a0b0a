#!/usr/bin/env bash
# Builds the workspace binaries and the benchmark into one target directory,
# then runs the benchmark with the given arguments. Build output goes to
# stderr so the benchmark's result stays the last line of stdout.
#
#   bash benchmark/bench.sh --workload campaign-quick --seed 7 --seconds 25 --trace 0
#   bash benchmark/bench.sh run --seed 2024
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
# The benchmark finds reproduce, fleet and serve next to its own executable,
# so both builds must share a target directory.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"

cargo build --release --offline --quiet --bins --manifest-path Cargo.toml >&2
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/imufit-benchmark" "$@"
