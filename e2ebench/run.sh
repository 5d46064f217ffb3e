#!/usr/bin/env bash
# Builds the lim-serve daemon and the benchmark binary from source, then
# runs the benchmark. Run from the repository root:
#
#   bash e2ebench/run.sh --workload rtl_infer_unique --seed 1 --seconds 10 --trace 0
#   bash e2ebench/run.sh --smoke
#
# Build output goes to $CARGO_TARGET_DIR (default: .bench_build).
set -euo pipefail
bench_dir="$(dirname "$0")"
root="$bench_dir/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" \
    -p lim-serve --bin lim-serve >&2
cargo build --release --offline --quiet --manifest-path "$bench_dir/Cargo.toml" >&2
exec "$CARGO_TARGET_DIR/release/lim-e2ebench" \
    --serve-bin "$CARGO_TARGET_DIR/release/lim-serve" "$@"
