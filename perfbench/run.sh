#!/usr/bin/env bash
# Builds the zeroconf-serve daemon and the benchmark from source, then runs
# the benchmark with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload warm-sweep --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Both builds share one target directory
# (CARGO_TARGET_DIR, default `target`), where the benchmark looks for the
# daemon binary.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --quiet -p zeroconf-serve --bin zeroconf-serve >&2
cargo build --release --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" "$@"
