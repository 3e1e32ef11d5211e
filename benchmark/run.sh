#!/usr/bin/env bash
# Build the benchmark from source and run it; arguments go to the binary
# (see README.md). CARGO_TARGET_DIR is honoured, so the root `target/`
# (the default here) or the driver's `.bench_build` is reused.
#
# One malloc arena: with an arena per thread the high-water mark of
# memory depended on which thread freed what (`insitu_lines` 37–53 MiB
# run to run); with one it repeats within 3 %.
#
# Where threads run is the binary's business (`machine::choose_cpus`):
# one CPU for the gated runs, a CPU per rank for the traced ones.
set -euo pipefail
cd "$(dirname "$0")/.."
export MALLOC_ARENA_MAX=1
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
exec "$CARGO_TARGET_DIR/release/hemelb-benchmark" "$@"
