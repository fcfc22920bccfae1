#!/usr/bin/env bash
# Builds the benchmark and the `megh` binary it drives as a daemon, then
# runs one workload. Run from the repository root:
#
#   bash perf/run.sh --workload sim_paper --seed 1 --seconds 20 --trace 0
#
# Both builds share one target directory ($CARGO_TARGET_DIR, default
# `target`), which is how the benchmark finds the daemon binary.
set -euo pipefail
target="${CARGO_TARGET_DIR:-target}"
cargo build --offline --release --quiet --manifest-path perf/Cargo.toml --target-dir "$target" >&2
cargo build --offline --release --quiet -p megh-cli --bin megh --target-dir "$target" >&2
exec "$target/release/megh-perf" "$@"
