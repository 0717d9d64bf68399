#!/usr/bin/env bash
# Builds stgcheck and the benchmark from source, then runs one workload.
#
#   bash perfbench/run.sh --workload table1-static --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. The last line of standard output is the
# JSON result; build output and per-net diagnostics go to standard error.
# See perfbench/README.md.
set -euo pipefail

: "${CARGO_TARGET_DIR:=.bench_build}"
export CARGO_TARGET_DIR

# Both builds fail (and so does this script) when the repository sources
# are not next to the benchmark.
cargo build --release --offline --quiet --manifest-path Cargo.toml --bin stgcheck >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2

exec "$CARGO_TARGET_DIR/release/perfbench" \
    --stgcheck "$CARGO_TARGET_DIR/release/stgcheck" \
    --state-dir "$CARGO_TARGET_DIR/perfbench-state" \
    "$@"
