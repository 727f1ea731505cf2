#!/usr/bin/env bash
# Runs one benchmark workload from a source checkout:
#
#   bash perfbench/run.sh --workload <batch|anytime|serve> --seed N \
#       --seconds S --trace <0|1>
#
# Builds hera-cli (the server the `serve` workload spawns) and the
# benchmark binary from source, then hands every argument to the binary.
# Build output goes to stderr; the last line of stdout is the result.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet --manifest-path Cargo.toml -p hera-cli >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/hera-perfbench" \
    --cli "$CARGO_TARGET_DIR/release/hera-cli" \
    --work "$CARGO_TARGET_DIR/perfbench-work" \
    "$@"
