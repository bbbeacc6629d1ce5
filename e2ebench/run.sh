#!/usr/bin/env bash
# Build the end-to-end benchmark from source and run one workload.
#
#   bash e2ebench/run.sh --workload enrich --seed 1 --seconds 12 --trace 0
#
# Run from the repository root. The build goes to $CARGO_TARGET_DIR when it
# is set, else to e2ebench/target. Cargo output goes to stderr; the last
# line of stdout is the result object.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
bin="${CARGO_TARGET_DIR:-$here/target}/release/boe-e2ebench"
# One worker per granted core; the binary records what it resolved.
export BOE_THREADS="${BOE_THREADS:-$(nproc)}"
export E2EBENCH_RUSTC="$(rustc --version 2>/dev/null || echo unknown)"
export E2EBENCH_COMMIT="$(git -C "$here" rev-parse HEAD 2>/dev/null || echo unknown)"
exec "$bin" "$@"
