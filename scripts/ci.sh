#!/usr/bin/env bash
# Offline-safe CI gate: everything here runs without network access.
# The workspace has no external dependencies, so no `cargo fetch` step
# is needed — `--offline` guards against accidental registry lookups.
set -euo pipefail
cd "$(dirname "$0")/.."

run() {
    echo "==> $*"
    "$@"
}

# A hung test run must fail CI, not stall it: the tier-1 suites run
# under a generous wall-clock cap (the chaos matrix sleeps through its
# stall faults, so the cap stays far above the honest runtime).
TEST_TIMEOUT="${BOE_CI_TEST_TIMEOUT:-1800}"

run cargo build --release --offline
run timeout "$TEST_TIMEOUT" cargo test -q --offline
run timeout "$TEST_TIMEOUT" cargo test -q --workspace --offline
run cargo clippy --workspace --all-targets --offline -- -D warnings
run cargo fmt --check
# Broken intra-doc links fail the build, like lint warnings.
RUSTDOCFLAGS="-D warnings" run cargo doc --workspace --no-deps --offline

# Parallel-runtime gates: bit-identical output across thread counts
# (full pipeline + similarity matrix) and the randomized Step I sweep
# (EN/FR/ES raw corpora: batch vs serial ingestion byte for byte, and
# candidates, graph and TeRGraph/LIDF score bits equal at 1 and 8
# threads and to a golden digest per language).
run cargo test -q --offline --test parallel_determinism
run timeout "$TEST_TIMEOUT" cargo test -q --offline --test step1_parallel_equality

# The table generator: every paper table and ablation at quick scale
# must print without error (chaos disarmed, so an inherited BOE_CHAOS
# plan cannot leak into the experiments).
echo "==> run_experiments (quick scale)"
BOE_CHAOS=off cargo run --release --offline -q -p boe-eval --bin run_experiments > /dev/null

# Resource-governance gates: budgets trip into truncated reports (never
# aborts), `boe-par` early exit keeps a deterministic prefix, and the
# full chaos matrix (every site × mode × {1,8} threads) stays
# bit-identical across thread counts.
run timeout "$TEST_TIMEOUT" cargo test -q --offline --test governor
run timeout "$TEST_TIMEOUT" cargo test -q --offline -p boe-par --test early_exit
run timeout "$TEST_TIMEOUT" cargo test -q --offline --test chaos_matrix

# Occurrence-index gates: the positional index must reproduce the naive
# corpus scan bit for bit — at the resolver level (randomized corpora,
# accented surfaces) and at the EnrichmentReport level (1 and 8 threads).
run cargo test -q --offline -p boe-corpus --test occurrence_index_equality
run cargo test -q --offline --test occurrence_equality

# End-to-end benchmark's own tests (its own workspace): among them, the
# traced replay and `EnrichmentPipeline::run` must give the same report
# fingerprint at 1 thread and at every available thread.
run timeout "$TEST_TIMEOUT" cargo test -q --release --offline --manifest-path e2ebench/Cargo.toml

# Absolute golden check: a short run of every e2ebench workload must
# reproduce the values recorded in e2ebench/expected.txt (the result
# object's "correct" field), not merely agree with itself across thread
# counts.
for workload in extract enrich senses link; do
    echo "==> e2ebench --workload $workload (golden)"
    result="$(BOE_CHAOS=off bash e2ebench/run.sh --workload "$workload" --seed 1 --seconds 1 --trace 0 | tail -n 1)"
    case "$result" in
        *'"correct":true'*) ;;
        *)
            echo "e2ebench $workload: output differs from expected.txt: $result" >&2
            exit 1
            ;;
    esac
done

echo "ci: all checks passed"
