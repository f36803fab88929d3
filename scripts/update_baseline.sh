#!/usr/bin/env bash
# Regenerate ALL committed CI baselines in one invocation after an
# INTENTIONAL change to the deterministic counters (protocol change, new
# experiment, new workload):
#
#   scripts/update_baseline.sh    # rewrites bench/baselines/{tiny,ingest-tiny,frontier-tiny,faults-tiny,byzantine-tiny,sharding-tiny}.json
#
# Each report is produced into a temporary file and installed with
# `dkc-bench update`, which validates it as a schema-v6 report (a producer
# bug never clobbers a good baseline with a malformed one), zeroes the
# machine-dependent timing fields so regeneration diffs show only the
# counters that changed, and replaces the baseline atomically.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release -p dkc-bench
report=$(mktemp)
trap 'rm -f "$report"' EXIT

# (producer binary, committed baseline) pairs — one loop regenerates all six.
pairs=(
    "exp_all       bench/baselines/tiny.json"
    "exp_ingest    bench/baselines/ingest-tiny.json"
    "exp_frontier  bench/baselines/frontier-tiny.json"
    "exp_faults    bench/baselines/faults-tiny.json"
    "exp_byzantine bench/baselines/byzantine-tiny.json"
    "exp_sharding  bench/baselines/sharding-tiny.json"
)

for pair in "${pairs[@]}"; do
    read -r bin baseline <<<"$pair"
    echo "update_baseline: regenerating ${baseline} via ${bin}"
    "target/release/${bin}" --scale tiny --json "$report"
    target/release/dkc-bench update "$report" "$baseline"
done
echo "update_baseline: review and commit the diff"
