#!/usr/bin/env bash
# Compare two sets of documents (as run_all.sh writes them) under the
# bounds in BENCHMARK.json: one row per (workload, end-to-end metric) with
# both medians, quartiles and a verdict ok | worse | unresolved. Exits
# non-zero when a metric is worse or a run reports failed repetitions.
#
#   perfbench/compare.sh A.jsonl B.jsonl
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
exec cargo run --release --locked --offline --quiet --manifest-path "$here/Cargo.toml" -- \
    compare "${1:?usage: compare.sh A.jsonl B.jsonl}" "${2:?usage: compare.sh A.jsonl B.jsonl}"
