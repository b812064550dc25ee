#!/usr/bin/env bash
# Run the six workloads, untraced then traced, and append each run's
# document (one JSON object per line) to OUT — a set `compare.sh` reads.
#
#   perfbench/run_all.sh OUT.jsonl [SEED] [SECONDS]
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
out="${1:?usage: run_all.sh OUT.jsonl [SEED] [SECONDS]}"
seed="${2:-11}"
seconds="${3:-25}"
perf=(cargo run --release --locked --offline --quiet --manifest-path "$here/Cargo.toml" --)

: > "$out"
for trace in 0 1; do
    for workload in $("${perf[@]}" list); do
        echo "== $workload (trace $trace, seed $seed)" >&2
        # First line of stdout is the document, the last the driver's result.
        "${perf[@]}" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace" \
            | sed -n 1p >> "$out"
    done
done
echo "wrote $out" >&2
