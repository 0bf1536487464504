#!/usr/bin/env bash
# Builds the release `bitline-sim`, `bitline-serve` and `bitline-perf`, then
# runs each workload and prints every metric with its unit.
#
#   perf/run.sh                          # every workload, end to end
#   TRACE=1 perf/run.sh                  # the traced per-layer ledger
#   WORKLOADS="headline voltage" SEED=7 DURATION=10 perf/run.sh
#   REPS=3 OUT=a.jsonl perf/run.sh       # one result line per run, for
#   perf/target/release/bitline-perf compare a.jsonl b.jsonl
#
# Repetition r of a workload runs at seed SEED + r - 1, so two sets of runs
# with the same settings measure the same work.
set -euo pipefail
cd "$(dirname "$0")/.."

WORKLOADS=${WORKLOADS:-"headline long-gcc voltage serve-mixed"}
SEED=${SEED:-42}
DURATION=${DURATION:-20}
TRACE=${TRACE:-0}
REPS=${REPS:-1}

cargo build --release --offline -p bitline-sim -p bitline-serve
cargo build --release --offline --manifest-path perf/Cargo.toml
perf="${CARGO_TARGET_DIR:-perf/target}/release/bitline-perf"

for workload in $WORKLOADS; do
  for rep in $(seq 1 "$REPS"); do
    out=$("$perf" --workload "$workload" --seed $((SEED + rep - 1)) \
      --seconds "$DURATION" --trace "$TRACE")
    printf '%s\n' "$out"
    if [[ -n ${OUT:-} ]]; then
      printf '{"workload": "%s", "result": %s}\n' "$workload" "$(tail -n 1 <<<"$out")" >>"$OUT"
    fi
  done
done
