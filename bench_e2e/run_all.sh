#!/usr/bin/env bash
# Runs every workload in BENCHMARK.json, untraced and traced, and prints
# every metric by name with its unit (medians over the seeds).
#
#   bench_e2e/run_all.sh              # seed 1, into .bench_build/sets/<time>
#   SEEDS="1 2 3" OUT=setA bench_e2e/run_all.sh
#   TRACE=0 bench_e2e/run_all.sh      # end-to-end metrics only
#
# Each run's --json record and log land in $OUT; compare two such sets with
# bench_e2e/agree.py setA setB. Exits nonzero if any run failed.
set -uo pipefail
cd "$(dirname "$0")/.."

out=${OUT:-.bench_build/sets/$(date +%Y%m%d-%H%M%S)}
seeds=${SEEDS:-1}
traces=$([ "${TRACE:-1}" = 0 ] && echo 0 || echo "0 1")
read -r seconds workloads < <(python3 -c '
import json
b = json.load(open("BENCHMARK.json"))
print(b["run_seconds"], " ".join(w["name"] for w in b["workloads"]))')

mkdir -p "$out"
failed=0
for seed in $seeds; do
  for workload in $workloads; do
    for trace in $traces; do
      name="$workload-s$seed-t$trace"
      if ! python3 bench_e2e/run.py --workload "$workload" --seed "$seed" \
          --seconds "$seconds" --trace "$trace" --json "$out/$name.json" \
          > "$out/$name.log" 2>&1; then
        echo "run_all: $name failed (see $out/$name.log)" >&2
        failed=1
      fi
    done
  done
done
python3 bench_e2e/agree.py "$out" || failed=1
echo "records in $out"
exit $failed
