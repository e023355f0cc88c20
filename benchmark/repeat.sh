#!/usr/bin/env bash
# Run the benchmark N times per workload and summarise each metric.
#
#   bash benchmark/repeat.sh N [WORKLOAD...]
#
# Run i uses seed SEED0+i (SEED0 defaults to 0); workloads run in forward
# order on odd rounds and in reverse on even ones, so slow drift of the
# host does not always land on the same workload. Each metric prints its
# median, first and third quartiles (Python's statistics.quantiles), the
# quartile spread as a share of the median, and max/min. Each run lasts
# BENCHMARK.json's run_seconds. Set TRACE=1 for the per-layer metrics.
# Raw result lines are kept in REPEAT_OUT (default
# benchmark/.repeat.jsonl).
set -euo pipefail
cd "$(dirname "$0")/.."

n=${1:?usage: repeat.sh N [WORKLOAD...]}
shift
workloads=("$@")
if [ ${#workloads[@]} -eq 0 ]; then
  workloads=(invoke-xshard copy-bulk faceverify pd-split)
fi
seed0=${SEED0:-0}
trace=${TRACE:-0}
secs=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
out=${REPEAT_OUT:-benchmark/.repeat.jsonl}
: > "$out"

for ((i = 1; i <= n; i++)); do
  order=("${workloads[@]}")
  if ((i % 2 == 0)); then
    order=()
    for ((k = ${#workloads[@]} - 1; k >= 0; k--)); do order+=("${workloads[k]}"); done
  fi
  for w in "${order[@]}"; do
    seed=$((seed0 + i))
    line=$(bash benchmark/run.sh --workload "$w" --seed "$seed" \
      --seconds "$secs" --trace "$trace" | tail -n 1)
    echo "{\"workload\": \"$w\", \"seed\": $seed, \"result\": $line}" >> "$out"
    echo "run $i $w seed $seed done" >&2
  done
done

python3 - "$out" <<'EOF'
import json, statistics, sys
rows = [json.loads(l) for l in open(sys.argv[1])]
by = {}
for r in rows:
    if not r["result"]["correct"]:
        print(f"{r['workload']} seed {r['seed']}: incorrect output")
    for name, m in r["result"]["metrics"].items():
        by.setdefault(r["workload"], {}).setdefault(name, []).append(m["value"])
for w, metrics in by.items():
    print(f"\n{w}  ({len(next(iter(metrics.values())))} runs)")
    print(f"  {'metric':28} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/med':>8} {'max/min':>8}")
    for name, vs in metrics.items():
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0],) * 3
        iqr = (q3 - q1) / med if med else 0.0
        lo = min(vs)
        mm = max(vs) / lo if lo else float("nan")
        print(f"  {name:28} {med:12.6g} {q1:12.6g} {q3:12.6g} {iqr:8.2%} {mm:8.3f}")
EOF
