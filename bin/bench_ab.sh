#!/bin/sh
# A/B comparison of two built benchmark executables:
#
#   bin/bench_ab.sh PARENT_EXE CHANGE_EXE WORKLOAD N
#
# PARENT_EXE and CHANGE_EXE are benchmark/run.exe built from two
# checkouts (see "Comparing two commits" in benchmark/README.md).
# WORKLOAD is one of BENCHMARK.json's workloads, or "all" for every one
# of them in turn, one table each. Pair i runs both on seed SEED0+i
# (SEED0 defaults to 0, so seeds 1..N); odd pairs run the parent first,
# even pairs the change, so slow drift of the host does not always
# favour one side. Each run lasts BENCHMARK.json's run_seconds and runs
# in its own process, since peak_heap_mb is per process.
#
# For every end-to-end metric of BENCHMARK.json it prints each side's
# median, how many pairs the change wins (strictly better in the
# metric's direction), and the parent's quartile spread (q3 - q1). The
# verdict column reads "gain" when the change wins at least 9 pairs in
# 10 and its median beats the parent's by more than that spread, and
# "REGRESSION" when its median is worse than the parent's by more than
# the metric's bound. The failed share of operations prints per side,
# and the raw result lines stay in a temp file whose path prints last.
# The script exits 1 when any row of any table reads REGRESSION.
#
# A last row, host_s, is informational: the CPU seconds of one measured
# phase, from the note line run.exe prints above its result (the result
# JSON omits it). It shows both medians, the change's wins (lower is
# better) and the parent's spread, and never a verdict: on a shared host
# its spread is too wide to gate (benchmark/README.md).
set -eu

usage="usage: bench_ab.sh PARENT_EXE CHANGE_EXE WORKLOAD|all N"
parent=${1:?$usage}
change=${2:?$usage}
workload=${3:?$usage}
n=${4:?$usage}
seed0=${SEED0:-0}

case $parent in /*) ;; *) parent=$(pwd)/$parent ;; esac
case $change in /*) ;; *) change=$(pwd)/$change ;; esac
cd "$(dirname "$0")/.."
for exe in "$parent" "$change"; do
  [ -x "$exe" ] || { echo "bench_ab: $exe is not an executable" >&2; exit 2; }
done
secs=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
if [ "$workload" = all ]; then
  workloads=$(python3 -c 'import json
for w in json.load(open("BENCHMARK.json"))["workloads"]: print(w["name"])')
else
  workloads=$workload
fi
out=$(mktemp /tmp/bench_ab.XXXXXX)

# run SIDE EXE WORKLOAD SEED: one benchmark run, its result line and
# its host_s note appended to $out
run() {
  res=$("$2" --workload "$3" --seed "$4" --seconds "$secs" --trace 0)
  line=$(printf '%s\n' "$res" | tail -n 1)
  host=$(printf '%s\n' "$res" | awk '$1 == "host_s" { print $2; exit }')
  echo "{\"side\": \"$1\", \"workload\": \"$3\", \"seed\": $4, \"host_s\": ${host:-null}, \"result\": $line}" >> "$out"
}

for w in $workloads; do
  i=1
  while [ "$i" -le "$n" ]; do
    seed=$((seed0 + i))
    if [ $((i % 2)) -eq 1 ]; then
      run parent "$parent" "$w" "$seed"
      run change "$change" "$w" "$seed"
    else
      run change "$change" "$w" "$seed"
      run parent "$parent" "$w" "$seed"
    fi
    echo "$w: pair $i seed $seed done" >&2
    i=$((i + 1))
  done
done

status=0
python3 - "$out" $workloads <<'EOF' || status=$?
import json, statistics, sys
rows = [json.loads(l) for l in open(sys.argv[1])]
spec = json.load(open("BENCHMARK.json"))["end_to_end"]
regressions = 0
for workload in sys.argv[2:]:
    runs = {"parent": {}, "change": {}}
    host = {"parent": {}, "change": {}}
    for r in rows:
        if r["workload"] == workload:
            runs[r["side"]][r["seed"]] = r["result"]
            host[r["side"]][r["seed"]] = r.get("host_s")
    seeds = sorted(runs["parent"])
    print(f"{workload}: {len(seeds)} pairs, seeds {seeds[0]}..{seeds[-1]}")
    for side, res in runs.items():
        bad = [s for s in seeds if not res[s]["correct"]]
        att = sum(res[s]["attempted"] for s in seeds)
        failed = sum(res[s]["failed"] for s in seeds)
        share = failed / att if att else 0.0
        print(f"  {side}: failed {failed}/{att} ({share:.4%})"
              + (f", incorrect output on seeds {bad}" if bad else ""))
    print(f"  {'metric':16} {'parent':>12} {'change':>12} {'wins':>6}"
          f" {'parent iqr':>12} {'verdict':>10}")
    def summary(p, c, higher):
        better = (lambda a, b: a > b) if higher else (lambda a, b: a < b)
        wins = sum(better(b, a) for a, b in zip(p, c))
        q1, _, q3 = statistics.quantiles(p, n=4) if len(p) > 1 else (p[0],) * 3
        return statistics.median(p), statistics.median(c), wins, q3 - q1
    for m in spec:
        name, higher, bound = m["name"], m["better"] == "higher", m["bound"]
        if name not in runs["parent"][seeds[0]]["metrics"]:
            continue
        p = [runs["parent"][s]["metrics"][name]["value"] for s in seeds]
        c = [runs["change"][s]["metrics"][name]["value"] for s in seeds]
        pm, cm, wins, iqr = summary(p, c, higher)
        gap = (cm - pm) if higher else (pm - cm)
        if wins >= 0.9 * len(seeds) and gap > iqr:
            verdict = "gain"
        elif -gap > bound * abs(pm):
            verdict = "REGRESSION"
            regressions += 1
        elif pm == cm:
            verdict = "same"
        else:
            verdict = "-"
        print(f"  {name:16} {pm:12.6g} {cm:12.6g} {wins:3}/{len(seeds):<2}"
              f" {iqr:12.6g} {verdict:>10}")
    p = [host["parent"][s] for s in seeds]
    c = [host["change"][s] for s in seeds]
    if None not in p + c:
        pm, cm, wins, iqr = summary(p, c, False)
        print(f"  {'host_s':16} {pm:12.6g} {cm:12.6g} {wins:3}/{len(seeds):<2}"
              f" {iqr:12.6g} {'(info)':>10}")
sys.exit(1 if regressions else 0)
EOF
echo "raw results: $out" >&2
exit "$status"
