#!/bin/sh
# Smoke checks against already-built executables (no recursive dune, so
# the @check alias can run this from a dune action):
#   bin/smoke.sh <fractos.exe> <bench-main.exe>
# 1. `run --trace-json` must produce a valid Chrome trace with the
#    expected spans;
# 2. `bench fig5 --breakdown` must produce a non-empty CSV whose tax
#    categories sum exactly to each row's end-to-end latency, with
#    ctrl+fabric+queue+device covering >= 95 % of the aggregate;
# 3. the seeded chaos gate (bin/chaos.sh) must pass: fixed-seed fault
#    schedules settle with the failure-to-revocation invariants intact
#    and bit-identical reports per seed;
# 4. `run --audit` must print a capability lineage that reads
#    delegate -> invoke -> revoke;
# 5. a run that exhausts its capability-space quota must exit 1 with a
#    one-line `fractos run: <error>`, not an uncaught exception;
# 6. `fractos run` must print byte for byte as committed in
#    bench/baselines/run.txt;
# 7. `fractos run -n 2 --workload W` must pass for every entry W of the
#    scenario table, and `run --workload pd --trace-json` must write a
#    trace with one root `request` span per request;
# 8. `fractos run -n 2 --workload W --trace-json` must write the trace
#    committed in bench/baselines/trace_W.json byte for byte, for W in
#    pd, xshard and copy;
# 9. `fractos run --metrics` and the metrics files of `run --artifacts`
#    must print byte for byte as committed in bench/baselines/metrics.txt.
set -eu

fractos=$1
bench=$2
run_golden=$(dirname "$0")/../bench/baselines/run.txt
metrics_golden=$(dirname "$0")/../bench/baselines/metrics.txt
baselines=$(dirname "$0")/../bench/baselines

tmp=$(mktemp -d /tmp/fractos-smoke.XXXXXX)
trap 'rm -rf "$tmp"' EXIT

echo "== smoke: fractos run --trace-json"
"$fractos" run -n 2 --trace-json "$tmp/fv.json" >/dev/null

if command -v python3 >/dev/null 2>&1; then
  python3 -m json.tool "$tmp/fv.json" >/dev/null
  python3 - "$tmp/fv.json" <<'EOF'
import json, sys
d = json.load(open(sys.argv[1]))
evs = d["traceEvents"]
assert evs, "empty traceEvents"
names = {e.get("name", "") for e in evs}
for want in ("ctrl.invoke", "sys.request_invoke"):
    assert want in names, f"missing span {want!r} in trace"
EOF
else
  # Crude fallback: the file must at least open a trace-event array and
  # contain the invoke spans.
  grep -q '"traceEvents"' "$tmp/fv.json"
  grep -q '"ctrl.invoke"' "$tmp/fv.json"
fi

# The scenario table's entry names, as the unknown-workload error lists
# them ("... (one of: a, b, c)").
workloads=$("$fractos" run --workload '?' 2>&1 >/dev/null |
  sed -n 's/.*(one of: \(.*\))$/\1/p' | tr -d ,)
if [ -z "$workloads" ]; then
  echo "fractos run --workload '?' did not list the scenario table"
  exit 1
fi
for wl in $workloads; do
  echo "== smoke: fractos run -n 2 --workload $wl"
  "$fractos" run -n 2 --workload "$wl" >/dev/null
done

echo "== smoke: fractos run --workload pd --trace-json"
"$fractos" run -n 2 --workload pd --trace-json "$tmp/pd.json" >/dev/null
if command -v python3 >/dev/null 2>&1; then
  python3 - "$tmp/pd.json" <<'EOF'
import json, sys
evs = json.load(open(sys.argv[1]))["traceEvents"]
roots = [e for e in evs if e.get("name") == "request" and e.get("ph") == "B"
         and e.get("args", {}).get("parent") == "0"]
assert len(roots) == 2, f"want 2 root request spans, got {len(roots)}"
EOF
else
  grep -q '"name": *"request"' "$tmp/pd.json"
fi

echo "== smoke: bench fig5 --breakdown"
"$bench" fig5 --breakdown "$tmp/bd" --no-bechamel >/dev/null
csv="$tmp/bd/fig5.csv"
test -s "$csv"
head -1 "$csv" | grep -q \
  'total_ns,ctrl_ns,fabric_ns,queue_ns,device_ns,client_ns,idle_ns'
awk -F, '
  NR > 1 {
    n++
    if ($6 + $7 + $8 + $9 + $10 + $11 != $5) {
      printf "row %d: categories sum to %d, total is %d\n", \
        NR, $6 + $7 + $8 + $9 + $10 + $11, $5
      bad++
    }
    total += $5
    tax += $6 + $7 + $8 + $9
  }
  END {
    if (n == 0) { print "no breakdown rows"; exit 1 }
    if (bad > 0) exit 1
    if (tax < 0.95 * total) {
      printf "tax categories cover only %.1f%% of latency\n", \
        100 * tax / total
      exit 1
    }
  }' "$csv"

echo "== smoke: seeded chaos gate (bin/chaos.sh)"
sh "$(dirname "$0")/chaos.sh" "$fractos"

echo "== smoke: fractos run --audit"
audit_out=$(a="$tmp/audit.txt"; "$fractos" run -n 2 --audit > "$a"; cat "$a")
for kind in delegate invoke revoke; do
  if ! printf '%s\n' "$audit_out" | grep -q " $kind "; then
    echo "audit lineage is missing a $kind event"
    exit 1
  fi
done

echo "== smoke: fractos run past the capability quota"
if "$fractos" run -n 1100 >/dev/null 2>"$tmp/quota.err"; then
  echo "run -n 1100 exited 0; expected a quota error"
  exit 1
else
  status=$?
fi
if [ "$status" != 1 ] ||
   ! grep -q '^fractos run: .*quota exceeded' "$tmp/quota.err"; then
  echo "run -n 1100: exit $status, stderr:"
  cat "$tmp/quota.err"
  exit 1
fi

# The run golden: a change that moves this output on purpose
# regenerates it (HACKING.md, "Fault injection and chaos repro") and says
# why in CHANGES.md.
echo "== smoke: fractos run golden (bench/baselines/run.txt)"
for args in "-n 8" "-n 8 --workload pd" "-n 4 --audit --journal"; do
  echo "== fractos run $args"
  # shellcheck disable=SC2086 # $args is a word list on purpose
  "$fractos" run $args
done > "$tmp/run-golden.txt"
if ! cmp "$tmp/run-golden.txt" "$run_golden"; then
  diff "$tmp/run-golden.txt" "$run_golden" | head -40
  exit 1
fi

# The trace goldens: a traced run executes the same steps as an
# untraced one, so a change that keeps simulated output keeps these
# traces too. One that moves them on purpose regenerates them
# (HACKING.md, "Fault injection and chaos repro") and says why in
# CHANGES.md.
for wl in pd xshard copy; do
  echo "== smoke: fractos run trace golden (bench/baselines/trace_$wl.json)"
  "$fractos" run -n 2 --workload "$wl" --trace-json "$tmp/trace_$wl.json" \
    >/dev/null
  if ! cmp "$tmp/trace_$wl.json" "$baselines/trace_$wl.json"; then
    diff "$tmp/trace_$wl.json" "$baselines/trace_$wl.json" | head -40
    exit 1
  fi
done

# The metrics golden: every live instrument of a run, its sharing
# between the owners on one node and its value, as the text dump and
# the artifact exporters print them. Regenerated like run.txt.
echo "== smoke: fractos run metrics golden (bench/baselines/metrics.txt)"
{
  for args in "-n 8" "-n 4 --workload pd" "-n 4 --workload xshard"; do
    echo "== fractos run $args --metrics"
    # shellcheck disable=SC2086 # $args is a word list on purpose
    "$fractos" run $args --metrics
  done
  "$fractos" run -n 4 --workload xshard --artifacts "$tmp/art" >/dev/null
  for f in openmetrics.txt hist.csv; do
    echo "== fractos run -n 4 --workload xshard --artifacts: $f"
    cat "$tmp/art/$f"
  done
} > "$tmp/metrics-golden.txt"
if ! cmp "$tmp/metrics-golden.txt" "$metrics_golden"; then
  diff "$tmp/metrics-golden.txt" "$metrics_golden" | head -40
  exit 1
fi

echo "== smoke OK"
