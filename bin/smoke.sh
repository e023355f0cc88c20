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
#    one-line `fractos run: <error>`, not an uncaught exception.
set -eu

fractos=$1
bench=$2

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

echo "== smoke OK"
