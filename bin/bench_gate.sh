#!/bin/sh
# Perf regression gate (the @bench-gate dune alias):
# - run the loadcurve, cluster and pd benches in --tiny mode
#   (seed-deterministic, seconds of wall clock) and check their headline
#   metrics against the committed baselines in bench/baselines/ with
#   `fractos gate`: knee goodput per loadcurve variant, knee goodput per
#   cluster shard count, goodput per pd mode and decode count, each
#   within the baseline's embedded tolerance;
# - negative self-test: emit a deliberately inflated baseline
#   (--emit --scale 1.3) and prove the gate FAILS against it — a gate
#   that cannot fail guards nothing.
# To refresh baselines after an intentional perf change, see
# "Updating the perf baselines" in HACKING.md.
#   bin/bench_gate.sh <fractos.exe> <bench-main.exe> [baseline-dir]
set -eu

fractos=$1
bench=$2
baselines=${3:-bench/baselines}

tmp=$(mktemp -d /tmp/fractos-bench-gate.XXXXXX)
trap 'rm -rf "$tmp"' EXIT

lc="$tmp/BENCH_loadcurve.json"
cl="$tmp/BENCH_cluster.json"
pd="$tmp/BENCH_pd.json"

echo "== bench-gate: producing fresh --tiny bench JSON"
"$bench" loadcurve --tiny --no-bechamel --loadcurve-json "$lc" >/dev/null
"$bench" cluster --tiny --no-bechamel --cluster-json "$cl" >/dev/null
"$bench" pd --tiny --no-bechamel --pd-json "$pd" >/dev/null

echo "== bench-gate: loadcurve vs $baselines/loadcurve_tiny.json"
"$fractos" gate "$lc" --baseline "$baselines/loadcurve_tiny.json"

echo "== bench-gate: cluster vs $baselines/cluster_tiny.json"
"$fractos" gate "$cl" --baseline "$baselines/cluster_tiny.json"

echo "== bench-gate: pd vs $baselines/pd_tiny.json"
"$fractos" gate "$pd" --baseline "$baselines/pd_tiny.json"

echo "== bench-gate: negative self-test (inflated baseline must FAIL)"
"$fractos" gate "$lc" --emit --scale 1.3 -o "$tmp/inflated.json"
if "$fractos" gate "$lc" --baseline "$tmp/inflated.json" >"$tmp/neg.out" 2>&1; then
  echo "bench-gate: FAIL — gate passed against a baseline inflated by 30%" >&2
  cat "$tmp/neg.out" >&2
  exit 1
fi
grep -q "result: FAIL" "$tmp/neg.out"

echo "== bench-gate OK"
