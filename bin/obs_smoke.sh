#!/bin/sh
# Observability smokes (the @obs-smoke dune alias):
# - `fractos run --journal` on a tiny workload: the journal must retain
#   events without overflowing;
# - `--journal-cap` must bound the ring and account the overflow;
# - a sampled chaos run must be bit-deterministic per seed, retain every
#   error/shed/slow trace, and keep at most ceil(keep * healthy) healthy
#   ones (parsed from the sampling summary line); `--seed N` must print
#   exactly what `--seeds N-N` prints below its header line;
# - `fractos analyze --whatif` must be bit-deterministic for the same
#   seed and rank the controller as the dominant tax component at the
#   knee;
# - `fractos run --artifacts` must write an OpenMetrics exposition ending
#   in `# EOF` and a histogram CSV with its header, and round-trip
#   through `fractos analyze DIR` + `fractos diff`: self-diff quiet,
#   cross-seed diff significant (--fail-on-change exit 1).
#   bin/obs_smoke.sh <fractos.exe>
set -eu

fractos=$1

tmp=$(mktemp -d /tmp/fractos-obs-smoke.XXXXXX)
trap 'rm -rf "$tmp"' EXIT

echo "== obs-smoke: fractos run --journal"
"$fractos" run -n 4 --journal >"$tmp/run.txt" 2>&1

journal_line=$(grep '^journal:' "$tmp/run.txt")
case "$journal_line" in
*"0 retained"*) echo "journal empty: $journal_line"; exit 1 ;;
*overflowed*) echo "journal overflowed on a tiny run: $journal_line"; exit 1 ;;
esac
# the dump must carry admit events attributed to nodes
grep -q 'ctrl.admit' "$tmp/run.txt"

echo "== obs-smoke: --journal-cap bounds the ring"
"$fractos" run -n 4 --journal --journal-cap 8 >"$tmp/cap.txt" 2>&1
grep -q '^journal: 8 retained / .* overflowed' "$tmp/cap.txt"

echo "== obs-smoke: sampled chaos is deterministic and retains the tail"
chaos="--workload copy --sample-keep 0.25 --sample-threshold-us 2000 \
  --journal --seed 7"
"$fractos" chaos $chaos >"$tmp/chaos1.txt" 2>&1
"$fractos" chaos $chaos >"$tmp/chaos2.txt" 2>&1
cmp "$tmp/chaos1.txt" "$tmp/chaos2.txt"
# one output path: a single seed prints the battery's block for it
"$fractos" chaos $chaos --seeds 7-7 >"$tmp/chaos_battery.txt" 2>&1
test "$(head -n 1 "$tmp/chaos_battery.txt")" = "=== chaos seed 7 ==="
tail -n +2 "$tmp/chaos_battery.txt" | cmp - "$tmp/chaos1.txt"
grep -q '^sampling: seen=' "$tmp/chaos1.txt"
if command -v python3 >/dev/null 2>&1; then
  python3 - "$tmp/chaos1.txt" <<'EOF'
import math, re, sys
text = open(sys.argv[1]).read()
m = re.search(
    r"sampling: seen=(\d+) healthy=(\d+) kept error=(\d+) shed=(\d+) "
    r"slow=(\d+) head=(\d+)", text)
assert m, "no sampling summary line"
seen, healthy, err, shed, slow, head = map(int, m.groups())
# every error/shed/slow trace is retained: kept tallies must cover them
assert err + shed + slow == seen - healthy, m.group(0)
# healthy retention is bounded by the configured keep fraction
assert head <= math.ceil(0.25 * healthy), m.group(0)
EOF
fi

echo "== obs-smoke: what-if profile is deterministic and blames the ctrl"
"$fractos" analyze --whatif -n 300 >"$tmp/whatif1.txt" 2>&1
"$fractos" analyze --whatif -n 300 >"$tmp/whatif2.txt" 2>&1
cmp "$tmp/whatif1.txt" "$tmp/whatif2.txt"
grep -q '#1 ctrl' "$tmp/whatif1.txt"
grep -q "'ctrl' dominates the tax" "$tmp/whatif1.txt"

echo "== obs-smoke: artifacts round-trip through analyze and diff"
"$fractos" run -n 4 --artifacts "$tmp/art_a" >"$tmp/art_a.txt" 2>&1
"$fractos" run -n 6 --seed 9 --artifacts "$tmp/art_b" >/dev/null 2>&1
grep -q 'saved run artifacts' "$tmp/art_a.txt"
test "$(tail -n 1 "$tmp/art_a/openmetrics.txt")" = "# EOF"
test "$(head -n 1 "$tmp/art_a/hist.csv")" = \
  "node,name,count,sum_ns,mean_ns,p50_ns,p95_ns,p99_ns,max_ns,exemplars"
test "$(wc -l <"$tmp/art_a/hist.csv")" -ge 2
"$fractos" analyze "$tmp/art_a" >"$tmp/analyze.txt" 2>&1
grep -q '^  breakdown (' "$tmp/analyze.txt"
grep -q '^  journal: ' "$tmp/analyze.txt"
# self-diff must be quiet; a cross-run diff (different n) must trip
# --fail-on-change
"$fractos" diff --fail-on-change "$tmp/art_a" "$tmp/art_a" >/dev/null 2>&1
if "$fractos" diff --fail-on-change "$tmp/art_a" "$tmp/art_b" >/dev/null 2>&1
then echo "cross-run diff reported no change"; exit 1; fi

echo "== obs-smoke OK"
