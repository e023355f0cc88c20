#!/bin/sh
# Tiny bench smokes (the @bench-smoke dune alias):
# - run the controller-saturation sweep in --tiny mode and validate the
#   emitted BENCH_loadcurve.json — it must parse, carry both ablation
#   variants (fastpath-off, fastpath-on), list offered-load points in
#   strictly increasing order, and account every request as ok or error;
# - run the sharded-capability-space cluster sweep in --tiny mode and
#   validate the emitted BENCH_cluster.json — it must parse, carry meta
#   provenance, list shard counts in strictly increasing order, account
#   every request, and its 4-shard aggregate knee goodput must stay
#   >= 3x the single-controller knee;
# - run the prefill/decode sweep in --tiny mode and validate the emitted
#   BENCH_pd.json — split goodput must stay within half of the unified
#   baseline and scale with the decode count;
# - every BENCH_*.json meta must carry wallclock_s / cores.
#   bin/bench_smoke.sh <bench-main.exe>
set -eu

bench=$1

tmp=$(mktemp -d /tmp/fractos-bench-smoke.XXXXXX)
trap 'rm -rf "$tmp"' EXIT

json="$tmp/BENCH_loadcurve.json"

echo "== bench-smoke: loadcurve --tiny"
"$bench" loadcurve --tiny --no-bechamel --loadcurve-json "$json" >/dev/null

test -s "$json"

if command -v python3 >/dev/null 2>&1; then
  python3 - "$json" <<'EOF'
import json, sys
d = json.load(open(sys.argv[1]))
assert d["experiment"] == "loadcurve"
meta = d["meta"]
assert meta["git"], meta
assert meta["wallclock_s"] >= 0 and meta["cores"] >= 1, meta
assert meta["seeds"] == [5, 6, 11], meta
assert "rates_rps" in meta["knobs"], meta
variants = d["variants"]
names = [v["name"] for v in variants]
assert names == ["fastpath-off", "fastpath-on"], names
for v in variants:
    pts = v["points"]
    assert pts, "variant %s has no points" % v["name"]
    offered = [p["offered_rps"] for p in pts]
    assert offered == sorted(offered) and len(set(offered)) == len(offered), \
        "offered load not strictly increasing: %r" % offered
    for p in pts:
        assert p["ok"] + p["errors"] == p["n"], p
        assert p["goodput_rps"] > 0, p
EOF
else
  # Crude fallback: both variants present with at least one data point.
  grep -q '"meta"' "$json"
  grep -q '"fastpath-off"' "$json"
  grep -q '"fastpath-on"' "$json"
  grep -q '"offered_rps"' "$json"
fi

cluster="$tmp/BENCH_cluster.json"

echo "== bench-smoke: cluster --tiny"
"$bench" cluster --tiny --no-bechamel --cluster-json "$cluster" >/dev/null

test -s "$cluster"

if command -v python3 >/dev/null 2>&1; then
  python3 - "$cluster" <<'EOF'
import json, sys
d = json.load(open(sys.argv[1]))
assert d["experiment"] == "cluster"
meta = d["meta"]
assert meta["git"], meta
assert meta["wallclock_s"] >= 0 and meta["cores"] >= 1, meta
assert meta["seeds"] == [11], meta
assert "shard_counts" in meta["knobs"], meta
pts = d["points"]
assert pts, "no shard-count points"
shards = [p["shards"] for p in pts]
assert shards == sorted(shards) and len(set(shards)) == len(shards), \
    "shard counts not strictly increasing: %r" % shards
knee = {}
for p in pts:
    assert p["knee_goodput_rps"] > 0, p
    knee[p["shards"]] = p["knee_goodput_rps"]
    for s in p["sweep"]:
        assert s["ok"] + s["errors"] == s["n"], s
        assert s["goodput_rps"] > 0, s
assert 1 in knee and 4 in knee, knee
assert knee[4] >= 3.0 * knee[1], \
    "4-shard knee %.0f fell below 3x the single-controller knee %.0f" \
    % (knee[4], knee[1])
EOF
else
  # Crude fallback: shard axis present with a knee per point.
  grep -q '"meta"' "$cluster"
  grep -q '"shards": 1' "$cluster"
  grep -q '"shards": 4' "$cluster"
  grep -q '"knee_goodput_rps"' "$cluster"
fi

pd="$tmp/BENCH_pd.json"

echo "== bench-smoke: pd --tiny"
"$bench" pd --tiny --no-bechamel --pd-json "$pd" >/dev/null

test -s "$pd"

if command -v python3 >/dev/null 2>&1; then
  python3 - "$pd" <<'EOF'
import json, sys
d = json.load(open(sys.argv[1]))
assert d["experiment"] == "pd"
meta = d["meta"]
assert meta["git"], meta
assert meta["wallclock_s"] >= 0 and meta["cores"] >= 1, meta
assert meta["seeds"] == [17], meta
assert "decode_counts" in meta["knobs"], meta
pts = d["points"]
assert pts, "no sweep points"
split, unified = {}, {}
for p in pts:
    assert p["ok"] + p["errors"] == p["n"], p
    assert p["goodput_rps"] > 0 and p["mean_ttft_us"] > 0, p
    assert p["mean_ttft_us"] <= p["p99_latency_us"], p
    key = (p["decodes"], p["kv_bytes"])
    (split if p["mode"] == "split" else unified)[key] = p["goodput_rps"]
assert split and unified, "missing a mode: %r / %r" % (split, unified)
for key, g in split.items():
    # the disaggregation tax must stay bounded: the split pool may not
    # fall below half the unified same-node baseline's goodput
    assert g >= 0.5 * unified[key], \
        "split goodput %.0f fell below half of unified %.0f at %r" \
        % (g, unified[key], key)
kv0 = min(kv for _, kv in split)
by_d = sorted((d_, g) for (d_, kv), g in split.items() if kv == kv0)
assert len(by_d) >= 2, by_d
assert by_d[-1][1] >= 1.5 * by_d[0][1], \
    "split goodput does not scale with decode count: %r" % by_d
EOF
else
  # Crude fallback: both modes present with goodput figures.
  grep -q '"meta"' "$pd"
  grep -q '"mode": "split"' "$pd"
  grep -q '"mode": "unified"' "$pd"
  grep -q '"goodput_rps"' "$pd"
  grep -q '"mean_ttft_us"' "$pd"
fi

echo "== bench-smoke OK"
