#!/bin/sh
# Chaos gate against an already-built fractos executable (no recursive
# dune, so the @chaos alias can run this from a dune action):
#   bin/chaos.sh <fractos.exe>
# 1. the ten-seed battery of every scenario-table entry, under the
#    default fault spec, must pass its post-quiescence invariants (no
#    fiber deadlock, every request settles with Ok or a typed error, no
#    pre-crash capability usable after reboot, live/tombstone accounting
#    balances) and print byte for byte as committed in
#    bench/baselines/chaos.txt (each report carries its run's audit
#    digest, so this is also the determinism check of HACKING.md);
# 2. each entry must also pass under a crash-heavy spec;
# 3. the ten-seed battery fanned over 4 OS domains (--seeds 1-10
#    --domains 4) must match the single-domain battery byte for byte.
set -eu

fractos=$1
golden=$(dirname "$0")/../bench/baselines/chaos.txt

tmp=$(mktemp -d /tmp/fractos-chaos.XXXXXX)
trap 'rm -rf "$tmp"' EXIT

# The scenario table's entry names, in table order, as the
# unknown-workload error lists them ("... (one of: a, b, c)").
workloads=$("$fractos" chaos --workload '?' 2>&1 >/dev/null |
  sed -n 's/.*(one of: \(.*\))$/\1/p' | tr -d ,)
if [ -z "$workloads" ]; then
  echo "fractos chaos --workload '?' did not list the scenario table"
  exit 1
fi

# The chaos golden: a change that moves any report on purpose
# regenerates it (HACKING.md, "Fault injection and chaos repro") and says
# why in CHANGES.md.
echo "== chaos: 10 fixed seeds per workload vs bench/baselines/chaos.txt"
for wl in $workloads; do
  if ! "$fractos" chaos --seeds 1-10 --workload "$wl" >> "$tmp/golden.txt"
  then
    echo "chaos $wl FAILED:"
    cat "$tmp/golden.txt"
    exit 1
  fi
done
if ! cmp "$tmp/golden.txt" "$golden"; then
  diff "$tmp/golden.txt" "$golden" | head -40
  exit 1
fi

echo "== chaos: crash-heavy spec, per-workload"
for wl in $workloads; do
  if ! "$fractos" chaos --seed 2 --workload "$wl" \
      --faults "crash=1,reboot=200us,horizon=500us" > "$tmp/$wl.txt" 2>&1
  then
    echo "chaos workload $wl FAILED:"
    cat "$tmp/$wl.txt"
    exit 1
  fi
done

# The parallel-battery contract: fanning the ten-seed battery over 4 OS
# domains (Sim.Domains.map) must reproduce the single-domain output byte
# for byte — each seed's report, journal and counters come from an
# isolated per-domain simulation, printed in seed order.
echo "== chaos: seed battery domains=1 vs domains=4, byte-identical"
if ! "$fractos" chaos --seeds 1-10 --journal --domains 1 \
    > "$tmp/battery-d1.txt" 2>&1; then
  echo "chaos --seeds 1-10 --domains 1 FAILED:"
  cat "$tmp/battery-d1.txt"
  exit 1
fi
if ! "$fractos" chaos --seeds 1-10 --journal --domains 4 \
    > "$tmp/battery-d4.txt" 2>&1; then
  echo "chaos --seeds 1-10 --domains 4 FAILED:"
  cat "$tmp/battery-d4.txt"
  exit 1
fi
if ! cmp -s "$tmp/battery-d1.txt" "$tmp/battery-d4.txt"; then
  echo "chaos seed battery diverges between domains=1 and domains=4:"
  diff "$tmp/battery-d1.txt" "$tmp/battery-d4.txt" || true
  exit 1
fi

echo "== chaos OK"
