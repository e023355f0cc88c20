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
# 3. the ten-seed battery run in reverse order (--seeds 10,9,...,1) must
#    print each seed's section byte for byte as the forward run does.
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

# Hermeticity: a seed's report, journal and counters must not depend on
# the seeds that ran before it in the same process. The battery runs
# forward and in reverse; each seed's section (from its
# "=== chaos seed N ===" header to the next) must match byte for byte.
echo "== chaos: seed battery forward vs reversed, per seed byte-identical"
for run in fwd:1-10 rev:10,9,8,7,6,5,4,3,2,1; do
  name=${run%%:*}
  if ! "$fractos" chaos --seeds "${run#*:}" --journal \
      > "$tmp/$name.txt" 2> "$tmp/$name.err"; then
    echo "chaos --seeds ${run#*:} --journal FAILED:"
    cat "$tmp/$name.txt" "$tmp/$name.err"
    exit 1
  fi
  mkdir "$tmp/$name"
  awk -v dir="$tmp/$name" '/^=== chaos seed [0-9]+ ===$/ { out = dir "/" $4 }
                           { print > out }' "$tmp/$name.txt"
done
for sd in 1 2 3 4 5 6 7 8 9 10; do
  if ! cmp -s "$tmp/fwd/$sd" "$tmp/rev/$sd"; then
    echo "chaos seed $sd prints differently in the reversed battery:"
    diff "$tmp/fwd/$sd" "$tmp/rev/$sd" || true
    exit 1
  fi
done

echo "== chaos OK"
