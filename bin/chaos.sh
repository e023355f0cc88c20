#!/bin/sh
# Chaos gate against an already-built fractos executable (no recursive
# dune, so the @chaos alias can run this from a dune action):
#   bin/chaos.sh <fractos.exe>
# 1. `fractos chaos` must pass its post-quiescence invariants (no fiber
#    deadlock, every request settles with Ok or a typed error, no
#    pre-crash capability usable after reboot, live/tombstone accounting
#    balances) on ten fixed seeds under the default fault spec, for the
#    default mix and for each of the xshard, pd, fs, faceverify and copy
#    workloads;
# 2. in each of those batteries the same seed run twice must produce
#    bit-identical reports (deterministic fault injection — the repro
#    contract of HACKING.md);
# 3. each workload must also pass under a crash-heavy spec;
# 4. the ten-seed battery fanned over 4 OS domains (--seeds 1-10
#    --domains 4) must match the single-domain battery byte for byte.
set -eu

fractos=$1

tmp=$(mktemp -d /tmp/fractos-chaos.XXXXXX)
trap 'rm -rf "$tmp"' EXIT

# battery NAME [ARGS...]: `fractos chaos ARGS` must pass on ten fixed
# seeds, and seed 1 run twice must give byte-identical reports.
battery() {
  name=$1
  shift
  echo "== chaos: 10 fixed seeds, $name"
  for seed in 1 2 3 4 5 6 7 8 9 10; do
    if ! "$fractos" chaos --seed "$seed" "$@" > "$tmp/$name$seed.txt" 2>&1
    then
      echo "chaos $name seed $seed FAILED:"
      cat "$tmp/$name$seed.txt"
      exit 1
    fi
  done
  echo "== chaos: $name determinism (seed 1 twice, byte-identical)"
  "$fractos" chaos --seed 1 "$@" > "$tmp/$name-again.txt"
  if ! cmp -s "$tmp/${name}1.txt" "$tmp/$name-again.txt"; then
    echo "chaos $name run is not deterministic for seed 1:"
    diff "$tmp/${name}1.txt" "$tmp/$name-again.txt" || true
    exit 1
  fi
}

battery default
battery xshard --workload xshard
battery pd --workload pd
battery fs --workload fs
battery faceverify --workload faceverify
battery copy --workload copy

echo "== chaos: crash-heavy spec, per-workload"
for wl in faceverify fs mixed copy xshard pd; do
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
