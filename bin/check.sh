#!/bin/sh
# Repo health check: no dead Net.Config knobs, exports, optional
# arguments or modules, build, tests, formatting (if ocamlformat is
# installed) and the smoke runs (trace / breakdown / seeded chaos gate —
# including the chaos seed battery byte-diffed across domains=1 and
# domains=4 — / audit; see bin/smoke.sh and bin/chaos.sh).
# Run from the repo root:
# ./bin/check.sh
# The same checks are wired as a dune alias: dune build @check
set -eu

cd "$(dirname "$0")/.."

echo "== dead Net.Config knobs"
# Every field of Net.Config.t must be read somewhere outside its own
# definition; a field nothing reads is a dead knob.
dead=0
for f in $(awk '/^type t = \{/ { on = 1; next }
                on && /^\}/ { exit }
                on && /^  [a-z_0-9]+ :/ { print $1 }' lib/net/config.ml); do
  if ! grep -rqw --include='*.ml' --exclude=config.ml "$f" \
       lib bin bench benchmark; then
    echo "dead knob: Net.Config.$f has no reader outside lib/net/config.ml"
    dead=1
  fi
done
[ "$dead" = 0 ]

echo "== dead exports"
# Every `val` of a lib/**/*.mli must have a whole-word reference in some
# .ml under lib bin bench benchmark test examples other than its own
# definition (a `let`/`and` line in the matching .ml); an export nothing
# references is dead code.
dead=0
for mli in $(find lib -name '*.mli' | sort); do
  ml=${mli%.mli}.ml
  for v in $(sed -n 's/^ *val \([a-z_][A-Za-z0-9_]*\)\( *:.*\)*$/\1/p' "$mli" \
             | sort -u); do
    uses=$(grep -rhw --include='*.ml' -e "$v" \
             lib bin bench benchmark test examples | wc -l)
    defs=$(grep -cE "^ *(let|and)( rec)? +$v( |$)" "$ml" 2>/dev/null || true)
    if [ "$uses" -le "${defs:-0}" ]; then
      echo "dead export: $mli: val $v has no reference outside its definition"
      dead=1
    fi
  done
done
[ "$dead" = 0 ]

echo "== dead optional arguments"
# Every `?label:` of a lib/**/*.mli must be passed as `~label` or `?label`
# by some .ml under lib bin bench benchmark test examples other than the
# module's own .ml; an optional argument no caller sets is a dead knob.
dead=0
for mli in $(find lib -name '*.mli' | sort); do
  ml=${mli%.mli}.ml
  for l in $(grep -o '?[a-z_][A-Za-z0-9_]*:' "$mli" | tr -d '?:' | sort -u); do
    if ! grep -rlE --include='*.ml' "[~?]$l\b" \
         lib bin bench benchmark test examples | grep -Fvxq "$ml"; then
      echo "dead optional argument: $mli: ?$l is never passed outside $ml"
      dead=1
    fi
  done
done
[ "$dead" = 0 ]

echo "== dead modules"
# Every lib/**/<m>.ml must be referenced as a module (`M.`, `open M`,
# `include M` or an alias `= M`) by some .ml under lib bin bench benchmark
# other than its own file. The dead-export step cannot see a module that
# only its tests and examples use; this one can.
dead=0
for ml in $(find lib -name '*.ml' | sort); do
  b=$(basename "$ml" .ml)
  m=$(printf '%s' "$b" | cut -c1 | tr a-z A-Z)$(printf '%s' "$b" | cut -c2-)
  if ! grep -rlE --include='*.ml' \
       "\b$m\.|\b(open!?|include) +$m\b|= *$m\b" lib bin bench benchmark \
       | grep -Fvxq "$ml"; then
    echo "dead module: $ml has no module reference outside its own file"
    dead=1
  fi
done
[ "$dead" = 0 ]

echo "== list-built charges"
# A `charge ctrl [ ... ]` (or `charge ctrl (units @ [ ... ])`) in lib/core
# whose counts are all integer literals is static data; a computed count
# builds the list on every call, so it must take the positional
# `charge_plus ctrl units cls n` instead (HACKING.md, "Hot path").
bad=$(awk '
  FNR == 1 { open = 0 }
  {
    if (!open) {
      i = index($0, "charge ctrl")
      if (i == 0) next
      buf = substr($0, i + length("charge ctrl"))
      if (buf !~ /^ *(\(.*@ *)?(\[|$)/) next
      open = 1
      start = FNR
    } else buf = buf " " $0
    j = index(buf, "]")
    if (j == 0) next
    open = 0
    list = substr(buf, 1, j)
    if (list !~ /^ *(\(.*@ *)?\[/) next
    n = split(list, elems, ")")
    for (k = 1; k < n; k++) {
      count = elems[k]
      sub(/.*,/, "", count)
      gsub(/^ +| +$/, "", count)
      if (count !~ /^[0-9]+$/) {
        print FILENAME ":" start ": charge with computed count \"" count "\""
        break
      }
    }
  }' lib/core/*.ml)
if [ -n "$bad" ]; then
  echo "$bad"
  echo "use charge_plus for a charge whose count is computed"
  exit 1
fi

echo "== dune build"
dune build

echo "== dune runtest"
dune runtest

if command -v ocamlformat >/dev/null 2>&1; then
  echo "== dune build @fmt"
  dune build @fmt
else
  echo "== skipping @fmt (ocamlformat not installed)"
fi

sh bin/smoke.sh _build/default/bin/fractos.exe _build/default/bench/main.exe

sh bin/bench_smoke.sh _build/default/bench/main.exe

sh bin/obs_smoke.sh _build/default/bin/fractos.exe

sh bin/bench_gate.sh _build/default/bin/fractos.exe _build/default/bench/main.exe

echo "== OK"
