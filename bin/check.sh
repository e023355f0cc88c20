#!/bin/sh
# Repo health check: no dead or unset Net.Config knobs, exports, optional
# arguments or modules, no Obj outside the engine, no second domain or
# thread, no blocking call in controller code, build, tests,
# formatting (if ocamlformat is installed), the smoke runs (trace /
# breakdown / seeded chaos gate — including each seed of the chaos
# battery byte-diffed between forward and reversed runs — / audit; see
# bin/smoke.sh and bin/chaos.sh) and the figures golden (every bench
# table, byte for byte).
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

echo "== unset Net.Config knobs"
# Every field of Net.Config.t must also be set (`field =`, or punned as
# `with field }`) somewhere under lib bin bench benchmark test examples
# other than the `default` record in lib/net/config.ml (its presets and
# scale_component count); a value no caller varies is a calibration
# constant, not a knob.
setters=$(awk '/^let default =/ { skip = 1 }
               !skip { print }
               skip && /^  }/ { skip = 0 }' lib/net/config.ml)
unset=0
for f in $(awk '/^type t = \{/ { on = 1; next }
                on && /^\}/ { exit }
                on && /^  [a-z_0-9]+ :/ { print $1 }' lib/net/config.ml); do
  set_re="(^|[^A-Za-z0-9_'])$f *=([^=]|\$)|(with|;|\{) *$f *(;|\})"
  if ! { printf '%s\n' "$setters"
         grep -rhE --include='*.ml' --exclude=config.ml "$set_re" \
           lib bin bench benchmark test examples; } \
       | grep -E "$set_re" | grep -vqE "(let|and) +$f\b"; then
    echo "unset knob: Net.Config.$f is never set outside Net.Config.default"
    unset=1
  fi
done
[ "$unset" = 0 ]

# [unreferenced DIR...] prints "<mli> <val>" for every `val` of a
# lib/**/*.mli with no whole-word reference in its module's own .ml
# beyond its definition (a `let`/`and` line), or in some other .ml under
# DIR... that names the module (`M.`, `open M`, `include M` or an alias
# `= M`, possibly qualified by its library). A match in a file that
# never names the module is another module's value of the same name, so
# an unused `val pp` or `val run` is still caught. Only code counts: the
# .ml files are searched with their comments and string literals
# blanked (bin/code_only.awk), so a value whose name a comment mentions
# or a message prints is still caught.
unreferenced() (
  root=$(pwd)
  code=$(mktemp -d /tmp/fractos-code.XXXXXX)
  for f in $(find "$@" -name '*.ml'); do
    mkdir -p "$code/$(dirname "$f")"
    awk -f bin/code_only.awk "$f" >"$code/$f"
  done
  cd "$code"
  for mli in $(cd "$root" && find lib -name '*.mli' | sort); do
    ml=${mli%.mli}.ml
    b=$(basename "$ml" .ml)
    m=$(printf '%s' "$b" | cut -c1 | tr a-z A-Z)$(printf '%s' "$b" | cut -c2-)
    q='([A-Z][A-Za-z0-9_]*\.)*'
    users=$(grep -rlE --include='*.ml' \
              "\b$m\.|\b(open!?|include) +$q$m\b|= *$q$m\b" \
              "$@" | grep -Fvx "$ml" || true)
    for v in $(sed -n 's/^ *val \([a-z_][A-Za-z0-9_]*\)\( *:.*\)*$/\1/p' \
                 "$root/$mli" | sort -u); do
      own=$(grep -cw -e "$v" "$ml" 2>/dev/null || true)
      defs=$(grep -cE "^ *(let|and)( rec)? +$v( |$)" "$ml" 2>/dev/null || true)
      ext=0
      if [ -n "$users" ]; then
        ext=$(printf '%s\n' "$users" | xargs grep -hw -e "$v" | wc -l)
      fi
      if [ "$ext" -eq 0 ] && [ "${own:-0}" -le "${defs:-0}" ]; then
        echo "$mli $v"
      fi
    done
  done
  cd "$root"
  rm -rf "$code"
)

echo "== dead exports"
# An export nothing references, tests and examples included, is dead
# code.
dead=$(unreferenced lib bin bench benchmark test examples)
printf '%s\n' "$dead" | awk 'NF { print "dead export: " $1 ": val " $2 \
  " has no reference outside its definition" }'
[ -z "$dead" ]

echo "== test-only exports"
# The same scan without test/: an export that only tests reference has
# no job in the program, so it goes, and its tests with it. The kept
# ones are listed here, one reason each; any other fails, and so does a
# listed one that is no longer test-only.
kept='
lib/baselines/pipeline.mli expected_output  the transform a baseline run is checked against
lib/baselines/pipeline.mli last_output      the application buffer after a baseline run
lib/core/codec.mli decode_delivery  Codec round trips: the layouts Wire sizes are tested against
lib/core/codec.mli decode_perms     Codec round trips
lib/core/codec.mli decode_request   Codec round trips
lib/core/codec.mli encode_delivery  Codec round trips
lib/core/codec.mli encode_perms     Codec round trips
lib/core/codec.mli encode_request   Codec round trips
lib/core/codec.mli request_size     Codec round trips
lib/core/controller.mli dir_cache_size  the directory cache, which no other API shows
lib/core/controller.mli shard_gen       the shard group generation, which no other API shows
lib/device/gpu.mli mem_free_bytes   GPU memory accounting, which no other API shows
lib/obs/metrics.mli counter_value   metric values the tests pin
lib/obs/metrics.mli gauge_max       metric values the tests pin
lib/obs/metrics.mli hist_max        metric values the tests pin
lib/obs/span.mli set_limit          the span cap, so truncation is testable without 500 000 spans
lib/services/fs.mli cache_hits      FS cache hits, which no other API shows
lib/services/fs.mli delete          FS unlink and its revocation of open and DAX handles; no workload unlinks yet
lib/services/fs.mli stat            FS file size; no workload asks yet
lib/services/gpu_adaptor.mli push_request  the gpu.push Request of the chained-GPU tests; no workload chains GPUs yet
lib/sim/channel.mli try_recv        the non-blocking take of the channel model test
lib/sim/channel.mli waiters         blocked readers, which no other API shows
lib/sim/engine.mli event_count      engine events, pinned exactly by test_alloc
lib/sim/semaphore.mli available     free permits, which no other API shows
lib/sim/semaphore.mli waiting       blocked waiters, which no other API shows
lib/workloads/facedata.mli image    the reference image the dataset tests check against
'
only=$(unreferenced lib bin bench benchmark examples)
listed=$(printf '%s\n' "$kept" | awk 'NF { print $1, $2 }')
extra=$(printf '%s\n' "$only" | grep -Fvx -e "$listed" || true)
stale=$(printf '%s\n' "$listed" | grep -Fvx -e "$only" || true)
printf '%s\n' "$extra" | awk 'NF { print "test-only export: " $1 ": val " $2 \
  " has no caller outside test/" }'
printf '%s\n' "$stale" | awk 'NF { print "stale kept export: " $1 ": val " $2 \
  " is listed but not test-only" }'
[ -z "$extra" ] && [ -z "$stale" ]

echo "== dead optional arguments"
# Every `?label:` of a lib/**/*.mli must be passed as `~label` or `?label`
# by some .ml under lib bin bench benchmark other than the module's own
# .ml; an optional argument no program sets is a dead knob. Tests and
# examples do not count: a knob only a test turns is not needed.
dead=0
for mli in $(find lib -name '*.mli' | sort); do
  ml=${mli%.mli}.ml
  for l in $(grep -o '?[a-z_][A-Za-z0-9_]*:' "$mli" | tr -d '?:' | sort -u); do
    if ! grep -rlE --include='*.ml' "[~?]$l\b" \
         lib bin bench benchmark | grep -Fvxq "$ml"; then
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
# A `charge ctrl [ ... ]` or `charge_with ctrl [ ... ]` (or the same with
# `(units @ [ ... ])`) in lib/core
# whose counts are all integer literals is static data; a computed count
# builds the list on every call, so it must take the positional
# `charge_plus ctrl units cls n` instead (HACKING.md, "Hot path").
bad=$(awk '
  FNR == 1 { open = 0 }
  {
    if (!open) {
      if (!match($0, /charge(_with)? ctrl/)) next
      buf = substr($0, RSTART + RLENGTH)
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

echo "== Membuf.data outside Membuf"
# A buffer's bytes are allocated on its first store (lib/core/membuf.mli),
# and other buffers and staged copy chunks may share them, so a store
# straight into [Membuf.data] would bypass both the allocation and the
# copy-on-write. Only Membuf itself (as [t.data]) and the benchmark,
# which reads the field after its stores, may touch it; everything else
# goes through the Membuf API. The [store] field, which counts the
# holders of the bytes, is Membuf's alone, qualified or not: a caller
# that kept or swapped it would miscount them.
bad=$( (grep -rn --include='*.ml' --include='*.mli' 'Membuf\.data\b' \
          lib bin bench test examples
        grep -rn --include='*.ml' --include='*.mli' '\.store\b' \
          lib bin bench benchmark test examples |
          grep -v '^lib/core/membuf\.mli\?:') || true)
if [ -n "$bad" ]; then
  echo "$bad"
  echo "use the Membuf API (read, write, blit, materialize, holders) instead"
  echo "of .data or .store"
  exit 1
fi

echo "== Obj outside the engine"
# Sim.Engine keeps pending events in untyped slot arrays: the kind of a
# slot determines its payload types, and only its typed pushes and its
# dispatch convert to and from Obj.t. Obj anywhere else would be an
# unchecked cast with no such invariant behind it, so only
# lib/sim/engine.ml may name it.
bad=$(grep -rnE --include='*.ml' --include='*.mli' "(^|[^A-Za-z0-9_'])Obj\." \
        lib bin bench benchmark test examples |
        grep -v '^lib/sim/engine\.ml:' || true)
if [ -n "$bad" ]; then
  echo "$bad"
  echo "Obj is confined to lib/sim/engine.ml"
  exit 1
fi

echo "== one domain"
# The engine's current run, the obs registries and rings, the retry
# counter and the id mints are plain module state: every simulation in a
# process runs on one domain, one after another. A second domain or a
# thread would race that state, so no .ml under lib bin bench test
# examples may spawn one or keep domain-local state. Comments and strings
# are blanked first (bin/code_only.awk), so prose may name these calls.
bad=$(for f in $(find lib bin bench test examples -name '*.ml' | sort); do
        awk -f bin/code_only.awk "$f" |
          grep -nE "(^|[^A-Za-z0-9_'])(Domain\.(spawn|DLS)|Thread\.)" |
          sed "s|^|$f:|"
      done)
if [ -n "$bad" ]; then
  echo "$bad"
  echo "simulations share plain module state: run them one after another on"
  echo "one domain"
  exit 1
fi

echo "== blocking calls in controller code"
# Controller work runs as run-to-completion steps, engine events that
# never block (HACKING.md, "Writing a controller step"): every fiber
# belongs to a process. So lib/core may not wait in a fiber, except in
# the process-side veneer (api.ml, process.ml). Comments and strings are
# blanked first (bin/code_only.awk), so prose may name these calls. The
# copy engine runs as steps too, so no file of lib/core is excepted.
bad=$(for f in lib/core/*.ml; do
        case "$f" in lib/core/api.ml | lib/core/process.ml) continue ;; esac
        awk -f bin/code_only.awk "$f" |
          grep -nE "(^|[^A-Za-z0-9_'])(Ivar\.await(_timeout)?|Resource\.use|Engine\.(sleep(_until)?|spawn(_with)?|suspend|wait|yield)|Semaphore\.with_permit|Channel\.recv|Fabric\.transfer(_chunked)?)([^A-Za-z0-9_']|\$)" |
          sed "s|^|$f:|"
      done)
if [ -n "$bad" ]; then
  echo "$bad"
  echo "controller code must not block: write a step (charge/after_cpu, an"
  echo "rreply continuation, Semaphore.acquire_then, Fabric.transfer_then)"
  exit 1
fi

echo "== closures on the copy data path, the syscall path and the message path"
# The copy engine's and the syscall handlers' steps take their activity's
# record as their argument (HACKING.md, "Hot path"): a closure passed to
# a step builds one per copy, per chunk or per syscall. Traced and
# untraced runs take the same steps, so no call is exempt:
# lib/core/copy.ml may not pass an anonymous function to stage,
# Fabric.transfer_then, Channel.recv_then or Endpoint.post, and
# lib/core/controller.ml, capspace.ml and invoke.ml may not pass one to
# charge_with, charge_plus, charged_resolve1, charged_resolve2,
# Directory.locate or rreply (bin/step_closures.awk). A message
# allocates only its own value, so lib/net/fabric.ml may not pass one to
# Engine.schedule, Engine.schedule_with, Engine.schedule_with_n or
# Engine.relay_with, lib/net/endpoint.ml none to Fabric.send_with or
# Fabric.send_with_n, and lib/sim/channel.ml none to
# Engine.schedule_with, Engine.resume_in, Engine.resume or
# Engine.suspend_with. Comments and strings are blanked first
# (bin/code_only.awk).
closures() {
  awk -f bin/code_only.awk "$1" |
    awk -v file="$1" -v names="$2" -f bin/step_closures.awk
}
syscall_steps="charge_with charge_plus charged_resolve1 charged_resolve2"
syscall_steps="$syscall_steps Directory.locate rreply"
bad=$(closures lib/core/copy.ml \
        "stage Fabric.transfer_then Channel.recv_then Endpoint.post"
      for f in lib/core/controller.ml lib/core/capspace.ml lib/core/invoke.ml
      do
        closures "$f" "$syscall_steps"
      done
      fabric_steps="Engine.schedule Engine.schedule_with"
      closures lib/net/fabric.ml \
        "$fabric_steps Engine.schedule_with_n Engine.relay_with"
      closures lib/net/endpoint.ml "Fabric.send_with Fabric.send_with_n"
      channel_steps="Engine.schedule_with Engine.resume_in Engine.resume"
      closures lib/sim/channel.ml "$channel_steps Engine.suspend_with")
if [ -n "$bad" ]; then
  echo "$bad"
  echo "pass a step defined once and the copy, session, syscall or message"
  echo "record instead"
  exit 1
fi

echo "== sh -n bin/bench_ab.sh"
sh -n bin/bench_ab.sh

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

echo "== figures golden (bench/baselines/figures.txt)"
# Every table and figure of the evaluation must print byte for byte as
# committed. The run writes its BENCH_*.json into a temp dir, never over
# the committed ones; the golden was produced the same way, so the
# "[wrote BENCH_<name>.json]" lines match. A change that moves simulated
# numbers on purpose regenerates the golden (HACKING.md, "Adding an
# experiment") and says why in CHANGES.md.
root=$(pwd)
fig=$(mktemp -d /tmp/fractos-figures.XXXXXX)
(cd "$fig" && "$root/_build/default/bench/main.exe" --no-bechamel >figures.txt)
if ! cmp "$fig/figures.txt" bench/baselines/figures.txt; then
  diff "$fig/figures.txt" bench/baselines/figures.txt | head -40
  rm -rf "$fig"
  exit 1
fi
rm -rf "$fig"

echo "== OK"
