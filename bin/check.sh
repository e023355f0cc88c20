#!/bin/sh
# Repo health check: no dead or unset Net.Config knobs, exports, optional
# arguments or modules, no test-only exports or constructors outside
# their kept lists, no Obj outside the engine, no second domain or
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

# [code_tree DIR...] copies every .ml under DIR... into a fresh temp
# dir, with its comments and string literals blanked (bin/code_only.awk),
# and prints the dir's path; the caller removes it.
code_tree() {
  code=$(mktemp -d /tmp/fractos-code.XXXXXX)
  for f in $(find "$@" -name '*.ml'); do
    mkdir -p "$code/$(dirname "$f")"
    awk -f bin/code_only.awk "$f" >"$code/$f"
  done
  echo "$code"
}

# [unreferenced DIR...] prints "<mli> <val>" for every `val` of a
# lib/**/m.mli that no .ml under DIR... other than its own m.ml takes
# from module M (bin/module_refs.awk): as `M.v`, also through a library
# path (`Lib.M.v`) or a local alias (`module X = M`, then `X.v`), or as
# a bare `v` after the file opens M (`open M`, `include M`,
# `let open M in`, `M.(`). A same-named value of another module does not
# count, and neither do uses in m.ml itself: an export only its own
# module uses leaves the .mli. Only code counts: the .ml files are
# searched with their comments and string literals blanked
# (bin/code_only.awk), so a value whose name a comment mentions or a
# message prints is still caught.
unreferenced() (
  root=$(pwd)
  code=$(code_tree "$@")
  cd "$code"
  for mli in $(cd "$root" && find lib -name '*.mli' | sort); do
    ml=${mli%.mli}.ml
    b=$(basename "$ml" .ml)
    m=$(printf '%s' "$b" | cut -c1 | tr a-z A-Z)$(printf '%s' "$b" | cut -c2-)
    users=$(grep -rlw --include='*.ml' "$m" "$@" | grep -Fvx "$ml" || true)
    refs=$(if [ -n "$users" ]; then
             printf '%s\n' "$users" |
               xargs awk -v m="$m" -f "$root/bin/module_refs.awk" | sort -u
           fi)
    for v in $(sed -n 's/^ *val \([a-z_][A-Za-z0-9_]*\)\( *:.*\)*$/\1/p' \
                 "$root/$mli" | sort -u); do
      if ! printf '%s\n' "$refs" | grep -Fxq "$v"; then
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
lib/core/api.mli request_invoke_async  the unacknowledged posting under request_invoke, which the congestion-window test drives
lib/core/codec.mli addr_size        Codec round trips: the layouts Wire sizes are tested against
lib/core/codec.mli decode_addr      Codec round trips
lib/core/codec.mli decode_caps      Codec round trips
lib/core/codec.mli decode_delivery  Codec round trips
lib/core/codec.mli decode_imms      Codec round trips
lib/core/codec.mli decode_perms     Codec round trips
lib/core/codec.mli decode_request   Codec round trips
lib/core/codec.mli encode_addr      Codec round trips
lib/core/codec.mli encode_caps      Codec round trips
lib/core/codec.mli encode_delivery  Codec round trips
lib/core/codec.mli encode_imms      Codec round trips
lib/core/codec.mli encode_perms     Codec round trips
lib/core/codec.mli encode_request   Codec round trips
lib/core/codec.mli request_size     Codec round trips
lib/core/controller.mli dir_cache_size  the directory cache, which no other API shows
lib/core/controller.mli shard_gen       the shard group generation, which no other API shows
lib/core/membuf.mli holders         the holders of the bytes of a buffer, which no other API shows
lib/core/wire.mli syscall_fixed     the fixed syscall size the Codec layouts are checked against
lib/device/gpu.mli mem_free_bytes   GPU memory accounting, which no other API shows
lib/fault/retry.mli backoff         the schedule Retry.run sleeps by, pinned by test_fault
lib/fault/retry.mli default         the policy Retry.run takes when given none, whose schedule test_fault pins
lib/fault/spec.mli default          the preset Spec.of_string "default" parses to, for tests that plan directly
lib/fault/spec.mli none             the preset Spec.of_string "none" parses to, for tests that plan directly
lib/net/cost.mli one                the unit charge tests price expected controller costs with
lib/net/fabric.mli base_latency     the propagation latency tests time expected deliveries with
lib/obs/analysis.mli category_of_span  the span taxonomy the breakdown and timeline tests share
lib/obs/analysis.mli csv_header     the breakdown CSV layout the tests pin
lib/obs/analysis.mli csv_row        the breakdown CSV layout the tests pin
lib/obs/analysis.mli get            one category of a breakdown, which no other API shows
lib/obs/audit.mli kind_name         the audit event names the tests pin
lib/obs/audit.mli set_capacity      the audit ring size, so eviction is testable without a million events
lib/obs/audit.mli summary           per-kind audit counts, which no other API shows
lib/obs/gate.mli baseline_tolerance   the baseline parsing under Gate.check, pinned by test_profiler
lib/obs/gate.mli metrics_of_baseline  the baseline parsing under Gate.check, pinned by test_profiler
lib/obs/journal.mli events          retained journal events, which no other API shows
lib/obs/metrics.mli counter_value   metric values the tests pin
lib/obs/metrics.mli gauge_max       metric values the tests pin
lib/obs/metrics.mli gauge_value     metric values the tests pin
lib/obs/metrics.mli hist_max        metric values the tests pin
lib/obs/metrics.mli observations    metric values the tests pin
lib/obs/metrics.mli percentile      metric values the tests pin
lib/obs/openmetrics.mli escape_label  the label escaping every exporter applies, pinned on hostile names
lib/obs/openmetrics.mli histograms_csv_header  the hist.csv layout the tests pin
lib/obs/span.mli find               a recorded span by id, which no other API shows
lib/obs/span.mli get_limit          the span cap, which tests restore after set_limit
lib/obs/span.mli set_limit          the span cap, so truncation is testable without 500 000 spans
lib/obs/timeline.mli elapsed        timeline pieces the profiler tests pin
lib/obs/timeline.mli heatmap        timeline pieces the profiler tests pin
lib/obs/timeline.mli resource_of    timeline pieces the profiler tests pin
lib/obs/timeline.mli row_of_span    timeline pieces the profiler tests pin
lib/obs/whatif.mli csv_header       the what-if CSV layout the tests pin
lib/services/fs.mli cache_hits      FS cache hits, which no other API shows
lib/services/gpu_adaptor.mli free   the client of gpu.free, whose Request the adaptor mints at start
lib/services/gpu_adaptor.mli push_request  minted at adaptor start, so removing it moves set-up time and object ids: it goes with the rebaseline of ROADMAP item 16
lib/services/gpu_adaptor.mli svc    the Svc of the adaptor, whose process tests grant push_request from
lib/sim/channel.mli try_recv        the non-blocking take of the channel model test
lib/sim/channel.mli waiters         blocked readers, which no other API shows
lib/sim/engine.mli event_count      engine events, pinned exactly by test_alloc
lib/sim/heap.mli length             heap size, which no other API shows
lib/sim/semaphore.mli available     free permits, which no other API shows
lib/sim/semaphore.mli waiting       blocked waiters, which no other API shows
lib/sim/waitgroup.mli add           the count Waitgroup.spawn keeps, whose misuse test_sim pins
lib/sim/waitgroup.mli done_         the count Waitgroup.spawn keeps, whose misuse test_sim pins
lib/workloads/facedata.mli image    the reference image the dataset tests check against
lib/workloads/loadgen.mli summarize the percentile reader of every load report, pinned on fixed samples
'
only=$(unreferenced lib bin bench benchmark examples)
listed=$(printf '%s\n' "$kept" | awk 'NF { print $1, $2 }')
extra=$(printf '%s\n' "$only" | grep -Fvx -e "$listed" || true)
stale=$(printf '%s\n' "$listed" | grep -Fvx -e "$only" || true)
printf '%s\n' "$extra" | awk 'NF { print "test-only export: " $1 ": val " $2 \
  " has no caller outside test/" }'
printf '%s\n' "$stale" | awk 'NF { print "stale kept export: " $1 ": val " $2 \
  " is listed but not test-only" }'
[ -z "$extra$stale" ]

echo "== test-only constructors"
# A variant constructor of a lib/**/m.mli (bin/constructors.awk) that
# some test names but no .ml under lib bin bench benchmark examples
# other than m.ml does is a case only tests build: the program never
# makes or asks for it, so it goes with its tests (a removed policy
# cannot come back through its test). Constructors and other modules
# are told apart by what follows the name (`.` for a module path), and
# comments and strings are blanked first (bin/code_only.awk). The kept
# ones are listed here, one reason each; a listed one the program names
# fails too.
kept='
lib/core/codec.mli Truncated  the error of the reference decoder, which the Codec round trips match
lib/obs/json.mli Null         JSON input the parser must accept, though no program reads a null
'
only=$(
  root=$(pwd)
  code=$(code_tree lib bin bench benchmark examples test)
  cd "$code"
  for mli in $(cd "$root" && find lib -name '*.mli' | sort); do
    ml=${mli%.mli}.ml
    for c in $(awk -f "$root/bin/code_only.awk" "$root/$mli" |
                 awk -f "$root/bin/constructors.awk" | sort -u); do
      re="(^|[^A-Za-z0-9_'\`])$c([^A-Za-z0-9_'.]|\$)"
      if grep -rqE --include='*.ml' "$re" test &&
         ! grep -rlE --include='*.ml' "$re" lib bin bench benchmark examples |
           grep -Fvxq "$ml"; then
        echo "$mli $c"
      fi
    done
  done
  cd "$root"
  rm -rf "$code")
listed=$(printf '%s\n' "$kept" | awk 'NF { print $1, $2 }')
extra=$(printf '%s\n' "$only" | grep -Fvx -e "$listed" || true)
stale=$(printf '%s\n' "$listed" | grep -Fvx -e "$only" || true)
printf '%s\n' "$extra" | awk 'NF { print "test-only constructor: " $1 ": " $2 \
  " is named outside its module only under test/" }'
printf '%s\n' "$stale" | awk 'NF { print "stale kept constructor: " $1 ": " $2 \
  " is listed but not test-only" }'
[ -z "$extra$stale" ]

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
# The engine's current run and the obs registries and rings are plain
# module state: every simulation in a process runs on one domain, one
# after another. A second domain or a
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

echo "== one start"
# Testbed.run is where every simulation starts: its fabric mints the
# ids, and it clears Obs.Metrics, Obs.Journal and Obs.Audit before it
# builds the testbed. So no .ml under lib bin bench examples test calls
# reset_ids or resets those records, except lib/testbed/testbed.ml and
# the registries' own tests in test/obs/ (benchmark/ is not scanned).
# Comments and strings are blanked first (bin/code_only.awk), so prose
# may name these calls.
bad=$(for f in $(find lib bin bench examples test -name '*.ml' | sort); do
        case "$f" in lib/testbed/testbed.ml | test/obs/*) continue ;; esac
        awk -f bin/code_only.awk "$f" |
          grep -nE "(^|[^A-Za-z0-9_'])(reset_ids|(Metrics|Journal|Audit)\.reset)([^A-Za-z0-9_']|\$)" |
          grep -vE '^[0-9]+: *let reset_ids ' |
          sed "s|^|$f:|"
      done)
if [ -n "$bad" ]; then
  echo "$bad"
  echo "Testbed.run starts each simulation afresh: drop the reset"
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
