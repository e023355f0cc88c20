(* The benchmark's metric catalogue and its result line. BENCHMARK.json at
   the repository root lists the same names and units; benchmark/test
   checks that the two agree. *)

type metric = { name : string; unit : string }

let m name unit = { name; unit }

(* Printed by an untraced run ([--trace 0]). Simulated metrics are exact
   per seed; host metrics are measured around the simulation. *)
let end_to_end =
  [
    m "sustained_rps" "req/s";
    m "mean_us" "us";
    m "p99_us" "us";
    m "p99_peak_us" "us";
    m "alloc_gb" "GB";
    m "peak_heap_mb" "MB";
    m "setup_s" "s";
  ]

(* Printed by a traced run ([--trace 1]): the layer split. Layers are named
   after lib/ modules; a metric reads 0 where its layer does no work. *)
let per_layer =
  [
    m "ctrl.syscalls_per_req" "count";
    m "ctrl.peer_msgs_per_req" "count";
    m "ctrl.sys_backlog_peak" "count";
    m "ctrl.peer_backlog_peak" "count";
    m "ctrl.tcache_hit_ratio" "ratio";
    m "ctrl.dir_hit_ratio" "ratio";
    m "ctrl.overloads" "count";
    m "ctrl.copy_bytes_per_byte" "ratio";
    m "ctrl.copy_inflight_peak" "count";
    m "ctrl.captable_peak" "count";
    m "syscall.memory_copy.p99_us" "us";
    m "net.msgs_per_req" "count";
    m "net.ctrl_msgs_per_req" "count";
    m "net.bytes_per_req" "B";
    m "net.data_bytes_per_req" "B";
    m "gpu.busy_frac" "ratio";
    m "nvme.busy_frac" "ratio";
    m "gpu.exec_per_req" "count";
    m "nvme.ops_per_req" "count";
    m "pd.prefill_skew" "ratio";
    m "pd.decode_skew" "ratio";
    m "pd.prefix_affinity" "ratio";
    m "sim.fibers_per_req" "count";
    m "host.gc_minor" "count";
    m "host.gc_major" "count";
    m "host.promoted_mb" "MB";
    m "host.sim_req_per_s" "req/s";
    m "host.setup_testbed_s" "s";
    m "host.setup_deploy_s" "s";
    m "host.setup_populate_s" "s";
    m "crit.ctrl_frac" "ratio";
    m "crit.fabric_frac" "ratio";
    m "crit.queue_frac" "ratio";
    m "crit.device_frac" "ratio";
    m "crit.client_frac" "ratio";
    m "crit.idle_frac" "ratio";
    m "obs.spans_per_req" "count";
    m "obs.spans_dropped" "count";
    m "obs.trace_overhead_frac" "ratio";
    m "model.table3_err_pct" "%";
  ]

let valid_name s =
  s <> ""
  && String.for_all
       (function
         | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
         | _ -> false)
       s

(* JSON has no NaN or infinity; a metric that computes one is a bug in
   the benchmark, not a value to print. *)
let json_float v =
  if Float.is_finite v then Printf.sprintf "%.17g" v
  else invalid_arg "Spec.json_float: non-finite value"

(* The last line of the benchmark's standard output. [values] must hold
   every metric of [metrics]; a missing one raises [Not_found]. *)
let result_line ~correct ~attempted ~failed metrics values =
  let entry { name; unit } =
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
      (json_float (List.assoc name values))
      unit
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", " (List.map entry metrics))
