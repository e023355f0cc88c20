(* The repository benchmark: four FractOS workloads on one domain, every
   end-to-end metric by name and unit, or with [--trace 1] the per-layer
   split. See benchmark/README.md.

   dune exec benchmark/run.exe -- --workload W --seed S --seconds T
     --trace 0|1 [--trace-dir DIR]

   The last line of standard output is one JSON object:
   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}. A run
   whose outputs fail a check prints the problems to stderr, no result
   line, and exits 1. *)

open Fractos_sim
open Fractos_benchmark
module W = Workloads
module Obs = Fractos_obs
module Core = Fractos_core
module Tb = Fractos_testbed.Testbed

(* ------------------------------------------------------------------ *)
(* One point: a fresh testbed, set up, then one measured phase         *)
(* ------------------------------------------------------------------ *)

type point = {
  m : W.measured;
  lat : Time.t array;  (** sorted latencies of record *)
  full : Time.t array;  (** sorted arrival-to-completion latencies *)
  problems : string list;
  sim_elapsed : Time.t;  (** first arrival to last completion *)
  setup_s : float;
  phase_s : W.phase -> float;
  host_s : float;
  alloc_bytes : float;
  gc_minor : int;
  gc_major : int;
  promoted_bytes : float;
  fibers : int;
  layer : Layers.snapshot;
  peaks : (string * int) list;
}

let word_bytes = float_of_int (Sys.word_size / 8)

(* Host time is this process's CPU time (user + system, from getrusage):
   on a shared host, wall-clock time also counts the other tenants. *)
let cpu_s = Sys.time

(* Process-global ids and observability state, so every point starts from
   the same state and a seed replays exactly. *)
let reset_globals () =
  Core.Controller.reset_ids ();
  Core.Process.reset_ids ();
  Obs.Metrics.reset ();
  Obs.Span.reset ();
  Obs.Journal.reset ();
  Obs.Audit.reset ()

let run_point (w : W.t) ~seed ~traced load ~n =
  reset_globals ();
  Obs.Span.set_enabled traced;
  let phases = Hashtbl.create 3 in
  let clock =
    {
      W.phase =
        (fun p f ->
          let t = cpu_s () in
          let r = f () in
          let prev = Option.value ~default:0. (Hashtbl.find_opt phases p) in
          Hashtbl.replace phases p (prev +. (cpu_s () -. t));
          r);
    }
  in
  let t_start = cpu_s () in
  let m, t_setup, t_end, gc0, gc1, fibers, layer, peaks =
    Tb.run ~config:w.config (fun tb ->
        let measure = w.setup clock ~seed load ~n tb in
        let t_setup = cpu_s () in
        let before = Layers.take tb.Tb.fabric in
        let fib0 = Engine.fiber_count () in
        let gc0 = Gc.quick_stat () in
        let m = measure () in
        let gc1 = Gc.quick_stat () in
        let t_end = cpu_s () in
        let fibers = Engine.fiber_count () - fib0 in
        let layer = Layers.diff before (Layers.take tb.Tb.fabric) in
        (m, t_setup, t_end, gc0, gc1, fibers, layer, Layers.peaks ()))
  in
  Obs.Span.set_enabled false;
  let t = m.W.tally in
  {
    m;
    lat = Stats.sorted_of_list t.W.lat;
    full = Stats.sorted_of_list t.W.full;
    problems =
      List.rev t.W.mismatches @ m.W.post_check ()
      @
      if List.length t.W.lat + t.W.failed = t.W.attempted then []
      else [ "ok + failed <> attempted" ];
    sim_elapsed = t.W.last_done - t.W.t0;
    setup_s = t_setup -. t_start;
    phase_s = (fun p -> Option.value ~default:0. (Hashtbl.find_opt phases p));
    host_s = t_end -. t_setup;
    alloc_bytes =
      (gc1.Gc.minor_words +. gc1.Gc.major_words -. gc1.Gc.promoted_words
      -. (gc0.Gc.minor_words +. gc0.Gc.major_words -. gc0.Gc.promoted_words))
      *. word_bytes;
    gc_minor = gc1.Gc.minor_collections - gc0.Gc.minor_collections;
    gc_major = gc1.Gc.major_collections - gc0.Gc.major_collections;
    promoted_bytes = (gc1.Gc.promoted_words -. gc0.Gc.promoted_words) *. word_bytes;
    fibers;
    layer;
    peaks;
  }

(* Set-up alone, without a measured phase: it is cheap next to one for
   most workloads, so it gets its own repetitions. A sample is the mean
   over a batch of at least 20 ms of CPU time, so a cheap set-up is not
   lost in the clock's microsecond resolution; the batch starts from a
   collected heap, like the measured repeats. *)
let setup_sample (w : W.t) ~seed load ~n =
  let once () =
    reset_globals ();
    let t0 = cpu_s () in
    Tb.run ~config:w.config (fun tb ->
        let (_ : unit -> W.measured) =
          w.setup { W.phase = (fun _ f -> f ()) } ~seed load ~n tb
        in
        cpu_s () -. t0)
  in
  Gc.full_major ();
  let rec go total k =
    if total >= 0.02 then total /. float_of_int k
    else go (total +. once ()) (k + 1)
  in
  go 0. 0

let attempted p = p.m.W.tally.W.attempted
let failed p = p.m.W.tally.W.failed
let us ns = Time.to_us_f ns

(* Simulated results of two runs of the same point must be identical. *)
let same_simulation a b =
  a.lat = b.lat && a.full = b.full && a.layer = b.layer
  && attempted a = attempted b && failed a = failed b

(* [once k] for k = 0, 1, ..., at least [min_reps] times and until the
   wall clock passes [until]. *)
let repeat ~until ~min_reps once =
  let rec go acc k =
    if k >= min_reps && Unix.gettimeofday () >= until then List.rev acc
    else go (once k :: acc) (k + 1)
  in
  go [] 0

let median_of f ps = Stats.median (List.map f ps)

(* ------------------------------------------------------------------ *)
(* Model error against the paper's Table 3                             *)
(* ------------------------------------------------------------------ *)

let null_round_trip ~snic =
  reset_globals ();
  Tb.run (fun tb ->
      let host = Tb.add_host tb "host" in
      let ctrl = if snic then Tb.add_snic_ctrl tb ~host else Tb.add_ctrl tb ~on:host in
      let proc = Tb.add_proc tb ~on:host ~ctrl "p" in
      Core.Error.ok_exn (Core.Api.null proc);
      let t0 = Engine.now () in
      Core.Error.ok_exn (Core.Api.null proc);
      Engine.now () - t0)

(* Largest relative error of the two null round trips, in percent
   (paper: 3.00 us with the Controller on the CPU, 4.50 us on the sNIC). *)
let table3_err_pct () =
  let err ~snic paper_us =
    Float.abs ((us (null_round_trip ~snic) /. paper_us) -. 1.)
  in
  100. *. Float.max (err ~snic:false 3.00) (err ~snic:true 4.50)

(* ------------------------------------------------------------------ *)
(* Result                                                              *)
(* ------------------------------------------------------------------ *)

type result = {
  problems : string list;
  attempted : int;
  failed : int;
  values : (string * float) list;
  notes : (string * string) list;  (** human-readable lines only *)
}

let p99_exn what lat =
  match Stats.p99 lat with
  | Some v -> us v
  | None ->
    failwith
      (Printf.sprintf "%s: %d samples, a p99 needs %d" what (Array.length lat)
         Stats.p99_min_samples)

let replays first reps =
  if List.for_all (fun p -> List.exists (same_simulation p) first) reps then []
  else [ "a repeated point did not replay its simulation exactly" ]

(* ------------------------------------------------------------------ *)
(* End-to-end run                                                      *)
(* ------------------------------------------------------------------ *)

let probes = 7

(* Replica [r] of a point runs on its own seed derived from the run's. *)
let replica_seed ~seed r =
  if r = 0 then seed
  else Int64.to_int (Prng.int64 (Prng.stream ~seed ~id:r)) land 0x3fff_ffff

let pooled f ps = Stats.sorted_of_list (List.concat_map (fun p -> Array.to_list (f p)) ps)

(* A point's p99 is the median of its replicas' p99s: one replica with an
   unusually bursty arrival sequence then moves it less than it moves the
   p99 of the pooled samples. *)
let p99_of what ps = Stats.median (List.map (fun p -> p99_exn what p.lat) ps)
let sum f ps = List.fold_left (fun a p -> a + f p) 0 ps
let mean_us lat = Array.fold_left (fun a x -> a +. us x) 0. lat /. float_of_int (Array.length lat)

(* A probe passes when its p99 meets the latency limit, at most one
   request in a thousand failed, and completions kept pace with arrivals. *)
let passes (search : W.search) ps =
  let t p = p.m.W.tally in
  let arrived = sum attempted ps and failed = sum failed ps in
  Stats.keeps_up ~arrived
    ~arrival_span:(sum (fun p -> (t p).W.last_arrival - (t p).W.t0) ps)
    ~completed:(arrived - failed)
    ~completion_span:(sum (fun p -> p.sim_elapsed) ps)
  && float_of_int failed <= 0.001 *. float_of_int arrived
  && List.for_all (fun p -> Stats.p99 p.lat <> None) ps
  && p99_of "probe" ps <= search.limit_us

let end_to_end (w : W.t) ~seed ~seconds =
  let t0 = Unix.gettimeofday () in
  let point ~n r load =
    run_point w ~seed:(replica_seed ~seed r) ~traced:false load ~n
  in
  let replicated total load =
    let k = (total + w.testbed_n - 1) / w.testbed_n in
    List.init k (fun r -> point ~n:(total / k) r load)
  in
  let nominal = replicated w.point_n w.nominal in
  let replica_n = w.point_n / List.length nominal in
  let peak = replicated w.point_n w.peak in
  let probed = ref [] in
  let sustained =
    match w.search with
    | None ->
      float_of_int (sum attempted nominal - sum failed nominal)
      /. Time.to_s_f (sum (fun p -> p.sim_elapsed) nominal)
    | Some s ->
      Option.value ~default:0.
        (Stats.search ~lo:s.lo ~hi:s.hi ~probes (fun rate ->
             let ps = replicated s.probe_n (W.Rate rate) in
             probed := !probed @ ps;
             passes s ps))
  in
  (* The heap top after the fixed simulated work, before the repetitions
     below, whose number depends on the host's speed. *)
  let top_heap = (Gc.quick_stat ()).Gc.top_heap_words in
  (* Host time comes from repeats of the nominal replicas after the fixed
     work, at least 3 and until the run has measured [seconds]: a
     process's first points run measurably slower (small heap, cold
     caches). Each repeat starts from a collected heap and must replay
     its replica exactly. *)
  let repeats =
    repeat ~until:(t0 +. seconds) ~min_reps:3 (fun k ->
        Gc.full_major ();
        point ~n:replica_n (k mod List.length nominal) w.nominal)
  in
  let setups =
    List.map (fun p -> p.setup_s) repeats
    @ repeat ~until:(Unix.gettimeofday () +. 1.) ~min_reps:1 (fun _ ->
          setup_sample w ~seed w.nominal ~n:replica_n)
  in
  let lat = pooled (fun p -> p.lat) nominal in
  let full = pooled (fun p -> p.full) nominal in
  let elapsed = sum (fun p -> p.sim_elapsed) nominal in
  let notes =
    [
      ("replicas", string_of_int (List.length nominal));
      ("host samples", string_of_int (List.length repeats));
      ("host_s", Printf.sprintf "%.6f" (median_of (fun p -> p.host_s) repeats));
      ("set-up samples", string_of_int (List.length setups));
      ("nominal samples", string_of_int (Array.length lat));
      ("p50_us", Printf.sprintf "%.3f" (us (Stats.percentile lat 0.5)));
      ( "fail_frac",
        Printf.sprintf "%g"
          (float_of_int (sum failed nominal)
          /. float_of_int (sum attempted nominal)) );
    ]
    @ (if Array.length full > 0 then
         [ ("done_p99_us", Printf.sprintf "%.3f" (p99_exn "completion" full)) ]
       else [])
    @
    if w.search = None then
      [
        ( "goodput_gbps",
          Printf.sprintf "%.3f"
            (float_of_int (8 * sum (fun p -> p.m.W.payload_bytes) nominal)
            /. float_of_int elapsed) );
      ]
    else []
  in
  {
    problems =
      List.concat_map (fun (p : point) -> p.problems)
        (nominal @ peak @ !probed @ repeats)
      @ replays nominal repeats;
    attempted = sum attempted nominal + sum attempted peak;
    failed = sum failed nominal + sum failed peak;
    values =
      [
        ("sustained_rps", sustained);
        ("mean_us", mean_us lat);
        ("p99_us", p99_of "nominal" nominal);
        ("p99_peak_us", p99_of "peak" peak);
        ("alloc_gb", median_of (fun p -> p.alloc_bytes) repeats /. 1e9);
        ("peak_heap_mb", float_of_int top_heap *. word_bytes /. 1e6);
        ("setup_s", Stats.median setups);
      ];
    notes;
  }

(* ------------------------------------------------------------------ *)
(* Traced run: the per-layer split                                     *)
(* ------------------------------------------------------------------ *)

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

let write_trace dir (w : W.t) breakdowns =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let base = Filename.concat dir w.name in
  Obs.Export.write_chrome_trace (base ^ ".json");
  Obs.Analysis.write_csv (base ^ ".csv") breakdowns;
  Printf.printf "wrote %s.json and %s.csv\n" base base

let per_layer (w : W.t) ~seed ~seconds ~trace_dir =
  let until = Unix.gettimeofday () +. seconds in
  let point ~traced = run_point w ~seed ~traced w.nominal ~n:w.trace_n in
  let base = point ~traced:false in
  (* host metrics from warm repeats, as in the untraced run *)
  let reps =
    repeat ~until ~min_reps:3 (fun _ ->
        Gc.full_major ();
        point ~traced:false)
  in
  let traced = point ~traced:true in
  let breakdowns = Obs.Analysis.analyze ~root_name:"bench.request" () in
  let spans = Obs.Span.count () and dropped = Obs.Span.dropped () in
  Option.iter (fun dir -> write_trace dir w breakdowns) trace_dir;
  Obs.Span.reset ();
  let cats, total = Obs.Analysis.totals breakdowns in
  let crit c =
    ratio (Option.value ~default:0 (List.assoc_opt c cats)) total
  in
  let crit_sum =
    List.fold_left (fun s c -> s +. crit c) 0. Obs.Analysis.categories
  in
  let req = attempted base in
  let per_req x = ratio x req in
  let l = base.layer in
  let c = Layers.counter l in
  let peak name = float_of_int (Option.value ~default:0 (List.assoc_opt name base.peaks)) in
  let hist name f = Option.fold ~none:0. ~some:f (Layers.hist l name) in
  let hit_ratio hits misses = ratio (c hits) (c hits + c misses) in
  let elapsed = float_of_int base.sim_elapsed in
  let busy names ~servers =
    let sum = List.fold_left (fun s n -> s +. hist n (fun h -> h.Layers.sum)) 0. names in
    let devices =
      List.fold_left (fun d n -> max d (hist n (fun h -> float_of_int h.Layers.nodes))) 0. names
    in
    if devices = 0. then 0. else sum /. (elapsed *. devices *. servers)
  in
  let count names = List.fold_left (fun s n -> s +. hist n (fun h -> float_of_int h.Layers.count)) 0. names in
  let nvme = [ "nvme.read"; "nvme.write" ] in
  let skew a =
    let total = Array.fold_left ( + ) 0 a in
    if total = 0 then 0.
    else
      float_of_int (Array.fold_left max 0 a)
      /. (float_of_int total /. float_of_int (Array.length a))
  in
  let pd_prefill, pd_decode, pd_affinity =
    match base.m.W.pd with
    | Some (p, d, a) -> (skew p, skew d, a)
    | None -> (0., 0., 0.)
  in
  let host_s = median_of (fun p -> p.host_s) reps in
  let census = l.Layers.census in
  let problems =
    base.problems @ traced.problems @ replays [ base ] reps
    @ (if same_simulation base traced then []
       else [ "tracing changed the simulated results" ])
    @ (if dropped = 0 then [] else [ Printf.sprintf "%d spans dropped" dropped ])
    @
    if Float.abs (crit_sum -. 1.) <= 0.001 then []
    else [ Printf.sprintf "critical-path shares sum to %g" crit_sum ]
  in
  {
    problems;
    attempted = req;
    failed = failed base;
    values =
      [
        ("ctrl.syscalls_per_req", per_req (c "ctrl.syscalls"));
        ("ctrl.peer_msgs_per_req", per_req (c "ctrl.peer_msgs"));
        ("ctrl.sys_backlog_peak", peak "ctrl.sys_backlog");
        ("ctrl.peer_backlog_peak", peak "ctrl.peer_backlog");
        ("ctrl.tcache_hit_ratio", hit_ratio "ctrl.tcache_hits" "ctrl.tcache_misses");
        ("ctrl.dir_hit_ratio", hit_ratio "ctrl.dir_hits" "ctrl.dir_misses");
        ("ctrl.overloads", float_of_int (c "ctrl.overloads"));
        ("ctrl.copy_bytes_per_byte", ratio (c "ctrl.copy_bytes") base.m.W.payload_bytes);
        ("ctrl.copy_inflight_peak", peak "ctrl.copy_inflight");
        ("ctrl.captable_peak", peak "ctrl.captable");
        ( "syscall.memory_copy.p99_us",
          hist "syscall.memory_copy" (fun h -> Layers.hist_percentile h 0.99 /. 1e3) );
        ("net.msgs_per_req", per_req census.net_messages);
        ("net.ctrl_msgs_per_req", per_req census.net_control_messages);
        ("net.bytes_per_req", per_req census.net_bytes);
        ("net.data_bytes_per_req", per_req census.net_data_bytes);
        ("gpu.busy_frac", busy [ "gpu.exec" ] ~servers:1.);
        ( "nvme.busy_frac",
          busy nvme ~servers:(float_of_int w.config.nvme_queue_depth) );
        ("gpu.exec_per_req", count [ "gpu.exec" ] /. float_of_int req);
        ("nvme.ops_per_req", count nvme /. float_of_int req);
        ("pd.prefill_skew", pd_prefill);
        ("pd.decode_skew", pd_decode);
        ("pd.prefix_affinity", pd_affinity);
        ("sim.fibers_per_req", per_req base.fibers);
        ("host.gc_minor", float_of_int base.gc_minor);
        ("host.gc_major", float_of_int base.gc_major);
        ("host.promoted_mb", base.promoted_bytes /. 1e6);
        ("host.sim_req_per_s", float_of_int req /. host_s);
        ("host.setup_testbed_s", median_of (fun p -> p.phase_s W.Testbed) reps);
        ("host.setup_deploy_s", median_of (fun p -> p.phase_s W.Deploy) reps);
        ("host.setup_populate_s", median_of (fun p -> p.phase_s W.Populate) reps);
        ("crit.ctrl_frac", crit Obs.Analysis.Ctrl);
        ("crit.fabric_frac", crit Obs.Analysis.Fabric);
        ("crit.queue_frac", crit Obs.Analysis.Queue);
        ("crit.device_frac", crit Obs.Analysis.Device);
        ("crit.client_frac", crit Obs.Analysis.Client);
        ("crit.idle_frac", crit Obs.Analysis.Idle);
        ("obs.spans_per_req", per_req spans);
        ("obs.spans_dropped", float_of_int dropped);
        ("obs.trace_overhead_frac", (traced.host_s /. host_s) -. 1.);
      ];
    notes = [ ("repetitions", string_of_int (List.length reps)) ];
  }

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

let run_workload (w : W.t) ~seed ~seconds ~trace ~trace_dir =
  let r =
    if trace then per_layer w ~seed ~seconds ~trace_dir
    else end_to_end w ~seed ~seconds
  in
  let model = table3_err_pct () in
  let metrics = if trace then Spec.per_layer else Spec.end_to_end in
  let values = r.values @ [ ("model.table3_err_pct", model) ] in
  Printf.printf "workload %s, seed %d\n" w.name seed;
  List.iter (fun (k, v) -> Printf.printf "  %-28s %s\n" k v) r.notes;
  List.iter
    (fun { Spec.name; unit } ->
      Printf.printf "  %-28s %.6g %s\n" name (List.assoc name values) unit)
    metrics;
  if trace then () else Printf.printf "  %-28s %.6g %%\n" "model.table3_err_pct" model;
  match r.problems with
  | [] ->
    print_endline
      (Spec.result_line ~correct:true ~attempted:r.attempted ~failed:r.failed
         metrics values);
    true
  | problems ->
    List.iter (fun p -> prerr_endline (w.name ^ ": " ^ p)) problems;
    false

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. in
  let trace = ref 0 and trace_dir = ref None in
  let names = String.concat ", " (List.map (fun (w : W.t) -> w.name) W.all) in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " one of " ^ names ^ ", or all");
      ("--seed", Arg.Set_int seed, " seed of every generated input (default 1)");
      ( "--seconds",
        Arg.Set_float seconds,
        " host seconds spent repeating the measured point (default 10)" );
      ("--trace", Arg.Set_int trace, " 1 = traced run printing the per-layer split");
      ( "--trace-dir",
        Arg.String (fun d -> trace_dir := Some d),
        " with --trace 1, write a Chrome trace and breakdown CSV here" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "run.exe --workload W [--seed S] [--seconds T] [--trace 0|1]";
  let selected =
    if !workload = "all" then W.all
    else
      match W.find !workload with
      | Some w -> [ w ]
      | None ->
        prerr_endline ("unknown workload '" ^ !workload ^ "'; expected " ^ names ^ " or all");
        exit 2
  in
  if !trace <> 0 && !trace <> 1 then (prerr_endline "--trace takes 0 or 1"; exit 2);
  let ok =
    List.for_all
      (fun w ->
        run_workload w ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
          ~trace_dir:!trace_dir)
      selected
  in
  exit (if ok then 0 else 1)
