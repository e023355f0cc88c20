(* Benchmark harness entry point.

   With no arguments, regenerates every table and figure of the paper's
   evaluation section (simulated time, deterministic), then runs a short
   Bechamel suite — one Test.make per table/figure — that measures the
   wall-clock cost of simulating each experiment's core operation.

     dune exec bench/main.exe                 # everything
     dune exec bench/main.exe -- fig5 fig8    # selected experiments
     dune exec bench/main.exe -- --list       # list experiment names
     dune exec bench/main.exe -- --no-bechamel *)

module Tb = Fractos_testbed.Testbed
module B = Fractos_baselines

(* Every experiment, in the order a full run prints them. The three that
   write a BENCH_<name>.json take --tiny and their JSON path. *)
let experiments ~tiny ~json =
  [
    Exp_table3.experiment;
    Exp_fig2.experiment;
    Exp_fig5.experiment;
    Exp_fig6.experiment;
    Exp_fig7.experiment;
    Exp_fig8.experiment;
    Exp_fig9.experiment;
    Exp_fig10.experiment;
    Exp_fig11.experiment;
    Exp_fig12.experiment;
    Exp_fig13.experiment;
    Exp_ablation.experiment;
    Exp_loadcurve.experiment ~tiny ~json:(json "loadcurve");
    Exp_cluster.experiment ~tiny ~json:(json "cluster");
    Exp_pd.experiment ~tiny ~json:(json "pd");
  ]

(* ------------------------------------------------------------------ *)
(* Bechamel: wall-clock cost of simulating each experiment's core op    *)
(* ------------------------------------------------------------------ *)

let bechamel_tests () =
  let open Bechamel in
  let t name f = Test.make ~name (Staged.stage f) in
  Test.make_grouped ~name:"fractos-sim"
    [
      t "table3: null syscall" (fun () ->
          ignore (Exp_table3.fractos_null ~snic:false ()));
      t "fig2: delegated RPC" (fun () ->
          ignore
            (Exp_fig6.rpc_latency ~placement:Tb.Ctrl_cpu ~two_nodes:true
               ~arg_size:64));
      t "fig5: 64K memory_copy" (fun () ->
          ignore (Exp_fig5.fractos_copy ~placement:Tb.Ctrl_cpu ~hw:false 65536));
      t "fig6: cross-node RPC" (fun () ->
          ignore
            (Exp_fig6.rpc_latency ~placement:Tb.Ctrl_cpu ~two_nodes:true
               ~arg_size:0));
      t "fig7: revoke shared tree (8 caps)" (fun () ->
          ignore (Exp_fig7.revoke_shared ~placement:Tb.Ctrl_cpu 8));
      t "fig8: 2-stage chain" (fun () ->
          ignore (Exp_fig8.latency ~n_stages:2 ~size:4096 B.Pipeline.Chain));
      t "fig9: GPU invoke (batch 4)" (fun () ->
          ignore Exp_fig9.(latency (Fractos Tb.Ctrl_cpu) ~batch:4));
      t "fig10: DAX 4K read" (fun () ->
          ignore (Exp_fig10.fractos_lat ~write:false ~dax:true ~len:4096));
      t "fig11: local 1M read" (fun () ->
          ignore (Exp_fig10.local_lat ~write:false ~len:(1 lsl 20)));
      t "fig12: e2e request (batch 1)" (fun () ->
          ignore (Exp_fig12.latency (1, List.hd E2e_common.systems)));
      t "fig13: e2e closed loop" (fun () ->
          ignore (Exp_fig13.throughput (2, List.hd E2e_common.systems)));
      t "setup: 64 MiB FS write" E2e_common.populate;
      t "ablation: 1M copy" (fun () ->
          ignore
            (Exp_ablation.copy_latency ~chunk:16384 ~double_buffering:true
               (1 lsl 20)));
    ]

let run_bechamel () =
  let open Bechamel in
  Bench_util.section
    "Bechamel: wall-clock cost of simulating each experiment's core operation";
  let cfg = Benchmark.cfg ~limit:50 ~quota:(Time.second 0.25) () in
  let raw =
    Benchmark.all cfg Toolkit.Instance.[ monotonic_clock ] (bechamel_tests ())
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false
      ~predictors:[| Bechamel.Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name result ->
      match Analyze.OLS.estimates result with
      | Some [ est ] ->
        rows := [ name; Printf.sprintf "%.1f us/run" (est /. 1e3) ] :: !rows
      | _ -> ())
    results;
  Bench_util.table
    ~header:[ "simulated operation"; "host wall-clock" ]
    ~rows:(List.sort compare !rows)

let () =
  let dir d =
    if not (Sys.file_exists d) then Sys.mkdir d 0o755;
    Some d
  in
  let no_bechamel = ref false and tiny = ref false in
  let trace_dir = ref None and breakdown_dir = ref None in
  let json_paths = ref [] in
  (* Flags anywhere on the line; everything else names an experiment.
     --csv/--trace/--breakdown DIR write every table as CSV, a Chrome
     trace per experiment and a tax-breakdown CSV per experiment;
     --tiny and --<name>-json PATH shrink the JSON-writing sweeps and
     redirect their output (the @bench-smoke and @bench-gate aliases). *)
  let rec parse = function
    | "--no-bechamel" :: rest ->
      no_bechamel := true;
      parse rest
    | "--tiny" :: rest ->
      tiny := true;
      parse rest
    | "--csv" :: d :: rest ->
      Bench_util.csv_dir := dir d;
      parse rest
    | "--trace" :: d :: rest ->
      trace_dir := dir d;
      parse rest
    | "--breakdown" :: d :: rest ->
      breakdown_dir := dir d;
      parse rest
    | ("--loadcurve-json" | "--cluster-json" | "--pd-json") as flag
      :: path :: rest ->
      json_paths :=
        (String.sub flag 2 (String.length flag - 7), path) :: !json_paths;
      parse rest
    | name :: rest -> name :: parse rest
    | [] -> []
  in
  let names = parse (List.tl (Array.to_list Sys.argv)) in
  let json name =
    Option.value (List.assoc_opt name !json_paths)
      ~default:("BENCH_" ^ name ^ ".json")
  in
  let experiments = experiments ~tiny:!tiny ~json in
  if List.mem "--list" names then
    List.iter (fun e -> print_endline e.Bench_util.name) experiments
  else begin
    let selected =
      match names with
      | [] -> experiments
      | names ->
        List.map
          (fun n ->
            match
              List.find_opt (fun e -> e.Bench_util.name = n) experiments
            with
            | Some e -> e
            | None ->
              Printf.eprintf "unknown experiment %S (try --list)\n" n;
              exit 1)
          names
    in
    Bench_util.run ~trace_dir:!trace_dir ~breakdown_dir:!breakdown_dir
      selected;
    if (not !no_bechamel) && names = [] then run_bechamel ()
  end
