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

let experiments : (string * (unit -> unit)) list =
  [
    (Exp_table3.name, Exp_table3.run);
    (Exp_fig2.name, Exp_fig2.run);
    (Exp_fig5.name, Exp_fig5.run);
    (Exp_fig6.name, Exp_fig6.run);
    (Exp_fig7.name, Exp_fig7.run);
    (Exp_fig8.name, Exp_fig8.run);
    (Exp_fig9.name, Exp_fig9.run);
    (Exp_fig10.name, Exp_fig10.run);
    (Exp_fig11.name, Exp_fig11.run);
    (Exp_fig12.name, Exp_fig12.run);
    (Exp_fig13.name, Exp_fig13.run);
    (Exp_ablation.name, Exp_ablation.run);
    (Exp_loadcurve.name, Exp_loadcurve.run);
    (Exp_copybw.name, Exp_copybw.run);
    (Exp_cluster.name, Exp_cluster.run);
    (Exp_pd.name, Exp_pd.run);
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
          ignore (Exp_table3.fractos_null ~snic:false));
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
          ignore (Exp_fig9.fractos_latency ~placement:Tb.Ctrl_cpu ~batch:4));
      t "fig10: DAX 4K read" (fun () ->
          ignore (Exp_fig10.fractos_lat ~write:false ~dax:true ~len:4096));
      t "fig11: local 1M read" (fun () ->
          ignore (Exp_fig10.local_lat ~write:false ~len:(1 lsl 20)));
      t "fig12: e2e request (batch 1)" (fun () ->
          ignore (Exp_fig12.fractos_lat ~placement:Tb.Ctrl_cpu ~batch:1));
      t "fig13: e2e closed loop" (fun () ->
          ignore (Exp_fig13.fractos_tput ~placement:Tb.Ctrl_cpu ~inflight:2));
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
  let args = Array.to_list Sys.argv |> List.tl in
  let no_bechamel = List.mem "--no-bechamel" args in
  let args = List.filter (fun a -> a <> "--no-bechamel") args in
  (* --csv DIR: also write every table as CSV *)
  let rec extract_csv acc = function
    | "--csv" :: dir :: rest ->
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      Bench_util.csv_dir := Some dir;
      extract_csv acc rest
    | a :: rest -> extract_csv (a :: acc) rest
    | [] -> List.rev acc
  in
  let args = extract_csv [] args in
  (* --trace DIR: write a Chrome trace per experiment *)
  let rec extract_trace acc = function
    | "--trace" :: dir :: rest ->
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      Bench_util.trace_dir := Some dir;
      extract_trace acc rest
    | a :: rest -> extract_trace (a :: acc) rest
    | [] -> List.rev acc
  in
  let args = extract_trace [] args in
  (* --breakdown DIR: write a critical-path/tax-breakdown CSV per
     experiment *)
  let rec extract_breakdown acc = function
    | "--breakdown" :: dir :: rest ->
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      Bench_util.breakdown_dir := Some dir;
      extract_breakdown acc rest
    | a :: rest -> extract_breakdown (a :: acc) rest
    | [] -> List.rev acc
  in
  let args = extract_breakdown [] args in
  (* --loadcurve-json PATH / --copybw-json PATH / --tiny: JSON-sweep output
     paths and size (consumed by the @bench-smoke alias) *)
  let rec extract_loadcurve acc = function
    | "--loadcurve-json" :: path :: rest ->
      Exp_loadcurve.json_path := path;
      extract_loadcurve acc rest
    | "--copybw-json" :: path :: rest ->
      Exp_copybw.json_path := path;
      extract_loadcurve acc rest
    | "--cluster-json" :: path :: rest ->
      Exp_cluster.json_path := path;
      extract_loadcurve acc rest
    | "--pd-json" :: path :: rest ->
      Exp_pd.json_path := path;
      extract_loadcurve acc rest
    | "--tiny" :: rest ->
      Exp_loadcurve.tiny := true;
      Exp_copybw.tiny := true;
      Exp_cluster.tiny := true;
      Exp_pd.tiny := true;
      extract_loadcurve acc rest
    | "--top" :: rest ->
      Exp_loadcurve.top := true;
      extract_loadcurve acc rest
    | a :: rest -> extract_loadcurve (a :: acc) rest
    | [] -> List.rev acc
  in
  let args = extract_loadcurve [] args in
  if List.mem "--list" args then
    List.iter (fun (n, _) -> print_endline n) experiments
  else begin
    let selected =
      match args with
      | [] -> experiments
      | names ->
        List.filter_map
          (fun n ->
            match List.assoc_opt n experiments with
            | Some f -> Some (n, f)
            | None ->
              Printf.eprintf "unknown experiment %S (try --list)\n" n;
              exit 1)
          names
    in
    List.iter (fun (n, f) -> Bench_util.with_experiment n f) selected;
    if (not no_bechamel) && args = [] then run_bechamel ()
  end
