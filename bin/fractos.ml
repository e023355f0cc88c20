(* The fractos CLI: run simulated FractOS scenarios from the command line.

   Subcommands:
     fractos run        an end-to-end scenario from Workloads.Scenario
     fractos primitives core-primitive latencies (null op, RPC, copy)
     fractos chaos      seeded fault injection against real workloads
     fractos config     print the fabric/device calibration constants *)

open Cmdliner
open Fractos_sim
module Net = Fractos_net
module Obs = Fractos_obs
module Core = Fractos_core
module Tb = Fractos_testbed.Testbed
module Cluster = Fractos_testbed.Cluster
module Scenario = Fractos_workloads.Scenario
open Fractos_services

let ok_exn = Core.Error.ok_exn

let placements =
  [ ("cpu", Tb.Ctrl_cpu); ("snic", Tb.Ctrl_snic); ("shared", Tb.Ctrl_shared) ]

let placement =
  Arg.(
    value
    & opt (enum placements) Tb.Ctrl_cpu
    & info [ "p"; "placement" ] ~docv:"PLACEMENT"
        ~doc:"Controller placement: cpu, snic or shared.")

let batch =
  Arg.(
    value & opt int 16
    & info [ "b"; "batch" ] ~docv:"N" ~doc:"Images per request.")

let requests =
  Arg.(
    value & opt int 8
    & info [ "n"; "requests" ] ~docv:"N" ~doc:"Number of requests to run.")

let seed =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Workload seed.")

let trace_json =
  Arg.(
    value & opt (some string) None
    & info [ "trace-json" ] ~docv:"FILE"
        ~doc:"Write a Chrome trace of the request phase to $(docv) \
              (open it at ui.perfetto.dev or chrome://tracing).")

let metrics =
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:"Print the per-node metrics registry (counters, gauges, \
              syscall latency percentiles) after the run.")

let breakdown =
  Arg.(
    value & flag
    & info [ "breakdown" ]
        ~doc:"Print the per-request critical-path disaggregation-tax \
              breakdown (ctrl/fabric/queue/device/client/idle) after the \
              run.")

let audit =
  Arg.(
    value & flag
    & info [ "audit" ]
        ~doc:"Record the capability audit log (mint/delegate/invoke/\
              revoke/drop lifecycle events) and print a summary plus the \
              lineage of a revoked capability after the run.")

let journal =
  Arg.(
    value & flag
    & info [ "journal" ]
        ~doc:"Record the flight recorder (admissions, sheds, credit \
              stalls, cache invalidations, faults) and print a \
              post-mortem dump after the run.")

let journal_cap =
  Arg.(
    value & opt int 16_384
    & info [ "journal-cap" ] ~docv:"N"
        ~doc:"Flight-recorder ring capacity; overflow drops the oldest \
              events and is counted per severity.")

let start_journal cap =
  Obs.Journal.reset ();
  Obs.Journal.set_capacity cap;
  Obs.Journal.set_enabled true

let artifacts_dir =
  Arg.(
    value & opt (some string) None
    & info [ "artifacts" ] ~docv:"DIR"
        ~doc:"Save the run's observability artifacts (metrics exposition, \
              histogram CSV, span/breakdown CSVs, journal digest, rendered \
              timeline) into $(docv) for later $(b,fractos analyze) / \
              $(b,fractos diff).")

(* ---------------- run ---------------------------------------------- *)

(* Every entry of the scenario table, for the --workload docs. *)
let workload_doc =
  String.concat ", "
    (List.map
       (fun e ->
         Printf.sprintf "$(b,%s) (%s)" (Scenario.name e) (Scenario.title e))
       Scenario.all)

let scenario cmd name =
  match Scenario.find name with
  | Ok e -> e
  | Error msg ->
    Format.eprintf "fractos %s: %s@." cmd msg;
    exit 2

let run_workload =
  Arg.(
    value
    & opt string "faceverify"
    & info [ "workload" ] ~docv:"W"
        ~doc:("Scenario to run: " ^ workload_doc ^ "."))

(* Requests go one at a time, round-robin over two clients (a mixed
   entry alternates its two halves), and all draw from one seeded
   stream. *)
let run_cmd workload placement batch requests seed trace_json metrics
    breakdown audit journal journal_cap artifacts =
  let entry = scenario "run" workload in
  let fail msg =
    Format.printf "@?";
    Format.eprintf "fractos run: %s@." msg;
    exit 1
  in
  let dims =
    { Scenario.img_size = 4096; n_images = 4096; batch; depth = 2;
      clients = 2; timeout = Time.ms 50 }
  in
  (* artifact capture needs the journal recording even when the user did
     not ask for the post-mortem dump *)
  let journal_on = journal || artifacts <> None in
  Obs.Metrics.reset ();
  if audit then begin
    (* from the very start: the lineage of a capability begins with mint
       and grant events during cluster setup *)
    Obs.Audit.reset ();
    Obs.Audit.set_enabled true
  end;
  if journal_on then start_journal journal_cap;
  try
    Tb.run ~config:(Scenario.config entry Net.Config.default) (fun tb ->
        let sc = Scenario.deploy entry dims ~placement tb in
        let c = sc.Scenario.cluster in
        let rng = Prng.create ~seed in
        Format.printf "%s on FractOS: %d requests%s@." (Scenario.title entry)
          requests sc.Scenario.detail;
        Net.Stats.reset (Cluster.stats c);
        (* trace the request phase only: setup (db population) would
           dwarf it *)
        if trace_json <> None || breakdown || artifacts <> None then begin
          Obs.Span.reset ();
          Obs.Span.set_enabled true
        end;
        for r = 1 to requests do
          let client = sc.Scenario.client ((r - 1) mod dims.Scenario.clients) in
          match
            Obs.Span.with_ ~node:"app" ~name:"request"
              ~attrs:[ ("id", string_of_int r) ]
              (client.Scenario.request rng)
          with
          | Ok { Scenario.line; bad = None } ->
            Format.printf "  request %2d: %s@." r line
          | Ok { Scenario.bad = Some why; _ } ->
            fail (Printf.sprintf "request %d: %s" r why)
          | Error e -> fail (Core.Error.to_string e)
        done;
        Format.printf "@.%s@." (sc.Scenario.summary ());
        if metrics then Format.printf "@.%a" Obs.Metrics.pp ();
        if breakdown then begin
          Obs.Span.set_enabled false;
          Format.printf "@.%a" Obs.Analysis.pp_report
            (Obs.Analysis.analyze ~root_name:"request" ())
        end;
        (match trace_json with
        | Some path -> (
          Obs.Span.set_enabled false;
          try
            Obs.Export.write_chrome_trace path;
            Format.printf "@.wrote %d spans to %s@." (Obs.Span.count ()) path
          with Sys_error msg ->
            Format.eprintf "@.fractos: cannot write trace: %s@." msg;
            exit 1)
        | None -> ());
        if audit then begin
          (* teardown: revoke the app's FS service capability, so the log
             closes with the full delegate -> invoke -> revoke lineage *)
          ignore
            (Core.Api.cap_revoke (Svc.proc c.Cluster.app) c.Cluster.fs_cap);
          Obs.Audit.set_enabled false;
          Format.printf "@.%a" Obs.Audit.dump ()
        end;
        if journal_on then Obs.Journal.set_enabled false;
        if journal then Format.printf "@.%a" Obs.Journal.dump ();
        match artifacts with
        | Some dir ->
          Obs.Span.set_enabled false;
          Obs.Artifacts.save ~dir
            ~meta:
              [
                ("scenario", "run");
                ("workload", Scenario.name entry);
                ( "placement",
                  fst (List.find (fun (_, p) -> p = placement) placements) );
                ("batch", string_of_int batch);
                ("requests", string_of_int requests);
                ("seed", string_of_int seed);
                ("elapsed_ns", string_of_int (Engine.now ()));
              ]
            ();
          Format.printf "@.saved run artifacts to %s/@." dir
        | None -> ())
  with Core.Error.Fractos e -> fail (Core.Error.to_string e)

(* ---------------- primitives --------------------------------------- *)

let primitives_cmd placement =
  Tb.run (fun tb ->
      let setups = Tb.nodes_with_ctrls tb placement [ "a"; "b" ] in
      let sa = List.nth setups 0 and sb = List.nth setups 1 in
      let pa = Tb.add_proc tb ~on:sa.Tb.node ~ctrl:sa.Tb.ctrl "pa" in
      let pb = Tb.add_proc tb ~on:sb.Tb.node ~ctrl:sb.Tb.ctrl "pb" in
      let time label f =
        f ();
        let t0 = Engine.now () in
        f ();
        Format.printf "%-32s %s@." label (Time.to_string (Engine.now () - t0))
      in
      time "null syscall" (fun () -> ok_exn (Core.Api.null pa));
      let svc = ok_exn (Core.Api.request_create pb ~tag:"svc" ()) in
      let svc_a = Tb.grant ~src:pb ~dst:pa svc in
      Engine.spawn (fun () ->
          let rec loop () =
            let d = Core.Api.receive pb in
            (match List.rev d.Core.State.d_caps with
            | k :: _ -> ignore (Core.Api.request_invoke pb k)
            | [] -> ());
            loop ()
          in
          loop ());
      time "cross-node RPC" (fun () ->
          let cont = ok_exn (Core.Api.request_create pa ~tag:"k" ()) in
          let call =
            ok_exn (Core.Api.request_derive pa svc_a ~caps:[ cont ] ())
          in
          ok_exn (Core.Api.request_invoke pa call);
          ignore (Core.Api.receive pa));
      let src =
        ok_exn (Core.Api.memory_create pa (Core.Process.alloc pa 65536) Core.Perms.ro)
      in
      let dst =
        Tb.grant ~src:pb ~dst:pa
          (ok_exn
             (Core.Api.memory_create pb (Core.Process.alloc pb 65536)
                Core.Perms.rw))
      in
      time "64 KiB memory_copy" (fun () ->
          ok_exn (Core.Api.memory_copy pa ~src ~dst));
      let h = ok_exn (Core.Api.cap_create_revtree pb svc) in
      time "revoke (revtree child)" (fun () ->
          ignore (Core.Api.cap_revoke pb h));
      Format.printf "@.controller footprint (node b):@.%a@."
        Core.Controller.pp_memory_report
        (Core.Controller.memory_report sb.Tb.ctrl))

(* ---------------- chaos -------------------------------------------- *)

(* --seeds accepts "A-B" (inclusive range) or "a,b,c". *)
let parse_seeds s =
  let bad () =
    Format.eprintf "fractos chaos: bad --seeds spec %S (want A-B or a,b,c)@."
      s;
    exit 2
  in
  match String.index_opt s '-' with
  | Some i when i > 0 -> (
    try
      let a = int_of_string (String.sub s 0 i) in
      let b = int_of_string (String.sub s (i + 1) (String.length s - i - 1)) in
      if b < a then bad () else List.init (b - a + 1) (fun k -> a + k)
    with _ -> bad ())
  | _ -> (
    try List.map int_of_string (String.split_on_char ',' (String.trim s))
    with _ -> bad ())

let chaos_cmd seed seeds faults workload clients requests journal journal_cap
    sample_keep sample_threshold_us =
  let module F = Fractos_fault in
  let spec =
    match F.Spec.of_string faults with
    | Ok s -> s
    | Error msg ->
      Format.eprintf "fractos chaos: bad --faults spec: %s@." msg;
      exit 2
  in
  let workload = scenario "chaos" workload in
  let sampling =
    match (sample_keep, sample_threshold_us) with
    | None, None -> None
    | keep, threshold ->
      Some
        ( Time.us (Option.value ~default:1000 threshold),
          Option.value ~default:0.01 keep )
  in
  let line fmt = Printf.ksprintf print_endline fmt in
  (* Prints one seed's complete output (report, sampler retention, journal
     dump) and returns whether its invariants held. *)
  let run_one seed =
    if journal then start_journal journal_cap;
    let report =
      F.Chaos.run ~clients ~requests ~workload ?sampling ~spec ~seed ()
    in
    List.iter (fun l -> line "%s" l) (F.Chaos.to_lines report);
    (if sampling <> None then begin
       let retained = Obs.Sampler.retained () in
       let n = List.length retained in
       line "retained traces (%d):" n;
       List.iteri
         (fun i (id, reason) ->
           if i < 16 then
             line "  trace %d (%s)" id (Obs.Sampler.reason_name reason)
           else if i = 16 then line "  ... (%d more)" (n - 16))
         retained;
       match Obs.Sampler.exemplars () with
       | [] -> ()
       | ex ->
         line "exemplars (histogram bucket -> retained trace):";
         List.iter
           (fun (hist, _k, upper, trace) ->
             line "  %s le=%.0fns -> trace %d" hist upper trace)
           ex
     end);
    if journal then begin
      Obs.Journal.set_enabled false;
      print_string (Format.asprintf "@.%a" Obs.Journal.dump ())
    end;
    F.Chaos.passed report
  in
  match seeds with
  | None -> if not (run_one seed) then exit 1
  | Some sspec ->
    (* A seed battery: each seed runs to the end under its own header, in
       the order given, before the next starts. *)
    let ok =
      List.fold_left
        (fun ok sd ->
          Printf.printf "=== chaos seed %d ===\n" sd;
          run_one sd && ok)
        true (parse_seeds sspec)
    in
    if not ok then exit 1

(* ---------------- config ------------------------------------------- *)

let config_cmd () =
  let c = Net.Config.default in
  let open Format in
  printf "fabric:@.";
  printf "  loopback one-way     %s@."
    (Time.to_string Net.Config.loopback_oneway);
  printf "  wire one-way         %s@." (Time.to_string Net.Config.wire_oneway);
  printf "  PCIe extra hop       %s@." (Time.to_string Net.Config.pcie_extra);
  printf "  line rate            %d Gbps@." (c.net_bandwidth_bps / 1_000_000_000);
  printf "  PCIe/DMA bandwidth   %d Gbps@."
    (Net.Config.pcie_bandwidth_bps / 1_000_000_000);
  printf "controller cost classes (host CPU):@.";
  printf "  message handling     %s@." (Time.to_string c.c_msg);
  printf "  table lookup         %s@." (Time.to_string Net.Config.c_lookup);
  printf "  (de)serialization    %s@." (Time.to_string Net.Config.c_serialize);
  printf "  capability transfer  %s@."
    (Time.to_string Net.Config.c_cap_transfer);
  printf "sNIC multipliers: msg %.1fx lookup %.1fx serialize %.1fx cap %.1fx@."
    Net.Config.snic_m_msg Net.Config.snic_m_lookup Net.Config.snic_m_serialize
    Net.Config.snic_m_cap;
  printf "devices:@.";
  printf "  NVMe 4K read         %s, write (cached) %s, QD %d@."
    (Time.to_string Net.Config.nvme_read_latency)
    (Time.to_string Net.Config.nvme_write_latency)
    c.nvme_queue_depth;
  printf "  GPU launch           %s, face-verify %s/image@."
    (Time.to_string Net.Config.gpu_launch)
    (Time.to_string Net.Config.gpu_per_image);
  printf "copy path: chunk %d KiB, double buffering %b, hw copies %b@."
    (c.bounce_chunk / 1024) c.double_buffering c.hw_copies;
  printf "  open timeout %s@." (Time.to_string Net.Config.copy_open_timeout);
  printf "congestion window: %d outstanding responses@." c.congestion_window

(* ---------------- topology ------------------------------------------ *)

let topology_cmd placement =
  Tb.run (fun tb ->
      let c = Cluster.make ~placement tb in
      Format.printf "canonical evaluation cluster:@.@.";
      let nodes = Net.Fabric.nodes tb.Tb.fabric in
      List.iter
        (fun (n : Net.Node.t) ->
          let attached =
            match n.Net.Node.attached_to with
            | Some h -> Printf.sprintf "  (on %s's PCIe)" h.Net.Node.name
            | None -> ""
          in
          Format.printf "  %-14s %s%s@." n.Net.Node.name
            (Net.Node.kind_to_string n.Net.Node.kind)
            attached)
        nodes;
      Format.printf
        "@.services: block adaptor + NVMe on 'storage', FS on 'fs', GPU \
         adaptor + GPU on 'gpu', app on 'app'@.";
      (* run a little traffic so the utilization report means something *)
      let app = c.Cluster.app in
      let proc = Fractos_services.Svc.proc app in
      ok_exn (Fractos_services.Fs.create app ~fs:c.Cluster.fs_cap ~name:"t" ~size:262_144);
      let h =
        ok_exn (Fractos_services.Fs.open_ app ~fs:c.Cluster.fs_cap ~name:"t"
                  Fractos_services.Fs.Fs_rw)
      in
      let src =
        ok_exn (Core.Api.memory_create proc (Core.Process.alloc proc 262_144)
                  Core.Perms.ro)
      in
      ok_exn (Fractos_services.Fs.write app h ~off:0 ~len:262_144 ~src);
      Format.printf "@.NIC/DMA utilization after a 256 KiB FS write:@.";
      Net.Fabric.pp_utilization Format.std_formatter
        (Net.Fabric.utilization tb.Tb.fabric ~elapsed:(Engine.now ()));
      Format.printf "@.controller memory footprints:@.";
      List.iter
        (fun ctrl ->
          Format.printf "  controller %d (%s): %.1f MiB@."
            Core.State.(ctrl.ctrl_id)
            Core.State.(ctrl.cnode.Net.Node.name)
            (float_of_int (Core.Controller.memory_report ctrl).Core.Controller.mr_total
            /. 1024. /. 1024.))
        tb.Tb.ctrls)

(* ---------------- analyze ------------------------------------------- *)

(* One deterministic measurement: an open-loop invoke workload against a
   SmartNIC-placed controller, optionally with one component's service
   time scaled — the exact-virtual-speedup probe of Obs.Whatif. It runs
   the fast-path preset the loadcurve bench sweeps (doorbell coalescing
   and translation caching on), so "which component dominates the tax at
   saturation" is answered on the configuration the paper's headline
   numbers use. *)
let whatif_measure ~rate ~n ~seed ~component ~factor =
  let module F = Fractos_fault in
  let module Loadgen = Fractos_workloads.Loadgen in
  let config =
    match component with
    | None -> Net.Config.fast_path
    | Some c -> (
      match Net.Config.scale_component Net.Config.fast_path c factor with
      | Some cfg -> cfg
      | None ->
        Format.eprintf "fractos analyze: unknown component %S@." c;
        exit 2)
  in
  Tb.run ~config (fun tb ->
      let host = Tb.add_host tb "host" in
      let ctrl = Tb.add_snic_ctrl tb ~host in
      let server = Tb.add_proc tb ~on:host ~ctrl "server" in
      let client = Tb.add_proc tb ~on:host ~ctrl "client" in
      Engine.spawn (fun () ->
          let rec loop () =
            ignore (Core.Api.receive server);
            loop ()
          in
          loop ());
      let svc = ok_exn (Core.Api.request_create server ~tag:"svc" ()) in
      let svc = Tb.grant ~src:server ~dst:client svc in
      (* warm-up populates the translation memo *)
      ok_exn (Core.Api.request_invoke client svc);
      let rng = Prng.create ~seed in
      let ok = ref 0 in
      let s =
        Loadgen.run_open_loop ~rng ~rate_per_s:rate ~n (fun _ ->
            match F.Retry.run (fun () -> Core.Api.request_invoke client svc) with
            | Ok () -> incr ok
            | Error _ -> ())
      in
      let elapsed_s = Time.to_us_f s.Loadgen.elapsed /. 1e6 in
      {
        Obs.Whatif.m_goodput =
          (if elapsed_s > 0. then float_of_int !ok /. elapsed_s else 0.);
        m_p99_us = Time.to_us_f s.Loadgen.p99;
      })

let analyze_cmd dir whatif rate n seed factors whatif_csv =
  if whatif then begin
    Format.printf
      "what-if scenario: open-loop invoke at %.0fk req/s, %d requests, snic \
       controller, seed %d@."
      (rate /. 1e3) n seed;
    Format.printf "components: %s; speedup factors: %s@.@."
      (String.concat ", " Net.Config.components)
      (String.concat ", " (List.map (Printf.sprintf "x%.2f") factors));
    let profile =
      Obs.Whatif.profile ~components:Net.Config.components ~factors
        ~measure:(fun ~component ~factor ->
          whatif_measure ~rate ~n ~seed ~component ~factor)
    in
    Format.printf "%a" Obs.Whatif.pp profile;
    match whatif_csv with
    | Some path ->
      let oc = open_out path in
      output_string oc (Obs.Whatif.to_csv profile);
      close_out oc;
      Format.printf "@.wrote what-if grid to %s@." path
    | None -> ()
  end
  else
    match dir with
    | None ->
      Format.eprintf
        "fractos analyze: pass an artifact DIR (from fractos run \
         --artifacts) or --whatif@.";
      exit 2
    | Some d -> (
      match Obs.Artifacts.load d with
      | Error msg ->
        Format.eprintf "fractos analyze: %s@." msg;
        exit 1
      | Ok a -> Format.printf "%a" Obs.Artifacts.pp a)

(* ---------------- diff ---------------------------------------------- *)

let diff_cmd dir_a dir_b threshold fail_on_change =
  match (Obs.Artifacts.load dir_a, Obs.Artifacts.load dir_b) with
  | Error msg, _ | _, Error msg ->
    Format.eprintf "fractos diff: %s@." msg;
    exit 1
  | Ok a, Ok b ->
    let d = Obs.Diff.diff ~threshold a b in
    Format.printf "%a" Obs.Diff.pp d;
    if fail_on_change && Obs.Diff.significant d then exit 1

(* ---------------- gate ---------------------------------------------- *)

let gate_cmd fresh baseline tolerance emit scale out =
  let load path =
    match Obs.Json.of_file path with
    | Ok j -> j
    | Error msg ->
      Format.eprintf "fractos gate: %s@." msg;
      exit 1
  in
  let fresh_j = load fresh in
  if emit then begin
    match Obs.Gate.extract fresh_j with
    | Error msg ->
      Format.eprintf "fractos gate: %s@." msg;
      exit 1
    | Ok metrics -> (
      let s =
        Obs.Gate.emit_string ~scale ~source:(Filename.basename fresh)
          ~tolerance:
            (Option.value ~default:Obs.Gate.default_tolerance tolerance)
          metrics
      in
      match out with
      | Some path ->
        let oc = open_out path in
        output_string oc s;
        close_out oc;
        Format.printf "wrote baseline digest to %s@." path
      | None -> print_string s)
  end
  else
    match baseline with
    | None ->
      Format.eprintf "fractos gate: --baseline FILE is required (or --emit)@.";
      exit 2
    | Some b -> (
      match
        Obs.Gate.check ?tolerance ~baseline:(load b) ~fresh:fresh_j ()
      with
      | Error msg ->
        Format.eprintf "fractos gate: %s@." msg;
        exit 1
      | Ok report ->
        Format.printf "baseline %s vs fresh %s@.%a" b fresh
          Obs.Gate.pp_result report;
        if not report.Obs.Gate.r_pass then exit 1)

(* ---------------- cmdliner wiring ----------------------------------- *)

let run_t =
  Cmd.v
    (Cmd.info "run"
       ~doc:"Run an end-to-end scenario from the scenario table")
    Term.(
      const run_cmd $ run_workload $ placement $ batch $ requests $ seed
      $ trace_json $ metrics $ breakdown $ audit $ journal $ journal_cap
      $ artifacts_dir)

let analyze_t =
  let dir =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"DIR"
          ~doc:"Artifact directory written by $(b,fractos run --artifacts).")
  in
  let whatif =
    Arg.(
      value & flag
      & info [ "whatif" ]
          ~doc:"Run the causal what-if profiler: re-run the knee scenario \
                with each component's service time scaled and rank \
                components by marginal goodput gain (exact virtual \
                speedup).")
  in
  let rate =
    Arg.(
      value & opt float 1_500_000.
      & info [ "rate" ] ~docv:"RPS"
          ~doc:"Offered open-loop load for the what-if scenario. The \
                default drives the controller well past its ~890k req/s \
                knee so goodput is capacity-bound and marginal speedups \
                are visible.")
  in
  let n =
    Arg.(
      value & opt int 2000
      & info [ "n"; "requests" ] ~docv:"N"
          ~doc:"Requests per what-if measurement.")
  in
  let factors =
    Arg.(
      value
      & opt (list float) [ 0.5; 0.75 ]
      & info [ "factors" ] ~docv:"F,..."
          ~doc:"Service-time scale factors to probe (1.0 = unchanged; 0.5 \
                = component twice as fast).")
  in
  let whatif_csv =
    Arg.(
      value & opt (some string) None
      & info [ "whatif-csv" ] ~docv:"FILE"
          ~doc:"Write the full component x factor measurement grid to \
                $(docv) as CSV.")
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:"Inspect a run's saved artifacts, or run the causal what-if \
             profiler (--whatif) for marginal disaggregation-tax \
             attribution")
    Term.(
      const analyze_cmd $ dir $ whatif $ rate $ n $ seed $ factors
      $ whatif_csv)

let diff_t =
  let dir_a =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"DIR_A" ~doc:"Baseline artifact directory.")
  in
  let dir_b =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"DIR_B" ~doc:"Candidate artifact directory.")
  in
  let threshold =
    Arg.(
      value & opt float 0.10
      & info [ "threshold" ] ~docv:"F"
          ~doc:"Significance threshold as a fraction (0.10 = 10% relative \
                change; 10 share points for breakdown categories).")
  in
  let fail_on_change =
    Arg.(
      value & flag
      & info [ "fail-on-change" ]
          ~doc:"Exit 1 when any significant change is found (for CI).")
  in
  Cmd.v
    (Cmd.info "diff"
       ~doc:"Structured A/B comparison of two runs' saved artifacts with \
             significance thresholds")
    Term.(const diff_cmd $ dir_a $ dir_b $ threshold $ fail_on_change)

let gate_t =
  let fresh =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FRESH"
          ~doc:"Freshly produced bench JSON (BENCH_loadcurve.json, \
                BENCH_cluster.json or BENCH_pd.json).")
  in
  let baseline =
    Arg.(
      value & opt (some string) None
      & info [ "baseline" ] ~docv:"FILE"
          ~doc:"Committed baseline digest (bench/baselines/*.json) or raw \
                bench JSON to compare against.")
  in
  let tolerance =
    Arg.(
      value & opt (some float) None
      & info [ "tolerance" ] ~docv:"F"
          ~doc:"Allowed fractional regression (default: the baseline's \
                embedded tolerance, else 0.10).")
  in
  let emit =
    Arg.(
      value & flag
      & info [ "emit" ]
          ~doc:"Emit a baseline digest from FRESH instead of checking it.")
  in
  let scale =
    Arg.(
      value & opt float 1.0
      & info [ "scale" ] ~docv:"F"
          ~doc:"With --emit: multiply every metric by $(docv). The gate's \
                negative self-test emits an inflated baseline to prove the \
                check fails on degradation.")
  in
  let out =
    Arg.(
      value & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE"
          ~doc:"With --emit: write the digest to $(docv) instead of stdout.")
  in
  Cmd.v
    (Cmd.info "gate"
       ~doc:"Performance regression gate: check fresh bench JSON against a \
             committed baseline within tolerance (exit 1 on regression)")
    Term.(const gate_cmd $ fresh $ baseline $ tolerance $ emit $ scale $ out)

let primitives_t =
  Cmd.v
    (Cmd.info "primitives" ~doc:"Time core FractOS primitives")
    Term.(const primitives_cmd $ placement)

let chaos_t =
  let faults =
    Arg.(
      value & opt string "default"
      & info [ "faults" ] ~docv:"SPEC"
          ~doc:"Fault spec: 'default', 'none', or comma-separated key=value \
                overrides (drop=0.05,crash=2,delay=30us,...). See HACKING.md.")
  in
  let workload =
    Arg.(
      value & opt string "mixed"
      & info [ "workload" ] ~docv:"W"
          ~doc:("Workload: " ^ workload_doc ^ "."))
  in
  let clients =
    Arg.(
      value & opt int 6
      & info [ "clients" ] ~docv:"N" ~doc:"Concurrent client fibers.")
  in
  let chaos_requests =
    Arg.(
      value & opt int 24
      & info [ "n"; "requests" ] ~docv:"N" ~doc:"Total client requests.")
  in
  let sample_keep =
    Arg.(
      value & opt (some float) None
      & info [ "sample-keep" ] ~docv:"F"
          ~doc:"Enable tail-based trace sampling, keeping fraction $(docv) \
                of healthy traces (errors, sheds and over-threshold traces \
                are always kept).")
  in
  let sample_threshold_us =
    Arg.(
      value & opt (some int) None
      & info [ "sample-threshold-us" ] ~docv:"US"
          ~doc:"Enable tail-based trace sampling; traces slower than \
                $(docv) microseconds are always kept (default 1000).")
  in
  let seeds =
    Arg.(
      value & opt (some string) None
      & info [ "seeds" ] ~docv:"A-B"
          ~doc:"Run a whole seed battery ($(docv) inclusive, or a,b,c) \
                instead of one --seed; each seed's full output is printed \
                under its own header, in the order given.")
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:"Run workloads under a seeded fault plan and check \
             failure-to-revocation invariants (exit 1 on violation)")
    Term.(
      const chaos_cmd $ seed $ seeds $ faults $ workload $ clients
      $ chaos_requests $ journal $ journal_cap $ sample_keep
      $ sample_threshold_us)

let config_t =
  Cmd.v
    (Cmd.info "config" ~doc:"Print the calibration constants")
    Term.(const config_cmd $ const ())

let topology_t =
  Cmd.v
    (Cmd.info "topology"
       ~doc:"Show the evaluation cluster, link utilization and footprints")
    Term.(const topology_cmd $ placement)

let main =
  Cmd.group
    (Cmd.info "fractos" ~version:"1.0.0"
       ~doc:"FractOS distributed-OS simulator (EuroSys'22 reproduction)")
    [
      run_t; primitives_t; chaos_t; config_t; topology_t; analyze_t; diff_t;
      gate_t;
    ]

let () = exit (Cmd.eval main)
