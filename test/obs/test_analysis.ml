(* Tests for the trace-analytics layer on top of spans/metrics: golden
   critical-path breakdowns on a synthetic span tree, the breakdown of a
   real delegated-invoke + third-party-copy scenario, capability
   audit-log ordering across a subtree revocation and a stale-epoch
   rejection, OpenMetrics text-exposition round-trips, and the
   Metrics.reset handle semantics. *)

module Sim = Fractos_sim
module Obs = Fractos_obs
module Core = Fractos_core
module Tb = Fractos_testbed.Testbed

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let ok_exn = Core.Error.ok_exn

let with_spans f =
  Obs.Span.reset ();
  Obs.Span.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.Span.set_enabled false) f

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* Critical-path breakdown                                            *)
(* ------------------------------------------------------------------ *)

(* A hand-built request tree with known critical-path attribution:

     request  [0,100]                     (root; own time -> client)
       ctrl.handle [10,30]                -> ctrl 20
       (gap [30,35] between children)     -> idle 5
       gpu.exec [35,60]                   -> device 25
       fabric.xfer [60,90] with q=12      -> queue 12 + fabric 18

   plus the uncovered lead [0,10] and trail [90,100] -> client 20. *)
let test_breakdown_golden () =
  with_spans @@ fun () ->
  Sim.Engine.run (fun () ->
      Obs.Span.with_ ~node:"app" ~name:"request" (fun () ->
          Sim.Engine.sleep 10;
          Obs.Span.with_ ~node:"a" ~name:"ctrl.handle" (fun () ->
              Sim.Engine.sleep 20);
          Sim.Engine.sleep 5;
          Obs.Span.with_ ~node:"gpu" ~name:"gpu.exec" (fun () ->
              Sim.Engine.sleep 25);
          let f =
            Obs.Span.start ~node:"a" ~name:"fabric.xfer"
              ~attrs:[ ("q", "12") ] ()
          in
          Sim.Engine.sleep 30;
          Obs.Span.finish f;
          Sim.Engine.sleep 10));
  match Obs.Analysis.analyze ~root_name:"request" () with
  | [ b ] ->
    let open Obs.Analysis in
    check_int "total" 100 b.b_total;
    check_int "ctrl" 20 (get b Ctrl);
    check_int "fabric" 18 (get b Fabric);
    check_int "queue" 12 (get b Queue);
    check_int "device" 25 (get b Device);
    check_int "client" 20 (get b Client);
    check_int "idle" 5 (get b Idle);
    check_int "categories sum to total" b.b_total
      (List.fold_left (fun a (_, n) -> a + n) 0 b.b_ns);
    check_int "csv row has one field per header column"
      (List.length (String.split_on_char ',' csv_header))
      (List.length (String.split_on_char ',' (csv_row b)))
  | l -> Alcotest.failf "expected 1 breakdown, got %d" (List.length l)

(* One taxonomy: Analysis's category and Timeline's resource row both
   follow Span.layer, adaptor spans included. *)
let test_span_taxonomy () =
  List.iter
    (fun (name, cat, row) ->
      let sp =
        {
          Obs.Span.sp_id = 1;
          sp_parent = 0;
          sp_name = name;
          sp_node = "n";
          sp_kind = Obs.Span.Complete;
          sp_start = 0;
          sp_end = 1;
          sp_finished = true;
          sp_attrs = [];
        }
      in
      check_bool (name ^ " category") true
        (Obs.Analysis.category_of_span sp = cat);
      match Obs.Timeline.row_of_span sp with
      | Some r ->
        Alcotest.(check string)
          (name ^ " row") (row ^ "@n") (Obs.Timeline.resource_of r)
      | None -> Alcotest.failf "%s: no timeline row" name)
    Obs.Analysis.
      [
        ("ctrl.invoke", Ctrl, "ctrl");
        ("ctrl.copy.chunk", Ctrl, "copy");
        ("fabric.xfer", Fabric, "fabric");
        ("gpu.exec", Device, "gpu");
        ("nvme.read", Device, "nvme");
        ("adaptor.blk.read", Device, "device");
        ("adaptor.gpu.invoke", Device, "device");
        ("request", Client, "client");
      ]

(* A real 2-node scenario: pa invokes a delegated service request owned
   by pb's controller, then runs a third-party cross-node memory_copy —
   the tax categories must account for nearly all of the latency. *)
let run_invoke_scenario () =
  Tb.run (fun tb ->
      let setups = Tb.nodes_with_ctrls tb Tb.Ctrl_cpu [ "a"; "b" ] in
      let sa = List.nth setups 0 and sb = List.nth setups 1 in
      let pa = Tb.add_proc tb ~on:sa.Tb.node ~ctrl:sa.Tb.ctrl "pa" in
      let pb = Tb.add_proc tb ~on:sb.Tb.node ~ctrl:sb.Tb.ctrl "pb" in
      let svc = ok_exn (Core.Api.request_create pb ~tag:"svc" ()) in
      let svc_a = Tb.grant ~src:pb ~dst:pa svc in
      Sim.Engine.spawn (fun () ->
          let rec loop () =
            let d = Core.Api.receive pb in
            (match List.rev d.Core.State.d_caps with
            | k :: _ -> ignore (Core.Api.request_invoke pb k)
            | [] -> ());
            loop ()
          in
          loop ());
      let src =
        ok_exn
          (Core.Api.memory_create pa
             (Core.Process.alloc pa 65536)
             Core.Perms.ro)
      in
      let dst =
        Tb.grant ~src:pb ~dst:pa
          (ok_exn
             (Core.Api.memory_create pb
                (Core.Process.alloc pb 65536)
                Core.Perms.rw))
      in
      Obs.Span.with_ ~node:"a" ~name:"request" (fun () ->
          let cont = ok_exn (Core.Api.request_create pa ~tag:"k" ()) in
          let call =
            ok_exn (Core.Api.request_derive pa svc_a ~caps:[ cont ] ())
          in
          ok_exn (Core.Api.request_invoke pa call);
          ignore (Core.Api.receive pa);
          ok_exn (Core.Api.memory_copy pa ~src ~dst)))

let test_breakdown_real_scenario () =
  with_spans @@ fun () ->
  run_invoke_scenario ();
  match Obs.Analysis.analyze ~root_name:"request" () with
  | [ b ] ->
    let open Obs.Analysis in
    check_int "categories sum to total" b.b_total
      (List.fold_left (fun a (_, n) -> a + n) 0 b.b_ns);
    check_bool "spent time in controllers" true (get b Ctrl > 0);
    check_bool "spent time on the fabric" true (get b Fabric > 0);
    let covered = get b Ctrl + get b Fabric + get b Queue + get b Device in
    if 10 * covered < 9 * b.b_total then
      Alcotest.failf "tax categories cover only %d of %d ns" covered b.b_total
  | l -> Alcotest.failf "expected 1 breakdown, got %d" (List.length l)

(* ------------------------------------------------------------------ *)
(* Capability audit log                                               *)
(* ------------------------------------------------------------------ *)

let with_audit f =
  Obs.Audit.reset ();
  Obs.Audit.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.Audit.set_enabled false) f

let seq_of_kind lin k =
  match List.find_opt (fun e -> e.Obs.Audit.au_kind = k) lin with
  | Some e -> e.Obs.Audit.au_seq
  | None -> Alcotest.failf "no %s event in lineage" (Obs.Audit.kind_name k)

let test_audit_subtree_revocation () =
  Tb.run (fun tb ->
      let setups = Tb.nodes_with_ctrls tb Tb.Ctrl_cpu [ "a"; "b" ] in
      let sa = List.nth setups 0 and sb = List.nth setups 1 in
      let pa = Tb.add_proc tb ~on:sa.Tb.node ~ctrl:sa.Tb.ctrl "pa" in
      let pb = Tb.add_proc tb ~on:sb.Tb.node ~ctrl:sb.Tb.ctrl "pb" in
      with_audit @@ fun () ->
      let base = ok_exn (Core.Api.request_create pb ~tag:"t" ()) in
      let rt = ok_exn (Core.Api.cap_create_revtree pb base) in
      let rt2 = ok_exn (Core.Api.cap_create_revtree pb rt) in
      (* capture global addresses while the caps are still mapped *)
      let rt_addr =
        Option.get (Core.Controller.addr_of_cid sb.Tb.ctrl pb rt)
      in
      let rt2_addr =
        Option.get (Core.Controller.addr_of_cid sb.Tb.ctrl pb rt2)
      in
      let rt2_a = Tb.grant ~src:pb ~dst:pa rt2 in
      Sim.Engine.spawn (fun () -> ignore (Core.Api.receive pb));
      ok_exn (Core.Api.request_invoke pa rt2_a);
      Sim.Engine.sleep (Sim.Time.ms 1);
      ok_exn (Core.Api.cap_revoke pb rt);
      Sim.Engine.sleep (Sim.Time.ms 1);
      (* the delegated leaf's lineage reads mint -> delegate -> invoke ->
         revoke, in record order *)
      let lin =
        Obs.Audit.lineage ~ctrl:rt2_addr.Core.State.a_ctrl
          ~oid:rt2_addr.Core.State.a_oid
      in
      let s k = seq_of_kind lin k in
      check_bool "mint before delegate" true
        (s Obs.Audit.Mint < s Obs.Audit.Delegate);
      check_bool "delegate before invoke" true
        (s Obs.Audit.Delegate < s Obs.Audit.Invoke);
      check_bool "invoke before revoke" true
        (s Obs.Audit.Invoke < s Obs.Audit.Revoke);
      (* subtree walk order: the revoked root precedes its descendant *)
      let revokes =
        List.filter
          (fun e -> e.Obs.Audit.au_kind = Obs.Audit.Revoke)
          (Obs.Audit.events ())
      in
      let rev_seq oid =
        match List.find_opt (fun e -> e.Obs.Audit.au_oid = oid) revokes with
        | Some e -> e.Obs.Audit.au_seq
        | None -> Alcotest.failf "object %d was not revoked" oid
      in
      check_bool "subtree root revoked before its child" true
        (rev_seq rt_addr.Core.State.a_oid < rev_seq rt2_addr.Core.State.a_oid);
      (* summary counts are cumulative and cover what we did *)
      let n k = List.assoc k (Obs.Audit.summary ()) in
      check_bool "mints recorded" true (n Obs.Audit.Mint >= 3);
      check_bool "two objects revoked" true (n Obs.Audit.Revoke >= 2);
      check_bool "drops recorded for unmapped caps" true (n Obs.Audit.Drop >= 1))

let test_audit_stale_reject () =
  Tb.run (fun tb ->
      let setups = Tb.nodes_with_ctrls tb Tb.Ctrl_cpu [ "a"; "b" ] in
      let sa = List.nth setups 0 and sb = List.nth setups 1 in
      let pa = Tb.add_proc tb ~on:sa.Tb.node ~ctrl:sa.Tb.ctrl "pa" in
      let pb = Tb.add_proc tb ~on:sb.Tb.node ~ctrl:sb.Tb.ctrl "pb" in
      with_audit @@ fun () ->
      let req = ok_exn (Core.Api.request_create pb ~tag:"t" ()) in
      let addr = Option.get (Core.Controller.addr_of_cid sb.Tb.ctrl pb req) in
      let req_a = Tb.grant ~src:pb ~dst:pa req in
      Core.Controller.fail sb.Tb.ctrl;
      Core.Controller.restart sb.Tb.ctrl;
      (match Core.Api.request_invoke pa req_a with
      | Error Core.Error.Stale -> ()
      | Ok () -> Alcotest.fail "stale capability accepted"
      | Error e -> Alcotest.failf "unexpected: %s" (Core.Error.to_string e));
      check_bool "stale-epoch rejection recorded" true
        (List.exists
           (fun e ->
             e.Obs.Audit.au_kind = Obs.Audit.Stale_reject
             && e.Obs.Audit.au_oid = addr.Core.State.a_oid
             && e.Obs.Audit.au_epoch = addr.Core.State.a_epoch)
           (Obs.Audit.events ())))

let test_audit_ring_eviction () =
  Tb.run (fun _ ->
      with_audit @@ fun () ->
      Obs.Audit.set_capacity 8;
      Fun.protect ~finally:(fun () -> Obs.Audit.set_capacity (1 lsl 20))
      @@ fun () ->
      for i = 1 to 20 do
        Obs.Audit.record ~node:"n" ~kind:Obs.Audit.Mint ~ctrl:1 ~epoch:0
          ~oid:i ()
      done;
      check_int "ring holds capacity" 8 (Obs.Audit.count ());
      check_int "evicted the rest" 12 (Obs.Audit.evicted ());
      (match Obs.Audit.events () with
      | e :: _ -> check_int "oldest retained is #13" 13 e.Obs.Audit.au_oid
      | [] -> Alcotest.fail "empty ring");
      check_int "summary is cumulative across evictions" 20
        (List.assoc Obs.Audit.Mint (Obs.Audit.summary ())))

(* ------------------------------------------------------------------ *)
(* Exporters                                                          *)
(* ------------------------------------------------------------------ *)

let test_openmetrics_roundtrip () =
  Obs.Metrics.reset ();
  let c = Obs.Metrics.counter ~node:"a" "reqs done" in
  Obs.Metrics.incr_by c 7;
  let g = Obs.Metrics.gauge ~node:"a" "depth" in
  Obs.Metrics.set g 9;
  Obs.Metrics.set g 4;
  let h = Obs.Metrics.histogram ~node:"b" "lat" in
  List.iter (Obs.Metrics.observe h) [ 1000; 1000; 1000; 5000 ];
  let s = Obs.Openmetrics.to_string () in
  let lines = String.split_on_char '\n' s in
  let has l = List.mem l lines in
  check_bool "counter family typed" true
    (has "# TYPE fractos_reqs_done counter");
  check_bool "counter sample (sanitized name, _total)" true
    (has "fractos_reqs_done_total{node=\"a\"} 7");
  check_bool "gauge sample is the current value" true
    (has "fractos_depth{node=\"a\"} 4");
  check_bool "gauge peak family" true (has "fractos_depth_peak{node=\"a\"} 9");
  check_bool "histogram count" true (has "fractos_lat_count{node=\"b\"} 4");
  check_bool "histogram sum" true (has "fractos_lat_sum{node=\"b\"} 8000");
  check_bool "terminated by # EOF" true (has "# EOF");
  let buckets =
    List.filter_map
      (fun l ->
        if contains ~sub:"fractos_lat_bucket{" l then
          let i = String.rindex l ' ' in
          Some (int_of_string (String.sub l (i + 1) (String.length l - i - 1)))
        else None)
      lines
  in
  check_bool "has le buckets" true (buckets <> []);
  let rec mono = function
    | a :: (b :: _ as tl) -> a <= b && mono tl
    | _ -> true
  in
  check_bool "cumulative buckets are monotone" true (mono buckets);
  check_int "+Inf bucket equals the count" 4
    (List.nth buckets (List.length buckets - 1));
  (* histogram CSV summary covers the same registry *)
  let csv = Obs.Openmetrics.histograms_csv_string () in
  check_bool "csv header" true
    (contains ~sub:Obs.Openmetrics.histograms_csv_header csv);
  check_bool "csv row for the histogram" true (contains ~sub:"b,lat,4," csv)

let test_metrics_reset_reinterns_handles () =
  Obs.Metrics.reset ();
  let c = Obs.Metrics.counter ~node:"n" "c" in
  Obs.Metrics.incr_by c 3;
  let g = Obs.Metrics.gauge ~node:"n" "g" in
  Obs.Metrics.set g 8;
  let h = Obs.Metrics.histogram ~node:"n" "h" in
  Obs.Metrics.observe h 500;
  Obs.Metrics.reset ();
  check_int "counter re-zeroed" 0 (Obs.Metrics.counter_value c);
  check_int "gauge re-zeroed" 0 (Obs.Metrics.gauge_value g);
  check_int "gauge peak re-zeroed" 0 (Obs.Metrics.gauge_max g);
  check_int "histogram re-zeroed" 0 (Obs.Metrics.observations h);
  (* a handle obtained before the reset keeps recording into the live
     registry, not into a detached instrument *)
  Obs.Metrics.incr c;
  Obs.Metrics.observe h 100;
  check_bool "handle still interned" true
    (Obs.Metrics.counter ~node:"n" "c" == c);
  check_int "old counter handle recorded post-reset" 1
    (Obs.Metrics.counter_value (Obs.Metrics.counter ~node:"n" "c"));
  check_int "old histogram handle recorded post-reset" 1
    (Obs.Metrics.observations (Obs.Metrics.histogram ~node:"n" "h"))

let test_truncated_trace_metadata () =
  Obs.Span.reset ();
  let old_limit = Obs.Span.get_limit () in
  Obs.Span.set_limit 4;
  Obs.Span.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.Span.set_enabled false;
      Obs.Span.set_limit old_limit;
      Obs.Span.reset ())
  @@ fun () ->
  Sim.Engine.run (fun () ->
      for _ = 1 to 10 do
        Obs.Span.with_ ~name:"s" (fun () -> Sim.Engine.sleep 1)
      done);
  check_bool "spans were dropped" true (Obs.Span.dropped () > 0);
  let path = Filename.temp_file "fractos_trace" ".json" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Obs.Export.write_chrome_trace path;
  let ic = open_in path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  check_bool "dropped count surfaced in otherData" true
    (contains
       ~sub:(Printf.sprintf "\"dropped\":\"%d\"" (Obs.Span.dropped ()))
       s)

let () =
  Alcotest.run "obs-analysis"
    [
      ( "breakdown",
        [
          Alcotest.test_case "golden synthetic tree" `Quick
            test_breakdown_golden;
          Alcotest.test_case "span taxonomy shared with timeline" `Quick
            test_span_taxonomy;
          Alcotest.test_case "delegated invoke + copy" `Quick
            test_breakdown_real_scenario;
        ] );
      ( "audit",
        [
          Alcotest.test_case "subtree revocation lineage" `Quick
            test_audit_subtree_revocation;
          Alcotest.test_case "stale-epoch rejection" `Quick
            test_audit_stale_reject;
          Alcotest.test_case "ring eviction" `Quick test_audit_ring_eviction;
        ] );
      ( "export",
        [
          Alcotest.test_case "openmetrics roundtrip" `Quick
            test_openmetrics_roundtrip;
          Alcotest.test_case "metrics reset reinterns handles" `Quick
            test_metrics_reset_reinterns_handles;
          Alcotest.test_case "truncated trace metadata" `Quick
            test_truncated_trace_metadata;
        ] );
    ]
