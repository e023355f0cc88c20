(* Tests for the observability library: metrics registry (histogram
   percentiles on known distributions), span collection and parenting
   across a real 2-node request_invoke chain, and a golden test that the
   Chrome-trace export parses and has balanced B/E events. *)

module Sim = Fractos_sim
module Obs = Fractos_obs
module Net = Fractos_net
module Core = Fractos_core
module Tb = Fractos_testbed.Testbed

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let ok_exn = Core.Error.ok_exn

(* ------------------------------------------------------------------ *)
(* Metrics                                                            *)
(* ------------------------------------------------------------------ *)

(* Property: for any sample, every percentile estimate is within one
   bucket's relative resolution (a factor of 2^(1/4) at 4 buckets per
   octave) of the exact percentile computed from the sorted sample. The
   exact rank mirrors the implementation's convention
   (rank = max 1 (round (p * n)), 1-indexed). Edge cases covered by the
   generator: v = 0 and v = 1 both collapse to bucket 0, whose
   representative value is 1.0 (clamped by the observed max). *)
let prop_histogram_percentiles =
  let sample_gen =
    QCheck.Gen.(
      list_size (int_range 1 200)
        (frequency
           [
             (2, int_bound 3); (* exercises the 0/1 bucket-0 edge *)
             (3, int_bound 1000);
             (3, map (fun v -> 1 + v) (int_bound 1_000_000_000));
           ]))
  in
  let arb =
    QCheck.make
      ~print:(fun vs -> String.concat "," (List.map string_of_int vs))
      sample_gen
  in
  QCheck.Test.make ~name:"percentiles within one bucket of exact" ~count:200
    arb (fun values ->
      Obs.Metrics.reset ();
      let h = Obs.Metrics.histogram ~node:"prop" "lat" in
      List.iter (Obs.Metrics.observe h) values;
      let sorted = Array.of_list (List.sort compare values) in
      let n = Array.length sorted in
      let width = Float.exp2 0.25 (* one bucket, 4 per octave *) in
      let eps = 1e-9 in
      List.for_all
        (fun p ->
          let rank =
            int_of_float
              (Float.max 1. (Float.round (p *. float_of_int n)))
          in
          let exact = float_of_int sorted.(rank - 1) in
          let est = Obs.Metrics.percentile h p in
          (* bucket 0 represents both 0 and 1 as 1.0 (clamped by the
             observed max), hence the max 1.0 on the upper bound *)
          est >= (exact /. width) -. eps
          && est <= Float.max 1.0 (exact *. width) +. eps)
        [ 0.0; 0.25; 0.5; 0.75; 0.9; 0.95; 0.99; 1.0 ])

let test_counters_gauges () =
  Obs.Metrics.reset ();
  let c = Obs.Metrics.counter ~node:"n" "c" in
  Obs.Metrics.incr c;
  Obs.Metrics.incr_by c 4;
  check_int "counter" 5 (Obs.Metrics.counter_value c);
  check_bool "one instrument per (node, name) in a run" true
    (Obs.Metrics.counter ~node:"n" "c" == c);
  check_bool "per-node" true (Obs.Metrics.counter ~node:"m" "c" != c);
  let g = Obs.Metrics.gauge ~node:"n" "g" in
  Obs.Metrics.set g 7;
  Obs.Metrics.add g (-3);
  check_int "gauge" 4 (Obs.Metrics.gauge_value g);
  check_int "peak" 7 (Obs.Metrics.gauge_max g);
  (* the next run builds its own instruments, from zero *)
  Obs.Metrics.reset ();
  let c' = Obs.Metrics.counter ~node:"n" "c" in
  check_bool "a new run, a new counter" true (c' != c);
  check_int "the new counter starts at zero" 0 (Obs.Metrics.counter_value c');
  let g' = Obs.Metrics.gauge ~node:"n" "g" in
  check_bool "a new run, a new gauge" true (g' != g);
  check_int "the new gauge's peak starts at zero" 0 (Obs.Metrics.gauge_max g')

(* Owners on one node share its rows: two endpoints feed one
   net.dup_discards, two processes one syscall.null, in the lists, the
   OpenMetrics text and a lookup by (node, name). The next run starts
   with none of them. *)
let test_owners_share_rows () =
  Tb.run (fun tb ->
      let h = Tb.add_host tb "h" and g = Tb.add_host tb "g" in
      let c = Tb.add_ctrl tb ~on:h in
      let p1 = Tb.add_proc tb ~on:h ~ctrl:c "p1" in
      let p2 = Tb.add_proc tb ~on:h ~ctrl:c "p2" in
      let fab = tb.Tb.fabric in
      let a = Net.Endpoint.create ~node:h "a" in
      let b = Net.Endpoint.create ~node:h "b" in
      Net.Fabric.set_fault_hook fab
        (Some (fun ~src:_ ~dst:_ ~cls:_ ~size:_ -> Net.Fabric.Duplicate));
      Net.Endpoint.post fab ~src:g a ~size:8 1;
      Net.Endpoint.post fab ~src:g b ~size:8 2;
      Sim.Engine.sleep (Sim.Time.us 100);
      Net.Fabric.set_fault_hook fab None;
      ok_exn (Core.Api.null p1);
      ok_exn (Core.Api.null p2);
      let rows name =
        List.filter (fun (n, m, _) -> n = "h" && m = name)
          (Obs.Metrics.counters_list ())
      in
      check_bool "one net.dup_discards row, fed by both endpoints" true
        (rows "net.dup_discards" = [ ("h", "net.dup_discards", 2) ]);
      check_int "the lookup by (node, name) reads it" 2
        (Obs.Metrics.counter_value
           (Obs.Metrics.counter ~node:"h" "net.dup_discards"));
      let nulls =
        List.filter_map
          (fun (n, m, hs) ->
            if n = "h" && m = "syscall.null" then Some hs.Obs.Metrics.hs_count
            else None)
          (Obs.Metrics.histograms_list ())
      in
      check_bool "one syscall.null row, fed by both processes" true
        (nulls = [ 2 ]);
      check_int "the lookup by (node, name) reads it" 2
        (Obs.Metrics.observations
           (Obs.Metrics.histogram ~node:"h" "syscall.null"));
      let lines =
        String.split_on_char '\n' (Obs.Openmetrics.to_string ())
      in
      let count l = List.length (List.filter (String.equal l) lines) in
      check_int "one OpenMetrics sample for the endpoints" 1
        (count "fractos_net_dup_discards_total{node=\"h\"} 2");
      check_int "one OpenMetrics count for the processes" 1
        (count "fractos_syscall_null_count{node=\"h\"} 2"));
  Tb.run (fun _ ->
      check_bool "no counter of the earlier run" true
        (Obs.Metrics.counters_list () = []);
      check_bool "no gauge of the earlier run" true
        (Obs.Metrics.gauges_list () = []);
      check_bool "no histogram of the earlier run" true
        (Obs.Metrics.histograms_list () = []);
      check_bool "nothing in the dump" true
        (Format.asprintf "%a" Obs.Metrics.pp () = "");
      check_bool "no sample in the OpenMetrics text" true
        (Obs.Openmetrics.to_string () = "# EOF\n"))

(* Uniform 1000..1000_000 in steps of 1000: percentiles are known, and
   log-bucketing guarantees ~19 % relative resolution. *)
let test_histogram_percentiles () =
  Obs.Metrics.reset ();
  let h = Obs.Metrics.histogram ~node:"n" "lat" in
  for i = 1 to 1000 do
    Obs.Metrics.observe h (i * 1000)
  done;
  check_int "n" 1000 (Obs.Metrics.observations h);
  check_int "max" 1_000_000 (Obs.Metrics.hist_max h);
  let within p exp =
    let v = Obs.Metrics.percentile h p in
    let rel = Float.abs (v -. exp) /. exp in
    if rel > 0.2 then
      Alcotest.failf "p%.0f = %.0f, expected ~%.0f (%.0f%% off)" (100. *. p) v
        exp (100. *. rel)
  in
  within 0.50 500_000.;
  within 0.95 950_000.;
  within 0.99 990_000.;
  Alcotest.(check (float 1.)) "mean is exact" 500_500. (Obs.Metrics.mean h);
  check_bool "p100 capped at observed max" true
    (Obs.Metrics.percentile h 1.0 <= 1_000_000.)

let test_histogram_point_mass () =
  Obs.Metrics.reset ();
  let h = Obs.Metrics.histogram ~node:"n" "point" in
  for _ = 1 to 100 do
    Obs.Metrics.observe h 4096
  done;
  List.iter
    (fun p ->
      let v = Obs.Metrics.percentile h p in
      check_bool "within one bucket of the point" true
        (v <= 4096. && v >= 4096. /. 1.2))
    [ 0.5; 0.95; 0.99 ]

let test_histogram_empty_and_small () =
  Obs.Metrics.reset ();
  let h = Obs.Metrics.histogram ~node:"n" "e" in
  check_bool "empty percentile is nan" true
    (Float.is_nan (Obs.Metrics.percentile h 0.5));
  check_bool "empty mean is nan" true (Float.is_nan (Obs.Metrics.mean h));
  Obs.Metrics.observe h 1;
  Alcotest.(check (float 0.)) "single 1" 1.0 (Obs.Metrics.p50 h)

(* ------------------------------------------------------------------ *)
(* Spans                                                              *)
(* ------------------------------------------------------------------ *)

let with_spans f =
  Obs.Span.reset ();
  Obs.Span.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.Span.set_enabled false) f

let test_span_nesting_basic () =
  with_spans @@ fun () ->
  Sim.Engine.run (fun () ->
      Obs.Span.with_ ~node:"x" ~name:"outer" (fun () ->
          let outer = Obs.Span.current () in
          Sim.Engine.sleep 100;
          Obs.Span.with_ ~node:"x" ~name:"inner" (fun () ->
              Sim.Engine.sleep 50;
              check_int "ambient ctx is the inner span's parent link" outer
                (Option.get (Obs.Span.find (Obs.Span.current ())))
                  .Obs.Span.sp_parent);
          Obs.Span.instant ~name:"mark" ()));
  match Obs.Span.all () with
  | [ outer; inner; mark ] ->
    check_int "outer is a root" 0 outer.Obs.Span.sp_parent;
    check_int "inner under outer" outer.Obs.Span.sp_id inner.Obs.Span.sp_parent;
    check_int "mark under outer" outer.Obs.Span.sp_id mark.Obs.Span.sp_parent;
    check_bool "outer finished" true outer.Obs.Span.sp_finished;
    check_int "outer duration" 150
      (outer.Obs.Span.sp_end - outer.Obs.Span.sp_start);
    check_int "inner duration" 50
      (inner.Obs.Span.sp_end - inner.Obs.Span.sp_start)
  | l -> Alcotest.failf "expected 3 spans, got %d" (List.length l)

let test_span_disabled_is_free () =
  Obs.Span.reset ();
  Obs.Span.set_enabled false;
  Sim.Engine.run (fun () ->
      let id = Obs.Span.start ~name:"x" () in
      check_int "id 0 when disabled" 0 id;
      Obs.Span.with_ ~name:"y" (fun () -> ()));
  check_int "nothing collected" 0 (Obs.Span.count ())

(* A real 2-node scenario: pa on node a invokes a service Request owned
   by pb's controller on node b (delegated continuation RPC), then runs a
   cross-node memory_copy. *)
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
      let cont = ok_exn (Core.Api.request_create pa ~tag:"k" ()) in
      let call = ok_exn (Core.Api.request_derive pa svc_a ~caps:[ cont ] ()) in
      ok_exn (Core.Api.request_invoke pa call);
      ignore (Core.Api.receive pa);
      let src =
        ok_exn
          (Core.Api.memory_create pa (Core.Process.alloc pa 8192) Core.Perms.ro)
      in
      let dst =
        Tb.grant ~src:pb ~dst:pa
          (ok_exn
             (Core.Api.memory_create pb (Core.Process.alloc pb 8192)
                Core.Perms.rw))
      in
      ok_exn (Core.Api.memory_copy pa ~src ~dst))

let test_span_tree_across_invoke () =
  with_spans @@ fun () ->
  run_invoke_scenario ();
  let spans = Obs.Span.all () in
  let find name = List.filter (fun s -> s.Obs.Span.sp_name = name) spans in
  let deliver =
    match find "ctrl.deliver" with
    | d :: _ -> d
    | [] -> Alcotest.fail "no ctrl.deliver span"
  in
  Alcotest.(check string) "delivered on the owner node" "b"
    deliver.Obs.Span.sp_node;
  (* the parent chain from the delivery reaches back through the peer hop
     to the client's syscall span — one connected request tree *)
  let rec ancestors acc id =
    if id = 0 then acc
    else
      match Obs.Span.find id with
      | None -> acc
      | Some s -> ancestors (s.Obs.Span.sp_name :: acc) s.Obs.Span.sp_parent
  in
  let chain = ancestors [] deliver.Obs.Span.sp_parent in
  check_bool "rooted at the client's request_invoke" true
    (List.mem "sys.request_invoke" chain);
  check_bool "crossed the peer hop" true (List.mem "ctrl.peer.invoke" chain);
  (* copy spans: chunks parent under a ctrl.copy on the source side *)
  let copies = find "ctrl.copy" in
  let chunks = find "ctrl.copy.chunk" in
  check_bool "has copy span" true (copies <> []);
  check_bool "has chunk spans" true (chunks <> []);
  List.iter
    (fun c ->
      check_bool "chunk under a copy span" true
        (List.exists (fun p -> p.Obs.Span.sp_id = c.Obs.Span.sp_parent) copies))
    chunks

(* ------------------------------------------------------------------ *)
(* Chrome-trace golden test                                           *)
(* ------------------------------------------------------------------ *)

(* A small JSON parser — enough to validate the exporter's output
   without taking a yojson dependency. *)
type json =
  | J_null
  | J_bool of bool
  | J_num of float
  | J_str of string
  | J_list of json list
  | J_obj of (string * json) list

exception Parse_error of string

let parse_json (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at %d" msg !pos)) in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let next () =
    let c = peek () in
    incr pos;
    c
  in
  let rec skip_ws () =
    match peek () with
    | ' ' | '\t' | '\n' | '\r' ->
      incr pos;
      skip_ws ()
    | _ -> ()
  in
  let expect c = if next () <> c then fail (Printf.sprintf "expected %c" c) in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match next () with
      | '"' -> Buffer.contents b
      | '\\' ->
        (match next () with
        | '"' -> Buffer.add_char b '"'
        | '\\' -> Buffer.add_char b '\\'
        | '/' -> Buffer.add_char b '/'
        | 'n' -> Buffer.add_char b '\n'
        | 't' -> Buffer.add_char b '\t'
        | 'r' -> Buffer.add_char b '\r'
        | 'b' -> Buffer.add_char b '\b'
        | 'f' -> Buffer.add_char b '\012'
        | 'u' ->
          let h = String.sub s !pos 4 in
          pos := !pos + 4;
          Buffer.add_char b (Char.chr (int_of_string ("0x" ^ h) land 0xff))
        | c -> fail (Printf.sprintf "bad escape %c" c));
        go ()
      | '\000' -> fail "unterminated string"
      | c ->
        Buffer.add_char b c;
        go ()
    in
    go ()
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | '"' -> J_str (parse_string ())
    | '{' ->
      expect '{';
      skip_ws ();
      if peek () = '}' then begin
        incr pos;
        J_obj []
      end
      else
        let rec members acc =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          skip_ws ();
          match next () with
          | ',' -> members ((k, v) :: acc)
          | '}' -> J_obj (List.rev ((k, v) :: acc))
          | _ -> fail "expected , or }"
        in
        members []
    | '[' ->
      expect '[';
      skip_ws ();
      if peek () = ']' then begin
        incr pos;
        J_list []
      end
      else
        let rec elems acc =
          let v = parse_value () in
          skip_ws ();
          match next () with
          | ',' -> elems (v :: acc)
          | ']' -> J_list (List.rev (v :: acc))
          | _ -> fail "expected , or ]"
        in
        elems []
    | 't' ->
      pos := !pos + 4;
      J_bool true
    | 'f' ->
      pos := !pos + 5;
      J_bool false
    | 'n' ->
      pos := !pos + 4;
      J_null
    | _ ->
      let start = !pos in
      let is_num c =
        (c >= '0' && c <= '9')
        || c = '-' || c = '+' || c = '.' || c = 'e' || c = 'E'
      in
      while is_num (peek ()) do
        incr pos
      done;
      if !pos = start then fail "unexpected character";
      J_num (float_of_string (String.sub s start (!pos - start)))
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let field k = function J_obj kvs -> List.assoc_opt k kvs | _ -> None

let as_str = function
  | Some (J_str s) -> s
  | _ -> Alcotest.fail "expected a string field"

let as_num = function
  | Some (J_num f) -> f
  | _ -> Alcotest.fail "expected a numeric field"

let test_chrome_trace_golden () =
  with_spans (fun () -> run_invoke_scenario ());
  let raw =
    let path = Filename.temp_file "fractos_trace" ".json" in
    Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
    Obs.Export.write_chrome_trace path;
    In_channel.with_open_text path In_channel.input_all
  in
  let j = parse_json raw in
  let evs =
    match field "traceEvents" j with
    | Some (J_list l) -> l
    | _ -> Alcotest.fail "no traceEvents array"
  in
  check_bool "nonempty" true (List.length evs > 0);
  check_bool "has metadata events" true
    (List.exists (fun ev -> as_str (field "ph" ev) = "M") evs);
  (* per-tid B/E events balance like a bracket language, LIFO by name *)
  let stacks : (int, string list ref) Hashtbl.t = Hashtbl.create 8 in
  let stack tid =
    match Hashtbl.find_opt stacks tid with
    | Some r -> r
    | None ->
      let r = ref [] in
      Hashtbl.add stacks tid r;
      r
  in
  let names = ref [] in
  let n_b = ref 0 and n_e = ref 0 in
  List.iter
    (fun ev ->
      let ph = as_str (field "ph" ev) in
      match ph with
      | "B" ->
        incr n_b;
        let tid = int_of_float (as_num (field "tid" ev)) in
        let name = as_str (field "name" ev) in
        names := name :: !names;
        let st = stack tid in
        st := name :: !st
      | "E" -> (
        incr n_e;
        let tid = int_of_float (as_num (field "tid" ev)) in
        let name = as_str (field "name" ev) in
        let st = stack tid in
        match !st with
        | top :: rest when top = name -> st := rest
        | _ -> Alcotest.failf "unbalanced E %S on tid %d" name tid)
      | _ -> ())
    evs;
  check_bool "at least one duration pair" true (!n_b > 0);
  check_int "as many E as B" !n_b !n_e;
  Hashtbl.iter
    (fun tid st ->
      if !st <> [] then
        Alcotest.failf "tid %d left open: %s" tid (String.concat "," !st))
    stacks;
  let has n = List.mem n !names in
  check_bool "invoke span exported" true (has "ctrl.invoke");
  check_bool "client syscall span exported" true (has "sys.request_invoke");
  check_bool "copy span exported" true (has "ctrl.copy")

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "fractos_obs"
    [
      ( "metrics",
        [
          Alcotest.test_case "counters and gauges" `Quick test_counters_gauges;
          Alcotest.test_case "owners on one node share its rows" `Quick
            test_owners_share_rows;
          Alcotest.test_case "percentiles on a uniform distribution" `Quick
            test_histogram_percentiles;
          Alcotest.test_case "point mass" `Quick test_histogram_point_mass;
          Alcotest.test_case "empty and small" `Quick
            test_histogram_empty_and_small;
          QCheck_alcotest.to_alcotest prop_histogram_percentiles;
        ] );
      ( "spans",
        [
          Alcotest.test_case "nesting and parenting" `Quick
            test_span_nesting_basic;
          Alcotest.test_case "disabled is free" `Quick
            test_span_disabled_is_free;
          Alcotest.test_case "tree across a 2-node invoke" `Quick
            test_span_tree_across_invoke;
        ] );
      ( "export",
        [
          Alcotest.test_case "chrome trace golden" `Quick
            test_chrome_trace_golden;
        ] );
    ]
