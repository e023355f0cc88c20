(* Tests for the what-if profiler stack and artifact tooling: the JSON
   reader, per-resource timeline interval math and resource mapping,
   Whatif ranking determinism, the bench regression gate, the artifact
   differ, and the generational Metrics.reset / OpenMetrics exposition
   interaction. *)

module Sim = Fractos_sim
module Obs = Fractos_obs

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* Json                                                                *)
(* ------------------------------------------------------------------ *)

let test_json_parse () =
  let src =
    {|{"a": [1, 2.5, true, null, "xA\n"], "b": {"c": -3e2}, "d": ""}|}
  in
  match Obs.Json.parse src with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok j ->
    (match Option.bind (Obs.Json.member "a" j) Obs.Json.to_list with
    | Some [ one; half; t; n; s ] ->
      check_bool "1" true (Obs.Json.to_float one = Some 1.0);
      check_bool "2.5" true (Obs.Json.to_float half = Some 2.5);
      check_bool "true" true (Obs.Json.to_bool t = Some true);
      check_bool "null" true (n = Obs.Json.Null);
      check_bool "escapes" true (Obs.Json.to_string s = Some "xA\n")
    | _ -> Alcotest.fail "array shape");
    check_bool "path" true (Obs.Json.number_at [ "b"; "c" ] j = Some (-300.0));
    check_bool "missing path" true (Obs.Json.number_at [ "b"; "z" ] j = None);
    check_bool "empty string" true (Obs.Json.string_at [ "d" ] j = Some "")

let test_json_rejects () =
  check_bool "trailing garbage" true
    (Result.is_error (Obs.Json.parse "{} x"));
  check_bool "bare word" true (Result.is_error (Obs.Json.parse "nope"));
  check_bool "unterminated" true (Result.is_error (Obs.Json.parse "{\"a\": "));
  check_bool "unknown escape" true
    (Result.is_error (Obs.Json.parse {|{"source": "x\q"}|}));
  check_bool "missing file" true
    (Result.is_error (Obs.Json.of_file "/nonexistent/x.json"))

(* The reader takes files from the command line (gate, diff, analyze):
   any input parses or is an [Error], never an exception. *)
let parses_or_errors s =
  match Obs.Json.parse s with Ok _ | Error _ -> true

let prop_json_random_bytes =
  QCheck.Test.make ~name:"random bytes never raise" ~count:500
    QCheck.(string_of_size Gen.(int_bound 64))
    parses_or_errors

(* Overwrite, insert or truncate at a position, applied in order to a
   valid document that exercises every value kind and escape. *)
let mutate s (pos, c, op) =
  let n = String.length s in
  let i = if n = 0 then 0 else pos mod n in
  match op mod 3 with
  | 0 when n > 0 -> String.mapi (fun j x -> if j = i then c else x) s
  | 1 -> String.sub s 0 i ^ String.make 1 c ^ String.sub s i (n - i)
  | _ -> String.sub s 0 i

let prop_json_mutated_documents =
  let doc =
    {|{"a": [1, -2.5e3, true, false, null, "xé
"\/"], "b": {"c": {}, "d": []}}|}
  in
  QCheck.Test.make ~name:"mutated documents never raise" ~count:1000
    QCheck.(list_of_size Gen.(int_range 1 4) (triple small_nat char small_nat))
    (fun muts -> parses_or_errors (List.fold_left mutate doc muts))

(* ------------------------------------------------------------------ *)
(* Timeline                                                            *)
(* ------------------------------------------------------------------ *)

let row ?(queued = 0) ~name ~node ~s ~e () =
  {
    Obs.Timeline.r_name = name;
    r_node = node;
    r_start = s;
    r_end = e;
    r_queued = queued;
  }

let test_timeline_resources () =
  let r = row ~name:"ctrl.invoke" ~node:"snic" ~s:0 ~e:10 () in
  check_str "ctrl" "ctrl@snic" (Obs.Timeline.resource_of r);
  check_str "copy" "copy@snic"
    (Obs.Timeline.resource_of { r with r_name = "ctrl.copy.chunk" });
  check_str "fabric" "fabric@snic"
    (Obs.Timeline.resource_of { r with r_name = "fabric.xfer" });
  check_str "gpu" "gpu@snic"
    (Obs.Timeline.resource_of { r with r_name = "gpu.exec" });
  check_str "client fallback" "client@snic"
    (Obs.Timeline.resource_of { r with r_name = "request" });
  check_str "adaptor charts as its device" "device@snic"
    (Obs.Timeline.resource_of { r with r_name = "adaptor.blk.read" });
  check_str "unattributed node" "ctrl@-"
    (Obs.Timeline.resource_of { r with r_node = "" })

let test_timeline_intervals () =
  let rows =
    [
      (* two overlapping ctrl spans: union [0,150), depth 2 *)
      row ~name:"ctrl.invoke" ~node:"snic" ~s:0 ~e:100 ();
      row ~name:"ctrl.invoke" ~node:"snic" ~s:50 ~e:150 ();
      (* fabric span with a leading queued share *)
      row ~name:"fabric.xfer" ~node:"ab" ~s:0 ~e:100 ~queued:40 ();
    ]
  in
  let t = Obs.Timeline.build ~buckets:10 rows in
  check_int "elapsed" 150 (Obs.Timeline.elapsed t);
  check_int "two resources" 2 (List.length t.Obs.Timeline.tl_resources);
  let find name =
    List.find
      (fun r -> r.Obs.Timeline.rs_name = name)
      t.Obs.Timeline.tl_resources
  in
  let ctrl = find "ctrl@snic" in
  check_int "ctrl busy union" 150 ctrl.Obs.Timeline.rs_busy;
  check_int "ctrl max depth" 2 ctrl.Obs.Timeline.rs_max_depth;
  check_int "ctrl spans" 2 ctrl.Obs.Timeline.rs_spans;
  let fab = find "fabric@ab" in
  check_int "fabric busy excludes queued head" 60 fab.Obs.Timeline.rs_busy;
  check_int "fabric queued" 40 fab.Obs.Timeline.rs_queued;
  check_int "heatmap width = buckets" 10
    (String.length (Obs.Timeline.heatmap ctrl))

let test_timeline_row_of_span () =
  let sp id name finished kind s e attrs =
    {
      Obs.Span.sp_id = id;
      sp_parent = 0;
      sp_name = name;
      sp_node = "n";
      sp_kind = kind;
      sp_start = s;
      sp_end = e;
      sp_finished = finished;
      sp_attrs = attrs;
    }
  in
  check_bool "unfinished dropped" true
    (Obs.Timeline.row_of_span (sp 1 "x" false Obs.Span.Complete 0 5 []) = None);
  check_bool "instant dropped" true
    (Obs.Timeline.row_of_span (sp 2 "x" true Obs.Span.Instant 3 3 []) = None);
  match
    Obs.Timeline.row_of_span
      (sp 3 "x" true Obs.Span.Complete 0 10 [ ("q", "50") ])
  with
  | None -> Alcotest.fail "finished span dropped"
  | Some r ->
    (* a queued attr larger than the span clips to the span length *)
    check_int "queued clipped" 10 r.Obs.Timeline.r_queued

(* ------------------------------------------------------------------ *)
(* Whatif                                                              *)
(* ------------------------------------------------------------------ *)

let test_whatif_ranking () =
  let measure ~component ~factor =
    ignore factor;
    match component with
    | None -> { Obs.Whatif.m_goodput = 100.0; m_p99_us = 10.0 }
    | Some "hot" -> { Obs.Whatif.m_goodput = 150.0; m_p99_us = 5.0 }
    | Some _ -> { Obs.Whatif.m_goodput = 100.0; m_p99_us = 10.0 }
  in
  let t =
    Obs.Whatif.profile ~components:[ "cold"; "hot" ] ~factors:[ 0.5 ] ~measure
  in
  check_bool "hot ranked first" true (Obs.Whatif.top t = Some "hot");
  (match t.Obs.Whatif.w_ranked with
  | [ a; b ] ->
    check_str "winner" "hot" a.Obs.Whatif.a_component;
    check_bool "gain 50%" true (abs_float (a.Obs.Whatif.a_gain -. 50.0) < 1e-9);
    check_bool "p99 drop 50%" true
      (abs_float (a.Obs.Whatif.a_p99_drop -. 50.0) < 1e-9);
    check_bool "loser gain 0" true (abs_float b.Obs.Whatif.a_gain < 1e-9)
  | _ -> Alcotest.fail "two attributions expected");
  let csv = Obs.Whatif.to_csv t in
  check_bool "csv header" true (contains ~sub:Obs.Whatif.csv_header csv);
  check_bool "csv winner row" true (contains ~sub:"1,hot,0.50,150.000" csv)

let test_whatif_tiebreak () =
  (* identical measurements: ranking must fall back to name order so the
     output is bit-deterministic *)
  let measure ~component:_ ~factor:_ =
    { Obs.Whatif.m_goodput = 100.0; m_p99_us = 10.0 }
  in
  let t =
    Obs.Whatif.profile ~components:[ "zeta"; "alpha" ] ~factors:[ 0.5 ] ~measure
  in
  match t.Obs.Whatif.w_ranked with
  | [ a; z ] ->
    check_str "alphabetical on tie" "alpha" a.Obs.Whatif.a_component;
    check_str "zeta second" "zeta" z.Obs.Whatif.a_component
  | _ -> Alcotest.fail "two attributions expected"

(* ------------------------------------------------------------------ *)
(* Gate                                                                *)
(* ------------------------------------------------------------------ *)

let loadcurve_json knee =
  Printf.sprintf
    {|{"experiment": "loadcurve", "variants": [
        {"name": "fastpath-on", "points": [
          {"offered_rps": 1, "goodput_rps": %f},
          {"offered_rps": 2, "goodput_rps": %f}]}]}|}
    (knee /. 2.0) knee

let parse s =
  match Obs.Json.parse s with
  | Ok j -> j
  | Error e -> Alcotest.failf "bad test JSON: %s" e

let test_gate_extract () =
  match Obs.Gate.extract (parse (loadcurve_json 200.0)) with
  | Error e -> Alcotest.fail e
  | Ok metrics ->
    check_bool "knee is the max goodput" true
      (metrics = [ ("knee_goodput_rps/fastpath-on", 200.0) ])

let test_gate_check () =
  let base = parse (loadcurve_json 200.0) in
  let ok r = match r with Ok g -> g | Error e -> Alcotest.fail e in
  (* identical run passes *)
  let g = ok (Obs.Gate.check ~baseline:base ~fresh:base ()) in
  check_bool "same run passes" true g.Obs.Gate.r_pass;
  (* a 25% regression fails at 10% tolerance, passes at 30% *)
  let degraded = parse (loadcurve_json 150.0) in
  let g = ok (Obs.Gate.check ~baseline:base ~fresh:degraded ()) in
  check_bool "25% drop fails" false g.Obs.Gate.r_pass;
  let g =
    ok (Obs.Gate.check ~tolerance:0.30 ~baseline:base ~fresh:degraded ())
  in
  check_bool "25% drop passes at 30% tolerance" true g.Obs.Gate.r_pass;
  (* an improvement passes and is flagged for baseline refresh *)
  let improved = parse (loadcurve_json 300.0) in
  let g = ok (Obs.Gate.check ~baseline:base ~fresh:improved ()) in
  check_bool "improvement passes" true g.Obs.Gate.r_pass;
  check_int "improvement flagged" 1 (List.length g.Obs.Gate.r_improved);
  (* wrong experiment kind is an error, not a pass *)
  check_bool "unknown experiment rejected" true
    (Result.is_error
       (Obs.Gate.check ~baseline:base
          ~fresh:(parse {|{"experiment": "nope"}|})
          ()))

let test_gate_emit_roundtrip () =
  let fresh = parse (loadcurve_json 200.0) in
  let metrics = Result.get_ok (Obs.Gate.extract fresh) in
  let digest =
    Obs.Gate.emit_string ~scale:1.3 ~source:"test" ~tolerance:0.10 metrics
  in
  let j = parse digest in
  check_bool "embedded tolerance" true
    (Obs.Gate.baseline_tolerance j = Some 0.10);
  (match Obs.Gate.metrics_of_baseline j with
  | Ok [ (name, v) ] ->
    check_str "metric name" "knee_goodput_rps/fastpath-on" name;
    check_bool "scaled by 1.3" true (abs_float (v -. 260.0) < 0.01)
  | _ -> Alcotest.fail "baseline digest did not round-trip");
  (* the inflated baseline must fail against the original run: this is
     the negative self-test the CI gate script relies on *)
  match Obs.Gate.check ~baseline:j ~fresh () with
  | Ok g -> check_bool "inflated baseline fails" false g.Obs.Gate.r_pass
  | Error e -> Alcotest.fail e

(* The digest is JSON for any source name: non-ASCII bytes and control
   characters survive emit -> parse unchanged. *)
let test_gate_emit_escapes () =
  let source = "BENCH_\xc3\xa9\t\"q\"\\\x01.json" in
  let digest =
    Obs.Gate.emit_string ~source ~tolerance:0.10 [ ("m\n", 1.0) ]
  in
  let j = parse digest in
  check_str "source" source
    (Option.value ~default:"" (Obs.Json.string_at [ "source" ] j));
  check_bool "metric name" true
    (Obs.Json.number_at [ "metrics"; "m\n" ] j = Some 1.0)

(* ------------------------------------------------------------------ *)
(* Diff                                                                *)
(* ------------------------------------------------------------------ *)

let art dir ~series ~breakdown =
  {
    Obs.Artifacts.a_dir = dir;
    a_meta = [ ("seed", dir) ];
    a_series = series;
    a_hists = [];
    a_breakdown = breakdown;
    a_requests = 1;
    a_journal = [];
    a_spans = [];
  }

let test_diff_significance () =
  let a =
    art "A"
      ~series:[ ("m", 100.0); ("steady", 50.0); ("gone", 1.0) ]
      ~breakdown:[ ("total", 100.0); ("ctrl", 50.0); ("device", 50.0) ]
  in
  let b =
    art "B"
      ~series:[ ("m", 150.0); ("steady", 52.0); ("new", 2.0) ]
      ~breakdown:[ ("total", 100.0); ("ctrl", 80.0); ("device", 20.0) ]
  in
  let d = Obs.Diff.diff ~threshold:0.10 a b in
  check_bool "significant" true (Obs.Diff.significant d);
  check_bool "meta difference surfaced" true
    (d.Obs.Diff.df_meta = [ ("seed", "A", "B") ]);
  check_bool "added" true (d.Obs.Diff.df_added = [ "new" ]);
  check_bool "removed" true (d.Obs.Diff.df_removed = [ "gone" ]);
  let keys =
    List.map (fun c -> (c.Obs.Diff.d_kind, c.Obs.Diff.d_key)) d.Obs.Diff.df_changes
  in
  check_bool "metric +50% kept" true (List.mem ("metric", "m") keys);
  check_bool "steady 4% filtered" false (List.mem ("metric", "steady") keys);
  check_bool "breakdown share shift kept" true
    (List.mem ("breakdown", "ctrl") keys);
  (* largest relative change ranks first *)
  (match d.Obs.Diff.df_changes with
  | first :: _ -> check_str "m first" "m" first.Obs.Diff.d_key
  | [] -> Alcotest.fail "no changes");
  let same = Obs.Diff.diff ~threshold:0.10 a a in
  check_bool "self-diff is quiet" false (Obs.Diff.significant same)

let mk_hist node name ~count ~v =
  {
    Obs.Artifacts.h_node = node;
    h_name = name;
    h_count = count;
    h_mean = v;
    h_p50 = v;
    h_p95 = v;
    h_p99 = v;
    h_max = v;
  }

let test_diff_appeared_vanished () =
  (* a zero-count histogram side carries NaN statistics and a zero
     baseline series has no relative delta: both used to emit NaN/inf
     rel deltas that polluted the --fail-on-change ranking; they must
     now surface as explicit appeared/vanished verdicts *)
  let nan = Float.nan in
  let a =
    {
      (art "A" ~series:[ ("errs", 0.0); ("drops", 3.0); ("m", 100.0) ]
         ~breakdown:[])
      with
      Obs.Artifacts.a_hists =
        [ mk_hist "n0" "lat" ~count:0.0 ~v:nan; mk_hist "n1" "lat" ~count:5.0 ~v:40.0 ];
    }
  in
  let b =
    {
      (art "B" ~series:[ ("errs", 7.0); ("drops", 0.0); ("m", 100.0) ]
         ~breakdown:[])
      with
      Obs.Artifacts.a_hists =
        [ mk_hist "n0" "lat" ~count:9.0 ~v:55.0; mk_hist "n1" "lat" ~count:0.0 ~v:nan ];
    }
  in
  let d = Obs.Diff.diff ~threshold:0.10 a b in
  (* no NaN/inf may reach the ranked numeric changes *)
  List.iter
    (fun c ->
      check_bool "change rel finite" true (Float.is_finite c.Obs.Diff.d_rel))
    d.Obs.Diff.df_changes;
  check_bool "zero->nonzero series appeared" true
    (List.mem ("metric", "errs", "appeared") d.Obs.Diff.df_verdicts);
  check_bool "nonzero->zero series vanished" true
    (List.mem ("metric", "drops", "vanished") d.Obs.Diff.df_verdicts);
  check_bool "zero-count hist side appeared" true
    (List.mem ("hist", "n0/lat", "appeared") d.Obs.Diff.df_verdicts);
  check_bool "counted hist going quiet vanished" true
    (List.mem ("hist", "n1/lat", "vanished") d.Obs.Diff.df_verdicts);
  check_bool "unchanged series not flagged" false
    (List.exists
       (fun c -> c.Obs.Diff.d_key = "m")
       d.Obs.Diff.df_changes);
  check_bool "verdicts count as significant" true (Obs.Diff.significant d);
  (* zero-count on both sides is not drift *)
  let a0 =
    { (art "A" ~series:[] ~breakdown:[]) with
      Obs.Artifacts.a_hists = [ mk_hist "n0" "lat" ~count:0.0 ~v:nan ] }
  in
  let b0 =
    { (art "A" ~series:[] ~breakdown:[]) with
      Obs.Artifacts.a_hists = [ mk_hist "n0" "lat" ~count:0.0 ~v:nan ] }
  in
  let q = Obs.Diff.diff ~threshold:0.10 a0 b0 in
  check_bool "both-zero hists quiet" false (Obs.Diff.significant q)

(* ------------------------------------------------------------------ *)
(* Generational Metrics.reset x OpenMetrics exposition                 *)
(* ------------------------------------------------------------------ *)

let test_exposition_across_resets () =
  Obs.Metrics.reset ();
  let c = Obs.Metrics.counter ~node:"n" "reqs" in
  Obs.Metrics.incr_by c 5;
  let h = Obs.Metrics.histogram ~node:"n" "lat" in
  Obs.Metrics.observe h 1000;
  let before = Obs.Openmetrics.to_string () in
  check_bool "counter exposed" true
    (contains ~sub:"fractos_reqs_total{node=\"n\"} 5" before);
  check_bool "histogram exposed" true
    (contains ~sub:"fractos_lat_count{node=\"n\"} 1" before);
  (* generational reset: stale instruments vanish from the exposition
     entirely — no zero-valued ghosts *)
  Obs.Metrics.reset ();
  let after = Obs.Openmetrics.to_string () in
  check_bool "stale counter gone" false (contains ~sub:"fractos_reqs" after);
  check_bool "stale histogram gone" false (contains ~sub:"fractos_lat" after);
  check_bool "still well-formed" true (contains ~sub:"# EOF" after);
  (* a pre-reset handle lazily re-zeroes on first use: the new value, not
     the pre-reset accumulation, is what gets exposed *)
  Obs.Metrics.incr_by c 2;
  Obs.Metrics.observe h 500;
  let revived = Obs.Openmetrics.to_string () in
  check_bool "revived counter re-zeroed" true
    (contains ~sub:"fractos_reqs_total{node=\"n\"} 2" revived);
  check_bool "revived histogram re-zeroed" true
    (contains ~sub:"fractos_lat_count{node=\"n\"} 1" revived);
  check_bool "revived histogram sum restarts" true
    (contains ~sub:"fractos_lat_sum{node=\"n\"} 500" revived);
  (* the CSV summary tracks the same generation *)
  let csv = Obs.Openmetrics.histograms_csv_string () in
  check_bool "csv row re-zeroed" true (contains ~sub:"n,lat,1,500" csv)

let () =
  Alcotest.run "obs-profiler"
    [
      ( "json",
        [
          Alcotest.test_case "parse" `Quick test_json_parse;
          Alcotest.test_case "rejects" `Quick test_json_rejects;
          QCheck_alcotest.to_alcotest prop_json_random_bytes;
          QCheck_alcotest.to_alcotest prop_json_mutated_documents;
        ] );
      ( "timeline",
        [
          Alcotest.test_case "resource mapping" `Quick test_timeline_resources;
          Alcotest.test_case "interval math" `Quick test_timeline_intervals;
          Alcotest.test_case "row of span" `Quick test_timeline_row_of_span;
        ] );
      ( "whatif",
        [
          Alcotest.test_case "ranking" `Quick test_whatif_ranking;
          Alcotest.test_case "deterministic tie-break" `Quick
            test_whatif_tiebreak;
        ] );
      ( "gate",
        [
          Alcotest.test_case "extract" `Quick test_gate_extract;
          Alcotest.test_case "check" `Quick test_gate_check;
          Alcotest.test_case "emit roundtrip + negative" `Quick
            test_gate_emit_roundtrip;
          Alcotest.test_case "emit escapes non-ASCII and controls" `Quick
            test_gate_emit_escapes;
        ] );
      ( "diff",
        [
          Alcotest.test_case "significance" `Quick test_diff_significance;
          Alcotest.test_case "appeared/vanished" `Quick
            test_diff_appeared_vanished;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "exposition across resets" `Quick
            test_exposition_across_resets;
        ] );
    ]
