(* The benchmark's own logic: sample statistics, the capacity search, the
   backlog test, and agreement between the metric catalogue, the result
   line and BENCHMARK.json. *)

open Fractos_benchmark
module Json = Fractos_obs.Json

let ramp n = Array.init n (fun i -> float_of_int (i + 1))

let test_percentile () =
  let a = ramp 100 in
  Alcotest.(check (float 0.)) "p50 of 1..100" 50. (Stats.percentile a 0.5);
  Alcotest.(check (float 0.)) "p99 of 1..100" 99. (Stats.percentile a 0.99);
  Alcotest.(check (float 0.)) "p100" 100. (Stats.percentile a 1.0);
  Alcotest.(check (float 0.)) "p0 is the minimum" 1. (Stats.percentile a 0.);
  Alcotest.(check (float 0.)) "one sample" 7. (Stats.percentile [| 7. |] 0.99)

let test_p99_needs_1000 () =
  Alcotest.(check (option (float 0.)))
    "999 samples: no p99" None
    (Stats.p99 (ramp 999));
  (* at 1000 samples exactly ten lie beyond the reported value *)
  Alcotest.(check (option (float 0.)))
    "1000 samples" (Some 990.)
    (Stats.p99 (ramp 1000))

let test_median () =
  Alcotest.(check (float 0.)) "odd" 2. (Stats.median [ 3.; 1.; 2. ]);
  Alcotest.(check (float 0.)) "even" 2.5 (Stats.median [ 4.; 1.; 3.; 2. ])

let test_search () =
  let threshold = 1234.5 in
  let probed = ref 0 in
  let pass r =
    incr probed;
    r <= threshold
  in
  (match Stats.search ~lo:0. ~hi:4096. ~probes:7 pass with
  | None -> Alcotest.fail "no passing rate"
  | Some r ->
    Alcotest.(check bool) "result passed" true (r <= threshold);
    Alcotest.(check bool) "within one step" true (threshold -. r < 4096. /. 128.));
  Alcotest.(check int) "exactly the probe budget" 7 !probed;
  Alcotest.(check (option (float 0.)))
    "nothing passes" None
    (Stats.search ~lo:10. ~hi:20. ~probes:5 (fun _ -> false));
  Alcotest.(check (option (float 0.)))
    "everything passes: the highest midpoint" (Some 1984.375)
    (Stats.search ~lo:0. ~hi:2000. ~probes:7 (fun _ -> true))

let test_keeps_up () =
  let keeps ~completion_span =
    Stats.keeps_up ~arrived:1000 ~arrival_span:1_000_000 ~completed:1000
      ~completion_span
  in
  Alcotest.(check bool) "drained with the arrivals" true
    (keeps ~completion_span:1_000_000);
  Alcotest.(check bool) "a 5 % longer tail is tolerated" true
    (keeps ~completion_span:1_050_000);
  Alcotest.(check bool) "a growing backlog fails" false
    (keeps ~completion_span:1_100_000);
  Alcotest.(check bool) "failures do not count as completions" false
    (Stats.keeps_up ~arrived:1000 ~arrival_span:1_000_000 ~completed:900
       ~completion_span:1_000_000);
  Alcotest.(check bool) "an empty phase never passes" false
    (Stats.keeps_up ~arrived:0 ~arrival_span:0 ~completed:0 ~completion_span:0)

let all_metrics = Spec.end_to_end @ Spec.per_layer

let test_names () =
  List.iter
    (fun { Spec.name; _ } ->
      if not (Spec.valid_name name) then Alcotest.failf "bad metric name %S" name)
    all_metrics;
  let names = List.map (fun m -> m.Spec.name) all_metrics in
  Alcotest.(check int)
    "names are unique"
    (List.length names)
    (List.length (List.sort_uniq compare names));
  List.iter
    (fun n -> Alcotest.(check bool) n false (Spec.valid_name n))
    [ ""; "p99 us"; "crit/ctrl"; "x\"y" ]

(* BENCHMARK.json sits at the repository root; dune copies it next to the
   build tree (see this directory's dune file). *)
let benchmark_json () =
  match Json.of_file "../../BENCHMARK.json" with
  | Ok j -> j
  | Error e -> Alcotest.failf "BENCHMARK.json: %s" e

let listed j key =
  match Option.bind (Json.member key j) Json.to_list with
  | None -> Alcotest.failf "BENCHMARK.json has no %s list" key
  | Some l ->
    List.map
      (fun m ->
        match (Json.string_at [ "name" ] m, Json.string_at [ "unit" ] m) with
        | Some n, Some u -> (n, u)
        | _ -> Alcotest.failf "a %s entry lacks name or unit" key)
      l

let test_catalogue_matches_json () =
  let j = benchmark_json () in
  let pairs ms = List.sort compare (List.map (fun m -> (m.Spec.name, m.Spec.unit)) ms) in
  Alcotest.(check (list (pair string string)))
    "end_to_end" (pairs Spec.end_to_end)
    (List.sort compare (listed j "end_to_end"));
  Alcotest.(check (list (pair string string)))
    "per_layer" (pairs Spec.per_layer)
    (List.sort compare (listed j "per_layer"))

(* Every metric BENCHMARK.json lists appears, with its unit, in the result
   line of the matching run mode, and the line is valid JSON. *)
let test_result_line_covers_json () =
  let j = benchmark_json () in
  let check key metrics =
    let values = List.mapi (fun i m -> (m.Spec.name, 0.5 +. float_of_int i)) metrics in
    let line = Spec.result_line ~correct:true ~attempted:3 ~failed:0 metrics values in
    match Json.parse line with
    | Error e -> Alcotest.failf "result line is not JSON: %s" e
    | Ok out ->
      Alcotest.(check (option bool))
        "correct" (Some true)
        (Option.bind (Json.member "correct" out) Json.to_bool);
      List.iter
        (fun (name, unit) ->
          Alcotest.(check (option string))
            (key ^ " " ^ name) (Some unit)
            (Json.string_at [ "metrics"; name; "unit" ] out);
          if Json.number_at [ "metrics"; name; "value" ] out = None then
            Alcotest.failf "%s has no value" name)
        (listed j key)
  in
  check "end_to_end" Spec.end_to_end;
  check "per_layer" Spec.per_layer;
  Alcotest.check_raises "a missing value is an error" Not_found (fun () ->
      ignore (Spec.result_line ~correct:true ~attempted:1 ~failed:0 Spec.end_to_end []))

let () =
  Alcotest.run "benchmark"
    [
      ( "stats",
        [
          Alcotest.test_case "percentile" `Quick test_percentile;
          Alcotest.test_case "p99 needs 1000 samples" `Quick test_p99_needs_1000;
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "bisection" `Quick test_search;
          Alcotest.test_case "backlog" `Quick test_keeps_up;
        ] );
      ( "spec",
        [
          Alcotest.test_case "metric names" `Quick test_names;
          Alcotest.test_case "catalogue = BENCHMARK.json" `Quick
            test_catalogue_matches_json;
          Alcotest.test_case "result line covers BENCHMARK.json" `Quick
            test_result_line_covers_json;
        ] );
    ]
