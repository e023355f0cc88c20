(* Tests for the observability runtime added on top of metrics/spans:
   the journal flight recorder (ring overflow and severity accounting),
   OpenMetrics label-value escaping, the tail-based sampler (retention
   invariants, head-sampling bound, determinism — both in isolation and
   across two identical chaos runs). *)

module Sim = Fractos_sim
module Obs = Fractos_obs
module Fault = Fractos_fault

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Journal                                                            *)
(* ------------------------------------------------------------------ *)

let with_journal ?(capacity = 16_384) f =
  Obs.Journal.reset ();
  Obs.Journal.set_capacity capacity;
  Obs.Journal.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.Journal.set_enabled false;
      Obs.Journal.set_capacity 16_384;
      Obs.Journal.reset ())
    f

let test_journal_ring_overflow () =
  with_journal ~capacity:4 @@ fun () ->
  Sim.Engine.run (fun () ->
      (* 7 events: odd indices Debug, even Warn; first 3 kind "a" *)
      for i = 1 to 7 do
        let sev =
          if i mod 2 = 0 then Obs.Journal.Warn else Obs.Journal.Debug
        in
        Obs.Journal.record_lazy ~node:"n" ~sev
          ~kind:(if i <= 3 then "a" else "b")
          ~detail:(fun () -> string_of_int i) ()
      done;
      check_int "retained" 4 (Obs.Journal.count ());
      check_int "recorded" 7 (Obs.Journal.recorded ());
      check_int "overflowed" 3 (Obs.Journal.overflowed ());
      (* dropped events 1,2,3 = Debug, Warn, Debug *)
      check_int "overflowed debug" 2
        (Obs.Journal.overflowed_by_severity Obs.Journal.Debug);
      check_int "overflowed warn" 1
        (Obs.Journal.overflowed_by_severity Obs.Journal.Warn);
      (match Obs.Journal.events () with
      | oldest :: _ ->
        check_str "oldest survivor is event 4" "4" oldest.Obs.Journal.j_detail
      | [] -> Alcotest.fail "journal empty");
      (* per-kind summary counts everything recorded, not just retained *)
      check_int "summary a" 3 (List.assoc "a" (Obs.Journal.summary ()));
      check_int "summary b" 4 (List.assoc "b" (Obs.Journal.summary ())))

let test_journal_lazy_detail () =
  with_journal (fun () ->
      Sim.Engine.run (fun () ->
          let evaluated = ref false in
          Obs.Journal.record_lazy ~node:"n" ~sev:Obs.Journal.Error ~kind:"loud"
            ~detail:(fun () ->
              evaluated := true;
              "kept")
            ();
          check_bool "stored detail built" true !evaluated;
          check_int "retained" 1 (Obs.Journal.count ())));
  (* disabled: record sites are inert and build nothing *)
  Obs.Journal.set_enabled false;
  Obs.Journal.reset ();
  let evaluated = ref false in
  Sim.Engine.run (fun () ->
      Obs.Journal.record_lazy ~node:"n" ~sev:Obs.Journal.Error ~kind:"off"
        ~detail:(fun () ->
          evaluated := true;
          "no")
        ());
  check_bool "disabled detail not built" false !evaluated;
  check_int "disabled records nothing" 0 (Obs.Journal.recorded ())

(* ------------------------------------------------------------------ *)
(* OpenMetrics escaping                                               *)
(* ------------------------------------------------------------------ *)

let test_escape_label () =
  check_str "backslash" {|a\\b|} (Obs.Openmetrics.escape_label {|a\b|});
  check_str "quote" {|a\"b|} (Obs.Openmetrics.escape_label {|a"b|});
  check_str "newline" {|a\nb|} (Obs.Openmetrics.escape_label "a\nb");
  check_str "clean passthrough" "node-0:gpu"
    (Obs.Openmetrics.escape_label "node-0:gpu");
  (* end to end: a hostile node name must neither break a line nor leak
     an unescaped quote into the label *)
  Obs.Metrics.reset ();
  let c = Obs.Metrics.counter ~node:"evil\\x\"y\nz" "hits" in
  Obs.Metrics.incr c;
  let out = Obs.Openmetrics.to_string () in
  let expected = {|node="evil\\x\"y\nz"|} in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  check_bool "escaped label present" true (contains out expected);
  String.split_on_char '\n' out
  |> List.iter (fun line ->
         (* every non-comment line with a label set parses as
            name{...} value: exactly one '{' and the '}' after it *)
         if String.length line > 0 && line.[0] <> '#' && contains line "{"
         then
           check_bool
             ("balanced label braces: " ^ line)
             true
             (String.index line '{' < String.rindex line '}'))

(* ------------------------------------------------------------------ *)
(* Sampler                                                            *)
(* ------------------------------------------------------------------ *)

let with_sampler ~threshold ~keep f =
  Obs.Sampler.reset ();
  Obs.Sampler.configure ~threshold ~keep ();
  Obs.Sampler.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.Sampler.set_enabled false;
      Obs.Sampler.reset ())
    f

(* The synthetic request stream used by both the invariant and the
   determinism test: 1 error, 1 shed, 1 slow, 10 healthy. *)
let feed () =
  let us = Sim.Time.us in
  let obs ~trace ~latency outcome =
    ignore
      (Obs.Sampler.observe ~trace ~latency ~outcome ~hist:"req" ())
  in
  obs ~trace:1 ~latency:(us 1) (Obs.Sampler.Err "boom");
  obs ~trace:2 ~latency:(us 1) Obs.Sampler.Shed;
  obs ~trace:3 ~latency:(us 100) Obs.Sampler.Ok_;
  for i = 0 to 9 do
    obs ~trace:(10 + i) ~latency:(us 1) Obs.Sampler.Ok_
  done

let test_sampler_retention () =
  with_sampler ~threshold:(Sim.Time.us 10) ~keep:0.25 @@ fun () ->
  feed ();
  check_int "seen" 13 (Obs.Sampler.seen ());
  check_int "healthy" 10 (Obs.Sampler.healthy_seen ());
  (* every error/shed/slow trace retained, unconditionally *)
  let is_retained id = List.mem_assoc id (Obs.Sampler.retained ()) in
  check_bool "error kept" true (is_retained 1);
  check_bool "shed kept" true (is_retained 2);
  check_bool "slow kept" true (is_retained 3);
  check_int "kept by error" 1 (Obs.Sampler.kept_by Obs.Sampler.Kept_error);
  check_int "kept by shed" 1 (Obs.Sampler.kept_by Obs.Sampler.Kept_shed);
  check_int "kept by slow" 1 (Obs.Sampler.kept_by Obs.Sampler.Kept_slow);
  (* the credit accumulator keeps healthy requests 4 and 8 (0.25 * 4 =
     1.0), never exceeding ceil(keep * healthy) *)
  let head = Obs.Sampler.kept_by Obs.Sampler.Kept_head in
  check_int "head kept deterministically" 2 head;
  check_bool "head bound" true
    (float_of_int head <= Float.ceil (0.25 *. 10.));
  check_bool "healthy 4 kept" true (is_retained 13);
  check_bool "healthy 8 kept" true (is_retained 17);
  check_bool "healthy 1 dropped" false (is_retained 10);
  (* exemplars: first retained trace per (hist, bucket) wins *)
  let b_fast = Obs.Metrics.bucket_of (Sim.Time.us 1) in
  let b_slow = Obs.Metrics.bucket_of (Sim.Time.us 100) in
  let exemplar bucket =
    List.find_map
      (fun (h, k, _, trace) ->
        if h = "req" && k = bucket then Some trace else None)
      (Obs.Sampler.exemplars ())
  in
  check_int "fast bucket exemplar = first retained (the error)" 1
    (Option.get (exemplar b_fast));
  check_int "slow bucket exemplar" 3 (Option.get (exemplar b_slow))

let test_sampler_deterministic () =
  let run () =
    with_sampler ~threshold:(Sim.Time.us 10) ~keep:0.3 @@ fun () ->
    feed ();
    (Obs.Sampler.retained (), Obs.Sampler.exemplars ())
  in
  let a = run () and b = run () in
  check_bool "same stream, same retained set and exemplars" true (a = b)

(* Two identical same-seed chaos runs must agree on everything the
   sampler decided: the full rendered report (which includes the
   sampling summary line) and the retained trace set left in the
   sampler after the run. *)
let test_chaos_sampling_deterministic () =
  let spec = Fault.Spec.default in
  let go () =
    let r =
      Fault.Chaos.run ~clients:3 ~requests:12
        ~workload:(Result.get_ok (Fractos_workloads.Scenario.find "mixed"))
        ~sampling:(Sim.Time.us 500, 0.2) ~spec ~seed:1234 ()
    in
    (Fault.Chaos.to_lines r, Obs.Sampler.retained ())
  in
  let lines_a, kept_a = go () in
  let lines_b, kept_b = go () in
  check_bool "reports identical" true (lines_a = lines_b);
  check_bool "retained trace sets identical" true (kept_a = kept_b);
  check_bool "something was sampled" true (kept_a <> [])

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "fractos_obs_runtime"
    [
      ( "journal",
        [
          Alcotest.test_case "ring overflow accounting" `Quick
            test_journal_ring_overflow;
          Alcotest.test_case "lazy detail" `Quick test_journal_lazy_detail;
        ] );
      ( "openmetrics",
        [ Alcotest.test_case "label escaping" `Quick test_escape_label ] );
      ( "sampler",
        [
          Alcotest.test_case "retention invariants" `Quick
            test_sampler_retention;
          Alcotest.test_case "deterministic replay" `Quick
            test_sampler_deterministic;
          Alcotest.test_case "chaos same-seed determinism" `Quick
            test_chaos_sampling_deterministic;
        ] );
    ]
